// Test oracle: the two-settle 64-lane scan test kernels.
//
// ScanTestRunner grades a tester cycle as drive, one eval(), observe,
// latch(), at 64 or kMaxLaneWidth lanes. These are the kernels it
// replaced, kept as written: 63 faults at most, and every cycle runs
// eval(), observes, then clock() (latch() plus a second, unobserved
// eval()). The equivalence tests compare the runner's masks against them.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "fault/universe.hpp"
#include "scan/scan.hpp"
#include "scan/scan_test.hpp"
#include "sim/packed.hpp"

namespace olfui {

struct ScanOracle {
  const Netlist& nl;
  const ScanChains& chains;
  std::vector<std::pair<NetId, bool>> constraints;

  void inject(PackedSim& sim, std::span<const FaultId> faults,
              const FaultUniverse& universe) const {
    assert(faults.size() <= 63);
    sim.clear_injections();
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const Fault& f = universe.fault(faults[i]);
      sim.add_injection({f.pin.cell, f.pin.pin, f.sa1, 1ULL << (i + 1)});
    }
  }

  void drive_quiet_inputs(PackedSim& sim) const {
    for (CellId c : nl.input_cells()) sim.set_input_all(nl.cell(c).out, false);
    for (auto [net, value] : constraints) sim.set_input_all(net, value);
  }

  std::size_t max_chain_length() const {
    std::size_t n = 0;
    for (const ScanChain& c : chains.chains) n = std::max(n, c.elements.size());
    return n;
  }

  static std::uint64_t fault_lanes(std::size_t n) {
    return n == 0 ? 0 : n < 63 ? ((1ULL << (n + 1)) - 2) : ~1ULL;
  }

  static std::uint64_t unpack(std::uint64_t diverged, std::size_t n) {
    diverged &= fault_lanes(n);
    std::uint64_t detected = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (diverged & (1ULL << (i + 1))) detected |= 1ULL << i;
    return detected;
  }

  std::uint64_t run_pattern(std::span<const FaultId> faults,
                            const FaultUniverse& universe,
                            const ScanPattern& pattern) const {
    PackedSim sim(nl);
    sim.set_eval_mode(PackedEvalMode::kFullSweep);
    inject(sim, faults, universe);
    sim.power_on();
    drive_quiet_inputs(sim);
    std::uint64_t diverged = 0;

    const bool scan_value = !chains.se_functional_value;
    sim.set_input_all(chains.se_net, scan_value);
    const std::size_t len = max_chain_length();
    for (std::size_t t = 0; t < len; ++t) {
      for (std::size_t c = 0; c < chains.chains.size(); ++c) {
        const ScanChain& chain = chains.chains[c];
        const std::size_t n = chain.elements.size();
        bool bit = false;
        if (t >= len - n) {
          const std::size_t pos = n - 1 - (t - (len - n));
          bit = pattern.chain_state[c][pos];
        }
        sim.set_input_all(chain.scan_in_net, bit);
      }
      sim.eval();
      sim.clock();
    }

    sim.set_input_all(chains.se_net, chains.se_functional_value);
    drive_quiet_inputs(sim);
    sim.set_input_all(chains.se_net, chains.se_functional_value);
    for (const auto& [net, value] : pattern.pi) sim.set_input_all(net, value);
    sim.eval();
    for (CellId oc : nl.output_cells()) {
      const std::uint64_t w = sim.observed(oc);
      const std::uint64_t good = (w & 1ULL) ? ~0ULL : 0ULL;
      diverged |= (w ^ good);
    }
    sim.clock();

    drive_quiet_inputs(sim);
    sim.set_input_all(chains.se_net, scan_value);
    for (std::size_t t = 0; t < len; ++t) {
      sim.eval();
      for (const ScanChain& chain : chains.chains) {
        const std::uint64_t w = sim.observed(chain.scan_out_port);
        const std::uint64_t good = (w & 1ULL) ? ~0ULL : 0ULL;
        diverged |= (w ^ good);
      }
      sim.clock();
    }
    return unpack(diverged, faults.size());
  }

  std::uint64_t run_chain_test(std::span<const FaultId> faults,
                               const FaultUniverse& universe) const {
    PackedSim sim(nl);
    sim.set_eval_mode(PackedEvalMode::kFullSweep);
    inject(sim, faults, universe);
    sim.power_on();
    drive_quiet_inputs(sim);
    std::uint64_t diverged = 0;

    const bool scan_value = !chains.se_functional_value;
    sim.set_input_all(chains.se_net, scan_value);
    const std::size_t len = max_chain_length();
    for (std::size_t t = 0; t < len + 2 * len; ++t) {
      const bool bit = (t / 2) % 2 == 1;
      for (const ScanChain& chain : chains.chains)
        sim.set_input_all(chain.scan_in_net, bit);
      sim.eval();
      for (const ScanChain& chain : chains.chains) {
        const std::uint64_t w = sim.observed(chain.scan_out_port);
        const std::uint64_t good = (w & 1ULL) ? ~0ULL : 0ULL;
        diverged |= (w ^ good);
      }
      sim.clock();
    }
    return unpack(diverged, faults.size());
  }

  /// Any number of faults, graded 63 at a time into one wide mask.
  LaneMask grade(std::span<const FaultId> faults, const FaultUniverse& universe,
                 const ScanPattern* pattern) const {
    LaneMask out;
    for (std::size_t i = 0; i < faults.size(); i += 63) {
      const auto part = faults.subspan(i, std::min<std::size_t>(63, faults.size() - i));
      const std::uint64_t m = pattern ? run_pattern(part, universe, *pattern)
                                      : run_chain_test(part, universe);
      for (std::size_t j = 0; j < part.size(); ++j)
        if ((m >> j) & 1ULL) out.set_bit(static_cast<int>(i + j));
    }
    return out;
  }
};

}  // namespace olfui
