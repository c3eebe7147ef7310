#include "scan/scan_test.hpp"

#include <cassert>
#include <stdexcept>

#include "fsim/fsim.hpp"

namespace olfui {

ScanPattern scan_pattern_from_atpg(const Netlist& nl, const ScanChains& chains,
                                   const AtpgPattern& atpg) {
  ScanPattern out;
  // Map flop output nets to (chain, position).
  std::unordered_map<NetId, std::pair<std::size_t, std::size_t>> flop_pos;
  for (std::size_t c = 0; c < chains.chains.size(); ++c) {
    const ScanChain& chain = chains.chains[c];
    out.chain_state.emplace_back(chain.elements.size(), false);
    for (std::size_t k = 0; k < chain.elements.size(); ++k)
      flop_pos[nl.cell(chain.elements[k].flop).out] = {c, k};
  }
  for (const auto& [net, value] : atpg.assignment) {
    const auto it = flop_pos.find(net);
    if (it != flop_pos.end()) {
      out.chain_state[it->second.first][it->second.second] = value;
    } else {
      out.pi[net] = value;
    }
  }
  return out;
}

ScanTestRunner::ScanTestRunner(const Netlist& nl, const ScanChains& chains)
    : nl_(&nl), chains_(&chains), topo_(PackedTopology::build(nl)) {}

void ScanTestRunner::set_pin_constraint(NetId net, bool value) {
  constraints_.emplace_back(net, value);
}

template <int W>
LaneMask ScanTestRunner::run_kernel(std::span<const FaultId> faults,
                                    const FaultUniverse& universe,
                                    const ScanPattern* pattern) const {
  using Word = LaneWord<W>;
  PackedSimT<W> sim(topo_);
  // Shifting toggles every chain flop every cycle, so the levelized sweep
  // is the kernel here. Measured on the full-config SoC (every third
  // fault, chain test then one random pattern, one thread, 256 lanes):
  // sweep 5.05 s, event-driven 8.9 s, trace replay with lane dropping
  // 4.83 s (1.04x, which does not pay for its code).
  sim.set_eval_mode(PackedEvalMode::kFullSweep);
  Word fault_lanes{};
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const Fault& f = universe.fault(faults[i]);
    Word lane{};
    set_lane(lane, static_cast<int>(i) + 1);
    fault_lanes |= lane;
    sim.add_injection({f.pin.cell, f.pin.pin, f.sa1, lane});
  }
  const auto drive_quiet_inputs = [&] {
    for (CellId c : nl_->input_cells()) sim.set_input_all(nl_->cell(c).out, false);
    for (auto [net, value] : constraints_) sim.set_input_all(net, value);
  };
  sim.power_on();
  drive_quiet_inputs();

  Word diverged{};
  const auto observe = [&](CellId port) {
    const Word& w = sim.observed(port);
    diverged |= w ^ (lane_test(w, 0) ? kAllLanes<Word> : Word{});
  };
  // One tester cycle: the inputs are driven, so settle once, observe the
  // scan-out ports if asked, and latch what the edge captures.
  const auto cycle = [&](bool observe_scan_outs) {
    sim.eval();
    if (observe_scan_outs)
      for (const ScanChain& chain : chains_->chains) observe(chain.scan_out_port);
    sim.latch();
  };
  const bool scan_value = !chains_->se_functional_value;
  sim.set_input_all(chains_->se_net, scan_value);
  std::size_t len = 0;
  for (const ScanChain& c : chains_->chains) len = std::max(len, c.elements.size());

  if (!pattern) {
    // Flush a 0-0-1-1 sequence through: exposes stuck serial links both
    // ways and slow/incomplete chains. Observe continuously.
    for (std::size_t t = 0; t < 3 * len; ++t) {
      for (const ScanChain& chain : chains_->chains)
        sim.set_input_all(chain.scan_in_net, (t / 2) % 2 == 1);
      cycle(true);
    }
  } else {
    // Shift-in: serial data such that after len cycles each element k of
    // chain c holds chain_state[c][k] (element n-1 loads first).
    for (std::size_t t = 0; t < len; ++t) {
      for (std::size_t c = 0; c < chains_->chains.size(); ++c) {
        const ScanChain& chain = chains_->chains[c];
        const std::size_t n = chain.elements.size();
        // After (len - t - 1) more shifts the value fed now sits at element
        // len - 1 - t ... clamp for shorter chains.
        sim.set_input_all(chain.scan_in_net,
                          t >= len - n &&
                              pattern->chain_state[c][n - 1 - (t - (len - n))]);
      }
      cycle(false);
    }
    // Functional capture: SE inactive, apply the pattern's primary inputs,
    // observe every primary output (tester visibility).
    drive_quiet_inputs();
    sim.set_input_all(chains_->se_net, chains_->se_functional_value);
    for (const auto& [net, value] : pattern->pi) sim.set_input_all(net, value);
    sim.eval();
    for (CellId oc : nl_->output_cells()) observe(oc);
    sim.latch();
    // Shift-out: the pattern's inputs held only for capture, so the quiet
    // inputs and pin constraints return before the unloaded state stream
    // is compared on every scan-out port.
    drive_quiet_inputs();
    sim.set_input_all(chains_->se_net, scan_value);
    for (std::size_t t = 0; t < len; ++t) cycle(true);
  }
  publish_kernel_activity(sim.activity());

  diverged &= fault_lanes;
  LaneMask detected;
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (lane_test(diverged, static_cast<int>(i) + 1)) detected.set_bit(i);
  return detected;
}

LaneMask ScanTestRunner::grade(std::span<const FaultId> faults,
                               const FaultUniverse& universe,
                               const ScanPattern* pattern) const {
  if (faults.size() >= static_cast<std::size_t>(kMaxLaneWidth))
    throw std::invalid_argument("ScanTestRunner: batch over kMaxLaneWidth - 1");
  if (faults.size() < 64) return run_kernel<64>(faults, universe, pattern);
  return run_kernel<kMaxLaneWidth>(faults, universe, pattern);
}

std::uint64_t ScanTestRunner::run_pattern(std::span<const FaultId> faults,
                                          const FaultUniverse& universe,
                                          const ScanPattern& pattern) const {
  assert(faults.size() <= 63);
  return grade(faults, universe, &pattern).word(0);
}

std::uint64_t ScanTestRunner::run_chain_test(std::span<const FaultId> faults,
                                             const FaultUniverse& universe) const {
  assert(faults.size() <= 63);
  return grade(faults, universe).word(0);
}

CampaignTest make_chain_test_campaign(const ScanTestRunner& runner,
                                      const FaultUniverse& universe) {
  CampaignTest test = make_function_test(
      "chain_test", [&runner, &universe](std::span<const FaultId> faults) {
        return runner.grade(faults, universe);
      });
  test.lane_width = kMaxLaneWidth;
  return test;
}

CampaignTest make_pattern_campaign(const ScanTestRunner& runner,
                                   const FaultUniverse& universe,
                                   const ScanPattern& pattern,
                                   std::string name) {
  CampaignTest test = make_function_test(
      std::move(name),
      [&runner, &universe, &pattern](std::span<const FaultId> faults) {
        return runner.grade(faults, universe, &pattern);
      });
  test.lane_width = kMaxLaneWidth;
  return test;
}

}  // namespace olfui
