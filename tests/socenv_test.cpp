// SocFsimEnvironmentT's divergence-aware bus I/O against the per-lane
// transposing environment it replaced (tests/lane_transpose.hpp): at every
// lane width, for both fault models, the two must drive every lane
// identically — the directed faults below push single lanes down each of
// the environment's per-lane paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cpu/asm.hpp"
#include "cpu/soc.hpp"
#include "fault/universe.hpp"
#include "fsim/fsim.hpp"
#include "lane_transpose.hpp"
#include "sbst/sbst.hpp"
#include "util/strings.hpp"

namespace olfui {
namespace {

/// The reference: transpose every bus to one value per lane, serve each
/// lane from its own RAM, transpose back.
template <int W>
class TransposingSocEnv : public FsimEnvironmentT<W> {
 public:
  TransposingSocEnv(const Soc& soc, const FlashImage& flash, int run_cycles)
      : soc_(&soc), flash_(&flash), run_cycles_(run_cycles) {
    const Netlist& nl = soc.netlist;
    for (int i = 0; i < 32; ++i) {
      iaddr_.push_back(nl.find_output(format("iaddr_o%d", i)));
      baddr_.push_back(nl.find_output(format("baddr_o%d", i)));
      bwdata_.push_back(nl.find_output(format("bwdata_o%d", i)));
    }
    bwr_ = nl.find_output("bwr_o");
    brd_ = nl.find_output("brd_o");
    halted_ = nl.find_output("halted_o");
  }

  void reset(PackedSimT<W>& sim) override {
    for (auto& r : ram_) r.clear();
    halt_seen_ = false;
    drive_mission_inputs(sim, false);
    sim.set_input_word(soc_->cpu.instr_in, 0);
    sim.set_input_word(soc_->cpu.rdata_in, 0);
    sim.eval();
    sim.clock();
    sim.clock();
  }

  bool step(PackedSimT<W>& sim, int cycle) override {
    if (cycle >= run_cycles_ || halt_seen_) return false;
    // The bus ports are flop-driven, so the cycle's stimulus is known
    // before its one eval (the FsimEnvironmentT contract).
    drive_mission_inputs(sim, true);
    const auto iaddr = read_observed_bus_lanes(sim, iaddr_);
    std::array<std::uint64_t, W> instr{};
    for (int l = 0; l < W; ++l) instr[l] = flash_->read(iaddr[l]);
    drive_bus_lanes(sim, soc_->cpu.instr_in, instr);
    const auto baddr = read_observed_bus_lanes(sim, baddr_);
    const auto bwdata = read_observed_bus_lanes(sim, bwdata_);
    const LaneWord<W> wr = sim.observed(bwr_);
    const LaneWord<W> rd = sim.observed(brd_);
    std::array<std::uint64_t, W> rdata{};
    for (int l = 0; l < W; ++l) {
      auto& ram = ram_[static_cast<std::size_t>(l)];
      if (lane_test(wr, l) && soc_->map.contains(baddr[l]))
        ram[baddr[l] & ~3ULL] = static_cast<std::uint32_t>(bwdata[l]);
      if (lane_test(rd, l)) {
        const auto it = ram.find(baddr[l] & ~3ULL);
        rdata[l] = it != ram.end() ? it->second : flash_->read(baddr[l]);
      }
    }
    drive_bus_lanes(sim, soc_->cpu.rdata_in, rdata);
    sim.eval();
    if (lane_test(sim.observed(halted_), 0)) halt_seen_ = true;
    return true;
  }

 private:
  void drive_mission_inputs(PackedSimT<W>& sim, bool rstn) {
    sim.set_input_all(soc_->cpu.rstn, rstn);
    if (soc_->config.with_scan) {
      sim.set_input_all(soc_->scan.se_net, soc_->scan.se_functional_value);
      for (const ScanChain& c : soc_->scan.chains)
        sim.set_input_all(c.scan_in_net, false);
    }
    if (soc_->config.with_debug)
      for (std::size_t i = 0; i < soc_->debug.control_inputs.size(); ++i)
        sim.set_input_all(soc_->debug.control_inputs[i],
                          soc_->debug.control_values[i]);
  }

  const Soc* soc_;
  const FlashImage* flash_;
  int run_cycles_;
  bool halt_seen_ = false;
  std::array<std::unordered_map<std::uint64_t, std::uint32_t>, W> ram_;
  std::vector<CellId> iaddr_, baddr_, bwdata_;
  CellId bwr_, brd_, halted_;
};

/// Stores a word, reads it back, stores what it read, reads that back.
constexpr const char* kStoreLoadProgram = R"(
    .org 0x78000
    li   r7, 0x40000000
    li   r1, 0x1234
    sw   r1, 0(r7)
    addi r2, r0, 1
    lw   r3, 0(r7)
    sw   r3, 4(r7)
    lw   r4, 4(r7)
    sw   r4, 8(r7)
    halt
)";

class SocEnvEquivalence : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    soc_ = build_soc({}).release();
    universe_ = new FaultUniverse(soc_->netlist);
    topo_ = new std::shared_ptr<const PackedTopology>(
        PackedTopology::build(soc_->netlist));
  }
  static void TearDownTestSuite() {
    delete topo_;
    delete universe_;
    delete soc_;
  }

  /// Port faults steering one lane down each per-lane path, both
  /// polarities (as transition faults: slow-to-rise, slow-to-fall):
  ///  - iaddr_o2: only the fetch address differs (wrong instruction);
  ///  - brd_o: only the read strobe differs;
  ///  - bwdata_o2: a different RAM word is written and later read back
  ///    (copy-on-diverge);
  ///  - baddr_o30: the write (and read) lands at an unmapped address;
  ///  - bwr_o: only the write strobe differs.
  static std::vector<FaultId> directed_faults() {
    std::vector<FaultId> out;
    for (const char* port :
         {"iaddr_o2", "brd_o", "bwdata_o2", "baddr_o30", "bwr_o"}) {
      const CellId cell = soc_->netlist.find_output(port);
      for (const bool sa1 : {false, true})
        out.push_back(universe_->id_of({cell, 1}, sa1));
    }
    return out;
  }

  /// The directed faults, then a stride sample of the universe filling
  /// the batch to W - 1 faults.
  template <int W>
  static std::vector<FaultId> batch(std::uint32_t stride) {
    std::vector<FaultId> faults = directed_faults();
    for (FaultId f = 7; faults.size() < static_cast<std::size_t>(W - 1);
         f += stride)
      faults.push_back(f % static_cast<FaultId>(universe_->size()));
    return faults;
  }

  static FlashImage flash_of(Program& p) {
    FlashImage flash(soc_->config.flash_base, soc_->config.flash_size);
    flash.load(p.base(), p.words());
    return flash;
  }

  /// Detection masks of one batch under both environments, both models,
  /// for the given observed ports.
  template <int W>
  static void expect_same_masks(const FlashImage& flash, int cycles,
                                std::span<const FaultId> faults,
                                const std::vector<CellId>& observed,
                                const std::string& what) {
    SequentialFaultSimulatorT<W> fsim(soc_->netlist, *universe_,
                                      {.max_cycles = cycles}, *topo_);
    fsim.set_observed(observed);
    SocFsimEnvironmentT<W> env(*soc_, flash, cycles);
    TransposingSocEnv<W> ref(*soc_, flash, cycles);
    const ReferenceTrace trace = fsim.record_reference_trace(env);
    EXPECT_EQ(trace.fingerprint(), fsim.record_reference_trace(ref).fingerprint())
        << what;
    const LaneMask sa = fsim.run_batch(faults, env, &trace);
    EXPECT_EQ(sa, fsim.run_batch(faults, ref, &trace)) << what << " W=" << W;
    const LaneMask tdf = fsim.run_tdf_batch(faults, env, &trace);
    EXPECT_EQ(tdf, fsim.run_tdf_batch(faults, ref, &trace))
        << what << " W=" << W;
    // The directed port faults sit on observed ports here or feed them.
    if (observed.size() == soc_->cpu.bus_output_cells.size()) {
      EXPECT_TRUE(sa.any()) << what;
      EXPECT_TRUE(tdf.any()) << what;
    }
  }

  /// Steps both environments in lockstep over identically injected
  /// simulators, checking every net of every lane each cycle; then checks
  /// that each directed lane took its path.
  template <int W>
  static void expect_lockstep(const FlashImage& flash, int cycles,
                              std::span<const FaultId> faults) {
    using Word = LaneWord<W>;
    PackedSimT<W> a(*topo_), b(*topo_);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const Fault& f = universe_->fault(faults[i]);
      Word lane{};
      set_lane(lane, static_cast<int>(i) + 1);
      a.add_injection({f.pin.cell, f.pin.pin, f.sa1, lane});
      b.add_injection({f.pin.cell, f.pin.pin, f.sa1, lane});
    }
    SocFsimEnvironmentT<W> env(*soc_, flash, cycles);
    TransposingSocEnv<W> ref(*soc_, flash, cycles);
    a.power_on();
    b.power_on();
    env.reset(a);
    ref.reset(b);
    const Netlist& nl = soc_->netlist;
    const auto port = [&](const char* name) { return nl.find_output(name); };
    std::vector<CellId> iaddr, baddr;
    for (int i = 0; i < 32; ++i) {
      iaddr.push_back(port(format("iaddr_o%d", i).c_str()));
      baddr.push_back(port(format("baddr_o%d", i).c_str()));
    }
    // Lanes 1..10 carry the directed faults, in directed_faults() order.
    bool fetch_diverged = false, read_diverged = false, write_diverged = false;
    bool unmapped_write = false, written_differs = false;
    int cycle = 0;
    for (; cycle < cycles; ++cycle) {
      const bool more = env.step(a, cycle);
      ASSERT_EQ(more, ref.step(b, cycle)) << cycle;
      if (!more) break;
      for (NetId n = 0; n < nl.num_nets(); ++n)
        ASSERT_FALSE(lane_neq(a.value(n), b.value(n)))
            << "net " << nl.net(n).name << " cycle " << cycle << " W=" << W;
      const auto ia = read_observed_bus_lanes(a, iaddr);
      const auto ba = read_observed_bus_lanes(a, baddr);
      const Word rd = a.observed(port("brd_o"));
      const Word wr = a.observed(port("bwr_o"));
      const Word& r3_bit2 = a.value(soc_->cpu.gprs[3].q[2]);
      fetch_diverged |= ia[1] != ia[0] || ia[2] != ia[0];
      read_diverged |= lane_test(rd, 3) != lane_test(rd, 0) ||
                       lane_test(rd, 4) != lane_test(rd, 0);
      write_diverged |= lane_test(wr, 9) != lane_test(wr, 0) ||
                        lane_test(wr, 10) != lane_test(wr, 0);
      for (int l : {7, 8})
        unmapped_write |= lane_test(wr, l) && !soc_->map.contains(ba[l]);
      written_differs |= lane_test(r3_bit2, 5) != lane_test(r3_bit2, 0);
      a.clock();
      b.clock();
    }
    EXPECT_GT(cycle, 8);
    EXPECT_TRUE(fetch_diverged) << "W=" << W;
    EXPECT_TRUE(read_diverged) << "W=" << W;
    EXPECT_TRUE(write_diverged) << "W=" << W;
    EXPECT_TRUE(unmapped_write) << "W=" << W;
    // bwdata_o2 s-a-0 stores 0x1230; loading it back puts it in r3.
    EXPECT_TRUE(written_differs) << "W=" << W;
  }

  template <int W>
  void check_width() {
    Program p = assemble(kStoreLoadProgram);
    const FlashImage flash = flash_of(p);
    SocSimulator good(*soc_);
    good.load_program(p);
    const int cycles = good.run(200) + kSbstCampaignMargin;
    ASSERT_TRUE(good.halted());
    ASSERT_EQ(good.ram_word(soc_->config.ram_base + 8), 0x1234u);

    const std::vector<FaultId> faults = batch<W>(977);
    expect_lockstep<W>(flash, cycles, faults);
    expect_same_masks<W>(flash, cycles, faults, soc_->cpu.bus_output_cells,
                         "store/load, system bus");
    // Stores only: the fetch and read lanes are caught (or not) through
    // what they later write, which the environment decides.
    std::vector<CellId> stores{soc_->netlist.find_output("bwr_o")};
    for (int i = 0; i < 32; ++i)
      stores.push_back(soc_->netlist.find_output(format("bwdata_o%d", i)));
    expect_same_masks<W>(flash, cycles, faults, stores, "store/load, stores");

    // One real suite program, a different sample.
    std::vector<SbstProgram> suite = build_sbst_suite(soc_->config);
    const auto it = std::find_if(suite.begin(), suite.end(),
                                 [](const SbstProgram& s) {
                                   return s.name == "loadstore";
                                 });
    ASSERT_NE(it, suite.end());
    SocSimulator run(*soc_);
    run.load_program(it->program);
    const int sbst_cycles = run.run(kSbstFunctionalCycleCap) + kSbstCampaignMargin;
    expect_same_masks<W>(flash_of(it->program), sbst_cycles, batch<W>(211),
                         soc_->cpu.bus_output_cells, "loadstore, system bus");
  }

  static Soc* soc_;
  static FaultUniverse* universe_;
  static std::shared_ptr<const PackedTopology>* topo_;
};

Soc* SocEnvEquivalence::soc_ = nullptr;
FaultUniverse* SocEnvEquivalence::universe_ = nullptr;
std::shared_ptr<const PackedTopology>* SocEnvEquivalence::topo_ = nullptr;

TEST_F(SocEnvEquivalence, Width64) { check_width<64>(); }

#if OLFUI_HAS_WIDE_LANES
TEST_F(SocEnvEquivalence, Width128) { check_width<128>(); }
TEST_F(SocEnvEquivalence, Width256) { check_width<256>(); }
#endif

}  // namespace
}  // namespace olfui
