// Trace-replay kernel equivalence: with a ReferenceTrace and the default
// kernel options, SequentialFaultSimulatorT simulates only the faulty
// machines' divergence from the recorded good machine and drops detected
// lanes. Its detection masks must equal the absolute event kernel's (no
// trace) and the full-sweep oracle's at every width, for both fault
// models; and, one level down, a replaying PackedSimT must agree with an
// absolute one on every net of every live lane, through re-arms of every
// injection site kind and through lane drops.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cpu/soc.hpp"
#include "fault/universe.hpp"
#include "fsim/fsim.hpp"
#include "sbst/sbst.hpp"

namespace olfui {
namespace {

class Replay : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    soc_ = build_soc({}).release();
    universe_ = new FaultUniverse(soc_->netlist);
    topo_ = new std::shared_ptr<const PackedTopology>(
        PackedTopology::build(soc_->netlist));
    suite_ = new std::vector<SbstProgram>(build_sbst_suite(soc_->config));
  }
  static void TearDownTestSuite() {
    delete suite_;
    delete topo_;
    delete universe_;
    delete soc_;
  }

  /// One suite program's flash image and grading budget.
  struct Workload {
    std::unique_ptr<FlashImage> flash;
    int cycles = 0;
  };
  static Workload workload(const std::string& name) {
    const auto it = std::find_if(suite_->begin(), suite_->end(),
                                 [&](const SbstProgram& p) { return p.name == name; });
    EXPECT_NE(it, suite_->end()) << name;
    Workload w;
    w.flash = std::make_unique<FlashImage>(soc_->config.flash_base,
                                           soc_->config.flash_size);
    w.flash->load(it->program.base(), it->program.words());
    SocSimulator run(*soc_);
    run.load_program(it->program);
    w.cycles = run.run(kSbstFunctionalCycleCap) + kSbstCampaignMargin;
    return w;
  }

  /// Both polarities at one pin.
  static void add_pin(std::vector<FaultId>& out, CellId cell, int pin) {
    const auto [sa0, sa1] =
        universe_->ids_at({cell, static_cast<std::uint8_t>(pin)});
    out.push_back(sa0);
    out.push_back(sa1);
  }

  /// Faults at every injection site kind the kernel treats differently:
  /// primary inputs (fetch and read data, reset), bus ports, ties, flop
  /// Q, D and RSTN pins, and combinational cells, in that order.
  static std::vector<FaultId> site_kinds() {
    const Netlist& nl = soc_->netlist;
    std::vector<FaultId> out;
    for (const NetId in : {soc_->cpu.instr_in[3], soc_->cpu.rdata_in[0],
                           soc_->cpu.rstn})
      add_pin(out, nl.net(in).driver, 0);
    for (const char* port : {"iaddr_o4", "bwdata_o1", "brd_o"})
      add_pin(out, nl.find_output(port), 1);
    for (CellId c = 0; c < nl.num_cells(); ++c)
      if (is_tie(nl.cell(c).type)) add_pin(out, c, 0);
    int resettable = 0;
    for (const CellId c : nl.flops()) {
      if (nl.cell(c).type != CellType::kDffR || ++resettable > 2) continue;
      for (int pin = 0; pin <= 2; ++pin) add_pin(out, c, pin);
    }
    const CellId pc_bit = nl.net(soc_->cpu.pc.q[3]).driver;  // toggles often
    add_pin(out, pc_bit, 0);
    add_pin(out, pc_bit, 1);
    const PackedTopology& t = **topo_;
    for (std::size_t k = 0; k < t.order.size(); k += t.order.size() / 5)
      add_pin(out, t.order[k].id, 1);
    return out;
  }

  /// The site kinds, then a stride sample of the universe filling the
  /// batch to W - 1 faults: most are never detected by one program, the
  /// port and fetch faults are detected within a few cycles, and the rest
  /// at scattered cycles, so lanes drop while the batch keeps running.
  template <int W>
  static std::vector<FaultId> mixed_batch(FaultId stride) {
    std::vector<FaultId> faults = site_kinds();
    EXPECT_LT(faults.size(), static_cast<std::size_t>(W - 1));
    for (FaultId f = 11; faults.size() < static_cast<std::size_t>(W - 1);
         f += stride)
      faults.push_back(f % static_cast<FaultId>(universe_->size()));
    return faults;
  }

  /// Fetch-address port faults only: the low bits toggle within a few
  /// instructions and the high bits are 0 throughout, so every lane is
  /// detected early and the batch ends by early exit.
  static std::vector<FaultId> early_batch() {
    std::vector<FaultId> faults;
    const auto port = [](int bit) {
      return Pin{soc_->netlist.find_output("iaddr_o" + std::to_string(bit)), 1};
    };
    for (int bit = 2; bit < 5; ++bit) add_pin(faults, port(bit).cell, 1);
    for (int bit = 20; bit < 28; ++bit)
      faults.push_back(universe_->id_of(port(bit), true));
    return faults;
  }

  template <int W>
  static LaneMask grade(SequentialFaultSimulatorT<W>& fsim, bool tdf,
                        std::span<const FaultId> faults,
                        FsimEnvironmentT<W>& env, const ReferenceTrace* trace) {
    return tdf ? fsim.run_tdf_batch(faults, env, trace)
               : fsim.run_batch(faults, env, trace);
  }

  /// Detection masks of replay, the absolute event kernel (no trace), the
  /// full-sweep oracle and the full-latch oracle must agree.
  template <int W>
  static void expect_same_masks(const Workload& w,
                                std::span<const FaultId> faults, bool tdf,
                                const std::string& what) {
    const Netlist& nl = soc_->netlist;
    const SeqFsimOptions base{.max_cycles = w.cycles};
    SequentialFaultSimulatorT<W> replay(nl, *universe_, base, *topo_);
    SequentialFaultSimulatorT<W> absolute(nl, *universe_, base, *topo_);
    SeqFsimOptions sweep_opts = base;
    sweep_opts.event_driven = false;
    SequentialFaultSimulatorT<W> sweep(nl, *universe_, sweep_opts, *topo_);
    SeqFsimOptions latch_opts = base;
    latch_opts.incremental_clocking = false;
    SequentialFaultSimulatorT<W> full_latch(nl, *universe_, latch_opts, *topo_);
    for (auto* f : {&replay, &absolute, &sweep, &full_latch})
      f->set_observed(soc_->cpu.bus_output_cells);
    SocFsimEnvironmentT<W> env(*soc_, *w.flash, w.cycles);
    const ReferenceTrace trace = replay.record_reference_trace(env);

    replay.sim().reset_activity();
    const LaneMask got = grade(replay, tdf, faults, env, &trace);
    const PackedActivity act = replay.sim().activity();
    EXPECT_GT(act.good_applied, 0u) << what;
    EXPECT_EQ(got, grade(absolute, tdf, faults, env, nullptr)) << what;
    EXPECT_EQ(got, grade(sweep, tdf, faults, env, &trace)) << what;
    EXPECT_EQ(got, grade(full_latch, tdf, faults, env, &trace)) << what;
    EXPECT_TRUE(got.any()) << what;
    // Replay did less work than the absolute kernel it matches.
    absolute.sim().reset_activity();
    grade(absolute, tdf, faults, env, nullptr);
    EXPECT_LT(act.events_drained, absolute.sim().activity().events_drained)
        << what;
    if (faults.size() + 1 == static_cast<std::size_t>(W)) {
      // The mixed batch: some lanes detected (and dropped) while others
      // run to the end undetected.
      EXPECT_GT(act.lanes_dropped, 0u) << what;
      std::size_t detected = 0;
      for (std::size_t i = 0; i < faults.size(); ++i) detected += got.bit(i);
      EXPECT_LT(detected, faults.size()) << what;
      EXPECT_EQ(act.evals, static_cast<std::uint64_t>(trace.cycles) + 3)
          << what << ": a batch with undetected lanes runs every cycle";
    }
  }

  template <int W>
  static void check_masks() {
    const Workload w = workload("loadstore");
    for (const bool tdf : {false, true}) {
      const std::string model = tdf ? "tdf" : "sa";
      expect_same_masks<W>(w, mixed_batch<W>(977), tdf,
                           model + " mixed W=" + std::to_string(W));
      expect_same_masks<W>(w, mixed_batch<W>(211), tdf,
                           model + " mixed/211 W=" + std::to_string(W));
    }
    // Early exit: every lane detected, the batch stops before the trace
    // ends (stuck-at; the TDF faults here launch too rarely).
    const std::vector<FaultId> early = early_batch();
    SequentialFaultSimulatorT<W> fsim(soc_->netlist, *universe_,
                                      {.max_cycles = w.cycles}, *topo_);
    fsim.set_observed(soc_->cpu.bus_output_cells);
    SocFsimEnvironmentT<W> env(*soc_, *w.flash, w.cycles);
    const ReferenceTrace trace = fsim.record_reference_trace(env);
    fsim.sim().reset_activity();
    const LaneMask got = fsim.run_batch(early, env, &trace);
    for (std::size_t i = 0; i < early.size(); ++i) EXPECT_TRUE(got.bit(i)) << i;
    EXPECT_LT(fsim.sim().activity().evals,
              static_cast<std::uint64_t>(trace.cycles));
    EXPECT_EQ(got, fsim.run_batch(early, env, nullptr));
  }

  /// Steps a replaying simulator and an absolute one in lockstep over the
  /// same injections, re-arming every site kind mid-run, dropping the
  /// lanes already seen on the bus and later every faulty lane; every net
  /// must agree on every live lane, every cycle.
  template <int W>
  static void check_lockstep() {
    using Word = LaneWord<W>;
    const Workload w = workload("loadstore");
    const std::vector<FaultId> faults = mixed_batch<W>(977);
    const std::size_t rearmed = site_kinds().size();
    SequentialFaultSimulatorT<W> tracer(soc_->netlist, *universe_,
                                        {.max_cycles = w.cycles}, *topo_);
    SocFsimEnvironmentT<W> env_r(*soc_, *w.flash, w.cycles);
    SocFsimEnvironmentT<W> env_a(*soc_, *w.flash, w.cycles);
    const ReferenceTrace trace = tracer.record_reference_trace(env_r);

    PackedSimT<W> rep(*topo_), ref(*topo_);
    std::vector<Word> lane(faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const Fault& f = universe_->fault(faults[i]);
      set_lane(lane[i], static_cast<int>(i) + 1);
      rep.add_injection({f.pin.cell, f.pin.pin, f.sa1, lane[i]});
      ref.add_injection({f.pin.cell, f.pin.pin, f.sa1, lane[i]});
    }
    rep.power_on();
    ref.power_on();
    env_r.reset(rep);
    env_a.reset(ref);
    rep.begin_replay(trace);
    ASSERT_TRUE(rep.replaying());

    const Netlist& nl = soc_->netlist;
    constexpr int kAllDropped = 60;
    Word live = kAllLanes<Word>;
    int cycle = 0;
    for (; cycle < trace.cycles; ++cycle) {
      // Disarm every site-kind fault, then re-arm it, on both simulators:
      // a tie forces a full sweep, a flop Q re-exposes, a combinational
      // cell is rescheduled, a port or input applies on the next read.
      if (cycle == 15 || cycle == 30) {
        for (std::size_t i = 0; i < rearmed; ++i) {
          const Word armed = cycle == 15 ? Word{} : lane[i];
          rep.set_injection_lanes(i, armed);
          ref.set_injection_lanes(i, armed);
        }
      }
      const std::uint64_t drained = rep.activity().events_drained;
      const bool more = env_r.step(rep, cycle);
      ASSERT_EQ(more, env_a.step(ref, cycle)) << cycle;
      if (!more) break;
      if (cycle > kAllDropped)
        ASSERT_LE(rep.activity().events_drained - drained, faults.size())
            << "cycle " << cycle << " W=" << W;
      for (NetId n = 0; n < nl.num_nets(); ++n)
        ASSERT_FALSE(lane_any((rep.value(n) ^ ref.value(n)) & live))
            << "net " << nl.net(n).name << " cycle " << cycle << " W=" << W;
      if (cycle % 5 == 4) {
        Word seen{};
        for (const CellId port : soc_->cpu.bus_output_cells) {
          const Word& v = ref.observed(port);
          seen |= v ^ (lane_test(v, 0) ? kAllLanes<Word> : Word{});
        }
        rep.drop_lanes(seen);
        live &= ~seen;
        set_lane(live, 0);
      }
      // Past kAllDropped only lane 0 is live: nothing diverges on a live
      // lane, so only the (always dirty) injected cells are evaluated.
      if (cycle == kAllDropped) {
        rep.drop_lanes(kAllLanes<Word>);
        live = Word{};
        set_lane(live, 0);
      }
      rep.latch();
      ref.latch();
    }
    EXPECT_GT(cycle, kAllDropped + 20);
    EXPECT_GT(rep.activity().lanes_dropped, 0u);
    EXPECT_GT(rep.activity().full_sweeps, 1u) << "the tie re-arm must sweep";
  }

  static Soc* soc_;
  static FaultUniverse* universe_;
  static std::shared_ptr<const PackedTopology>* topo_;
  static std::vector<SbstProgram>* suite_;
};

Soc* Replay::soc_ = nullptr;
FaultUniverse* Replay::universe_ = nullptr;
std::shared_ptr<const PackedTopology>* Replay::topo_ = nullptr;
std::vector<SbstProgram>* Replay::suite_ = nullptr;

TEST_F(Replay, MasksMatchOraclesWidth64) { check_masks<64>(); }
TEST_F(Replay, LockstepWidth64) { check_lockstep<64>(); }
#if OLFUI_HAS_WIDE_LANES
TEST_F(Replay, MasksMatchOraclesWidth128) { check_masks<128>(); }
TEST_F(Replay, MasksMatchOraclesWidth256) { check_masks<256>(); }
TEST_F(Replay, LockstepWidth128) { check_lockstep<128>(); }
TEST_F(Replay, LockstepWidth256) { check_lockstep<256>(); }
#endif

/// An environment that settles twice per cycle, as the SoC environment
/// did before its bus reads moved ahead of a single eval.
class TwiceEvaluatingEnv final : public FsimEnvironment {
 public:
  TwiceEvaluatingEnv(const Soc& soc, const FlashImage& flash, int cycles)
      : inner_(soc, flash, cycles) {}
  void reset(PackedSim& sim) override { inner_.reset(sim); }
  bool step(PackedSim& sim, int cycle) override {
    if (!inner_.step(sim, cycle)) return false;
    sim.eval();
    return true;
  }

 private:
  SocFsimEnvironment inner_;
};

TEST_F(Replay, SecondEvalInACycleThrows) {
  const Workload w = workload("alu_logic");
  SequentialFaultSimulator fsim(soc_->netlist, *universe_,
                                {.max_cycles = w.cycles}, *topo_);
  fsim.set_observed(soc_->cpu.bus_output_cells);
  TwiceEvaluatingEnv env(*soc_, *w.flash, w.cycles);
  // Recording and trace-less grading run the absolute kernel, where a
  // second eval is harmless; only replay relies on one eval per cycle.
  const ReferenceTrace trace = fsim.record_reference_trace(env);
  const std::vector<FaultId> faults = early_batch();
  EXPECT_NO_THROW(fsim.run_batch(faults, env, nullptr));
  EXPECT_THROW(fsim.run_batch(faults, env, &trace), std::logic_error);
}

TEST_F(Replay, DropBeforeTheCyclesEvalThrows) {
  const Workload w = workload("alu_logic");
  SequentialFaultSimulator tracer(soc_->netlist, *universe_,
                                  {.max_cycles = w.cycles}, *topo_);
  SocFsimEnvironment env(*soc_, *w.flash, w.cycles);
  const ReferenceTrace trace = tracer.record_reference_trace(env);
  PackedSim sim(*topo_);
  sim.power_on();
  env.reset(sim);
  sim.begin_replay(trace);
  EXPECT_THROW(sim.drop_lanes(~0ULL), std::logic_error);
  ASSERT_TRUE(env.step(sim, 0));
  EXPECT_NO_THROW(sim.drop_lanes(~0ULL));
}

TEST(SocFsimEnvironment, RejectsCombinationalBusPort) {
  auto soc = build_soc({});
  Netlist& nl = soc->netlist;
  const CellId port = nl.find_output("bwr_o");
  const NetId q = nl.cell(port).ins[0];
  const NetId buffered = nl.add_net("bwr_buffered");
  nl.add_cell(CellType::kBuf, "bwr_buf", buffered, {q});
  const FlashImage flash(soc->config.flash_base, soc->config.flash_size);
  const auto make_env = [&] { SocFsimEnvironment env(*soc, flash, 10); };
  EXPECT_NO_THROW(make_env());
  nl.rewire_input(port, 0, buffered);
  EXPECT_THROW(make_env(), std::invalid_argument);
}

}  // namespace
}  // namespace olfui
