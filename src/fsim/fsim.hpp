// olfui/fsim: stuck-at fault simulation.
//
// Two engines share the W-lane packed kernel (W = 64 scalar by default;
// 128/256 over vector extensions — see util/lanes.hpp):
//
//  * SequentialFaultSimulator — parallel-fault: lane 0 runs the good
//    machine, lanes 1..W-1 run faulty machines, the whole test program is
//    simulated cycle by cycle, and a fault counts as DETECTED only when a
//    faulty lane diverges from the good lane on one of the *observed*
//    outputs. Matching the paper's rule, the SBST flow observes only the
//    system-bus ports ("the evaluation of the fault coverage ... is
//    obtained by only observing the system bus").
//    The environment callback makes stimuli reactive: the memory model
//    answers per-lane, so a faulty machine that issues a wrong address
//    reads wrong data, exactly as on silicon. Given the test's recorded
//    good machine (ReferenceTrace), a batch runs as concurrent fault
//    simulation instead: the kernel replays the trace for every net the
//    faults have not reached and drops each lane once its fault is
//    detected (trace replay, sim/packed.hpp); the full simulation of
//    every lane stays as the oracle it must match.
//
//  * parallel-pattern combinational simulation (PPSF) — 64 patterns per
//    pass for one fault; used for ATPG validation and property tests.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "fault/fault_list.hpp"
#include "fault/universe.hpp"
#include "netlist/netlist.hpp"
#include "sim/packed.hpp"
#include "util/bitvec.hpp"
#include "util/lanes.hpp"

namespace olfui {

/// Drives the design-under-test's inputs each cycle. The simulator
/// latches between steps without settling (PackedSimT::latch), so every
/// step calls sim.eval() exactly once, after driving all of the cycle's
/// inputs: under trace replay a second eval throws. A stimulus that
/// depends on the design's outputs (a memory answering an address) must
/// read flop-driven ports, which are current before that eval.
template <int W>
class FsimEnvironmentT {
 public:
  virtual ~FsimEnvironmentT() = default;
  /// Called once per batch after power_on(); applies the reset sequence
  /// (free to eval and clock as it likes) and leaves the logic settled.
  virtual void reset(PackedSimT<W>& sim) = 0;
  /// Drives inputs for one cycle and settles the logic with one eval().
  /// Returns false, without evaluating, to end the run early (e.g. the
  /// good machine executed HALT).
  virtual bool step(PackedSimT<W>& sim, int cycle) = 0;
};

/// The scalar 64-lane environment interface (the pre-width-parametric name).
using FsimEnvironment = FsimEnvironmentT<64>;

struct SeqFsimOptions {
  int max_cycles = 100000;
  /// Stop a batch as soon as every faulty lane has diverged.
  bool early_exit = true;
  /// Use the event-driven packed kernel; false forces the levelized
  /// full-sweep oracle. Both produce bit-identical results.
  bool event_driven = true;
  /// Use dirty-D incremental clocking (latch only flops whose D input
  /// changed since their last edge); false forces the full two-pass latch
  /// oracle. Both produce bit-identical results.
  bool incremental_clocking = true;
  /// Requested packed width (64/128/256). The simulator's width is its
  /// template parameter; this field lets width travel with the options
  /// through specs and CLI plumbing (resolve_lane_width applies the
  /// build's fallback rule). Detection sets are bit-identical at every
  /// width.
  int lanes = 64;
};

template <int W>
class SequentialFaultSimulatorT {
 public:
  using Word = LaneWord<W>;
  using Environment = FsimEnvironmentT<W>;
  static constexpr int kLanes = W;

  /// `topo`, if given, must be a PackedTopology over `nl`; campaign
  /// workers pass a shared one so per-worker construction stops re-running
  /// levelization and fanout-graph building.
  SequentialFaultSimulatorT(const Netlist& nl, const FaultUniverse& universe,
                            SeqFsimOptions opts = {},
                            std::shared_ptr<const PackedTopology> topo = nullptr);

  /// Observed output ports (system bus). Detection compares these only.
  void set_observed(std::vector<CellId> output_cells);

  /// Runs the good machine once with no injections, recording every net
  /// each cycle. The returned checkpoint is tied to `env`'s stimulus (not
  /// to the observed set — it carries all nets, so one recording serves
  /// stuck-at references, TDF launch schedules, and future re-grades).
  /// Lane-0-only, so checkpoints are identical across widths.
  ReferenceTrace record_reference_trace(Environment& env);

  /// Simulates one batch of up to W-1 faults against the good machine.
  /// Returns a bit per batch entry: detected or not. With `trace`, the
  /// reference values come from the checkpoint (recorded by
  /// record_reference_trace) instead of lane 0, and the run is bounded by
  /// the checkpoint's cycle count. The trace must stay alive (and
  /// unmodified) across the batches that pass it: the simulator caches
  /// per-observed-output history columns keyed on the trace pointer.
  /// With a trace and the default kernel options (event-driven,
  /// incremental clocking) the batch runs in trace-replay mode: only the
  /// faulty machines' divergence from the trace is simulated, and each
  /// lane is dropped once its fault is detected (PackedSimT::begin_replay).
  /// Without a trace, or with either oracle option, every lane is
  /// simulated in full — the absolute kernel that replay must match.
  LaneMask run_batch(std::span<const FaultId> faults, Environment& env,
                     const ReferenceTrace* trace = nullptr);

  /// Transition-delay batch (the TDF reading of the same fault ids — see
  /// fault/tdf.hpp): launch/capture over the test program. The launch
  /// schedule of each fault site (the cycles where the site's good value
  /// makes the fault's transition, 0->1 for slow-to-rise, 1->0 for
  /// slow-to-fall) comes from the shared ReferenceTrace when one is given
  /// — the trace already holds every net's good history, so the per-batch
  /// good-machine pass 1 disappears and only the capture-armed faulty
  /// pass runs (the launch-schedule-sharing speedup measured by
  /// bench_tdf_extension). Without a trace, a pass 1 replays the good
  /// machine and records the site values first (the self-contained
  /// oracle path). Either way the faulty pass arms each fault only on its
  /// capture cycles — the site held at its pre-transition value for
  /// exactly the cycle after each launch — and grades divergence on the
  /// observed outputs like run_batch. Launches are read from the good
  /// machine (the standard parallel-TDF approximation), so results are
  /// deterministic, kernel-independent, and identical with or without the
  /// trace; the env must replay identical stimulus across passes (true of
  /// every FsimEnvironment whose reset() fully rewinds it, which reuse
  /// across batches already requires).
  LaneMask run_tdf_batch(std::span<const FaultId> faults, Environment& env,
                         const ReferenceTrace* trace = nullptr);

  /// Runs all faults of `fl` that are neither detected nor untestable,
  /// marking newly detected faults. Returns the number of new detections.
  /// `progress`, if set, is called after each batch with (done, total).
  /// This is the single-threaded kernel-level loop; campaign-shaped
  /// workloads should go through campaign::CampaignEngine, which shards
  /// batches across a worker pool with identical results.
  std::size_t run_campaign(FaultList& fl, Environment& env,
                           std::function<void(std::size_t, std::size_t)> progress = {});

  const SeqFsimOptions& options() const { return opts_; }

  /// The underlying packed simulator (activity counters, eval-mode probes).
  PackedSimT<W>& sim() { return sim_; }
  const PackedSimT<W>& sim() const { return sim_; }

 private:
  /// ORs one cycle's observed-output divergence word against the
  /// reference (checkpoint bit when `trace` is given, else a lane-0
  /// broadcast) into `diverged`. Shared by the stuck-at and TDF batch
  /// loops so the two models can never drift on observation semantics.
  void observe_divergence(int cycle, const ReferenceTrace* trace,
                          Word& diverged) const;
  /// Enters replay for a batch when `trace` is given and the options
  /// select the default kernel; returns whether it did.
  bool begin_replay(const ReferenceTrace* trace);
  /// Repacks per-lane divergence (lane i+1 = faults[i]) into per-fault bits.
  static LaneMask unpack_detected(const Word& diverged, std::size_t n);
  /// Extracts each observed output's history column from `trace` once per
  /// trace (cached on the pointer), so observe_divergence is a packed-bit
  /// read per output instead of a per-cycle run scan.
  void prepare_trace(const ReferenceTrace* trace);
  /// Side-band metrics bridge (obs): publishes the PackedSim activity
  /// accumulated since the last publish as kernel.* counter deltas. Called
  /// once per batch (cold path); a branch when metrics are disabled.
  void publish_activity();

  const Netlist* nl_;
  const FaultUniverse* universe_;
  SeqFsimOptions opts_;
  PackedSimT<W> sim_;
  std::vector<CellId> observed_;
  /// prepare_trace cache: per observed output, cycle-packed good bits.
  /// Keyed on the trace pointer plus a shape fingerprint (cycles, nets,
  /// run count), so a different trace that happens to land at a freed
  /// trace's address still triggers a rebuild.
  const ReferenceTrace* prepared_trace_ = nullptr;
  int prepared_cycles_ = -1;
  std::size_t prepared_nets_ = 0;
  std::size_t prepared_runs_ = 0;
  std::vector<std::vector<std::uint64_t>> observed_history_;
  /// Activity already published to the metrics registry (delta base).
  PackedActivity published_activity_;
};

/// The scalar 64-lane fault simulator — the default, and the only width
/// guaranteed on every compiler. Wider instantiations (128/256) exist when
/// OLFUI_HAS_WIDE_LANES is set; see resolve_lane_width().
using SequentialFaultSimulator = SequentialFaultSimulatorT<64>;

/// Side-band metrics bridge (obs): adds one simulator's activity between
/// the `since` and `now` snapshots to the kernel.* counters. fsim and the
/// scan tests both publish through it; a branch when metrics are off.
void publish_kernel_activity(const PackedActivity& now,
                             const PackedActivity& since = {});

/// Parallel-pattern single-fault combinational simulation: returns true if
/// any of the patterns (one per lane, values keyed by controllable net)
/// detects `fault` on the observed outputs. For pure combinational netlists.
bool comb_detects(const Netlist& nl, const FaultUniverse& universe, FaultId fault,
                  std::span<const std::vector<std::pair<NetId, bool>>> patterns,
                  const std::vector<CellId>& observed);

}  // namespace olfui
