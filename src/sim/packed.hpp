// olfui/sim: W-lane bit-parallel 2-valued simulation kernel.
//
// Each net carries one packed lane word (util/lanes.hpp) = W independent
// machines; W is a compile-time parameter instantiated at 64 (scalar
// uint64_t, the default) and — where the compiler has vector extensions —
// 128 and 256. The fault simulator (olfui_fsim) packs a good machine plus
// up to W-1 faulty machines per pass and injects stuck-at values at
// (cell, pin) sites per lane — the classic parallel-fault scheme.
// Simulation is 2-valued: callers must apply an explicit reset sequence
// so that no X state matters.
//
// Evaluation is event-driven: the netlist is flattened once into a
// PackedTopology (levelized cells, per-cell levels, CSR fanout graph) and
// eval() visits only cells whose input words actually changed — sources
// and flops seed events when their value differs from the previous one, a
// cell whose output word is unchanged schedules no fanout, and injected
// cells are permanently active so fault effects always propagate. A
// full_eval() levelized sweep is retained for power-on/reset, injection
// changes, and as a cross-check oracle; both paths compute bit-identical
// values (the event path is a pure work-skipping optimisation, never an
// approximation). Events flow through a flat preallocated arena (per-level
// segments of one index array, epoch-stamped membership) rather than
// per-level vectors, and clock() is incremental by default: only flops
// whose D input changed since their last latch — the dirty-D set seeded
// by the same event drain — are latched, with the full two-pass latch
// retained as the oracle (PackedClockMode).
//
// Trace-replay mode (begin_replay) is concurrent fault simulation over a
// recorded good machine (a ReferenceTrace): a cell is *dirty* when it
// carries an injection or any of its inputs differs from the good machine
// on a live lane, otherwise *clean*. Nets driven by clean cells and clean
// flops take their good value from the trace, read through a
// per-simulator cursor over the column runs; only dirty cells are
// evaluated, and clean flops are not latched. Lanes whose fault is already
// detected can be dropped (drop_lanes): every uniformity and change test
// is masked to the live lanes, so a dropped lane stops keeping cells dirty
// and its values are unspecified from then on. Replay is exact on the live
// lanes only if every cycle settles exactly once at the recorded state:
// the caller alternates latch() and a single eval(), and a second eval()
// before the next latch() throws.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "netlist/netlist.hpp"
#include "netlist/wordops.hpp"
#include "util/lanes.hpp"

namespace olfui {

/// A stuck-at value injected at a pin for a subset of lanes.
template <int W>
struct PackedInjectionT {
  using Word = LaneWord<W>;
  CellId cell = kInvalidId;
  std::uint8_t pin = 0;  ///< 0 = output pin, 1.. = input pins
  bool sa1 = false;
  Word lanes{};  ///< lane mask where the fault is active
};

/// The scalar 64-lane injection every pre-width-parametric caller uses.
using PackedInjection = PackedInjectionT<64>;

/// Immutable evaluation structures shared by every PackedSim over the same
/// netlist: the flattened levelized cell array, per-cell logic levels, and
/// the CSR fanout graph used for event scheduling. Building it is O(cells
/// + edges); flows that simulate one netlist many times (scan patterns,
/// campaign workers) build it once and share it across simulators.
struct PackedTopology {
  /// Flattened cell record for the hot evaluation loop.
  struct FlatCell {
    CellType type;
    std::uint8_t n;
    NetId out;
    CellId id;
    NetId in[4];
  };

  const Netlist* nl = nullptr;
  /// Combinational cells in topological order (kOutput excluded).
  std::vector<FlatCell> order;
  /// Logic level of order[i]: 1 + max level of its producers (sources and
  /// flop outputs are level 0), so every fanout edge strictly increases.
  std::vector<std::uint32_t> level;
  std::uint32_t num_levels = 0;  ///< max level + 1
  /// CSR fanout: combinational readers (order indexes) of each net.
  std::vector<std::uint32_t> fanout_start;  // size num_nets + 1
  std::vector<std::uint32_t> fanout;
  /// Arena offsets for the flat event scheduler: pending cells of level L
  /// live in [level_start[L], level_start[L+1]) of one preallocated index
  /// array. A cell is pending at most once, so each level's capacity is
  /// exactly its population.
  std::vector<std::uint32_t> level_start;  // size num_levels + 1
  /// CSR flop fanout: sequential readers of each net, as indexes into
  /// flop_cells — the dirty-D seed map of incremental clocking (a net
  /// change marks exactly the flops whose D/reset pins read it).
  std::vector<std::uint32_t> flop_fanout_start;  // size num_nets + 1
  std::vector<std::uint32_t> flop_fanout;
  /// Order index of each cell, or kInvalidId for non-combinational cells.
  std::vector<std::uint32_t> order_index;
  /// flop_cells index of each cell, or kInvalidId for non-flops.
  std::vector<std::uint32_t> flop_index;
  std::vector<CellId> flop_cells;
  std::vector<CellId> source_cells;  ///< kInput + ties (full-sweep order)
  std::vector<CellId> input_cells;   ///< kInput only (per-eval change scan)
  /// Replay slot of each net's driver: its order index for a
  /// combinational cell, order.size() + its flop index for a flop, and
  /// kInvalidId for sources (inputs, ties) and undriven nets, which replay
  /// never sets from the trace.
  std::vector<std::uint32_t> net_slot;

  /// Throws std::runtime_error on a combinational loop.
  static std::shared_ptr<const PackedTopology> build(const Netlist& nl);
};

/// Checkpoint of one fault-free run: the executed cycle count plus the
/// per-cycle lane-0 value of EVERY net. A campaign records the good
/// machine once per test program; every batch of every worker then reads
/// its reference from the checkpoint instead of re-deriving good values —
/// the packed kernel replays it as every clean net's value (trace-replay
/// mode, PackedSimT::begin_replay), the stuck-at path compares the
/// observed outputs against it, and the TDF path reads each fault site's
/// launch schedule straight out of it (no per-batch good-machine pass).
///
/// Storage is column-oriented RLE: nets are packed 64 to a word column,
/// and each column stores (start cycle, word value) runs — a cycle that
/// changes none of a column's nets appends nothing, so the trace grows
/// with bus activity, not with cycles * nets. (A positional RLE over the
/// concatenated per-cycle words — what the old observed-only GoodTrace
/// used — degenerates once a cycle spans hundreds of words: an unchanged
/// cycle still re-emits every distinct adjacent word.)
struct ReferenceTrace {
  /// One 64-net word column: run r holds `value[r]` from `cycle[r]` until
  /// the next run's start (or the end of the trace).
  struct Column {
    std::vector<std::uint32_t> cycle;  ///< run starts, increasing, first 0
    std::vector<std::uint64_t> value;
  };

  int cycles = 0;
  std::size_t num_nets = 0;
  std::vector<Column> columns;  ///< ceil(num_nets / 64)

  /// Lane-0 value of `net` during `cycle` (binary search in the column).
  bool net_bit(int cycle, NetId net) const;

  /// One net's whole history, packed by cycle (bit c of packed[c / 64]).
  /// Walks the net's column once — the bulk form every per-batch consumer
  /// uses instead of per-cycle net_bit() scans.
  void net_history(NetId net, std::vector<std::uint64_t>& packed) const;

  /// Clears and sizes the columns for a netlist with `nets` nets.
  void reset(std::size_t nets);
  /// Appends one cycle's net words (columns.size() of them). Cycles must
  /// be appended in order; increments `cycles`.
  void append_cycle(const std::uint64_t* words);
  /// Checks the column invariants (after deserialization). Throws
  /// std::runtime_error on malformed runs.
  void validate() const;

  /// Total stored runs across all columns (the compression measure).
  std::size_t run_count() const;

  /// Order-sensitive FNV-1a over the shape and every run: equal
  /// fingerprints mean bit-identical checkpoints. Subprocess campaign
  /// workers rebuild their reference traces from the netlist and hash
  /// them, so the coordinator can reject a worker whose rebuilt state
  /// drifted (wrong SoC configuration, different program) instead of
  /// merging garbage masks — see campaign/executor.hpp.
  std::uint64_t fingerprint() const;
};

/// eval() strategy; both produce bit-identical values.
enum class PackedEvalMode : std::uint8_t {
  kEventDriven,  ///< dirty-set scheduling over the fanout graph (default)
  kFullSweep,    ///< levelized sweep over every cell (the oracle/baseline)
};

/// clock() strategy; both produce bit-identical values.
enum class PackedClockMode : std::uint8_t {
  /// Latch only flops whose D/reset input changed since their last latch
  /// (the dirty-D set seeded by the event drain) plus flops carrying
  /// injections. Effective only in event mode with valid tracked state;
  /// any untracked eval (full sweep, power-on) falls back to one full
  /// latch and re-arms the tracking. The default.
  kIncremental,
  /// Latch every flop on every edge (the oracle/baseline).
  kFullLatch,
};

/// Work counters for the activity benches and the obs metrics bridge
/// (fsim and the scan tests publish per-batch deltas as kernel.* counters
/// through publish_kernel_activity): how much of the netlist the kernel
/// actually touched. Plain counters, no locks — the kernel itself stays
/// observability-free.
struct PackedActivity {
  std::uint64_t evals = 0;            ///< eval() calls
  std::uint64_t full_sweeps = 0;      ///< evals resolved by a full sweep
  std::uint64_t cells_evaluated = 0;  ///< combinational cells computed
  std::uint64_t events_drained = 0;   ///< cells drained from the event arena
  std::uint64_t levels_touched = 0;   ///< non-empty level segments drained
  /// Drained cells whose output word was unchanged — their fanout was
  /// never scheduled (the event path's work-skipping payoff).
  std::uint64_t quiet_cells = 0;
  std::uint64_t sched_pushes = 0;     ///< cells pushed into the event arena
  std::uint64_t flops_latched = 0;    ///< flops latched across clock() edges
  /// Flops skipped by incremental clocking (their D input provably
  /// unchanged since their last latch, or clean under replay) — the
  /// dirty-D payoff.
  std::uint64_t flops_skipped = 0;
  /// Nets set from the reference trace under replay (good-only work that
  /// is read instead of simulated).
  std::uint64_t good_applied = 0;
  std::uint64_t lanes_dropped = 0;  ///< lanes dropped under replay
};

template <int W>
class PackedSimT {
 public:
  using Word = LaneWord<W>;
  using Injection = PackedInjectionT<W>;
  static constexpr int kLanes = W;

  explicit PackedSimT(const Netlist& nl);
  /// Shares a prebuilt topology (cheap: only per-net/per-cell state is
  /// allocated). The netlist behind `topo` must outlive the simulator.
  explicit PackedSimT(std::shared_ptr<const PackedTopology> topo);

  void clear_injections();
  void add_injection(const Injection& inj);
  /// Rewrites the lane mask of an existing injection; `index` is the
  /// insertion order of add_injection calls since the last
  /// clear_injections(). Unlike add_injection this does NOT invalidate the
  /// event state: the injected cell set is unchanged, injected
  /// combinational cells are permanently event-active (under replay they
  /// are rescheduled here instead), primary inputs are re-scanned every
  /// eval, port faults apply at observed(), flop D/reset faults apply at
  /// the next latch — only a flop Q fault needs (and gets) an explicit
  /// re-expose, and a tie one full sweep. This is the per-cycle arming
  /// primitive of the transition-delay flow, where a fault is live only on
  /// capture cycles.
  void set_injection_lanes(std::size_t index, const Word& lanes);

  /// Zeroes all state (flops and nets). 2-valued power-on; drive a reset
  /// sequence afterwards for circuits that need one.
  void power_on();

  /// Drives the same value on all W lanes of a primary input.
  void set_input_all(NetId net, bool v);
  /// Drives an explicit per-lane word on a primary input.
  void set_input_lanes(NetId net, const Word& lanes);
  /// Drives bit i of `value` on all lanes of bus[i].
  void set_input_word(const Bus& bus, std::uint64_t value);

  /// Settles combinational logic (applies injections). Event-driven unless
  /// the mode is kFullSweep or the state was invalidated (power-on,
  /// injection change), in which case it falls back to one full sweep.
  /// Under replay: the one eval of the current cycle (throws
  /// std::logic_error on a second one before the next latch()).
  void eval();
  /// Unconditional levelized sweep over every cell — the reference kernel
  /// (under replay, the cycle's one eval, resolved by a sweep).
  void full_eval();
  /// Clock edge: latches the flops and exposes their new Q values (so
  /// flop-driven nets read correctly before the next eval()), without
  /// settling the combinational logic. Under replay it also advances the
  /// trace cursor and sets every clean net to the next cycle's good value.
  void latch();
  /// latch() then eval().
  void clock();

  /// Enters trace-replay mode at cycle 0 of `trace`, a recording of this
  /// netlist's good machine (lane 0, no injections) under the stimulus
  /// the caller will replay. Call it on a settled state (after the reset
  /// sequence), then alternate one eval() per cycle with latch(); cycle c
  /// must settle to exactly the trace's cycle c on lane 0. Requires the
  /// event-driven, incremental-clocking modes. Replay lasts until
  /// power_on() or clear_injections(); add_injection() throws during it.
  /// Throws std::invalid_argument on a trace of another shape or with no
  /// cycles, std::logic_error in the wrong modes.
  void begin_replay(const ReferenceTrace& trace);
  bool replaying() const { return replay_ != nullptr; }
  /// Replay only (a no-op otherwise): stops tracking `lanes` — detected
  /// faulty machines whose later values no longer matter. Lane 0, the
  /// good machine, is never dropped. Call it on a settled cycle, between
  /// eval() and latch() (std::logic_error otherwise).
  void drop_lanes(const Word& lanes);

  void set_eval_mode(PackedEvalMode mode) { mode_ = mode; }
  PackedEvalMode eval_mode() const { return mode_; }
  void set_clock_mode(PackedClockMode mode) { clock_mode_ = mode; }
  PackedClockMode clock_mode() const { return clock_mode_; }

  const PackedActivity& activity() const { return activity_; }
  void reset_activity() { activity_ = {}; }
  std::size_t comb_cell_count() const { return topo_->order.size(); }

  /// A net's packed value (under replay, only the live lanes are exact).
  const Word& value(NetId net) const { return values_[net]; }
  /// Value seen by a top-level output port, including any injection on the
  /// port cell's input pin (PO stuck-at faults). Wide words travel by
  /// reference (passing a 256-bit vector by value changes the ABI between
  /// AVX and non-AVX builds): the result refers to the port's net or, when
  /// the port carries an injection, to a per-simulator slot that the next
  /// observed() call overwrites — copy it to keep it.
  const Word& observed(CellId output_cell) const;

  const Netlist& netlist() const { return *topo_->nl; }
  const PackedTopology& topology() const { return *topo_; }

 private:
  /// Applies the cell's injections: input-pin faults to tmp[pin - 1] and
  /// output-pin faults to *out, each skipped when its pointer is null.
  void apply_inj(CellId id, Word* tmp, Word* out) const;
  void prepare_injections();
  void run_full_sweep();
  void run_event_sweep();
  void push_event(std::uint32_t order_idx);
  void mark_flop_dirty(std::uint32_t flop_idx);
  /// Writes a net's new value and, if it changed, schedules its
  /// combinational readers and marks its flop readers dirty for the next
  /// clock edge. The single change-tracking entry point — every values_[]
  /// write outside a full sweep routes through it, so neither the dirty-D
  /// set nor the replay divergence state can miss a change. Returns
  /// whether the value changed (on a live lane under replay).
  bool write_net(NetId net, const Word& v);
  /// write_net under replay: changes are masked to the live lanes, the
  /// net's divergence flag and its readers' dirty counts follow the new
  /// value, and a clean reader is scheduled only when the flag flips.
  bool replay_write(NetId net, const Word& v);
  /// Some live lane of `v` differs from lane 0 (the good machine).
  bool diverges(const Word& v) const;
  void set_divergent(NetId net, bool div);
  /// Adds `delta` to the dirty count of every reader slot of `net`.
  void count_readers(NetId net, int delta);
  /// Recomputes every net's divergence flag and every slot's dirty count
  /// from the current values and injections.
  void rebuild_divergence();
  /// Advances the trace cursor to `cycle` and writes the good value of
  /// every net whose good value changed and whose driver is clean.
  void apply_trace(int cycle);
  /// Latches one flop from the settled net values into flop_state_.
  void latch_flop(CellId id);
  void bump_event_epoch();
  void bump_flop_epoch();
  void compute_cell(const PackedTopology::FlatCell& fc, Word& out) const;

  std::shared_ptr<const PackedTopology> topo_;
  PackedEvalMode mode_ = PackedEvalMode::kEventDriven;
  PackedClockMode clock_mode_ = PackedClockMode::kIncremental;
  std::vector<Word> values_;       // per net
  std::vector<Word> flop_state_;   // per cell (flop entries only)
  std::vector<Word> input_hold_;   // per cell: driven PI value
  mutable Word observed_slot_{};   // observed() result of an injected port

  // Flat injection storage: inj_flat_ grouped by cell; cell c owns
  // inj_flat_[inj_start_[c] .. inj_start_[c] + has_inj_[c]). Rebuilt
  // lazily (inj_dirty_) by a stable sort, so per-cell application order
  // matches insertion order. inj_pos_[i] tracks where insertion i landed
  // after grouping (the set_injection_lanes handle).
  std::vector<Injection> inj_flat_;
  std::vector<std::uint32_t> inj_pos_;
  std::vector<std::uint32_t> inj_start_;  // per cell
  std::vector<std::uint8_t> has_inj_;     // per cell: injection count
  std::vector<std::uint32_t> active_comb_;  // order indexes of injected cells
  std::vector<std::uint32_t> active_flops_; // flop indexes of injected flops
  bool inj_dirty_ = false;

  // Flat event scheduler: one preallocated index arena segmented by level
  // (topology level_start offsets + per-level pending counts) with
  // epoch-stamped membership words — a drain or full sweep retires every
  // pending entry by bumping the epoch instead of clearing per-cell
  // flags. needs_full_ marks states (power-on, injection change,
  // construction) whose net values are stale beyond what events track.
  std::vector<std::uint32_t> arena_;        // order.size() slots
  std::vector<std::uint32_t> level_count_;  // per level: pending entries
  std::vector<std::uint32_t> event_stamp_;  // per order index
  std::uint32_t event_epoch_ = 1;
  bool needs_full_ = true;

  // Dirty-D clocking: flop indexes whose D/reset input changed since
  // their last latch, with the same epoch-stamp membership scheme.
  // all_flops_dirty_ is the untracked-state fallback — any full sweep
  // rewrites nets without change tracking, so the next edge must latch
  // everything before incremental clocking can resume.
  std::vector<std::uint32_t> dirty_flops_;
  std::vector<std::uint32_t> dirty_scratch_;  // swap target during clock()
  std::vector<std::uint32_t> flop_stamp_;     // per flop index
  std::uint32_t flop_epoch_ = 1;
  bool all_flops_dirty_ = true;

  // Trace replay. Slots are the topology's net_slot numbering (comb cells,
  // then flops); dirty_count_ counts a slot's divergent input pins plus
  // one if it carries an injection, so a slot is clean iff its count is 0.
  // div_pos_[net] is the net's index in div_nets_ (the divergent nets), or
  // kInvalidId; drop_lanes re-tests only those. The cursor is a run index
  // per trace column plus the column word of good values last applied.
  const ReferenceTrace* replay_ = nullptr;
  int replay_cycle_ = 0;
  bool replay_settled_ = false;  // this cycle's eval() already ran
  Word live_{};
  std::vector<std::uint8_t> dirty_count_;
  std::vector<std::uint32_t> div_pos_;
  std::vector<NetId> div_nets_;
  std::vector<std::uint32_t> run_cursor_;
  std::vector<std::uint64_t> applied_;

  PackedActivity activity_;
};

/// The scalar 64-lane simulator — the default, and the only width
/// guaranteed on every compiler. Wider instantiations (128/256) exist
/// when OLFUI_HAS_WIDE_LANES is set; see resolve_lane_width().
using PackedSim = PackedSimT<64>;

}  // namespace olfui
