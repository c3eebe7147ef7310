#include "sim/packed.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>
#include <stdexcept>

namespace olfui {

std::shared_ptr<const PackedTopology> PackedTopology::build(const Netlist& nl) {
  auto topo = std::make_shared<PackedTopology>();
  topo->nl = &nl;

  std::vector<CellId> order;
  if (!nl.levelize(order))
    throw std::runtime_error("PackedSim: combinational loop in netlist");
  topo->order_index.assign(nl.num_cells(), kInvalidId);
  for (CellId id : order) {
    const Cell& c = nl.cell(id);
    if (c.type == CellType::kOutput) continue;
    FlatCell fc;
    fc.type = c.type;
    fc.n = static_cast<std::uint8_t>(c.ins.size());
    fc.out = c.out;
    fc.id = id;
    for (std::size_t i = 0; i < c.ins.size(); ++i) fc.in[i] = c.ins[i];
    topo->order_index[id] = static_cast<std::uint32_t>(topo->order.size());
    topo->order.push_back(fc);
  }

  // Logic levels: producers (sources, ties, flop Qs) sit at level 0, so a
  // combinational cell's level is strictly above every input's producer and
  // the event drain can process level buckets in ascending order.
  std::vector<std::uint32_t> net_level(nl.num_nets(), 0);
  topo->level.resize(topo->order.size());
  std::uint32_t max_level = 0;
  for (std::size_t i = 0; i < topo->order.size(); ++i) {
    const FlatCell& fc = topo->order[i];
    std::uint32_t lvl = 0;
    for (int k = 0; k < fc.n; ++k) lvl = std::max(lvl, net_level[fc.in[k]]);
    ++lvl;
    topo->level[i] = lvl;
    net_level[fc.out] = lvl;
    max_level = std::max(max_level, lvl);
  }
  topo->num_levels = max_level + 1;

  // Flat event-arena offsets: a cell is pending at most once, so each
  // level's segment capacity is exactly its population.
  topo->level_start.assign(topo->num_levels + 1, 0);
  for (const std::uint32_t lvl : topo->level) ++topo->level_start[lvl + 1];
  for (std::uint32_t l = 0; l < topo->num_levels; ++l)
    topo->level_start[l + 1] += topo->level_start[l];

  // CSR fanout graph: for each net, the order indexes of its combinational
  // readers (kOutput ports are read through observed(), flops at clock()).
  topo->fanout_start.assign(nl.num_nets() + 1, 0);
  for (const FlatCell& fc : topo->order)
    for (int k = 0; k < fc.n; ++k) ++topo->fanout_start[fc.in[k] + 1];
  for (std::size_t n = 0; n < nl.num_nets(); ++n)
    topo->fanout_start[n + 1] += topo->fanout_start[n];
  topo->fanout.resize(topo->fanout_start.back());
  std::vector<std::uint32_t> cursor(topo->fanout_start.begin(),
                                    topo->fanout_start.end() - 1);
  for (std::size_t i = 0; i < topo->order.size(); ++i) {
    const FlatCell& fc = topo->order[i];
    for (int k = 0; k < fc.n; ++k)
      topo->fanout[cursor[fc.in[k]]++] = static_cast<std::uint32_t>(i);
  }

  topo->flop_index.assign(nl.num_cells(), kInvalidId);
  for (CellId id = 0; id < nl.num_cells(); ++id) {
    const CellType t = nl.cell(id).type;
    if (is_sequential(t)) {
      topo->flop_index[id] = static_cast<std::uint32_t>(topo->flop_cells.size());
      topo->flop_cells.push_back(id);
    } else if (t == CellType::kInput) {
      topo->source_cells.push_back(id);
      topo->input_cells.push_back(id);
    } else if (is_tie(t)) {
      topo->source_cells.push_back(id);
    }
  }

  // CSR flop fanout: for each net, the flop_cells indexes of the flops
  // reading it (D or reset pin) — the dirty-D marking map of incremental
  // clocking. A flop reading one net on two pins appears twice; the mark
  // is idempotent.
  topo->flop_fanout_start.assign(nl.num_nets() + 1, 0);
  for (const CellId id : topo->flop_cells)
    for (const NetId in : nl.cell(id).ins) ++topo->flop_fanout_start[in + 1];
  for (std::size_t n = 0; n < nl.num_nets(); ++n)
    topo->flop_fanout_start[n + 1] += topo->flop_fanout_start[n];
  topo->flop_fanout.resize(topo->flop_fanout_start.back());
  std::vector<std::uint32_t> fcursor(topo->flop_fanout_start.begin(),
                                     topo->flop_fanout_start.end() - 1);
  for (std::size_t fi = 0; fi < topo->flop_cells.size(); ++fi)
    for (const NetId in : nl.cell(topo->flop_cells[fi]).ins)
      topo->flop_fanout[fcursor[in]++] = static_cast<std::uint32_t>(fi);

  topo->net_slot.assign(nl.num_nets(), kInvalidId);
  for (std::size_t i = 0; i < topo->order.size(); ++i)
    topo->net_slot[topo->order[i].out] = static_cast<std::uint32_t>(i);
  for (std::size_t fi = 0; fi < topo->flop_cells.size(); ++fi)
    topo->net_slot[nl.cell(topo->flop_cells[fi]).out] =
        static_cast<std::uint32_t>(topo->order.size() + fi);
  return topo;
}

bool ReferenceTrace::net_bit(int cycle, NetId net) const {
  const Column& col = columns[net / 64];
  // Last run starting at or before `cycle` (the first run starts at 0).
  const auto it = std::upper_bound(col.cycle.begin(), col.cycle.end(),
                                   static_cast<std::uint32_t>(cycle));
  const std::size_t r = static_cast<std::size_t>(it - col.cycle.begin()) - 1;
  return (col.value[r] >> (net % 64)) & 1ULL;
}

void ReferenceTrace::net_history(NetId net,
                                 std::vector<std::uint64_t>& packed) const {
  const std::size_t n = static_cast<std::size_t>(cycles);
  packed.assign((n + 63) / 64, 0);
  const Column& col = columns[net / 64];
  const int bit = static_cast<int>(net % 64);
  for (std::size_t r = 0; r < col.cycle.size(); ++r) {
    if (!((col.value[r] >> bit) & 1ULL)) continue;
    const std::size_t hi = r + 1 < col.cycle.size() ? col.cycle[r + 1] : n;
    for (std::size_t c = col.cycle[r]; c < hi; ++c)
      packed[c / 64] |= 1ULL << (c % 64);
  }
}

void ReferenceTrace::reset(std::size_t nets) {
  cycles = 0;
  num_nets = nets;
  columns.assign((nets + 63) / 64, {});
}

void ReferenceTrace::append_cycle(const std::uint64_t* words) {
  for (std::size_t o = 0; o < columns.size(); ++o) {
    Column& col = columns[o];
    if (col.value.empty() || col.value.back() != words[o]) {
      col.cycle.push_back(static_cast<std::uint32_t>(cycles));
      col.value.push_back(words[o]);
    }
  }
  ++cycles;
}

void ReferenceTrace::validate() const {
  if (cycles < 0) throw std::runtime_error("ReferenceTrace: negative cycles");
  if (columns.size() != (num_nets + 63) / 64)
    throw std::runtime_error("ReferenceTrace: column count mismatch");
  for (const Column& col : columns) {
    if (col.cycle.size() != col.value.size())
      throw std::runtime_error("ReferenceTrace: run arrays disagree");
    if (cycles == 0) {
      if (!col.cycle.empty())
        throw std::runtime_error("ReferenceTrace: runs in an empty trace");
      continue;
    }
    if (col.cycle.empty() || col.cycle[0] != 0)
      throw std::runtime_error("ReferenceTrace: first run must start at 0");
    for (std::size_t r = 1; r < col.cycle.size(); ++r) {
      if (col.cycle[r] <= col.cycle[r - 1] ||
          col.cycle[r] >= static_cast<std::uint32_t>(cycles))
        throw std::runtime_error(
            "ReferenceTrace: run starts not increasing in range");
    }
  }
}

std::size_t ReferenceTrace::run_count() const {
  std::size_t n = 0;
  for (const Column& col : columns) n += col.value.size();
  return n;
}

std::uint64_t ReferenceTrace::fingerprint() const {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(cycles));
  mix(num_nets);
  for (const Column& col : columns) {
    mix(col.cycle.size());
    for (std::size_t r = 0; r < col.cycle.size(); ++r) {
      mix(col.cycle[r]);
      mix(col.value[r]);
    }
  }
  return h;
}

template <int W>
PackedSimT<W>::PackedSimT(const Netlist& nl)
    : PackedSimT(PackedTopology::build(nl)) {}

template <int W>
PackedSimT<W>::PackedSimT(std::shared_ptr<const PackedTopology> topo)
    : topo_(std::move(topo)) {
  const Netlist& nl = *topo_->nl;
  values_.assign(nl.num_nets(), Word{});
  flop_state_.assign(nl.num_cells(), Word{});
  input_hold_.assign(nl.num_cells(), Word{});
  inj_start_.assign(nl.num_cells(), 0);
  has_inj_.assign(nl.num_cells(), 0);
  arena_.assign(topo_->order.size(), 0);
  level_count_.assign(topo_->num_levels, 0);
  event_stamp_.assign(topo_->order.size(), 0);
  flop_stamp_.assign(topo_->flop_cells.size(), 0);
}

template <int W>
void PackedSimT<W>::clear_injections() {
  inj_flat_.clear();
  inj_pos_.clear();
  active_comb_.clear();
  active_flops_.clear();
  std::fill(has_inj_.begin(), has_inj_.end(), 0);
  inj_dirty_ = false;
  needs_full_ = true;
  replay_ = nullptr;
}

template <int W>
void PackedSimT<W>::add_injection(const Injection& inj) {
  if (replay_)
    throw std::logic_error("PackedSim: add_injection during trace replay");
  inj_pos_.push_back(static_cast<std::uint32_t>(inj_flat_.size()));
  inj_flat_.push_back(inj);
  inj_dirty_ = true;
  needs_full_ = true;
}

template <int W>
void PackedSimT<W>::set_injection_lanes(std::size_t index,
                                        const Word& lanes) {
  assert(index < inj_pos_.size());
  Injection& inj = inj_flat_[inj_pos_[index]];
  if (!lane_neq(inj.lanes, lanes)) return;
  inj.lanes = lanes;
  // A pending full sweep (or full-sweep mode) re-applies every injection
  // from scratch, so nothing is stale.
  if (needs_full_ || inj_dirty_ || mode_ == PackedEvalMode::kFullSweep) return;
  const Cell& c = topo_->nl->cell(inj.cell);
  const std::uint32_t oi = topo_->order_index[inj.cell];
  if (oi != kInvalidId) {
    // Combinational: permanently event-active outside replay; replay
    // schedules an injected cell only on demand, so schedule it here.
    if (replay_) push_event(oi);
    return;
  }
  switch (c.type) {
    case CellType::kOutput:
      return;  // applied live at observed()
    case CellType::kInput:
      return;  // source scan applies injections every event eval
    default:
      break;
  }
  if (is_sequential(c.type)) {
    // D/reset-pin faults apply at the next clock(); a Q-pin fault changes
    // the exposed value mid-cycle, so mirror clock()'s pass 2 for this one
    // flop: re-apply injections over the latched state and seed fanout.
    Word v = flop_state_[inj.cell];
    apply_inj(inj.cell, nullptr, &v);
    write_net(c.out, v);
    return;
  }
  // Ties (and any future source kind) are not re-scanned per eval; fall
  // back to one full sweep rather than risk a stale constant.
  needs_full_ = true;
}

template <int W>
void PackedSimT<W>::prepare_injections() {
  // Group by cell; stable so per-cell application order stays insertion
  // order (masking is order-sensitive when lanes overlap). The permutation
  // is tracked so set_injection_lanes handles survive the sort.
  std::vector<std::uint32_t> perm(inj_flat_.size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::stable_sort(perm.begin(), perm.end(),
                   [this](std::uint32_t a, std::uint32_t b) {
                     return inj_flat_[a].cell < inj_flat_[b].cell;
                   });
  std::vector<Injection> sorted;
  sorted.reserve(inj_flat_.size());
  std::vector<std::uint32_t> inverse(inj_flat_.size());
  for (std::uint32_t k = 0; k < perm.size(); ++k) {
    inverse[perm[k]] = k;
    sorted.push_back(inj_flat_[perm[k]]);
  }
  inj_flat_ = std::move(sorted);
  for (std::uint32_t& pos : inj_pos_) pos = inverse[pos];
  active_comb_.clear();
  active_flops_.clear();
  for (std::size_t i = 0; i < inj_flat_.size();) {
    const CellId c = inj_flat_[i].cell;
    std::size_t j = i;
    while (j < inj_flat_.size() && inj_flat_[j].cell == c) ++j;
    if (j - i > 0xFF)  // count must fit has_inj_; silent wrap would drop faults
      throw std::runtime_error("PackedSim: more than 255 injections on one cell");
    inj_start_[c] = static_cast<std::uint32_t>(i);
    has_inj_[c] = static_cast<std::uint8_t>(j - i);
    const std::uint32_t oi = topo_->order_index[c];
    if (oi != kInvalidId) active_comb_.push_back(oi);
    const std::uint32_t fi = topo_->flop_index[c];
    if (fi != kInvalidId) active_flops_.push_back(fi);
    i = j;
  }
  inj_dirty_ = false;
}

template <int W>
void PackedSimT<W>::power_on() {
  std::fill(values_.begin(), values_.end(), Word{});
  std::fill(flop_state_.begin(), flop_state_.end(), Word{});
  std::fill(input_hold_.begin(), input_hold_.end(), Word{});
  needs_full_ = true;
  all_flops_dirty_ = true;
  replay_ = nullptr;
}

template <int W>
void PackedSimT<W>::set_input_all(NetId net, bool v) {
  const CellId drv = topo_->nl->net(net).driver;
  assert(drv != kInvalidId && topo_->nl->cell(drv).type == CellType::kInput);
  input_hold_[drv] = v ? kAllLanes<Word> : Word{};
}

template <int W>
void PackedSimT<W>::set_input_lanes(NetId net, const Word& lanes) {
  const CellId drv = topo_->nl->net(net).driver;
  assert(drv != kInvalidId && topo_->nl->cell(drv).type == CellType::kInput);
  input_hold_[drv] = lanes;
}

template <int W>
void PackedSimT<W>::set_input_word(const Bus& bus, std::uint64_t value) {
  for (std::size_t i = 0; i < bus.size(); ++i)
    set_input_all(bus[i], (value >> i) & 1);
}

template <int W>
void PackedSimT<W>::apply_inj(CellId id, Word* tmp, Word* out) const {
  const Injection* j = inj_flat_.data() + inj_start_[id];
  const Injection* const end = j + has_inj_[id];
  for (; j != end; ++j) {
    Word* w = j->pin == 0 ? out : tmp ? &tmp[j->pin - 1] : nullptr;
    if (w) *w = j->sa1 ? (*w | j->lanes) : (*w & ~j->lanes);
  }
}

template <int W>
void PackedSimT<W>::compute_cell(const PackedTopology::FlatCell& fc,
                                 Word& out) const {
  const Word* vals = values_.data();
  if (__builtin_expect(has_inj_[fc.id], 0)) {
    Word tmp[4];
    for (int i = 0; i < fc.n; ++i) tmp[i] = vals[fc.in[i]];
    apply_inj(fc.id, tmp, nullptr);
    eval_packed(fc.type, tmp, fc.n, out);
    apply_inj(fc.id, nullptr, &out);
    return;
  }
  // Hot path: inline the common gates, fall back for the rest.
  switch (fc.type) {
    case CellType::kAnd2:
      out = vals[fc.in[0]] & vals[fc.in[1]];
      return;
    case CellType::kOr2:
      out = vals[fc.in[0]] | vals[fc.in[1]];
      return;
    case CellType::kXor2:
      out = vals[fc.in[0]] ^ vals[fc.in[1]];
      return;
    case CellType::kMux2: {
      const Word& s = vals[fc.in[kMuxS]];
      out = (s & vals[fc.in[kMuxB]]) | (~s & vals[fc.in[kMuxA]]);
      return;
    }
    case CellType::kNot:
      out = ~vals[fc.in[0]];
      return;
    case CellType::kBuf:
      out = vals[fc.in[0]];
      return;
    default: {
      Word tmp[4];
      for (int i = 0; i < fc.n; ++i) tmp[i] = vals[fc.in[i]];
      eval_packed(fc.type, tmp, fc.n, out);
      return;
    }
  }
}

template <int W>
void PackedSimT<W>::push_event(std::uint32_t order_idx) {
  if (event_stamp_[order_idx] == event_epoch_) return;
  event_stamp_[order_idx] = event_epoch_;
  const std::uint32_t lvl = topo_->level[order_idx];
  arena_[topo_->level_start[lvl] + level_count_[lvl]++] = order_idx;
  ++activity_.sched_pushes;
}

template <int W>
void PackedSimT<W>::mark_flop_dirty(std::uint32_t flop_idx) {
  if (flop_stamp_[flop_idx] == flop_epoch_) return;
  flop_stamp_[flop_idx] = flop_epoch_;
  dirty_flops_.push_back(flop_idx);
}

template <int W>
bool PackedSimT<W>::write_net(NetId net, const Word& v) {
  if (replay_) return replay_write(net, v);
  if (!lane_neq(v, values_[net])) return false;
  values_[net] = v;
  const PackedTopology& t = *topo_;
  for (std::uint32_t j = t.fanout_start[net]; j < t.fanout_start[net + 1]; ++j)
    push_event(t.fanout[j]);
  for (std::uint32_t j = t.flop_fanout_start[net];
       j < t.flop_fanout_start[net + 1]; ++j)
    mark_flop_dirty(t.flop_fanout[j]);
  return true;
}

template <int W>
bool PackedSimT<W>::replay_write(NetId net, const Word& v) {
  Word& cur = values_[net];
  const bool changed = lane_any((v ^ cur) & live_);
  cur = v;
  if (!changed) return false;
  // A clean reader's output follows the trace, so it needs evaluating
  // only when this net's divergence flips (making it dirty, or clean
  // again, which re-converges its output to the good value).
  const bool div = diverges(v);
  const bool flip = div != (div_pos_[net] != kInvalidId);
  if (flip) set_divergent(net, div);
  const PackedTopology& t = *topo_;
  for (std::uint32_t j = t.fanout_start[net]; j < t.fanout_start[net + 1]; ++j) {
    const std::uint32_t k = t.fanout[j];
    if (flip) dirty_count_[k] += div ? 1 : -1;
    if (flip || dirty_count_[k]) push_event(k);
  }
  const std::uint32_t flop_base = static_cast<std::uint32_t>(t.order.size());
  for (std::uint32_t j = t.flop_fanout_start[net];
       j < t.flop_fanout_start[net + 1]; ++j) {
    const std::uint32_t fi = t.flop_fanout[j];
    if (flip) dirty_count_[flop_base + fi] += div ? 1 : -1;
    if (flip || dirty_count_[flop_base + fi]) mark_flop_dirty(fi);
  }
  return true;
}

template <int W>
bool PackedSimT<W>::diverges(const Word& v) const {
  const Word good = lane_test(v, 0) ? kAllLanes<Word> : Word{};
  return lane_any((v ^ good) & live_);
}

template <int W>
void PackedSimT<W>::set_divergent(NetId net, bool div) {
  if (div) {
    div_pos_[net] = static_cast<std::uint32_t>(div_nets_.size());
    div_nets_.push_back(net);
    return;
  }
  const std::uint32_t pos = div_pos_[net];
  const NetId last = div_nets_.back();
  div_nets_[pos] = last;
  div_pos_[last] = pos;
  div_nets_.pop_back();
  div_pos_[net] = kInvalidId;
}

template <int W>
void PackedSimT<W>::rebuild_divergence() {
  const PackedTopology& t = *topo_;
  const std::size_t flop_base = t.order.size();
  dirty_count_.assign(flop_base + t.flop_cells.size(), 0);
  for (const std::uint32_t k : active_comb_) dirty_count_[k] = 1;
  for (const std::uint32_t fi : active_flops_) dirty_count_[flop_base + fi] = 1;
  div_pos_.assign(values_.size(), kInvalidId);
  div_nets_.clear();
  for (NetId n = 0; n < values_.size(); ++n) {
    if (!diverges(values_[n])) continue;
    set_divergent(n, true);
    count_readers(n, 1);
  }
}

template <int W>
void PackedSimT<W>::count_readers(NetId net, int delta) {
  const PackedTopology& t = *topo_;
  for (std::uint32_t j = t.fanout_start[net]; j < t.fanout_start[net + 1]; ++j)
    dirty_count_[t.fanout[j]] += delta;
  const std::size_t flop_base = t.order.size();
  for (std::uint32_t j = t.flop_fanout_start[net];
       j < t.flop_fanout_start[net + 1]; ++j)
    dirty_count_[flop_base + t.flop_fanout[j]] += delta;
}

template <int W>
void PackedSimT<W>::begin_replay(const ReferenceTrace& trace) {
  if (mode_ != PackedEvalMode::kEventDriven ||
      clock_mode_ != PackedClockMode::kIncremental)
    throw std::logic_error(
        "PackedSim: replay needs the event-driven, incremental kernel");
  if (trace.num_nets != values_.size() ||
      trace.columns.size() != (values_.size() + 63) / 64 || trace.cycles <= 0)
    throw std::invalid_argument(
        "PackedSim: reference trace does not fit this netlist");
  if (inj_dirty_) prepare_injections();
  if (needs_full_) run_full_sweep();
  replay_ = &trace;
  replay_cycle_ = 0;
  replay_settled_ = false;
  live_ = kAllLanes<Word>;
  rebuild_divergence();
  // The cursor starts at the settled pre-replay state's good values, so
  // the first application sets every clean net that differs in cycle 0.
  run_cursor_.assign(trace.columns.size(), 0);
  applied_.assign(trace.columns.size(), 0);
  for (NetId n = 0; n < values_.size(); ++n)
    if (lane_test(values_[n], 0)) applied_[n / 64] |= 1ULL << (n % 64);
  apply_trace(0);
}

template <int W>
void PackedSimT<W>::apply_trace(int cycle) {
  if (cycle >= replay_->cycles) return;  // eval() refuses to run past it
  const PackedTopology& t = *topo_;
  const auto c = static_cast<std::uint32_t>(cycle);
  for (std::size_t k = 0; k < replay_->columns.size(); ++k) {
    const ReferenceTrace::Column& col = replay_->columns[k];
    std::uint32_t r = run_cursor_[k];
    while (r + 1 < col.cycle.size() && col.cycle[r + 1] <= c) ++r;
    run_cursor_[k] = r;
    std::uint64_t diff = applied_[k] ^ col.value[r];
    applied_[k] = col.value[r];
    for (; diff; diff &= diff - 1) {
      const int bit = std::countr_zero(diff);
      const NetId net = static_cast<NetId>(k * 64 + bit);
      const std::uint32_t slot = t.net_slot[net];
      // Sources are driven by the caller; a dirty driver is evaluated.
      if (slot == kInvalidId || dirty_count_[slot]) continue;
      write_net(net, (col.value[r] >> bit) & 1 ? kAllLanes<Word> : Word{});
      ++activity_.good_applied;
    }
  }
}

template <int W>
void PackedSimT<W>::drop_lanes(const Word& lanes) {
  if (!replay_) return;
  // Between latch() and eval() the trace has already been applied under
  // the old cleanliness, which a drop would silently change.
  if (!replay_settled_)
    throw std::logic_error("PackedSim: drop_lanes between eval() and latch()");
  Word good{};
  set_lane(good, 0);
  const Word dead = lanes & live_ & ~good;
  if (!lane_any(dead)) return;
  live_ &= ~dead;
  for (int k = 0; k < static_cast<int>(sizeof(Word) / 8); ++k)
    activity_.lanes_dropped += std::popcount(word_of(dead, k));
  // Narrowing the live set can only clear divergence flags, and a value
  // that stops diverging needs no re-evaluation: its readers' outputs
  // were computed per lane and agree with the good machine on every
  // remaining lane too.
  for (std::size_t i = div_nets_.size(); i-- > 0;) {
    const NetId n = div_nets_[i];
    if (diverges(values_[n])) continue;
    set_divergent(n, false);  // moves an already visited entry to i
    count_readers(n, -1);
  }
}

template <int W>
void PackedSimT<W>::bump_event_epoch() {
  if (++event_epoch_ == 0) {  // wrap: stale stamps from the old era alias
    std::fill(event_stamp_.begin(), event_stamp_.end(), 0u);
    event_epoch_ = 1;
  }
}

template <int W>
void PackedSimT<W>::bump_flop_epoch() {
  if (++flop_epoch_ == 0) {
    std::fill(flop_stamp_.begin(), flop_stamp_.end(), 0u);
    flop_epoch_ = 1;
  }
}

template <int W>
void PackedSimT<W>::run_full_sweep() {
  const PackedTopology& t = *topo_;
  // Sources: primary inputs hold their driven value; ties their constant.
  for (CellId id : t.source_cells) {
    const Cell& c = t.nl->cell(id);
    Word v = c.type == CellType::kTie1   ? ~Word{}
             : c.type == CellType::kTie0 ? Word{}
                                         : input_hold_[id];
    if (has_inj_[id]) apply_inj(id, nullptr, &v);
    values_[c.out] = v;
  }
  // Expose flop state (with Q-pin faults).
  for (CellId id : t.flop_cells) {
    Word v = flop_state_[id];
    if (has_inj_[id]) apply_inj(id, nullptr, &v);
    values_[t.nl->cell(id).out] = v;
  }
  // Levelized sweep over the flattened combinational cells. Both kernels
  // share compute_cell, so the sweep oracle and the event path can never
  // diverge on gate semantics.
  for (const PackedTopology::FlatCell& fc : t.order)
    compute_cell(fc, values_[fc.out]);
  // The sweep recomputed everything: retire pending arena entries by
  // zeroing the per-level counts and bumping the membership epoch. The
  // writes above were untracked, so dirty-D state is invalid — the next
  // edge must latch every flop before incremental clocking can resume.
  std::fill(level_count_.begin(), level_count_.end(), 0u);
  bump_event_epoch();
  dirty_flops_.clear();
  all_flops_dirty_ = true;
  needs_full_ = false;
  ++activity_.full_sweeps;
  activity_.cells_evaluated += t.order.size();
}

template <int W>
void PackedSimT<W>::run_event_sweep() {
  const PackedTopology& t = *topo_;
  // Seed: primary inputs whose held word changed since the last eval.
  // (Ties are constant and flop Qs are seeded by clock(), so neither needs
  // a per-eval scan.)
  for (CellId id : t.input_cells) {
    Word v = input_hold_[id];
    if (has_inj_[id]) apply_inj(id, nullptr, &v);
    write_net(t.nl->cell(id).out, v);
  }
  // Injected cells are permanently active, so fault effects propagate even
  // when no input event reaches them this eval. (Replay keeps them dirty
  // instead: they are scheduled when an input changes or they re-arm.)
  if (!replay_)
    for (std::uint32_t k : active_comb_) push_event(k);
  // Drain the arena's level segments in ascending order. Every fanout edge
  // strictly increases the level, so a cell processed here cannot be
  // re-scheduled within the same eval, and a segment cannot grow while it
  // drains.
  std::uint64_t touched = 0;
  std::uint64_t quiet = 0;
  for (std::uint32_t lvl = 1; lvl < t.num_levels; ++lvl) {
    const std::uint32_t n = level_count_[lvl];
    if (n == 0) continue;
    ++activity_.levels_touched;
    const std::uint32_t* seg = arena_.data() + t.level_start[lvl];
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t k = seg[i];
      const PackedTopology::FlatCell& fc = t.order[k];
      Word out;
      compute_cell(fc, out);
      if (!write_net(fc.out, out)) ++quiet;
    }
    level_count_[lvl] = 0;
    touched += n;
  }
  // Retire membership stamps so the next eval's pushes start clean.
  bump_event_epoch();
  activity_.cells_evaluated += touched;
  activity_.events_drained += touched;
  activity_.quiet_cells += quiet;
}

template <int W>
void PackedSimT<W>::eval() {
  ++activity_.evals;
  if (inj_dirty_) prepare_injections();
  if (replay_) {
    if (replay_settled_ || replay_cycle_ >= replay_->cycles)
      throw std::logic_error(
          "PackedSim: replay evaluates once per cycle, within the trace");
    replay_settled_ = true;
    if (needs_full_) {
      // A re-armed source needs a full sweep, which exposes flop_state_:
      // resync the clean flops replay left unlatched from their Q nets
      // (exact on the live lanes; an injected flop latches every edge).
      for (const CellId id : topo_->flop_cells)
        if (!has_inj_[id]) flop_state_[id] = values_[topo_->nl->cell(id).out];
      run_full_sweep();
      rebuild_divergence();
      return;
    }
  } else if (mode_ == PackedEvalMode::kFullSweep || needs_full_) {
    run_full_sweep();
    return;
  }
  run_event_sweep();
}

template <int W>
void PackedSimT<W>::full_eval() {
  needs_full_ = true;
  eval();
}

template <int W>
void PackedSimT<W>::latch_flop(CellId id) {
  const Cell& c = topo_->nl->cell(id);
  Word tmp[4];
  const int n = static_cast<int>(c.ins.size());
  for (int i = 0; i < n; ++i) tmp[i] = values_[c.ins[i]];
  if (has_inj_[id]) apply_inj(id, tmp, nullptr);
  // DFF: q' = d. DFFR (active-low reset to 0): q' = d & rstn.
  flop_state_[id] =
      c.type == CellType::kDff ? tmp[kDffD] : (tmp[kDffD] & tmp[kDffRstn]);
}

template <int W>
void PackedSimT<W>::latch() {
  if (inj_dirty_) prepare_injections();
  const PackedTopology& t = *topo_;
  const bool incremental = clock_mode_ == PackedClockMode::kIncremental &&
                           mode_ == PackedEvalMode::kEventDriven &&
                           !needs_full_ && !all_flops_dirty_;
  // Pass 1 latches from the settled net values into flop_state_ (never
  // read here, so flop-to-flop paths latch pre-edge values) and leaves
  // the latched flop indexes in dirty_scratch_ for pass 2.
  if (incremental) {
    // Injected flops always latch: set_injection_lanes re-arms D/reset
    // faults without touching any net, so the latched value can change
    // even when the D input was provably quiet.
    for (const std::uint32_t fi : active_flops_) mark_flop_dirty(fi);
    dirty_scratch_.swap(dirty_flops_);
    dirty_flops_.clear();
    // Bump BEFORE pass 2 so its change marks seed the NEXT edge.
    bump_flop_epoch();
    // Latch only the dirty flops: a skipped flop's D (and reset) words
    // are unchanged since its last latch, so re-latching it is a no-op.
    // Replay also skips a clean flop whose Q agrees with the good machine:
    // its next Q is the good one, which the trace supplies.
    const std::size_t flop_base = t.order.size();
    std::size_t m = 0;
    for (const std::uint32_t fi : dirty_scratch_) {
      const CellId id = t.flop_cells[fi];
      if (replay_ && dirty_count_[flop_base + fi] == 0 &&
          div_pos_[t.nl->cell(id).out] == kInvalidId)
        continue;
      latch_flop(id);
      dirty_scratch_[m++] = fi;
    }
    dirty_scratch_.resize(m);
  } else {
    // Full latch: the oracle path, and the re-arming edge after any
    // untracked state (full sweep, power-on, injection change). Re-arm
    // dirty-D tracking now: pass 2 and the next event drain mark against
    // the fresh epoch; if that eval falls back to a full sweep it
    // re-invalidates, keeping this edge's writes conservative.
    dirty_flops_.clear();
    bump_flop_epoch();
    all_flops_dirty_ = false;
    dirty_scratch_.resize(t.flop_cells.size());
    std::iota(dirty_scratch_.begin(), dirty_scratch_.end(), 0u);
    for (const CellId id : t.flop_cells) latch_flop(id);
  }
  activity_.flops_latched += dirty_scratch_.size();
  activity_.flops_skipped += t.flop_cells.size() - dirty_scratch_.size();
  // Replay: every clean net takes the next cycle's good value, decided on
  // the pre-edge divergence state, before pass 2 exposes the new Qs.
  if (replay_) {
    replay_settled_ = false;
    apply_trace(++replay_cycle_);
  }
  // Pass 2: expose the latched flops' Q values (with Q-pin faults), so
  // flop-driven nets are current before the next eval(). Event mode
  // seeds their fanout instead of rescanning every flop per eval; a
  // skipped flop's exposed Q is unchanged, and a full sweep recomputes
  // everything anyway.
  const bool tracked = mode_ == PackedEvalMode::kEventDriven && !needs_full_;
  for (const std::uint32_t fi : dirty_scratch_) {
    const CellId id = t.flop_cells[fi];
    Word v = flop_state_[id];
    if (has_inj_[id]) apply_inj(id, nullptr, &v);
    const NetId out = t.nl->cell(id).out;
    if (tracked)
      write_net(out, v);
    else
      values_[out] = v;
  }
}

template <int W>
void PackedSimT<W>::clock() {
  latch();
  eval();
}

template <int W>
const typename PackedSimT<W>::Word& PackedSimT<W>::observed(
    CellId output_cell) const {
  const Cell& c = topo_->nl->cell(output_cell);
  assert(c.type == CellType::kOutput);
  // Injections are grouped lazily; observing between add_injection() and
  // the next eval()/clock() would silently miss port faults.
  assert(!inj_dirty_ && "call eval() after changing injections");
  const Word& net_value = values_[c.ins[0]];
  if (!has_inj_[output_cell]) return net_value;
  Word& v = observed_slot_;
  v = net_value;
  const Injection* j = inj_flat_.data() + inj_start_[output_cell];
  const Injection* const end = j + has_inj_[output_cell];
  for (; j != end; ++j) {
    if (j->pin != 1) continue;
    v = j->sa1 ? (v | j->lanes) : (v & ~j->lanes);
  }
  return v;
}

// The scalar kernel exists everywhere; the wide kernels ride vector
// extensions and exist only where the compiler provides them.
template class PackedSimT<64>;
#if OLFUI_HAS_WIDE_LANES
template class PackedSimT<128>;
template class PackedSimT<256>;
#endif

}  // namespace olfui
