#include "cpu/soc.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>

#include "util/strings.hpp"

namespace olfui {

std::unique_ptr<Soc> build_soc(const SocConfig& cfg) {
  auto soc = std::make_unique<Soc>();
  soc->config = cfg;
  soc->cpu = generate_cpu(soc->netlist, cfg.cpu);

  if (cfg.with_debug) {
    // The Nexus-style unit exposes half the register file for write access
    // and both observation buses (GPR window + PC/IR), comparable in area
    // ratio to production debug IP on a core of this size.
    DebugSpec spec;
    for (int r = 0; r < 4; ++r)
      spec.writable_regs.push_back(&soc->cpu.gprs[static_cast<std::size_t>(r)]);
    for (int r = 0; r < 4; ++r)
      spec.bus_a_words.push_back(soc->cpu.gprs[static_cast<std::size_t>(r)].q);
    spec.bus_b_words.push_back(soc->cpu.pc.q);
    spec.bus_b_words.push_back(soc->cpu.ir.q);
    spec.hold_reg = &soc->cpu.pc;
    soc->debug = insert_debug(soc->netlist, spec);
  }
  if (cfg.with_scan) {
    soc->scan = insert_scan(soc->netlist, cfg.scan);
  }
  soc->map.add_range("flash", cfg.flash_base, cfg.flash_size);
  soc->map.add_range("ram", cfg.ram_base, cfg.ram_size);
  return soc;
}

void FlashImage::load(std::uint32_t addr, const std::vector<std::uint32_t>& words) {
  for (std::size_t i = 0; i < words.size(); ++i)
    words_[addr + 4 * i] = words[i];
}

std::uint32_t FlashImage::read(std::uint64_t addr) const {
  const auto it = words_.find(addr & ~3ULL);
  return it == words_.end() ? 0u : it->second;
}

SocSimulator::SocSimulator(const Soc& soc)
    : soc_(&soc),
      sim_(soc.netlist),
      flash_(soc.config.flash_base, soc.config.flash_size) {}

void SocSimulator::load_program(Program& p) {
  flash_.load(p.base(), p.words());
}

void SocSimulator::drive_mission_inputs(bool rstn_value) {
  sim_.set_input(soc_->cpu.rstn, rstn_value);
  if (soc_->config.with_scan) {
    sim_.set_input(soc_->scan.se_net, soc_->scan.se_functional_value);
    for (const ScanChain& c : soc_->scan.chains)
      sim_.set_input(c.scan_in_net, false);
  }
  if (soc_->config.with_debug) {
    for (std::size_t i = 0; i < soc_->debug.control_inputs.size(); ++i)
      sim_.set_input(soc_->debug.control_inputs[i],
                     soc_->debug.control_values[i]);
  }
}

int SocSimulator::run(int max_cycles, ToggleRecorder* recorder) {
  sim_.power_on();
  // Reset sequence: two cycles with rstn low; data inputs quiet.
  drive_mission_inputs(false);
  sim_.set_input_word(soc_->cpu.instr_in, 0);
  sim_.set_input_word(soc_->cpu.rdata_in, 0);
  sim_.eval();
  sim_.clock();
  sim_.clock();

  int cycle = 0;
  for (; cycle < max_cycles; ++cycle) {
    drive_mission_inputs(true);
    sim_.eval();
    // Serve the instruction fetch (combinational flash read).
    const std::uint64_t iaddr = sim_.read_word(soc_->cpu.iaddr);
    sim_.set_input_word(soc_->cpu.instr_in, flash_.read(iaddr));
    sim_.eval();
    // Bus transactions (registered address/strobes, data this cycle).
    const std::uint64_t baddr = sim_.read_word(soc_->cpu.baddr);
    if (sim_.value(soc_->cpu.bwr) == Logic::V1) {
      if (soc_->map.contains(baddr))
        ram_[baddr & ~3ULL] =
            static_cast<std::uint32_t>(sim_.read_word(soc_->cpu.bwdata));
    }
    std::uint64_t rdata = 0;
    if (sim_.value(soc_->cpu.brd) == Logic::V1) {
      const auto it = ram_.find(baddr & ~3ULL);
      rdata = it != ram_.end() ? it->second : flash_.read(baddr);
    }
    sim_.set_input_word(soc_->cpu.rdata_in, rdata);
    sim_.eval();
    if (recorder) recorder->sample(sim_);
    if (sim_.value(soc_->cpu.halted) == Logic::V1) break;
    sim_.clock();
  }
  return cycle;
}

bool SocSimulator::halted() const {
  return sim_.value(soc_->cpu.halted) == Logic::V1;
}

std::uint32_t SocSimulator::gpr(int r) const {
  return static_cast<std::uint32_t>(sim_.read_word(soc_->cpu.gprs[r].q));
}

std::uint32_t SocSimulator::pc() const {
  return static_cast<std::uint32_t>(sim_.read_word(soc_->cpu.pc.q));
}

std::uint32_t SocSimulator::ram_word(std::uint64_t addr) const {
  const auto it = ram_.find(addr & ~3ULL);
  return it == ram_.end() ? 0u : it->second;
}

template <int W>
SocFsimEnvironmentT<W>::SocFsimEnvironmentT(const Soc& soc,
                                            const FlashImage& flash,
                                            int run_cycles)
    : soc_(&soc), flash_(&flash), run_cycles_(run_cycles) {
  const Netlist& nl = soc.netlist;
  for (int i = 0; i < 32; ++i) {
    iaddr_cells_.push_back(nl.find_output(format("iaddr_o%d", i)));
    baddr_cells_.push_back(nl.find_output(format("baddr_o%d", i)));
    bwdata_cells_.push_back(nl.find_output(format("bwdata_o%d", i)));
  }
  bwr_cell_ = nl.find_output("bwr_o");
  brd_cell_ = nl.find_output("brd_o");
  halted_cell_ = nl.find_output("halted_o");
  // step() reads the bus before its single eval, which is exact only for
  // ports whose value is fixed at the clock edge.
  std::vector<CellId> ports = {bwr_cell_, brd_cell_, halted_cell_};
  for (const auto* group : {&iaddr_cells_, &baddr_cells_, &bwdata_cells_})
    ports.insert(ports.end(), group->begin(), group->end());
  for (const CellId port : ports) {
    const CellId driver = nl.net(nl.cell(port).ins[0]).driver;
    if (driver == kInvalidId || !is_sequential(nl.cell(driver).type))
      throw std::invalid_argument("SocFsimEnvironment: bus port '" +
                                  nl.cell(port).name +
                                  "' is not driven by a flop");
  }
}

template <int W>
void SocFsimEnvironmentT<W>::drive_mission_inputs(PackedSimT<W>& sim,
                                                  bool rstn_value) {
  sim.set_input_all(soc_->cpu.rstn, rstn_value);
  if (soc_->config.with_scan) {
    sim.set_input_all(soc_->scan.se_net, soc_->scan.se_functional_value);
    for (const ScanChain& c : soc_->scan.chains)
      sim.set_input_all(c.scan_in_net, false);
  }
  if (soc_->config.with_debug) {
    for (std::size_t i = 0; i < soc_->debug.control_inputs.size(); ++i)
      sim.set_input_all(soc_->debug.control_inputs[i],
                        soc_->debug.control_values[i]);
  }
}

namespace {

/// Calls f(lane) for every set lane of `w`, in increasing lane order.
template <class Word, class F>
void for_each_lane(const Word& w, F&& f) {
  for (int k = 0; k < static_cast<int>(sizeof(Word) / 8); ++k)
    for (std::uint64_t m = word_of(w, k); m; m &= m - 1)
      f(k * 64 + std::countr_zero(m));
}

}  // namespace

template <int W>
std::uint64_t SocFsimEnvironmentT<W>::BusRead::lane_value(int lane) const {
  std::uint64_t v = 0;
  for (int b = 0; b < kBusBits; ++b)
    v |= static_cast<std::uint64_t>(lane_test(bits[b], lane)) << b;
  return v;
}

template <int W>
void SocFsimEnvironmentT<W>::read_bus(const PackedSimT<W>& sim,
                                      const std::vector<CellId>& cells,
                                      BusRead& out) const {
  out.good = 0;
  out.diverged = Word{};
  for (int b = 0; b < kBusBits; ++b) {
    const Word& w = sim.observed(cells[static_cast<std::size_t>(b)]);
    const bool good = word_of(w, 0) & 1ULL;
    out.bits[b] = w;
    out.good |= static_cast<std::uint64_t>(good) << b;
    out.diverged |= w ^ (good ? kAllLanes<Word> : Word{});
  }
}

template <int W>
template <class LaneValue>
void SocFsimEnvironmentT<W>::drive_bus(PackedSimT<W>& sim, const Bus& bus,
                                       std::uint64_t good, const Word& lanes,
                                       LaneValue lane_value) {
  std::array<Word, kBusBits> bits;
  for (int b = 0; b < kBusBits; ++b)
    bits[b] = (good >> b) & 1ULL ? kAllLanes<Word> : Word{};
  for_each_lane(lanes, [&](int lane) {
    const std::uint64_t flip = 1ULL << (lane % 64);
    for (std::uint64_t d = (lane_value(lane) ^ good) & 0xFFFF'FFFFULL; d;
         d &= d - 1) {
      Word& w = bits[std::countr_zero(d)];
      set_word_of(w, lane / 64, word_of(w, lane / 64) ^ flip);
    }
  });
  for (int b = 0; b < kBusBits; ++b)
    sim.set_input_lanes(bus[static_cast<std::size_t>(b)], bits[b]);
}

template <int W>
const typename SocFsimEnvironmentT<W>::Ram& SocFsimEnvironmentT<W>::ram_of(
    int lane) const {
  return lane_test(private_, lane) ? private_ram_[static_cast<std::size_t>(lane)]
                                   : ram_;
}

template <int W>
void SocFsimEnvironmentT<W>::mem_write(Ram& ram, std::uint64_t addr,
                                       std::uint64_t data) const {
  if (soc_->map.contains(addr))
    ram[addr & ~3ULL] = static_cast<std::uint32_t>(data);
}

template <int W>
std::uint64_t SocFsimEnvironmentT<W>::mem_read(const Ram& ram,
                                               std::uint64_t addr) const {
  const auto it = ram.find(addr & ~3ULL);
  if (it != ram.end()) return it->second;
  return flash_->read(addr);
}

template <int W>
void SocFsimEnvironmentT<W>::reset(PackedSimT<W>& sim) {
  // Private copies are overwritten when a lane next diverges, so only the
  // shared RAM needs clearing.
  ram_.clear();
  private_ = Word{};
  halt_seen_ = false;
  drive_mission_inputs(sim, false);
  sim.set_input_word(soc_->cpu.instr_in, 0);
  sim.set_input_word(soc_->cpu.rdata_in, 0);
  sim.eval();
  sim.clock();
  sim.clock();
}

template <int W>
bool SocFsimEnvironmentT<W>::step(PackedSimT<W>& sim, int cycle) {
  if (cycle >= run_cycles_ || halt_seen_) return false;
  // Every bus port is flop-driven (checked at construction), so the whole
  // cycle's stimulus is known before its one eval.
  drive_mission_inputs(sim, true);
  // Instruction fetch: a faulty machine that wanders to a wrong address
  // fetches whatever the flash holds there (NOP outside).
  read_bus(sim, iaddr_cells_, iaddr_);
  drive_bus(sim, soc_->cpu.instr_in, flash_->read(iaddr_.good),
            iaddr_.diverged,
            [&](int lane) { return flash_->read(iaddr_.lane_value(lane)); });

  // Bus transactions.
  read_bus(sim, baddr_cells_, baddr_);
  read_bus(sim, bwdata_cells_, bwdata_);
  const Word wr = sim.observed(bwr_cell_);
  const Word rd = sim.observed(brd_cell_);
  const Word wr_good = lane_test(wr, 0) ? kAllLanes<Word> : Word{};
  const Word rd_good = lane_test(rd, 0) ? kAllLanes<Word> : Word{};
  // Copy-on-diverge: a lane whose write differs from lane 0's (strobe, or
  // address/data while both write) takes its copy before anyone writes.
  const Word write_diverged =
      (wr ^ wr_good) | (wr & wr_good & (baddr_.diverged | bwdata_.diverged));
  for_each_lane(write_diverged & ~private_, [&](int lane) {
    private_ram_[static_cast<std::size_t>(lane)] = ram_;
  });
  private_ |= write_diverged;
  for_each_lane(wr & private_, [&](int lane) {
    mem_write(private_ram_[static_cast<std::size_t>(lane)],
              baddr_.lane_value(lane), bwdata_.lane_value(lane));
  });
  if (lane_test(wr, 0)) mem_write(ram_, baddr_.good, bwdata_.good);
  // Reads see this cycle's writes. A lane reads what lane 0 reads unless
  // its strobe differs, or it reads from another address or its own RAM.
  const std::uint64_t rdata =
      lane_test(rd, 0) ? mem_read(ram_, baddr_.good) : 0;
  drive_bus(sim, soc_->cpu.rdata_in, rdata,
            (rd ^ rd_good) | (rd & (baddr_.diverged | private_)),
            [&](int lane) -> std::uint64_t {
              return lane_test(rd, lane)
                         ? mem_read(ram_of(lane), baddr_.lane_value(lane))
                         : 0;
            });
  sim.eval();
  // Let the comparison see the halting cycle, then stop on the next one.
  if (lane_test(sim.observed(halted_cell_), 0)) halt_seen_ = true;
  return true;
}

template class SocFsimEnvironmentT<64>;
#if OLFUI_HAS_WIDE_LANES
template class SocFsimEnvironmentT<128>;
template class SocFsimEnvironmentT<256>;
#endif

}  // namespace olfui
