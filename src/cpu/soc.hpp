// olfui/cpu: the system-on-chip around the MiniRISC32 core.
//
// build_soc() reproduces the case-study configuration: the core, the
// Nexus-style debug unit (insert_debug), full scan (insert_scan, so the
// debug unit's own flops are scanned too), and the mission memory map —
// Flash at 0x0007_8000-0x0007_FFFF, RAM at 0x4000_0000-0x4001_FFFF on a
// 32-bit address bus. Memories are behavioural models (the paper's
// 214,930-fault universe is the processor core only; memory cores are
// outside it).
//
// Two execution environments drive the netlist:
//  * SocSimulator — 4-valued single-machine functional runner (program
//    bring-up, architectural tests, toggle-activity recording);
//  * SocFsimEnvironment — the packed W-lane environment for the fault
//    simulator (64 lanes scalar, 128/256 over vector extensions), with
//    copy-on-diverge per-lane RAM so faulty machines that stray to wrong
//    addresses read what real silicon would read.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cpu/cpu.hpp"
#include "cpu/isa.hpp"
#include "debug/debug.hpp"
#include "fsim/fsim.hpp"
#include "memmap/memmap.hpp"
#include "netlist/netlist.hpp"
#include "scan/scan.hpp"
#include "sim/sim.hpp"

namespace olfui {

struct SocConfig {
  CpuConfig cpu;
  bool with_debug = true;
  bool with_scan = true;
  ScanConfig scan{.num_chains = 4, .buffers_per_link = 1,
                  .se_functional_value = false};
  std::uint64_t flash_base = 0x0007'8000;
  std::uint64_t flash_size = 0x0'8000;   // 32 KiB code flash
  std::uint64_t ram_base = 0x4000'0000;
  std::uint64_t ram_size = 0x2'0000;     // 128 KiB SRAM
};

struct Soc {
  SocConfig config;
  Netlist netlist{"minirisc_soc"};
  CpuHandles cpu;
  DebugPorts debug;    // empty if !with_debug
  ScanChains scan;     // empty if !with_scan
  MemoryMap map;
};

std::unique_ptr<Soc> build_soc(const SocConfig& cfg = {});

/// Code image resident in the behavioural flash.
class FlashImage {
 public:
  FlashImage(std::uint64_t base, std::uint64_t size) : base_(base), size_(size) {}
  void load(std::uint32_t addr, const std::vector<std::uint32_t>& words);
  /// Word at byte address `addr`; 0 (NOP) outside the image.
  std::uint32_t read(std::uint64_t addr) const;
  std::uint64_t base() const { return base_; }

 private:
  std::uint64_t base_, size_;
  std::unordered_map<std::uint64_t, std::uint32_t> words_;
};

/// Single-machine 4-valued functional runner.
class SocSimulator {
 public:
  explicit SocSimulator(const Soc& soc);

  FlashImage& flash() { return flash_; }
  /// Assembles `p` (resolving labels) and loads it at its base address.
  void load_program(Program& p);

  /// Applies reset and runs until HALT or `max_cycles`. Returns the number
  /// of executed cycles. An optional recorder samples toggle activity.
  int run(int max_cycles, ToggleRecorder* recorder = nullptr);

  bool halted() const;
  std::uint32_t gpr(int r) const;
  std::uint32_t pc() const;
  std::uint32_t ram_word(std::uint64_t addr) const;
  const std::unordered_map<std::uint64_t, std::uint32_t>& ram() const {
    return ram_;
  }
  Simulator& sim() { return sim_; }

 private:
  void drive_mission_inputs(bool rstn_value);

  const Soc* soc_;
  Simulator sim_;
  FlashImage flash_;
  std::unordered_map<std::uint64_t, std::uint32_t> ram_;
};

/// Packed fault-simulation environment with per-lane data memory.
///
/// Divergence-aware (the concurrent-fault-simulation idea applied at the
/// bus boundary): each cycle reads every observed bus as lane 0's value
/// plus the mask of lanes that differ from it, serves lane 0's fetch and
/// memory access once, and does per-lane work only for the divergent
/// lanes — a cycle costs O(bus bits + divergent lanes), not O(W^2). Data
/// memory is copy-on-diverge: every lane reads and writes lane 0's RAM
/// until its write transaction (strobe, address or data) first differs
/// from lane 0's, when it takes a private copy of the RAM as it stood
/// before that cycle's writes. A lane that never diverges therefore holds
/// exactly lane 0's RAM, so the per-lane results are those of W separate
/// memories.
///
/// Each step drives the whole cycle's stimulus from flop-driven bus ports
/// and then evaluates once (the FsimEnvironmentT contract trace replay
/// relies on); the constructor throws std::invalid_argument if any bus
/// port the environment reads is not driven directly by a flop.
template <int W>
class SocFsimEnvironmentT : public FsimEnvironmentT<W> {
 public:
  SocFsimEnvironmentT(const Soc& soc, const FlashImage& flash, int run_cycles);

  void reset(PackedSimT<W>& sim) override;
  bool step(PackedSimT<W>& sim, int cycle) override;

 private:
  using Word = LaneWord<W>;
  using Ram = std::unordered_map<std::uint64_t, std::uint32_t>;
  static constexpr int kBusBits = 32;

  /// One observed bus this cycle: its per-bit lane words, lane 0's value,
  /// and the lanes whose value differs from lane 0's.
  struct BusRead {
    std::array<Word, kBusBits> bits{};
    std::uint64_t good = 0;
    Word diverged{};
    /// Lane `lane`'s value, gathered from the per-bit words.
    std::uint64_t lane_value(int lane) const;
  };

  void drive_mission_inputs(PackedSimT<W>& sim, bool rstn_value);
  void read_bus(const PackedSimT<W>& sim, const std::vector<CellId>& cells,
                BusRead& out) const;
  /// Drives `good` on every lane of `bus`, then flips, for each lane of
  /// `lanes`, the bits where lane_value(lane) differs from it.
  template <class LaneValue>
  void drive_bus(PackedSimT<W>& sim, const Bus& bus, std::uint64_t good,
                 const Word& lanes, LaneValue lane_value);
  const Ram& ram_of(int lane) const;
  void mem_write(Ram& ram, std::uint64_t addr, std::uint64_t data) const;
  std::uint64_t mem_read(const Ram& ram, std::uint64_t addr) const;

  const Soc* soc_;
  const FlashImage* flash_;
  int run_cycles_;
  bool halt_seen_ = false;
  Ram ram_;                        ///< lane 0's RAM, shared by non-private lanes
  Word private_{};                 ///< lanes that own a copy in private_ram_
  std::array<Ram, W> private_ram_;
  BusRead iaddr_, baddr_, bwdata_;  ///< per-cycle scratch
  // Cached port-cell groups for observed reads.
  std::vector<CellId> iaddr_cells_, baddr_cells_, bwdata_cells_;
  CellId bwr_cell_, brd_cell_, halted_cell_;
};

/// The scalar 64-lane environment every pre-width-parametric caller uses.
using SocFsimEnvironment = SocFsimEnvironmentT<64>;

}  // namespace olfui
