// olfui/netlist: flat gate-level netlist graph.
//
// A Netlist is a set of cells connected by single-driver nets. Top-level
// ports are modelled as pseudo-cells (kInput / kOutput) so that every
// fault site in the design — including port faults — is uniformly a
// (cell, pin) pair. Hierarchy is expressed through '/'-separated instance
// names ("u_core/u_btb/tag0_q_reg_17"), which the analysis passes use to
// attribute faults to modules.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "netlist/cell.hpp"

namespace olfui {

using CellId = std::uint32_t;
using NetId = std::uint32_t;
inline constexpr std::uint32_t kInvalidId = 0xFFFFFFFFu;

/// A connection endpoint: pin 0 is the cell's output, pins 1..n its inputs.
struct Pin {
  CellId cell = kInvalidId;
  std::uint8_t pin = 0;

  bool operator==(const Pin&) const = default;
};

struct Cell {
  CellType type = CellType::kBuf;
  std::string name;
  /// Driven net (kInvalidId for kOutput cells, which drive nothing).
  NetId out = kInvalidId;
  /// Input nets, in the pin order defined by the cell library.
  std::vector<NetId> ins;
  /// Free-form analysis tag, e.g. "addr_reg:pc:17" set by the generator,
  /// consumed by the memory-map pass (DESIGN.md E1/E5).
  std::string tag;
};

struct Net {
  std::string name;
  CellId driver = kInvalidId;
  /// All input pins reading this net (pin values are >= 1).
  std::vector<Pin> fanout;
};

struct NetlistStats {
  std::size_t cells = 0;       ///< all cells including port pseudo-cells
  std::size_t gates = 0;       ///< combinational gates (excl. ports/ties)
  std::size_t flops = 0;       ///< kDff + kDffR
  std::size_t ties = 0;        ///< tie cells
  std::size_t nets = 0;
  std::size_t inputs = 0;      ///< top-level input ports
  std::size_t outputs = 0;     ///< top-level output ports
  std::size_t pins = 0;        ///< total fault-site pins (see fault module)
};

/// Flat single-clock gate-level netlist.
///
/// Invariants (checked by validate()):
///  * every net has exactly one driver;
///  * every cell input is connected;
///  * the combinational part is acyclic (loops must be cut by flops).
class Netlist {
 public:
  explicit Netlist(std::string name = "top") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // ---- construction -----------------------------------------------------

  /// Creates a named net. Names must be unique; a duplicate gets a
  /// "__<k>" suffix appended.
  NetId add_net(std::string_view name);

  /// Creates a cell driving `out` (pass kInvalidId for kOutput cells).
  /// `ins.size()` must equal num_inputs(type). Input nets may be kInvalidId
  /// at creation and connected later via connect_input().
  CellId add_cell(CellType type, std::string_view name, NetId out,
                  std::vector<NetId> ins);

  /// Declares a top-level input port: creates the net and its kInput cell.
  NetId add_input(std::string_view port_name);
  /// Declares a top-level output port reading `net`.
  CellId add_output(std::string_view port_name, NetId net);

  /// Connects input `input_pin` (an index into the cell's ins) to `net`.
  /// Throws std::out_of_range naming the cell for an index outside ins.
  void connect_input(CellId cell, int input_pin, NetId net);

  /// Rewires input `input_pin` of `cell` (an index into its ins, so pin
  /// input_pin + 1) from its current net to `new_net`, updating both
  /// fanout lists. Used by the scan / debug insertion passes. Throws
  /// std::out_of_range naming the cell for an index outside ins.
  void rewire_input(CellId cell, int input_pin, NetId new_net);

  void set_tag(CellId cell, std::string tag) { cells_[cell].tag = std::move(tag); }

  // ---- access -----------------------------------------------------------

  std::size_t num_cells() const { return cells_.size(); }
  std::size_t num_nets() const { return nets_.size(); }
  const Cell& cell(CellId id) const { return cells_[id]; }
  const Net& net(NetId id) const { return nets_[id]; }

  /// Net connected to (cell, pin): the output net for pin 0, else the input.
  NetId pin_net(Pin p) const;

  /// Top-level ports in declaration order.
  const std::vector<CellId>& input_cells() const { return input_cells_; }
  const std::vector<CellId>& output_cells() const { return output_cells_; }

  /// Net of the input port with this name, or kInvalidId.
  NetId find_input(std::string_view port_name) const;
  /// Output port cell with this name, or kInvalidId.
  CellId find_output(std::string_view port_name) const;
  NetId find_net(std::string_view name) const;
  CellId find_cell(std::string_view name) const;

  /// All sequential cells (kDff/kDffR), in id order.
  std::vector<CellId> flops() const;

  // ---- analysis support ---------------------------------------------------

  /// Topological order of combinational cells (ties and kInput excluded,
  /// flop outputs treated as sources, kOutput cells included last at their
  /// level). Fails (returns false) on a combinational loop.
  bool levelize(std::vector<CellId>& order) const;

  /// Checks all structural invariants; returns a list of human-readable
  /// problems (empty == valid).
  std::vector<std::string> validate() const;

  NetlistStats stats() const;

  /// Per-module (top name prefix before first '/') cell counts.
  std::unordered_map<std::string, std::size_t> module_histogram() const;

 private:
  std::string unique_name(std::string_view base,
                          std::unordered_map<std::string, std::uint32_t>& used);

  std::string name_;
  std::vector<Cell> cells_;
  std::vector<Net> nets_;
  std::vector<CellId> input_cells_;
  std::vector<CellId> output_cells_;
  std::unordered_map<std::string, std::uint32_t> net_names_;
  std::unordered_map<std::string, std::uint32_t> cell_names_;
  std::unordered_map<std::string, NetId> net_index_;
  std::unordered_map<std::string, CellId> cell_index_;
};

}  // namespace olfui
