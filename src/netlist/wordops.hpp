// olfui/netlist: word-level construction helpers.
//
// WordOps is the structural "RTL" layer used by the CPU generator: it
// expands word-wide operators (adders, muxes, comparators, shifters,
// registers) into library gates, producing realistic gate-level cones for
// the testability analysis to chew on. All cells created through a WordOps
// instance are named under its hierarchical prefix.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/netlist.hpp"

namespace olfui {

/// A little-endian bus: element 0 is bit 0.
using Bus = std::vector<NetId>;

/// A register word: per-bit flop cells plus their Q nets. Flops may be
/// declared before their D cone exists (feedback paths) and connected later.
struct RegWord {
  std::vector<CellId> flops;
  Bus q;
};

class WordOps {
 public:
  /// All cells/nets are created inside `nl` under "<prefix>/".
  WordOps(Netlist& nl, std::string prefix);

  Netlist& netlist() { return *nl_; }
  const std::string& prefix() const { return prefix_; }

  // ---- constants ----------------------------------------------------------

  /// Net tied to 0/1. One tie cell per WordOps instance is shared, matching
  /// how synthesis shares tie cells within a module.
  NetId lit(bool v);
  /// Width-bit constant bus built from lit().
  Bus constant(std::uint64_t value, int width);

  // ---- single gates --------------------------------------------------------

  NetId gate(CellType t, std::string_view name, const std::vector<NetId>& ins);
  NetId buf(NetId a, std::string_view name) { return gate(CellType::kBuf, name, {a}); }
  NetId not_(NetId a, std::string_view name) { return gate(CellType::kNot, name, {a}); }
  NetId and2(NetId a, NetId b, std::string_view name) { return gate(CellType::kAnd2, name, {a, b}); }
  NetId or2(NetId a, NetId b, std::string_view name) { return gate(CellType::kOr2, name, {a, b}); }
  NetId xor2(NetId a, NetId b, std::string_view name) { return gate(CellType::kXor2, name, {a, b}); }
  NetId xnor2(NetId a, NetId b, std::string_view name) { return gate(CellType::kXnor2, name, {a, b}); }
  /// out = s ? b : a
  NetId mux(NetId s, NetId a, NetId b, std::string_view name) {
    return gate(CellType::kMux2, name, {a, b, s});
  }

  // ---- word-wide combinational ops ----------------------------------------

  Bus not_word(const Bus& a, std::string_view name);
  Bus and_word(const Bus& a, const Bus& b, std::string_view name);
  Bus or_word(const Bus& a, const Bus& b, std::string_view name);
  Bus xor_word(const Bus& a, const Bus& b, std::string_view name);
  /// Per-bit 2:1 mux: s==0 selects a, s==1 selects b.
  Bus mux_word(NetId s, const Bus& a, const Bus& b, std::string_view name);

  struct AddResult {
    Bus sum;
    NetId carry_out;
  };
  /// Ripple-carry adder; `cin` may be lit(0).
  AddResult add_word(const Bus& a, const Bus& b, NetId cin, std::string_view name);
  /// a - b via two's complement (inverted b, cin=1).
  AddResult sub_word(const Bus& a, const Bus& b, std::string_view name);

  /// AND / OR reduction trees.
  NetId reduce_and(std::vector<NetId> nets, std::string_view name);
  NetId reduce_or(std::vector<NetId> nets, std::string_view name);
  /// 1 iff a == b (XNOR + AND tree).
  NetId eq_word(const Bus& a, const Bus& b, std::string_view name);
  /// 1 iff a == constant (NOT on zero bits + AND tree).
  NetId eq_const(const Bus& a, std::uint64_t value, std::string_view name);

  /// Full binary decoder: returns 2^sel.size() one-hot outputs.
  Bus decode(const Bus& sel, std::string_view name);
  /// One-hot word mux: sum over i of (onehot[i] & words[i]).
  Bus onehot_mux(const Bus& onehot, const std::vector<Bus>& words,
                 std::string_view name);

  /// Logical barrel shifter, `left` chooses direction; amount bus is
  /// little-endian (amount[i] shifts by 2^i).
  Bus shift_word(const Bus& a, const Bus& amount, bool left, std::string_view name);

  /// Array multiplier returning the low |a| bits of a*b (row-by-row
  /// partial-product accumulation with ripple adders).
  Bus mul_word(const Bus& a, const Bus& b, std::string_view name);

  // ---- registers ------------------------------------------------------------

  /// Declares `width` flops with unconnected D. If `rstn` is valid the flops
  /// are DFFR (active-low reset to 0), else plain DFF.
  RegWord reg_declare(int width, std::string_view name, NetId rstn = kInvalidId);
  /// Connects the D pins of a declared register to `d`.
  void reg_connect(RegWord& r, const Bus& d);
  /// Declare-and-connect convenience for feed-forward registers.
  RegWord reg_word(const Bus& d, std::string_view name, NetId rstn = kInvalidId);
  /// Tags every flop of `r` with "<tag>:<bit>" for the analysis passes.
  void tag_reg(const RegWord& r, std::string_view tag);

 private:
  std::string name(std::string_view base) const;
  std::string bit_name(std::string_view base, std::size_t i) const;

  Netlist* nl_;
  std::string prefix_;
  NetId tie0_ = kInvalidId;
  NetId tie1_ = kInvalidId;
};

/// Converts a bus sampled as uint64 (e.g. from simulation) — helper for tests.
std::uint64_t bus_value(const Bus& bus, const std::vector<int>& bit_values);

}  // namespace olfui
