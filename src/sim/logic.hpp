// olfui/sim: 4-valued logic (0, 1, X, Z) and ternary gate evaluation.
//
// X is "unknown"; Z is "floating / disconnected" and behaves as X when
// consumed by a gate. The constant-propagation engine of olfui_sta relies
// on the monotonicity of eval_ternary: refining an input from X to a
// definite value never flips a definite output value.
#pragma once

#include <cstdint>

#include "netlist/cell.hpp"

namespace olfui {

enum class Logic : std::uint8_t { V0 = 0, V1 = 1, VX = 2, VZ = 3 };

inline bool is_known(Logic v) { return v == Logic::V0 || v == Logic::V1; }
inline Logic from_bool(bool b) { return b ? Logic::V1 : Logic::V0; }

Logic logic_not(Logic a);
Logic logic_and(Logic a, Logic b);
Logic logic_or(Logic a, Logic b);
Logic logic_xor(Logic a, Logic b);

/// Ternary evaluation of a combinational cell (not valid for flops/ports).
/// MUX with unknown select returns the data value if both data inputs agree.
Logic eval_ternary(CellType t, const Logic* in, int n);

/// Next-state function of a flop at a clock edge given current D/RSTN.
/// DFFR resets to 0 when RSTN is 0; an unknown RSTN yields 0 only if D is
/// also 0 (both branches agree), else X.
Logic flop_next(CellType t, Logic d, Logic rstn);

}  // namespace olfui
