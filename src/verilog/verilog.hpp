// olfui/verilog: structural Verilog subset writer and parser.
//
// The supported subset is exactly what gate-level netlists from synthesis
// look like after mapping to the olfui cell library:
//
//   module <name> ( <ports> );
//     input  a; output y; wire n1;      // non-ANSI: the header lists a, y
//     AND2 u1 (.Y(n1), .A(a), .B(n2));
//     DFFR r0 (.Q(q), .D(d), .RSTN(rstn));
//     assign y = n1;        // output port connections
//   endmodule
//
// The header is either non-ANSI, as above (bare port names, each declared
// in the body; a name missing on either side is a located error), or
// ANSI ("module m (input a, output y);", what write_verilog emits). An
// empty header with body declarations is accepted too.
//
// Hierarchical instance names ("core/alu/u_sum_3") are emitted as Verilog
// escaped identifiers (\core/alu/u_sum_3 ). Round-tripping a netlist
// through write_verilog/parse_verilog preserves structure, names and tags
// are preserved where representable (tags travel in a trailing
// "// tag: ..." comment).
#pragma once

#include <stdexcept>
#include <string>

#include "netlist/netlist.hpp"

namespace olfui {

std::string write_verilog(const Netlist& nl);

class VerilogError : public std::runtime_error {
 public:
  VerilogError(const std::string& msg, int line)
      : std::runtime_error("verilog:" + std::to_string(line) + ": " + msg),
        line_(line) {}
  int line() const { return line_; }

 private:
  int line_;
};

/// Parses the subset; throws VerilogError on malformed input.
Netlist parse_verilog(const std::string& text);

}  // namespace olfui
