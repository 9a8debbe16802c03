#include "hw/verilog.hpp"

#include <sstream>

#include "lowprec/fixed_point.hpp"
#include "lowprec/soft_float.hpp"
#include "util/strings.hpp"

namespace problp::hw {

namespace {

using lowprec::ArithFlags;
using lowprec::FixedFormat;
using lowprec::FixedPoint;
using lowprec::FloatFormat;
using lowprec::RoundingMode;
using lowprec::SoftFloat;

std::string hex_literal(int width, problp::u128 value) {
  // Verilog sized hex literal, e.g. 16'h00a3.
  std::string digits;
  const int nibbles = (width + 3) / 4;
  for (int i = nibbles - 1; i >= 0; --i) {
    const auto nib = static_cast<unsigned>((value >> (4 * i)) & 0xF);
    digits.push_back("0123456789abcdef"[nib]);
  }
  return str_format("%d'h%s", width, digits.c_str());
}

/// Stored bit pattern of a float constant: [exponent field | mantissa field],
/// exponent field 0 encoding zero (see lowprec/format.hpp).
problp::u128 float_bits(const SoftFloat& v, const FloatFormat& fmt) {
  if (v.is_zero()) return 0;
  const auto stored_exp =
      static_cast<problp::u128>(v.exponent() + fmt.bias());
  const problp::u128 mant =
      static_cast<problp::u128>(v.significand()) - (problp::u128{1} << fmt.mantissa_bits);
  return (stored_exp << fmt.mantissa_bits) | mant;
}

void emit_header_comment(std::ostringstream& os, const Netlist& netlist,
                         const std::string& format_desc) {
  const NetlistStats stats = netlist.stats();
  os << "// Generated by ProbLP (low-precision probabilistic inference).\n"
     << "// Format: " << format_desc << "\n"
     << "// " << stats.to_string() << "\n"
     << "// Fully pipelined, initiation interval 1; results appear "
     << stats.latency_cycles << " cycles after inputs.\n\n";
}

void emit_fixed_oplib(std::ostringstream& os, const FixedFormat& fmt, RoundingMode rounding) {
  const int w = fmt.total_bits();
  const int f = fmt.fraction_bits;
  os << "module fx_add(input [" << w - 1 << ":0] a, input [" << w - 1 << ":0] b, output ["
     << w - 1 << ":0] y);\n"
     << "  // exact: overflow precluded by ProbLP's max-value analysis\n"
     << "  assign y = a + b;\nendmodule\n\n";
  os << "module fx_mul(input [" << w - 1 << ":0] a, input [" << w - 1 << ":0] b, output ["
     << w - 1 << ":0] y);\n"
     << "  wire [" << 2 * w - 1 << ":0] p = a * b;\n";
  if (f == 0) {
    os << "  assign y = p[" << w - 1 << ":0];\n";
  } else if (rounding == RoundingMode::kTruncate) {
    os << "  assign y = p[" << f + w - 1 << ":" << f << "];\n";
  } else {
    os << "  wire [" << w - 1 << ":0] t = p[" << f + w - 1 << ":" << f << "];\n"
       << "  wire guard = p[" << f - 1 << "];\n"
       << "  wire sticky = "
       << (f >= 2 ? str_format("|p[%d:0]", f - 2) : std::string("1'b0")) << ";\n"
       << "  // round to nearest, ties to even\n"
       << "  assign y = t + {{" << w - 1 << "{1'b0}}, guard & (sticky | t[0])};\n";
  }
  os << "endmodule\n\n";
  os << "module op_max(input [" << w - 1 << ":0] a, input [" << w - 1 << ":0] b, output ["
     << w - 1 << ":0] y);\n  assign y = (a > b) ? a : b;\nendmodule\n\n";
}

void emit_float_oplib(std::ostringstream& os, const FloatFormat& fmt, RoundingMode rounding) {
  const int e = fmt.exponent_bits;
  const int m = fmt.mantissa_bits;
  const int w = e + m;
  const bool rne = rounding == RoundingMode::kNearestEven;
  // Unpacked significand: hidden 1 made explicit (m+1 bits); exponent field
  // 0 encodes zero.  Width bookkeeping below: gated significands carry
  // m+1 bits, aligned adds carry m+5 (3 GRS bits + carry).
  os << "// Normalised float, no sign bit (AC values are non-negative), no\n"
     << "// subnormals/inf/NaN; exponent field 0 encodes the value zero.\n"
     << "module fl_add(input [" << w - 1 << ":0] a, input [" << w - 1 << ":0] b, output reg ["
     << w - 1 << ":0] y);\n"
     << "  wire [" << e - 1 << ":0] ea = a[" << w - 1 << ":" << m << "];\n"
     << "  wire [" << e - 1 << ":0] eb = b[" << w - 1 << ":" << m << "];\n"
     << "  wire az = (ea == 0), bz = (eb == 0);\n"
     << "  wire [" << m << ":0] sa = {1'b1, a[" << m - 1 << ":0]};\n"
     << "  wire [" << m << ":0] sb = {1'b1, b[" << m - 1 << ":0]};\n"
     << "  // order operands so x has the larger exponent\n"
     << "  wire swap = (eb > ea);\n"
     << "  wire [" << e - 1 << ":0] ex = swap ? eb : ea;\n"
     << "  wire [" << m << ":0] sx = swap ? sb : sa;\n"
     << "  wire [" << m << ":0] sy0 = swap ? sa : sb;\n"
     << "  wire [" << e - 1 << ":0] d = swap ? (eb - ea) : (ea - eb);\n"
     << "  // align the smaller operand with guard/round/sticky\n"
     << "  wire [" << m + 3 << ":0] sx3 = {sx, 3'b000};\n"
     << "  wire [" << m + 3 << ":0] sy3 = {sy0, 3'b000} >> (d > " << m + 3 << " ? " << m + 3
     << " : d);\n"
     << "  wire dropped = (d > 3) && (sy0 << (" << m + 4 << " - (d > " << m + 3 << " ? " << m + 3
     << " : d)) != 0);\n"
     << "  wire [" << m + 4 << ":0] sum = sx3 + (sy3 | {{" << m + 4 << "{1'b0}}, dropped});\n"
     << "  reg [" << m + 1 << ":0] rounded;\n"
     << "  reg [" << e - 1 << ":0] eo;\n"
     << "  always @* begin\n"
     << "    if (az && bz) y = 0;\n"
     << "    else if (az) y = b;\n"
     << "    else if (bz) y = a;\n"
     << "    else begin\n"
     << "      if (sum[" << m + 4 << "]) begin // carry out: shift right once more\n";
  if (rne) {
    os << "        rounded = sum[" << m + 4 << ":3] + {{" << m + 1
       << "{1'b0}}, sum[2] & ((|sum[1:0]) | sum[3])};\n";
  } else {
    os << "        rounded = sum[" << m + 4 << ":3];\n";
  }
  os << "        eo = ex + 1;\n"
     << "      end else begin\n";
  if (rne) {
    os << "        rounded = sum[" << m + 3 << ":2] + {{" << m + 1
       << "{1'b0}}, sum[1] & (sum[0] | sum[2])};\n";
  } else {
    os << "        rounded = sum[" << m + 3 << ":2];\n";
  }
  os << "        eo = ex;\n"
     << "      end\n"
     << "      if (rounded[" << m + 1 << "]) begin rounded = rounded >> 1; eo = eo + 1; end\n"
     << "      y = {eo, rounded[" << m - 1 << ":0]};\n"
     << "    end\n"
     << "  end\nendmodule\n\n";

  os << "module fl_mul(input [" << w - 1 << ":0] a, input [" << w - 1 << ":0] b, output reg ["
     << w - 1 << ":0] y);\n"
     << "  wire [" << e - 1 << ":0] ea = a[" << w - 1 << ":" << m << "];\n"
     << "  wire [" << e - 1 << ":0] eb = b[" << w - 1 << ":" << m << "];\n"
     << "  wire [" << m << ":0] sa = {1'b1, a[" << m - 1 << ":0]};\n"
     << "  wire [" << m << ":0] sb = {1'b1, b[" << m - 1 << ":0]};\n"
     << "  wire [" << 2 * m + 1 << ":0] p = sa * sb;\n"
     << "  reg [" << m + 1 << ":0] rounded;\n"
     << "  reg signed [" << e + 1 << ":0] eo;\n"
     << "  always @* begin\n"
     << "    if (ea == 0 || eb == 0) y = 0;\n"
     << "    else begin\n"
     << "      // product in [1,4): MSB at bit 2m+1 or 2m\n"
     << "      if (p[" << 2 * m + 1 << "]) begin\n";
  if (rne) {
    os << "        rounded = p[" << 2 * m + 1 << ":" << m + 1 << "] + {{" << m + 1
       << "{1'b0}}, p[" << m << "] & ((|p[" << (m >= 1 ? m - 1 : 0) << ":0]) | p[" << m + 1
       << "])};\n";
  } else {
    os << "        rounded = p[" << 2 * m + 1 << ":" << m + 1 << "];\n";
  }
  os << "        eo = $signed({2'b00, ea}) + $signed({2'b00, eb}) - " << fmt.bias() << " + 1;\n"
     << "      end else begin\n";
  if (rne) {
    os << "        rounded = p[" << 2 * m << ":" << m << "] + {{" << m + 1 << "{1'b0}}, p["
       << m - 1 << "] & ((|p[" << (m >= 2 ? m - 2 : 0) << ":0]) | p[" << m << "])};\n";
  } else {
    os << "        rounded = p[" << 2 * m << ":" << m << "];\n";
  }
  os << "        eo = $signed({2'b00, ea}) + $signed({2'b00, eb}) - " << fmt.bias() << ";\n"
     << "      end\n"
     << "      if (rounded[" << m + 1 << "]) begin rounded = rounded >> 1; eo = eo + 1; end\n"
     << "      // overflow saturates, underflow flushes to zero (flags are\n"
     << "      // precluded by ProbLP's max/min-value analysis)\n"
     << "      if (eo >= " << (1 << e) << ") y = {" << w << "{1'b1}};\n"
     << "      else if (eo <= 0) y = 0;\n"
     << "      else y = {eo[" << e - 1 << ":0], rounded[" << m - 1 << ":0]};\n"
     << "    end\n"
     << "  end\nendmodule\n\n";

  os << "module op_max(input [" << w - 1 << ":0] a, input [" << w - 1 << ":0] b, output ["
     << w - 1 << ":0] y);\n"
     << "  // exponent-major packing makes magnitude comparison integer-like\n"
     << "  assign y = (a > b) ? a : b;\nendmodule\n\n";
}

/// Writes the top module, instantiating `add_module` / `mul_module` (the
/// format's operator library) at every adder / multiplier cell.
void emit_datapath(std::ostringstream& os, const Netlist& netlist, int width,
                   const std::string& module_name, const char* add_module,
                   const char* mul_module, const std::string& one_literal,
                   const std::vector<std::string>& const_literals) {
  // Port list: clk, every indicator bit, the result bus.
  os << "module " << module_name << "(\n  input clk";
  for (const Wire& w : netlist.wires()) {
    if (w.driver == WireDriver::kIndicator) {
      os << ",\n  input " << verilog_ident(w.name);
    }
  }
  os << ",\n  output [" << width - 1 << ":0] pr_out\n);\n\n";

  // Wires: indicator expansion + constants.
  std::size_t const_idx = 0;
  for (std::size_t i = 0; i < netlist.num_wires(); ++i) {
    const Wire& w = netlist.wire(static_cast<WireId>(i));
    const std::string id = verilog_ident(w.name);
    if (w.driver == WireDriver::kIndicator) {
      os << "  wire [" << width - 1 << ":0] w" << i << " = " << id << " ? " << one_literal
         << " : " << hex_literal(width, 0) << "; // " << id << "\n";
    } else if (w.driver == WireDriver::kConstant) {
      os << "  wire [" << width - 1 << ":0] w" << i << " = " << const_literals[const_idx++]
         << "; // " << id << " = " << str_format("%.9g", w.value) << "\n";
    } else {
      os << "  reg  [" << width - 1 << ":0] w" << i << "; // stage " << w.stage << ": " << id
         << "\n";
    }
  }
  os << "\n";

  // Cells: operator instances feed pipeline registers; alignment registers
  // are plain flops.
  std::size_t inst = 0;
  for (const Cell& c : netlist.cells()) {
    if (c.kind == CellKind::kRegister) {
      os << "  always @(posedge clk) w" << c.out << " <= w" << c.a << ";\n";
      continue;
    }
    const char* mod = (c.kind == CellKind::kAdd)   ? add_module
                      : (c.kind == CellKind::kMul) ? mul_module
                                                   : "op_max";
    os << "  wire [" << width - 1 << ":0] c" << inst << ";\n"
       << "  " << mod << " u" << inst << "(.a(w" << c.a << "), .b(w" << c.b << "), .y(c" << inst
       << "));\n"
       << "  always @(posedge clk) w" << c.out << " <= c" << inst << ";\n";
    ++inst;
  }
  os << "\n  assign pr_out = w" << netlist.output() << ";\nendmodule\n";
}

}  // namespace

std::string emit_fixed_verilog(const Netlist& netlist, const FixedFormat& format,
                               const VerilogOptions& options) {
  format.validate();
  netlist.validate();
  std::ostringstream os;
  emit_header_comment(os, netlist, format.to_string());
  emit_fixed_oplib(os, format, options.rounding);

  const int width = format.total_bits();
  ArithFlags flags;
  std::vector<std::string> consts;
  for (const Wire& w : netlist.wires()) {
    if (w.driver != WireDriver::kConstant) continue;
    const FixedPoint q = FixedPoint::from_double(w.value, format, flags, options.rounding);
    consts.push_back(hex_literal(width, q.raw()));
  }
  const FixedPoint one = FixedPoint::from_double(1.0, format, flags, options.rounding);
  require(!flags.any(), "emit_fixed_verilog: constant quantisation out of range");

  emit_datapath(os, netlist, width, options.module_name, "fx_add", "fx_mul",
                hex_literal(width, one.raw()), consts);
  return os.str();
}

std::string emit_float_verilog(const Netlist& netlist, const FloatFormat& format,
                               const VerilogOptions& options) {
  format.validate();
  netlist.validate();
  std::ostringstream os;
  emit_header_comment(os, netlist, format.to_string());
  emit_float_oplib(os, format, options.rounding);

  const int width = format.exponent_bits + format.mantissa_bits;
  ArithFlags flags;
  std::vector<std::string> consts;
  for (const Wire& w : netlist.wires()) {
    if (w.driver != WireDriver::kConstant) continue;
    const SoftFloat q = SoftFloat::from_double(w.value, format, flags, options.rounding);
    consts.push_back(hex_literal(width, float_bits(q, format)));
  }
  const SoftFloat one = SoftFloat::from_double(1.0, format, flags, options.rounding);
  require(!flags.any(), "emit_float_verilog: constant quantisation out of range");

  emit_datapath(os, netlist, width, options.module_name, "fl_add", "fl_mul",
                hex_literal(width, float_bits(one, format)), consts);
  return os.str();
}

}  // namespace problp::hw
