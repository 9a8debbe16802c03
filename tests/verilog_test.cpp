#include <gtest/gtest.h>

#include "ac/transform.hpp"
#include "bn/alarm.hpp"
#include "compile/ve_compiler.hpp"
#include "energy/op_models.hpp"
#include "helpers.hpp"
#include "hw/generator.hpp"
#include "hw/netlist_energy.hpp"
#include "hw/verilog.hpp"
#include "problp/framework.hpp"
#include "runtime/artifact.hpp"

namespace problp::hw {
namespace {

using ac::Circuit;
using ac::NodeId;

Circuit make_small_circuit() {
  Circuit c({2, 2});
  const NodeId x = c.add_indicator(0, 0);
  const NodeId y = c.add_indicator(1, 1);
  const NodeId t = c.add_parameter(0.5);
  const NodeId u = c.add_parameter(0.25);
  const NodeId p = c.add_prod({x, t});
  const NodeId q = c.add_prod({y, u});
  c.set_root(c.add_sum({p, q}));
  return c;
}

TEST(Verilog, FixedEmissionStructure) {
  const Circuit binary = ac::binarize(make_small_circuit()).circuit;
  const Netlist netlist = generate_netlist(binary);
  const std::string v = emit_fixed_verilog(netlist, lowprec::FixedFormat{1, 7});
  // Operator library present and bound.
  EXPECT_NE(v.find("module fx_add"), std::string::npos);
  EXPECT_NE(v.find("module fx_mul"), std::string::npos);
  EXPECT_EQ(v.find("ADD_MODULE"), std::string::npos);  // placeholders resolved
  EXPECT_EQ(v.find("MUL_MODULE"), std::string::npos);
  // Top module with clocked registers and the output bus.
  EXPECT_NE(v.find("module problp_ac_top"), std::string::npos);
  EXPECT_NE(v.find("always @(posedge clk)"), std::string::npos);
  EXPECT_NE(v.find("output [7:0] pr_out"), std::string::npos);
  // Quantised constant 0.5 at F=7 is 8'h40.
  EXPECT_NE(v.find("8'h40"), std::string::npos);
  // Round-to-nearest-even logic present in the multiplier.
  EXPECT_NE(v.find("sticky"), std::string::npos);
}

TEST(Verilog, FloatEmissionStructure) {
  const Circuit binary = ac::binarize(make_small_circuit()).circuit;
  const Netlist netlist = generate_netlist(binary);
  const std::string v = emit_float_verilog(netlist, lowprec::FloatFormat{6, 9});
  EXPECT_NE(v.find("module fl_add"), std::string::npos);
  EXPECT_NE(v.find("module fl_mul"), std::string::npos);
  EXPECT_EQ(v.find("ADD_MODULE"), std::string::npos);
  EXPECT_NE(v.find("output [14:0] pr_out"), std::string::npos);  // E+M = 15 bits
  // 0.5 in fl<6,9>: exponent field = bias-1 = 30, mantissa 0 -> 15'h3c00.
  EXPECT_NE(v.find("15'h3c00"), std::string::npos);
}

TEST(Verilog, OneInstancePerOperator) {
  Rng rng(131);
  test::RandomCircuitSpec spec;
  spec.num_operators = 20;
  const Circuit binary = ac::binarize(test::make_random_circuit(spec, rng)).circuit;
  const Netlist netlist = generate_netlist(binary);
  const NetlistStats stats = netlist.stats();
  const std::string v = emit_fixed_verilog(netlist, lowprec::FixedFormat{10, 10});
  std::size_t count = 0;
  for (std::size_t pos = v.find(" u"); pos != std::string::npos; pos = v.find(" u", pos + 1)) {
    // Instance names are " u<N>(...)" in the datapath body.
    if (std::isdigit(static_cast<unsigned char>(v[pos + 2]))) ++count;
  }
  EXPECT_EQ(count, stats.adders + stats.multipliers + stats.maxes);
}

TEST(Verilog, TruncationModeOmitsRounding) {
  const Circuit binary = ac::binarize(make_small_circuit()).circuit;
  const Netlist netlist = generate_netlist(binary);
  VerilogOptions options;
  options.rounding = lowprec::RoundingMode::kTruncate;
  const std::string v = emit_fixed_verilog(netlist, lowprec::FixedFormat{1, 7}, options);
  EXPECT_EQ(v.find("sticky"), std::string::npos);
}

TEST(Verilog, BalancedModuleDelimiters) {
  const Circuit binary = ac::binarize(make_small_circuit()).circuit;
  const Netlist netlist = generate_netlist(binary);
  const std::vector<std::string> emissions = {
      emit_fixed_verilog(netlist, lowprec::FixedFormat{1, 7}),
      emit_float_verilog(netlist, lowprec::FloatFormat{6, 9})};
  for (const std::string& v : emissions) {
    std::size_t modules = 0;
    std::size_t endmodules = 0;
    for (std::size_t pos = v.find("module "); pos != std::string::npos;
         pos = v.find("module ", pos + 1)) {
      if (pos == 0 || v[pos - 1] == '\n') ++modules;
    }
    for (std::size_t pos = v.find("endmodule"); pos != std::string::npos;
         pos = v.find("endmodule", pos + 1)) {
      ++endmodules;
    }
    EXPECT_EQ(modules, endmodules);
    std::size_t begins = 0;
    std::size_t ends = 0;
    for (std::size_t pos = v.find("begin"); pos != std::string::npos; pos = v.find("begin", pos + 1))
      ++begins;
    for (std::size_t pos = v.find(" end"); pos != std::string::npos; pos = v.find(" end", pos + 1)) {
      if (v.compare(pos, 9, " endmodule") != 0) ++ends;
    }
    EXPECT_GE(ends, begins > 0 ? 1u : 0u);
  }
}

// Byte-exact pins of the full pipeline's Verilog on ALARM (the CPT seed the
// benchmark serves): any change to the emitter, the netlist generator or the
// selected format shows up as a different length or digest.  The digests are
// runtime::fnv1a64 over the whole emission.
TEST(Verilog, AlarmEmissionGoldenDigests) {
  using errormodel::QueryType;
  using errormodel::ToleranceKind;
  struct Golden {
    errormodel::QuerySpec spec;
    Representation::Kind kind;
    std::size_t length;
    std::uint64_t digest;
  };
  const Golden goldens[] = {
      {{QueryType::kMarginal, ToleranceKind::kAbsolute, 0.01}, Representation::Kind::kFixed,
       832125, 0x5e770c83e3f307abULL},
      {{QueryType::kConditional, ToleranceKind::kRelative, 0.01}, Representation::Kind::kFloat,
       836145, 0x5d6d34bed6d21aacULL},
      {{QueryType::kMpe, ToleranceKind::kAbsolute, 0.01}, Representation::Kind::kFloat,
       833210, 0x7a017df0752d877fULL},
  };
  const Framework framework(compile::compile_network(bn::make_alarm_network(1990)));
  for (const Golden& g : goldens) {
    const AnalysisReport report = framework.analyze(g.spec);
    ASSERT_TRUE(report.any_feasible);
    ASSERT_EQ(report.selected.kind, g.kind);
    if (g.spec.query == QueryType::kMarginal) {
      EXPECT_EQ(report.selected.fixed, (lowprec::FixedFormat{1, 15}));
    }
    const std::string v = framework.generate_hardware(report).verilog;
    if (g.spec.query == QueryType::kMpe) {
      EXPECT_NE(v.find("  op_max u"), std::string::npos);
    }
    const std::uint64_t digest = runtime::fnv1a64(v.data(), v.size());
    EXPECT_EQ(v.size(), g.length);
    EXPECT_EQ(digest, g.digest) << "digest 0x" << std::hex << digest;
  }
}

TEST(NetlistEnergy, BreakdownMath) {
  const Circuit binary = ac::binarize(make_small_circuit()).circuit;
  const Netlist netlist = generate_netlist(binary);
  const NetlistStats stats = netlist.stats();
  NetlistEnergyOptions options;
  options.synthesis_efficiency = 1.0;
  options.register_fj_per_bit = 2.0;
  const auto e = fixed_netlist_energy(netlist, lowprec::FixedFormat{1, 7}, options);
  const double ops = static_cast<double>(stats.adders) * energy::fixed_add_fj(8) +
                     static_cast<double>(stats.multipliers) * energy::fixed_mul_fj(8);
  EXPECT_DOUBLE_EQ(e.operator_fj, ops);
  EXPECT_DOUBLE_EQ(e.register_fj, static_cast<double>(stats.total_registers()) * 8 * 2.0);
  EXPECT_DOUBLE_EQ(e.total_fj(), e.operator_fj + e.register_fj);
}

TEST(NetlistEnergy, SynthesisEfficiencyScalesOperatorsOnly) {
  const Circuit binary = ac::binarize(make_small_circuit()).circuit;
  const Netlist netlist = generate_netlist(binary);
  NetlistEnergyOptions half;
  half.synthesis_efficiency = 0.5;
  NetlistEnergyOptions full;
  full.synthesis_efficiency = 1.0;
  const auto eh = float_netlist_energy(netlist, lowprec::FloatFormat{8, 13}, half);
  const auto ef = float_netlist_energy(netlist, lowprec::FloatFormat{8, 13}, full);
  EXPECT_DOUBLE_EQ(eh.operator_fj * 2.0, ef.operator_fj);
  EXPECT_DOUBLE_EQ(eh.register_fj, ef.register_fj);
}

}  // namespace
}  // namespace problp::hw
