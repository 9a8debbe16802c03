#include "hw/generator.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace problp::hw {

using ac::Circuit;
using ac::NodeId;
using ac::NodeKind;

Netlist generate_netlist(const Circuit& binary_circuit, const GeneratorOptions& options) {
  require(binary_circuit.is_binary(), "generate_netlist: circuit must be binary");
  require(binary_circuit.root() != ac::kInvalidNode, "generate_netlist: circuit has no root");

  Netlist netlist(binary_circuit.cardinalities());
  const auto live = binary_circuit.reachable_from_root();

  std::vector<WireId> node_wire(binary_circuit.num_nodes(), kInvalidWire);
  // delayed[w]: the register carrying wire w one stage later, when shared.
  std::vector<WireId> delayed;

  // Returns `w` delayed to exactly `stage` (inserting registers as needed).
  auto align_to = [&](WireId w, int stage) {
    WireId cur = w;
    while (netlist.wire(cur).stage < stage) {
      if (options.share_alignment_chains) {
        delayed.resize(netlist.num_wires(), kInvalidWire);
        if (const WireId next = delayed[static_cast<std::size_t>(cur)]; next != kInvalidWire) {
          cur = next;
          continue;
        }
      }
      const WireId reg = netlist.add_register(
          cur, str_format("%s_d%d", netlist.wire(cur).name.c_str(), netlist.wire(cur).stage + 1));
      if (options.share_alignment_chains) delayed[static_cast<std::size_t>(cur)] = reg;
      cur = reg;
    }
    require(netlist.wire(cur).stage == stage, "generate_netlist: alignment overshoot");
    return cur;
  };

  for (std::size_t i = 0; i < binary_circuit.num_nodes(); ++i) {
    if (!live[i]) continue;
    const ac::Node& n = binary_circuit.node(static_cast<NodeId>(i));
    switch (n.kind) {
      case NodeKind::kIndicator:
        node_wire[i] = netlist.add_indicator_input(
            n.var, n.state, str_format("lambda_v%d_s%d", n.var, n.state));
        break;
      case NodeKind::kParameter:
        node_wire[i] =
            netlist.add_constant_input(n.value, str_format("theta_%zu", i));
        break;
      case NodeKind::kSum:
      case NodeKind::kProd:
      case NodeKind::kMax: {
        const WireId wa = node_wire[static_cast<std::size_t>(n.children[0])];
        const WireId wb = node_wire[static_cast<std::size_t>(n.children[1])];
        // The operator fires one stage above its latest input.
        const int in_stage = std::max(netlist.wire(wa).stage, netlist.wire(wb).stage);
        const WireId a = align_to(wa, in_stage);
        const WireId b = align_to(wb, in_stage);
        const CellKind kind = (n.kind == NodeKind::kSum)    ? CellKind::kAdd
                              : (n.kind == NodeKind::kProd) ? CellKind::kMul
                                                            : CellKind::kMax;
        node_wire[i] = netlist.add_operator(kind, a, b, str_format("n%zu", i));
        break;
      }
    }
  }

  WireId out = node_wire[static_cast<std::size_t>(binary_circuit.root())];
  require(out != kInvalidWire, "generate_netlist: root not materialised");
  netlist.set_output(out);
  netlist.validate();
  return netlist;
}

}  // namespace problp::hw
