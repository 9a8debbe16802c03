#include "workloads.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "bn/alarm.hpp"
#include "bn/random_network.hpp"
#include "bn/sampling.hpp"
#include "compile/ve_compiler.hpp"
#include "util/rng.hpp"

namespace perfbench {

using problp::errormodel::QuerySpec;
using problp::errormodel::QueryType;
using problp::errormodel::ToleranceKind;

namespace {

constexpr QuerySpec kMarginalAbs{QueryType::kMarginal, ToleranceKind::kAbsolute, 0.01};
constexpr QuerySpec kConditionalRel{QueryType::kConditional, ToleranceKind::kRelative, 0.01};
constexpr QuerySpec kMpeAbs{QueryType::kMpe, ToleranceKind::kAbsolute, 0.01};

// Rates are constants, sized once on a 4-vCPU AVX-512 Xeon VM, so that the
// offered load never depends on what a run measures.  There one worker
// served about 200k/s ALARM marginals, 10k/s ALARM posteriors and 80k/s ve28
// marginals in the closed loop.  Nominal rates leave the server idle most
// of the time: a host stall of tens of milliseconds then queues fewer than
// shed_depth requests, so no nominal request is shed.  Overload rates sit
// above the full-batch capacity.  Set-ups and design phases give setup_s and
// design_s medians over a second of work or more.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"alarm-marginal", Topology::kAlarm, kMarginalAbs, {kMarginalAbs}, 10e3, 450e3,
       /*cycles=*/24, /*setups_per_cycle=*/2, /*design_every=*/1, /*pool_size=*/4096},
      {"alarm-posterior", Topology::kAlarm, kConditionalRel, {kConditionalRel}, 4e3, 20e3,
       /*cycles=*/24, /*setups_per_cycle=*/2, /*design_every=*/1, /*pool_size=*/1024},
      {"ve28", Topology::kVe28, kMarginalAbs, {kMarginalAbs, kConditionalRel, kMpeAbs}, 10e3,
       160e3, /*cycles=*/24, /*setups_per_cycle=*/1, /*design_every=*/4, /*pool_size=*/2048},
  };
  return table;
}

}  // namespace

const Workload& find_workload(const std::string& name) {
  std::string known;
  for (const Workload& w : workloads()) {
    if (name == w.name) return w;
    known += known.empty() ? w.name : std::string(", ") + w.name;
  }
  throw std::invalid_argument("unknown workload '" + name + "' (known: " + known + ")");
}

problp::bn::BayesianNetwork build_network(Topology topology) {
  if (topology == Topology::kAlarm) {
    // The CPT seed datasets::make_alarm_benchmark(1) uses.
    return problp::bn::make_alarm_network(1990);
  }
  problp::Rng rng(42);
  problp::bn::RandomNetworkSpec spec;
  spec.num_variables = 28;
  spec.max_parents = 3;
  spec.edge_probability = 0.25;
  return problp::bn::make_random_network(spec, rng);
}

Inputs make_inputs(const Workload& workload, const problp::bn::BayesianNetwork& network,
                   std::uint64_t seed) {
  problp::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5bd1e995ull);
  Inputs in;
  std::vector<int> leaves;
  for (int v = 0; v < network.num_variables(); ++v) {
    if (network.children(v).empty()) leaves.push_back(v);
    if (network.parents(v).empty() && in.query_var < 0) in.query_var = v;
  }
  const auto samples = problp::bn::sample_dataset(network, workload.pool_size, rng);
  in.pool.reserve(samples.size());
  for (const auto& sample : samples) {
    std::vector<int> observed;
    if (workload.topology == Topology::kAlarm) {
      observed = leaves;
    } else {
      for (int v = 0; v < network.num_variables(); ++v) {
        if (rng.coin(0.4)) observed.push_back(v);
      }
    }
    in.pool.push_back(problp::compile::to_assignment(
        problp::bn::evidence_from_assignment(network, sample, observed)));
  }
  in.order.resize(in.pool.size());
  std::iota(in.order.begin(), in.order.end(), 0u);
  std::shuffle(in.order.begin(), in.order.end(), rng.engine());
  return in;
}

}  // namespace perfbench
