// The benchmark's workloads: which network, which query specs, which fixed
// request rates.  README.md gives the reasons each one was chosen.
//
// The model topology is part of a workload's definition and never depends
// on the seed; the seed drives only the evidence pool and request order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ac/evaluator.hpp"
#include "bn/network.hpp"
#include "errormodel/query_bounds.hpp"

namespace perfbench {

enum class Topology {
  kAlarm,  ///< the ALARM network (bn::make_alarm_network, fixed seed)
  kVe28,   ///< a VE-compiled random network: Rng 42, 28 vars, <=3 parents, p 0.25
};

struct Workload {
  const char* name;
  Topology topology;
  /// The spec analysed during setup; its selected format is what the
  /// Server serves.  Its query type is the type of every served request.
  problp::errormodel::QuerySpec served;
  /// Specs whose analysis and hardware the design phase produces.
  std::vector<problp::errormodel::QuerySpec> design;
  double nominal_rate;    ///< requests/s offered in the nominal phase
  double overload_rate;   ///< requests/s offered in the overload phase, above capacity
  /// A run is this many cycles, each of set-ups, maybe a design phase and
  /// one slice of each serving phase, so that every metric samples the
  /// whole run rather than one stretch of it.
  int cycles;
  int setups_per_cycle;  ///< fresh set-ups per cycle; setup_s is the median of all
  /// A design phase, for one spec (round-robin over `design`), starts every
  /// this many cycles; design_s sums the per-spec medians.
  int design_every;
  int pool_size;          ///< distinct evidence sets requests draw from
};

/// The workload named `name`; throws std::invalid_argument for unknown names.
const Workload& find_workload(const std::string& name);

/// The workload's network (deterministic: no seed).
problp::bn::BayesianNetwork build_network(Topology topology);

/// Seeded request inputs: the evidence pool and the order requests draw it in.
struct Inputs {
  std::vector<problp::ac::PartialAssignment> pool;
  std::vector<std::uint32_t> order;  ///< a permutation of the pool, cycled
  int query_var = -1;                ///< the q of Pr(q | e) (ALARM: a root)

  const problp::ac::PartialAssignment& evidence(std::uint64_t seq) const {
    return pool[order[seq % order.size()]];
  }
  std::uint32_t index(std::uint64_t seq) const { return order[seq % order.size()]; }
};

/// ALARM: full samples of the network observed on its leaf sensors.
/// ve28: full samples observed on a random 40% of the variables.  Sampled
/// evidence has positive probability, so every conditional query is defined.
Inputs make_inputs(const Workload& workload, const problp::bn::BayesianNetwork& network,
                   std::uint64_t seed);

}  // namespace perfbench
