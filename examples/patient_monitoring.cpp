// Patient monitoring with the ALARM network — the paper's fourth benchmark.
//
// Demonstrates the BIF round-trip (export the network the way standard BN
// tools ship it), one shared CompiledModel answering conditional diagnosis
// queries through InferenceSessions, and the fixed-vs-float decision for
// two different tolerance types on the same circuit.
//
// Build & run:  ./build/examples/patient_monitoring [out.bif]
// The exported BIF goes to `out.bif` (default /tmp/problp_alarm.bif).
#include <cstdio>
#include <string>

#include "bn/bif.hpp"
#include "compile/ve_compiler.hpp"
#include "datasets/benchmark_suite.hpp"
#include "problp/validation.hpp"
#include "runtime/session.hpp"

int main(int argc, char** argv) {
  using namespace problp;

  const datasets::Benchmark benchmark = datasets::make_alarm_benchmark(/*seed=*/1,
                                                                       /*num_test_samples=*/200);
  const bn::BayesianNetwork& alarm = benchmark.network;
  std::printf("ALARM: %d variables, %zu parameters; query node '%s'\n", alarm.num_variables(),
              alarm.num_parameters(),
              alarm.variable(benchmark.query_var).name.c_str());
  std::printf("AC compiled via min-fill VE trace: %s\n",
              benchmark.circuit.stats().to_string().c_str());

  // Standard-format export, as distributed in BN repositories.
  const std::string bif_path = argc > 1 ? argv[1] : "/tmp/problp_alarm.bif";
  bn::save_bif_file(alarm, bif_path, "alarm");
  std::printf("Exported network to %s (%zu bytes of BIF)\n", bif_path.c_str(),
              bn::to_bif(alarm).size());

  // One compiled model shared by every session below.
  const auto model = runtime::CompiledModel::compile(benchmark.circuit);

  // Two user requirements on the same circuit (Table 2's ALARM rows).
  for (const auto& spec : {errormodel::QuerySpec{errormodel::QueryType::kMarginal,
                                                 errormodel::ToleranceKind::kAbsolute, 0.01},
                           errormodel::QuerySpec{errormodel::QueryType::kConditional,
                                                 errormodel::ToleranceKind::kRelative, 0.01}}) {
    const AnalysisReport report = model->analyze(spec);
    std::printf("\n%s\n", report.to_string().c_str());

    std::vector<ac::PartialAssignment> assignments;
    for (const auto& e : benchmark.test_evidence) {
      assignments.push_back(compile::to_assignment(e));
    }
    const ObservedError observed =
        spec.query == errormodel::QueryType::kConditional
            ? measure_conditional_error(model, benchmark.query_var, assignments,
                                        report.selected)
            : measure_marginal_error(model, assignments, report.selected);
    std::printf("  observed on 200 sampled cases: max abs %.3e, max rel %.3e (flags: %s)\n",
                observed.max_abs, observed.max_rel, observed.flags.any() ? "RAISED" : "clean");
  }

  // One concrete diagnosis: posterior of the query node given the first
  // sampled sensor reading, low precision vs exact — both straight through
  // the session API.
  const AnalysisReport report = model->analyze(
      {errormodel::QueryType::kConditional, errormodel::ToleranceKind::kRelative, 0.01});
  // A report-backed session refuses an infeasible report (no silent exact
  // fallback), so guard like a real caller would.
  require(report.any_feasible, "no representation meets the tolerance within the search caps");
  runtime::InferenceSession exact_session(model);
  runtime::InferenceSession lp_session(model, report);
  const auto e = compile::to_assignment(benchmark.test_evidence.front());
  const std::vector<double> exact_posterior = exact_session.conditional(benchmark.query_var, e);
  const std::vector<double> lp_posterior = lp_session.conditional(benchmark.query_var, e);
  // conditional() returns empty when Pr(e) vanished (the sampled snapshot
  // makes that impossible exactly, but quantisation could flush it to 0).
  require(!exact_posterior.empty() && !lp_posterior.empty(),
          "Pr(first snapshot) vanished; posterior undefined");
  std::printf("\nPosterior of %s given the first sensor snapshot:\n",
              alarm.variable(benchmark.query_var).name.c_str());
  for (int q = 0; q < alarm.cardinality(benchmark.query_var); ++q) {
    std::printf("  state %-10s exact %.6f   %s %.6f\n",
                alarm.variable(benchmark.query_var).state_names[static_cast<std::size_t>(q)].c_str(),
                exact_posterior[static_cast<std::size_t>(q)],
                report.selected.to_string().c_str(), lp_posterior[static_cast<std::size_t>(q)]);
  }
  return 0;
}
