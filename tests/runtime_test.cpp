// The unified inference runtime: CompiledModel + InferenceSession.
//
// Contract under test (ISSUE 2 acceptance): session results are
// bit-identical to the pre-refactor evaluation paths — the ac/evaluator.hpp
// interpreter for exact queries, the one-shot evaluate_fixed/evaluate_float
// for low-precision queries (value AND sticky flags), in both single and
// batched forms, over random circuits, VE-compiled circuits, and
// NB-compiled circuits; the artifact survives a serialize -> load round
// trip; and many sessions can share one CompiledModel across threads.
#include <gtest/gtest.h>

#include <cstdio>
#include <thread>

#include "ac/evaluator.hpp"
#include "ac/low_precision_eval.hpp"
#include "ac/serialize.hpp"
#include "ac/transform.hpp"
#include "bn/random_network.hpp"
#include "compile/naive_bayes_compiler.hpp"
#include "compile/ve_compiler.hpp"
#include "helpers.hpp"
#include "problp/framework.hpp"
#include "problp/validation.hpp"
#include "runtime/session.hpp"

namespace problp {
namespace {

using errormodel::QuerySpec;
using errormodel::QueryType;
using errormodel::ToleranceKind;
using runtime::CompiledModel;
using runtime::InferenceSession;
using runtime::SessionOptions;

bool flags_equal(const lowprec::ArithFlags& a, const lowprec::ArithFlags& b) {
  return a.overflow == b.overflow && a.underflow == b.underflow &&
         a.invalid_input == b.invalid_input;
}

// A small VE-compiled circuit (the generic compiler's shapes).
ac::Circuit small_ve_circuit(std::uint64_t seed, int num_variables = 6) {
  Rng rng(seed);
  bn::RandomNetworkSpec spec;
  spec.num_variables = num_variables;
  return compile::compile_network(bn::make_random_network(spec, rng));
}

// A small NB-compiled circuit (the paper's classifier shape).
ac::Circuit small_nb_circuit(std::uint64_t seed, int num_features = 4) {
  Rng rng(seed);
  bn::BayesianNetwork network;
  const int cls = network.add_variable("C", 3);
  network.set_cpt(cls, {}, rng.dirichlet(3, 1.0));
  for (int f = 0; f < num_features; ++f) {
    const int var = network.add_variable("F" + std::to_string(f), 2);
    std::vector<double> cpt;
    for (int c = 0; c < 3; ++c) {
      for (double v : rng.dirichlet(2, 1.0)) cpt.push_back(v);
    }
    network.set_cpt(var, {cls}, cpt);
  }
  network.validate();
  return compile::compile_naive_bayes(network, cls);
}

std::vector<ac::PartialAssignment> sampled_assignments(const std::vector<int>& cards,
                                                       std::size_t count, double p_observe,
                                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ac::PartialAssignment> out;
  for (std::size_t i = 0; i < count; ++i) {
    ac::PartialAssignment a(cards.size());
    for (std::size_t v = 0; v < cards.size(); ++v) {
      if (rng.coin(p_observe)) a[v] = rng.uniform_int(0, cards[v] - 1);
    }
    out.push_back(std::move(a));
  }
  return out;
}

// ---- the Framework facade stays pinned to the pre-refactor pipeline -------

TEST(CompiledModel, FrameworkFacadeMatchesPreRefactorBinarization) {
  const ac::Circuit circuit = small_ve_circuit(11);
  const Framework framework(circuit);
  EXPECT_EQ(ac::to_text(framework.binary_circuit()),
            ac::to_text(ac::binarize(circuit, ac::DecompositionStyle::kBalanced).circuit));
  EXPECT_EQ(ac::to_text(framework.binary_max_circuit()),
            ac::to_text(ac::binarize(ac::to_max_circuit(circuit),
                                     ac::DecompositionStyle::kBalanced)
                            .circuit));
}

TEST(CompiledModel, CompileMatchesFrameworkAnalysis) {
  const ac::Circuit circuit = small_ve_circuit(12);
  const Framework framework(circuit);
  const auto model = CompiledModel::compile(circuit);
  for (const QuerySpec spec : {QuerySpec{QueryType::kMarginal, ToleranceKind::kAbsolute, 0.01},
                               QuerySpec{QueryType::kConditional, ToleranceKind::kRelative, 0.01},
                               QuerySpec{QueryType::kMpe, ToleranceKind::kAbsolute, 0.01}}) {
    const AnalysisReport a = framework.analyze(spec);
    const AnalysisReport b = model->analyze(spec);
    EXPECT_EQ(a.any_feasible, b.any_feasible);
    EXPECT_EQ(a.fixed_plan.feasible, b.fixed_plan.feasible);
    EXPECT_EQ(a.float_plan.feasible, b.float_plan.feasible);
    EXPECT_EQ(a.fixed_plan.format, b.fixed_plan.format);
    EXPECT_EQ(a.float_plan.format, b.float_plan.format);
    EXPECT_EQ(a.fixed_energy_nj, b.fixed_energy_nj);
    EXPECT_EQ(a.float_energy_nj, b.float_energy_nj);
    EXPECT_EQ(a.to_string(), b.to_string());
  }
}

// ---- exact parity ----------------------------------------------------------

TEST(InferenceSession, ExactParityOnRandomCircuits) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    test::RandomCircuitSpec spec;
    spec.num_variables = 3;
    spec.num_operators = 25;
    const ac::Circuit circuit = test::make_random_circuit(spec, rng);
    const auto model = CompiledModel::wrap(circuit);  // evaluate this arena verbatim
    InferenceSession session(model);

    const auto assignments = test::all_partial_assignments(circuit.cardinalities());
    // Single-query path: bit-identical to the interpreter.
    for (const auto& a : assignments) {
      EXPECT_EQ(session.marginal(a), ac::evaluate(circuit, a));
      EXPECT_FALSE(session.last_flags().any());
    }
    // Batched path: bit-identical to the singles.
    const std::vector<double>& batched = session.marginal(assignments);
    ASSERT_EQ(batched.size(), assignments.size());
    for (std::size_t i = 0; i < assignments.size(); ++i) {
      EXPECT_EQ(batched[i], ac::evaluate(circuit, assignments[i]));
    }
  }
}

TEST(InferenceSession, ExactParityOnCompiledCircuits) {
  for (const ac::Circuit& source : {small_ve_circuit(21), small_nb_circuit(22)}) {
    const auto model = CompiledModel::compile(source);
    InferenceSession session(model);
    const auto assignments =
        sampled_assignments(source.cardinalities(), 64, 0.5, /*seed=*/33);
    const std::vector<double> batched = session.marginal(assignments);
    for (std::size_t i = 0; i < assignments.size(); ++i) {
      const double expected = ac::evaluate(model->binary_circuit(), assignments[i]);
      EXPECT_EQ(session.marginal(assignments[i]), expected);
      EXPECT_EQ(batched[i], expected);
    }
  }
}

// ---- low-precision parity (values and sticky flags) ------------------------

TEST(InferenceSession, LowPrecisionParityIncludingFlags) {
  const ac::Circuit source = small_ve_circuit(31);
  const auto model = CompiledModel::compile(source);
  const ac::Circuit& binary = model->binary_circuit();
  const auto assignments = sampled_assignments(source.cardinalities(), 48, 0.5, 44);

  // Formats from comfortable to aggressive; the tiny ones force
  // overflow/underflow so flag parity is exercised, not vacuous.
  for (const lowprec::FixedFormat fmt :
       {lowprec::FixedFormat{1, 18}, lowprec::FixedFormat{1, 4}, lowprec::FixedFormat{0, 3}}) {
    InferenceSession lp(model, SessionOptions::low_precision(Representation::of(fmt)));
    lowprec::ArithFlags batch_flags;
    for (const auto& a : assignments) {
      const ac::LowPrecisionResult expected = ac::evaluate_fixed(binary, a, fmt);
      EXPECT_EQ(lp.marginal(a), expected.value);
      EXPECT_TRUE(flags_equal(lp.last_flags(), expected.flags));
      batch_flags.merge(expected.flags);
    }
    // Batched overload: values per query, flags merged across the batch.
    const std::vector<double> batched = lp.marginal(assignments);
    EXPECT_TRUE(flags_equal(lp.last_flags(), batch_flags));
    for (std::size_t i = 0; i < assignments.size(); ++i) {
      EXPECT_EQ(batched[i], ac::evaluate_fixed(binary, assignments[i], fmt).value);
    }
  }
  for (const lowprec::FloatFormat fmt :
       {lowprec::FloatFormat{8, 12}, lowprec::FloatFormat{3, 4}, lowprec::FloatFormat{2, 2}}) {
    InferenceSession lp(model, SessionOptions::low_precision(Representation::of(fmt)));
    for (const auto& a : assignments) {
      const ac::LowPrecisionResult expected = ac::evaluate_float(binary, a, fmt);
      EXPECT_EQ(lp.marginal(a), expected.value);
      EXPECT_TRUE(flags_equal(lp.last_flags(), expected.flags));
    }
  }
}

TEST(InferenceSession, TruncateRoundingParity) {
  const ac::Circuit source = small_nb_circuit(35);
  const auto model = CompiledModel::compile(source);
  const lowprec::FixedFormat fmt{1, 9};
  InferenceSession lp(model, SessionOptions::low_precision(Representation::of(fmt),
                                                           lowprec::RoundingMode::kTruncate));
  const auto assignments = sampled_assignments(source.cardinalities(), 32, 0.5, 55);
  for (const auto& a : assignments) {
    EXPECT_EQ(lp.marginal(a),
              ac::evaluate_fixed(model->binary_circuit(), a, fmt,
                                 lowprec::RoundingMode::kTruncate)
                  .value);
  }
}

// ---- conditional and MPE queries -------------------------------------------

TEST(InferenceSession, ConditionalMatchesManualRatios) {
  const ac::Circuit source = small_nb_circuit(41);
  const auto model = CompiledModel::compile(source);
  const ac::Circuit& binary = model->binary_circuit();
  const int query_var = 0;  // the NB class variable
  auto assignments = sampled_assignments(source.cardinalities(), 32, 0.6, 66);
  for (auto& a : assignments) a[query_var].reset();

  InferenceSession exact(model);
  const lowprec::FloatFormat fmt{6, 8};
  InferenceSession lp(model, SessionOptions::low_precision(Representation::of(fmt)));

  for (const auto& e : assignments) {
    const double pe = ac::evaluate(binary, e);
    const std::vector<double> posterior = exact.conditional(query_var, e);
    const std::vector<double> lp_posterior = lp.conditional(query_var, e);
    if (!(pe > 0.0)) {
      EXPECT_TRUE(posterior.empty());
      continue;
    }
    const double pe_lp = ac::evaluate_float(binary, e, fmt).value;
    ASSERT_EQ(posterior.size(), static_cast<std::size_t>(source.cardinalities()[0]));
    for (int q = 0; q < source.cardinalities()[0]; ++q) {
      auto qe = e;
      qe[static_cast<std::size_t>(query_var)] = q;
      EXPECT_EQ(posterior[static_cast<std::size_t>(q)], ac::evaluate(binary, qe) / pe);
      if (pe_lp > 0.0) {
        ASSERT_FALSE(lp_posterior.empty());
        EXPECT_EQ(lp_posterior[static_cast<std::size_t>(q)],
                  ac::evaluate_float(binary, qe, fmt).value / pe_lp);
      }
    }
  }
  // Batched conditional == singles.
  const auto batched = exact.conditional(query_var, assignments);
  ASSERT_EQ(batched.size(), assignments.size());
  for (std::size_t i = 0; i < assignments.size(); ++i) {
    EXPECT_EQ(batched[i], exact.conditional(query_var, assignments[i]));
  }
}

TEST(InferenceSession, ConditionalRejectsObservedQueryVar) {
  const auto model = CompiledModel::compile(small_nb_circuit(42));
  InferenceSession session(model);
  ac::PartialAssignment e(static_cast<std::size_t>(model->num_variables()));
  e[0] = 0;
  EXPECT_THROW(session.conditional(0, e), InvalidArgument);
  EXPECT_THROW(session.conditional(-1, e), InvalidArgument);
  EXPECT_THROW(session.conditional(model->num_variables(), e), InvalidArgument);
}

TEST(InferenceSession, MpeParityOnMaxCircuit) {
  const ac::Circuit source = small_ve_circuit(51);
  const auto model = CompiledModel::compile(source);
  // The maximiser derivation is pinned to the pre-refactor formula.
  EXPECT_EQ(ac::to_text(model->binary_max_circuit()),
            ac::to_text(ac::binarize(ac::to_max_circuit(source),
                                     ac::DecompositionStyle::kBalanced)
                            .circuit));
  InferenceSession session(model);
  const auto assignments = sampled_assignments(source.cardinalities(), 32, 0.4, 77);
  const std::vector<double> batched = session.mpe(assignments);
  for (std::size_t i = 0; i < assignments.size(); ++i) {
    const double expected = ac::evaluate(model->binary_max_circuit(), assignments[i]);
    EXPECT_EQ(session.mpe(assignments[i]), expected);
    EXPECT_EQ(batched[i], expected);
  }
  // Low-precision MPE runs the same engines on the max tape.
  const lowprec::FixedFormat fmt{1, 10};
  InferenceSession lp(model, SessionOptions::low_precision(Representation::of(fmt)));
  for (const auto& a : assignments) {
    const ac::LowPrecisionResult expected =
        ac::evaluate_fixed(model->binary_max_circuit(), a, fmt);
    EXPECT_EQ(lp.mpe(a), expected.value);
    EXPECT_TRUE(flags_equal(lp.last_flags(), expected.flags));
  }
}

// ---- the validation wrappers stay bit-identical ----------------------------

// Pre-refactor reference: interpreter ground truth + one-shot low-precision
// evaluation, accumulated exactly the way problp/validation.cpp always did.
ObservedError reference_marginal_error(const ac::Circuit& binary,
                                       const std::vector<ac::PartialAssignment>& assignments,
                                       const Representation& repr) {
  ObservedError err;
  for (const auto& a : assignments) {
    const ac::LowPrecisionResult approx =
        repr.kind == Representation::Kind::kFixed ? ac::evaluate_fixed(binary, a, repr.fixed)
                                                  : ac::evaluate_float(binary, a, repr.flt);
    err.flags.merge(approx.flags);
    const double exact = ac::evaluate(binary, a);
    const double abs_err = std::abs(approx.value - exact);
    err.max_abs = std::max(err.max_abs, abs_err);
    err.mean_abs += abs_err;
    if (exact > 0.0) {
      const double rel = abs_err / exact;
      err.max_rel = std::max(err.max_rel, rel);
      err.mean_rel += rel;
    }
    err.count += 1;
  }
  if (err.count > 0) {
    err.mean_abs /= static_cast<double>(err.count);
    err.mean_rel /= static_cast<double>(err.count);
  }
  return err;
}

TEST(Validation, MeasureMarginalErrorBitIdenticalToReference) {
  const ac::Circuit source = small_ve_circuit(61);
  const ac::Circuit binary = ac::binarize(source).circuit;
  const auto assignments = sampled_assignments(source.cardinalities(), 40, 0.5, 88);
  for (const Representation& repr :
       {Representation::of(lowprec::FixedFormat{1, 12}),
        Representation::of(lowprec::FixedFormat{0, 3}),
        Representation::of(lowprec::FloatFormat{5, 7}),
        Representation::of(lowprec::FloatFormat{2, 2})}) {
    const ObservedError got = measure_marginal_error(binary, assignments, repr);
    const ObservedError want = reference_marginal_error(binary, assignments, repr);
    EXPECT_EQ(got.max_abs, want.max_abs);
    EXPECT_EQ(got.mean_abs, want.mean_abs);
    EXPECT_EQ(got.max_rel, want.max_rel);
    EXPECT_EQ(got.mean_rel, want.mean_rel);
    EXPECT_EQ(got.count, want.count);
    EXPECT_TRUE(flags_equal(got.flags, want.flags));
  }
}

TEST(Validation, MeasureConditionalErrorBitIdenticalToReference) {
  const ac::Circuit source = small_nb_circuit(62);
  const ac::Circuit binary = ac::binarize(source).circuit;
  const int query_var = 0;
  auto assignments = sampled_assignments(source.cardinalities(), 40, 0.6, 99);
  for (auto& a : assignments) a[query_var].reset();
  const Representation repr = Representation::of(lowprec::FloatFormat{6, 9});

  // Pre-refactor reference, verbatim accumulation order.
  ObservedError want;
  const int card = binary.cardinalities()[0];
  for (const auto& e : assignments) {
    const ac::LowPrecisionResult approx_pe = ac::evaluate_float(binary, e, repr.flt);
    want.flags.merge(approx_pe.flags);
    const double exact_pe = ac::evaluate(binary, e);
    if (exact_pe <= 0.0 || approx_pe.value <= 0.0) continue;
    for (int q = 0; q < card; ++q) {
      auto qe = e;
      qe[0] = q;
      const ac::LowPrecisionResult approx_qe = ac::evaluate_float(binary, qe, repr.flt);
      want.flags.merge(approx_qe.flags);
      const double abs_err =
          std::abs(approx_qe.value / approx_pe.value - ac::evaluate(binary, qe) / exact_pe);
      want.max_abs = std::max(want.max_abs, abs_err);
      want.mean_abs += abs_err;
      const double exact_ratio = ac::evaluate(binary, qe) / exact_pe;
      if (exact_ratio > 0.0) {
        want.max_rel = std::max(want.max_rel, abs_err / exact_ratio);
        want.mean_rel += abs_err / exact_ratio;
      }
      want.count += 1;
    }
  }
  if (want.count > 0) {
    want.mean_abs /= static_cast<double>(want.count);
    want.mean_rel /= static_cast<double>(want.count);
  }

  const ObservedError got = measure_conditional_error(binary, query_var, assignments, repr);
  EXPECT_EQ(got.max_abs, want.max_abs);
  EXPECT_EQ(got.mean_abs, want.mean_abs);
  EXPECT_EQ(got.max_rel, want.max_rel);
  EXPECT_EQ(got.mean_rel, want.mean_rel);
  EXPECT_EQ(got.count, want.count);
  EXPECT_TRUE(flags_equal(got.flags, want.flags));
}

// ---- artifact persistence --------------------------------------------------

TEST(CompiledModel, SaveLoadRoundTrip) {
  const ac::Circuit source = small_ve_circuit(71);
  const auto model = CompiledModel::compile(source);
  const std::string path = ::testing::TempDir() + "problp_runtime_roundtrip.pm";
  model->save(path);
  const auto loaded = CompiledModel::load(path);
  std::remove(path.c_str());

  // Structure round-trips exactly (ids may be rebuilt, semantics must not).
  EXPECT_EQ(ac::to_text(model->binary_circuit()), ac::to_text(loaded->binary_circuit()));
  EXPECT_EQ(ac::to_text(model->binary_max_circuit()),
            ac::to_text(loaded->binary_max_circuit()));
  EXPECT_EQ(loaded->options().decomposition, model->options().decomposition);

  // Query results are bit-identical across the round trip, all backends.
  InferenceSession a(model);
  InferenceSession b(loaded);
  const auto assignments = sampled_assignments(source.cardinalities(), 32, 0.5, 111);
  for (const auto& e : assignments) {
    EXPECT_EQ(a.marginal(e), b.marginal(e));
    EXPECT_EQ(a.mpe(e), b.mpe(e));
  }
  const lowprec::FixedFormat fmt{1, 8};
  InferenceSession lp_a(model, SessionOptions::low_precision(Representation::of(fmt)));
  InferenceSession lp_b(loaded, SessionOptions::low_precision(Representation::of(fmt)));
  for (const auto& e : assignments) {
    EXPECT_EQ(lp_a.marginal(e), lp_b.marginal(e));
    EXPECT_TRUE(flags_equal(lp_a.last_flags(), lp_b.last_flags()));
  }

  // The analysis on the loaded artifact matches (same binarised circuit).
  const QuerySpec spec{QueryType::kMarginal, ToleranceKind::kAbsolute, 0.01};
  EXPECT_EQ(model->analyze(spec).to_string(), loaded->analyze(spec).to_string());
}

TEST(CompiledModel, LoadRejectsCorruptArtifacts) {
  const std::string path = ::testing::TempDir() + "problp_runtime_bogus.pm";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("bogus", f);
  std::fclose(f);
  EXPECT_THROW(CompiledModel::load(path), Error);  // no binary artifact magic
  std::remove(path.c_str());
  EXPECT_THROW(CompiledModel::load(path), Error);  // missing file
}

// ---- concurrency: many sessions, one model ---------------------------------

TEST(InferenceSession, ConcurrentSessionsShareOneModel) {
  const ac::Circuit source = small_ve_circuit(81);
  const auto model = CompiledModel::compile(source);
  auto assignments = sampled_assignments(source.cardinalities(), 48, 0.4, 222);
  const int query_var = 0;
  for (auto& a : assignments) a[static_cast<std::size_t>(query_var)].reset();

  // Serial reference results (computed before any lazy state exists on the
  // threads' model, so the workers also race the lazy max-tape/analysis
  // initialisation).
  std::vector<double> want_marginal;
  std::vector<double> want_mpe;
  std::vector<std::vector<double>> want_posterior;
  {
    const auto reference_model = CompiledModel::compile(source);
    InferenceSession reference(reference_model);
    for (const auto& e : assignments) {
      want_marginal.push_back(reference.marginal(e));
      want_mpe.push_back(reference.mpe(e));
      want_posterior.push_back(reference.conditional(query_var, e));
    }
  }
  const QuerySpec spec{QueryType::kMarginal, ToleranceKind::kAbsolute, 0.01};
  const std::string want_report = CompiledModel::compile(source)->analyze(spec).to_string();

  constexpr int kThreads = 8;
  std::vector<int> failures(kThreads, 0);
  {
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        InferenceSession session(model);  // one session per thread
        int bad = 0;
        for (int round = 0; round < 3; ++round) {
          for (std::size_t i = 0; i < assignments.size(); ++i) {
            if (session.marginal(assignments[i]) != want_marginal[i]) ++bad;
            if (session.mpe(assignments[i]) != want_mpe[i]) ++bad;
            if (session.conditional(query_var, assignments[i]) != want_posterior[i]) ++bad;
          }
          // Batched overloads and the cached analysis race too.
          const std::vector<double>& batched = session.marginal(assignments);
          for (std::size_t i = 0; i < assignments.size(); ++i) {
            if (batched[i] != want_marginal[i]) ++bad;
          }
          if (model->analyze(spec).to_string() != want_report) ++bad;
        }
        failures[static_cast<std::size_t>(t)] = bad;
      });
    }
    for (auto& w : workers) w.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
}

// ---- session construction from an analysis ---------------------------------

TEST(InferenceSession, SessionFromReportUsesSelectedRepresentation) {
  const ac::Circuit source = small_ve_circuit(91);
  const auto model = CompiledModel::compile(source);
  const AnalysisReport report =
      model->analyze({QueryType::kMarginal, ToleranceKind::kAbsolute, 0.01});
  ASSERT_TRUE(report.any_feasible);

  InferenceSession from_report(model, report);
  EXPECT_TRUE(from_report.low_precision());
  InferenceSession explicit_repr(model, SessionOptions::low_precision(report.selected));
  const auto assignments = sampled_assignments(source.cardinalities(), 24, 0.5, 333);
  for (const auto& e : assignments) {
    EXPECT_EQ(from_report.marginal(e), explicit_repr.marginal(e));
  }

  // An infeasible report selected no datapath: constructing from it must
  // refuse rather than silently run ground-truth double arithmetic.
  FrameworkOptions strict;
  strict.search.max_fraction_bits = 2;
  strict.search.max_mantissa_bits = 2;
  const auto strict_model = CompiledModel::compile(source, strict);
  const AnalysisReport infeasible =
      strict_model->analyze({QueryType::kMarginal, ToleranceKind::kAbsolute, 1e-12});
  ASSERT_FALSE(infeasible.any_feasible);
  EXPECT_THROW(InferenceSession(strict_model, infeasible), InvalidArgument);

  // The exact fallback is still reachable, but only as an explicit opt-in —
  // and it really is the exact backend (interpreter-identical, clean flags).
  InferenceSession exact_fallback(strict_model, infeasible, /*allow_exact_fallback=*/true);
  EXPECT_FALSE(exact_fallback.low_precision());
  for (const auto& e : sampled_assignments(source.cardinalities(), 8, 0.5, 444)) {
    EXPECT_EQ(exact_fallback.marginal(e), ac::evaluate(strict_model->binary_circuit(), e));
    EXPECT_FALSE(exact_fallback.last_flags().any());
  }
}

TEST(InferenceSession, BatchOptionsValidatedAtConstruction) {
  const auto model = CompiledModel::compile(small_nb_circuit(43));
  // A negative thread count used to explode lazily in the batched engine's
  // constructor on the first batched query; the session constructor rejects
  // it at setup time.  block == 0 is the cache-aware auto-size (the
  // default), not a misconfiguration.
  SessionOptions auto_block;
  auto_block.batch.block = 0;
  InferenceSession auto_session(model, auto_block);
  const auto probe = sampled_assignments(model->cardinalities(), 4, 0.5, 99);
  EXPECT_EQ(auto_session.marginal(probe).size(), probe.size());
  SessionOptions bad_threads;
  bad_threads.batch.num_threads = -1;
  EXPECT_THROW(InferenceSession(model, bad_threads), InvalidArgument);
  // A forced kernel ISA this build/CPU cannot run is a setup-time error too.
  std::optional<ac::simd::Level> unsupported;
  for (const auto level : {ac::simd::Level::kNeon, ac::simd::Level::kAvx512}) {
    if (!ac::simd::level_supported(level)) unsupported = level;
  }
  if (unsupported) {
    SessionOptions bad_simd;
    bad_simd.batch.simd = *unsupported;
    EXPECT_THROW(InferenceSession(model, bad_simd), InvalidArgument);
  }
  // A valid shape still constructs and serves batches.
  SessionOptions ok;
  ok.batch.block = 4;
  ok.batch.num_threads = 2;
  InferenceSession session(model, ok);
  const auto assignments = sampled_assignments(model->cardinalities(), 8, 0.5, 777);
  EXPECT_EQ(session.marginal(assignments).size(), assignments.size());
}

TEST(InferenceSession, BatchedLowPrecisionMatchesSinglesAcrossThreads) {
  const ac::Circuit source = small_ve_circuit(36);
  const auto model = CompiledModel::compile(source);
  const auto assignments = sampled_assignments(source.cardinalities(), 33, 0.5, 555);
  for (const Representation& repr : {Representation::of(lowprec::FixedFormat{1, 10}),
                                     Representation::of(lowprec::FloatFormat{4, 6})}) {
    for (const int threads : {1, 4}) {
      SessionOptions options = SessionOptions::low_precision(repr);
      options.batch.num_threads = threads;
      options.batch.block = 8;
      InferenceSession batched(model, options);
      InferenceSession singles(model, SessionOptions::low_precision(repr));

      const std::vector<double> got = batched.marginal(assignments);
      const lowprec::ArithFlags got_flags = batched.last_flags();
      lowprec::ArithFlags want_flags;
      for (std::size_t i = 0; i < assignments.size(); ++i) {
        EXPECT_EQ(got[i], singles.marginal(assignments[i])) << "threads=" << threads;
        want_flags.merge(singles.last_flags());
      }
      EXPECT_TRUE(flags_equal(got_flags, want_flags));

      const std::vector<double> got_mpe = batched.mpe(assignments);
      for (std::size_t i = 0; i < assignments.size(); ++i) {
        EXPECT_EQ(got_mpe[i], singles.mpe(assignments[i])) << "threads=" << threads;
      }
    }
  }
}

TEST(InferenceSession, BatchedConditionalCoalescedScatter) {
  // A circuit where evidence can be structurally impossible: var0 = 1 has no
  // indicator support, so Pr(e) == 0 there — those posteriors come back
  // empty while the surviving sets' coalesced numerators scatter back to
  // their own slots, bit-identical to the single-query path on both
  // backends.
  ac::Circuit c({2, 2});
  const ac::NodeId i00 = c.add_indicator(0, 0);
  const ac::NodeId t0 = c.add_prod({c.add_indicator(1, 0), c.add_parameter(0.3)});
  const ac::NodeId t1 = c.add_prod({c.add_indicator(1, 1), c.add_parameter(0.7)});
  c.set_root(c.add_prod({i00, c.add_sum({t0, t1})}));
  const auto model = CompiledModel::wrap(c);
  const int query_var = 1;

  std::vector<ac::PartialAssignment> evidence;
  for (const int obs : {0, 1, 0, 1, -1}) {  // -1 = var0 unobserved
    ac::PartialAssignment e(2);
    if (obs >= 0) e[0] = obs;
    evidence.push_back(std::move(e));
  }

  InferenceSession exact(model);
  InferenceSession lp(model, SessionOptions::low_precision(
                                 Representation::of(lowprec::FixedFormat{2, 12})));
  for (InferenceSession* session : {&exact, &lp}) {
    const auto batched = session->conditional(query_var, evidence);
    ASSERT_EQ(batched.size(), evidence.size());
    for (std::size_t i = 0; i < evidence.size(); ++i) {
      EXPECT_EQ(batched[i], session->conditional(query_var, evidence[i])) << "i=" << i;
    }
    EXPECT_TRUE(batched[1].empty());  // Pr(var0 = 1) == 0
    EXPECT_TRUE(batched[3].empty());
    ASSERT_EQ(batched[0].size(), 2u);  // survivors keep their slots
    EXPECT_EQ(batched[0], batched[2]);
  }
}

}  // namespace
}  // namespace problp
