// problp_cli — the framework as a command-line tool, the way a hardware
// team would actually consume it:
//
//   problp_cli <network.bif> [--query marginal|conditional|mpe]
//              [--tolerance-kind abs|rel] [--tolerance 0.01]
//              [--evidence var=state,...] [--query-var <name>]
//              [--infer] [--batch N] [--fallback off|exact]
//              [--save-model out.pm] [--load-model in.pm]
//              [--registry dir --model name]
//              [--serve N] [--serve-capacity K] [--serve-batch B]
//              [--serve-workers W]
//              [--verilog out.v] [--testbench out_tb.v]
//              [--dot out.dot] [--circuit out.ac]
//
// Reads a Bayesian network in BIF format, compiles it once into a
// runtime::CompiledModel, runs the ProbLP analysis, prints the
// Table-2-style report — and, with --infer, answers the actual query
// through runtime::InferenceSession, both in exact double and under the
// representation the analysis selected.  --batch N samples N evidence sets
// and reports session throughput.  --save-model/--load-model persist the
// compiled artifact (binary, mmap-able) so repeated invocations skip BN
// compilation; --registry serves <dir>/<name>.pm through a
// runtime::ModelRegistry (content-hash keyed, shared mappings).
//
// --fallback exact arms the session's precision-escalation fallback: flagged
// low-precision queries re-serve on the exact double backend, and the CLI
// prints a per-query flag/escalation summary.  Scripted deployments can
// gate on the exit status: 3 means sticky flags survived on at least one
// served answer (flags raised with --fallback off, or — impossible with the
// exact rung — surviving the ladder), 0 means every served answer was
// computed flag-clean.
//
// --serve N pushes N sampled requests through the overload-safe async
// front-end (src/serve/, docs/serving.md): --serve-workers shards, each a
// bounded queue whose own worker thread cuts batches and serves them on the
// exact backend (no separate batcher thread); past 3/4 of --serve-capacity
// admission sheds new requests with a typed rejection.  Exit codes follow
// the same contract as the rest of the CLI: any typed rejection/timeout/error among
// the completions exits 3 (like surviving flags), a misconfigured queue
// (e.g. --serve-batch larger than --serve-capacity) exits 2 with a
// found-vs-expected message in the artifact-mismatch style, and a clean
// run exits 0.
//
// Try it on the bundled ALARM export:
//   ./build/examples/patient_monitoring /tmp/problp_alarm.bif   # writes the BIF
//   ./build/examples/problp_cli /tmp/problp_alarm.bif --query conditional
//       --tolerance-kind rel --query-var HYPOVOLEMIA
//       --evidence HRBP=HIGH,HREKG=HIGH --infer --batch 512   (one line)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "ac/dot.hpp"
#include "ac/serialize.hpp"
#include "bn/bif.hpp"
#include "bn/sampling.hpp"
#include "compile/ve_compiler.hpp"
#include "hw/testbench.hpp"
#include "runtime/model_registry.hpp"
#include "runtime/session.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <network.bif> [--query marginal|conditional|mpe]\n"
               "          [--tolerance-kind abs|rel] [--tolerance <float>]\n"
               "          [--evidence var=state,...] [--query-var <name>]\n"
               "          [--infer] [--batch <N>] [--fallback off|exact]\n"
               "          [--save-model <out.pm>] [--load-model <in.pm>]\n"
               "          [--registry <dir> --model <name>]\n"
               "          [--serve <N>] [--serve-capacity <K>] [--serve-batch <B>]\n"
               "          [--serve-workers <W>]\n"
               "          [--verilog <out.v>] [--testbench <out_tb.v>]\n"
               "          [--dot <out.dot>] [--circuit <out.ac>]\n",
               argv0);
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  problp::require(out.good(), "cannot open output file '" + path + "'");
  out << content;
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), content.size());
}

// "HRBP=HIGH" -> variable / state ids; both sides accept names or indices.
int resolve_variable(const problp::bn::BayesianNetwork& network, const std::string& token) {
  const int by_name = network.find_variable(token);
  if (by_name >= 0) return by_name;
  try {
    const int v = std::stoi(token);
    if (v >= 0 && v < network.num_variables()) return v;
  } catch (...) {
  }
  throw problp::InvalidArgument("unknown variable '" + token + "'");
}

int resolve_state(const problp::bn::BayesianNetwork& network, int var, const std::string& token) {
  const auto& names = network.variable(var).state_names;
  for (std::size_t s = 0; s < names.size(); ++s) {
    if (names[s] == token) return static_cast<int>(s);
  }
  try {
    const int s = std::stoi(token);
    if (s >= 0 && s < network.cardinality(var)) return s;
  } catch (...) {
  }
  throw problp::InvalidArgument("variable '" + network.variable(var).name + "' has no state '" +
                                token + "'");
}

problp::ac::PartialAssignment parse_evidence(const problp::bn::BayesianNetwork& network,
                                             const std::string& spec) {
  problp::ac::PartialAssignment evidence(static_cast<std::size_t>(network.num_variables()));
  for (const std::string& item : problp::split(spec, ',')) {
    const std::string entry = problp::trim(item);
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    problp::require(eq != std::string::npos, "evidence entry '" + entry + "' is not var=state");
    const int var = resolve_variable(network, problp::trim(entry.substr(0, eq)));
    const int state = resolve_state(network, var, problp::trim(entry.substr(eq + 1)));
    evidence[static_cast<std::size_t>(var)] = state;
  }
  return evidence;
}

std::string describe_evidence(const problp::bn::BayesianNetwork& network,
                              const problp::ac::PartialAssignment& evidence) {
  std::string out;
  for (std::size_t v = 0; v < evidence.size(); ++v) {
    if (!evidence[v].has_value()) continue;
    if (!out.empty()) out += ", ";
    out += network.variable(static_cast<int>(v)).name + "=" +
           network.variable(static_cast<int>(v))
               .state_names[static_cast<std::size_t>(*evidence[v])];
  }
  return out.empty() ? "(none)" : out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace problp;
  if (argc < 2) {
    usage(argv[0]);
    return 2;
  }
  std::string bif_path = argv[1];
  errormodel::QuerySpec spec{errormodel::QueryType::kMarginal,
                             errormodel::ToleranceKind::kAbsolute, 0.01};
  std::string verilog_path;
  std::string testbench_path;
  std::string dot_path;
  std::string circuit_path;
  std::string save_model_path;
  std::string load_model_path;
  std::string registry_dir;
  std::string model_name;
  std::string evidence_spec;
  std::string query_var_name;
  bool infer = false;
  long batch = 0;
  bool fallback_exact = false;
  long serve_requests = 0;
  long serve_capacity = 256;
  long serve_batch = 64;
  long serve_workers = 2;
  int exit_code = 0;
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) {
          usage(argv[0]);
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--query") {
        const std::string q = next();
        if (q == "marginal") {
          spec.query = errormodel::QueryType::kMarginal;
        } else if (q == "conditional") {
          spec.query = errormodel::QueryType::kConditional;
        } else if (q == "mpe") {
          spec.query = errormodel::QueryType::kMpe;
        } else {
          usage(argv[0]);
          return 2;
        }
      } else if (arg == "--tolerance-kind") {
        const std::string k = next();
        spec.kind = (k == "rel") ? errormodel::ToleranceKind::kRelative
                                 : errormodel::ToleranceKind::kAbsolute;
      } else if (arg == "--tolerance") {
        try {
          spec.tolerance = std::stod(next());
        } catch (const std::exception&) {
          throw InvalidArgument("--tolerance expects a number");
        }
      } else if (arg == "--evidence") {
        evidence_spec = next();
      } else if (arg == "--query-var") {
        query_var_name = next();
      } else if (arg == "--infer") {
        infer = true;
      } else if (arg == "--batch") {
        try {
          batch = std::stol(next());
        } catch (const std::exception&) {
          throw InvalidArgument("--batch expects an integer");
        }
      } else if (arg == "--fallback") {
        const std::string mode = next();
        if (mode == "exact") {
          fallback_exact = true;
        } else if (mode != "off") {
          throw InvalidArgument("--fallback expects off or exact");
        }
      } else if (arg == "--serve" || arg == "--serve-capacity" || arg == "--serve-batch" ||
                 arg == "--serve-workers") {
        long value = 0;
        try {
          value = std::stol(next());
        } catch (const std::exception&) {
          throw InvalidArgument(arg + " expects an integer");
        }
        if (arg == "--serve") {
          serve_requests = value;
        } else if (arg == "--serve-capacity") {
          serve_capacity = value;
        } else if (arg == "--serve-batch") {
          serve_batch = value;
        } else {
          serve_workers = value;
        }
      } else if (arg == "--save-model") {
        save_model_path = next();
      } else if (arg == "--load-model") {
        load_model_path = next();
      } else if (arg == "--registry") {
        registry_dir = next();
      } else if (arg == "--model") {
        model_name = next();
      } else if (arg == "--verilog") {
        verilog_path = next();
      } else if (arg == "--testbench") {
        testbench_path = next();
      } else if (arg == "--dot") {
        dot_path = next();
      } else if (arg == "--circuit") {
        circuit_path = next();
      } else {
        usage(argv[0]);
        return 2;
      }
    }

    std::printf("loading %s ...\n", bif_path.c_str());
    const bn::BayesianNetwork network = bn::load_bif_file(bif_path);
    std::printf("network: %d variables, %zu parameters\n", network.num_variables(),
                network.num_parameters());

    // The one compile (or artifact load) every query below shares.
    std::shared_ptr<const runtime::CompiledModel> model;
    if (!registry_dir.empty() || !model_name.empty()) {
      require(!registry_dir.empty() && !model_name.empty(),
              "--registry and --model must be given together");
      runtime::ModelRegistry registry;
      model = registry.get(registry_dir + "/" + model_name + ".pm");
      std::printf("registry: serving '%s' (%s, artifact v%u)\n", model_name.c_str(),
                  model->memory_mapped() ? "mmap" : "in-memory", model->artifact_version());
    } else if (!load_model_path.empty()) {
      model = runtime::CompiledModel::load(load_model_path);
      std::printf("loaded compiled model from %s (%s, recompilation skipped)\n",
                  load_model_path.c_str(), model->memory_mapped() ? "mmap" : "parsed");
    } else {
      model = runtime::CompiledModel::compile(network);
    }
    if (!registry_dir.empty() || !load_model_path.empty()) {
      // Evidence/query names resolve against the BIF network, so a model
      // compiled from a different network would silently answer the wrong
      // queries — reject anything whose variable layout disagrees, naming
      // both sides so the operator can see *which* artifact was wrong.
      std::vector<int> network_cards;
      for (int v = 0; v < network.num_variables(); ++v) {
        network_cards.push_back(network.cardinality(v));
      }
      const std::string artifact_name = model->name().empty() ? "<unnamed>" : model->name();
      const std::string network_name = network.name().empty() ? "<unnamed>" : network.name();
      require(model->cardinalities() == network_cards,
              str_format("loaded artifact does not match the network: artifact holds model "
                         "'%s' (format v%u, %d variables) but the BIF declares network '%s' "
                         "(%d variables) — different variable count or cardinalities",
                         artifact_name.c_str(), model->artifact_version(),
                         model->num_variables(), network_name.c_str(),
                         network.num_variables()));
    }

    if (model->artifact_version() == 0) {
      std::printf("compiled AC (binarised): %s\n",
                  model->binary_circuit().stats().to_string().c_str());
    }

    const AnalysisReport report = model->analyze(spec);
    if (!save_model_path.empty()) {
      // Saved after analyze() so the artifact carries this spec's report and
      // the quantised leaf cache of its selected format.
      model->save(save_model_path);
      std::printf("wrote %s (binary model artifact)\n", save_model_path.c_str());
    }
    std::printf("\n%s\n\n", report.to_string().c_str());
    if (!report.any_feasible) {
      std::printf("no representation meets the tolerance within the search caps\n");
      return 1;
    }

    // ---- online inference through the session API --------------------------
    if (infer || batch > 0) {
      ac::PartialAssignment evidence = evidence_spec.empty()
                                           ? ac::PartialAssignment(static_cast<std::size_t>(
                                                 network.num_variables()))
                                           : parse_evidence(network, evidence_spec);
      int query_var = -1;
      if (spec.query == errormodel::QueryType::kConditional) {
        require(!query_var_name.empty(), "--query conditional needs --query-var <name>");
        query_var = resolve_variable(network, query_var_name);
        require(!evidence[static_cast<std::size_t>(query_var)].has_value(),
                "--query-var must not appear in --evidence");
      }

      runtime::InferenceSession exact(model);
      runtime::SessionOptions lp_options = runtime::SessionOptions::low_precision(
          report.selected, report.selected.kind == Representation::Kind::kFixed
                               ? model->options().search.fixed_options.rounding
                               : model->options().search.float_rounding);
      if (fallback_exact) lp_options.fallback = runtime::FallbackPolicy::to_exact();
      runtime::InferenceSession lowprec(model, lp_options);

      // One per-query summary shape for both the single and the batched
      // paths; flips the exit status to 3 when flags survived on any served
      // answer so scripts can gate deployments on it.
      auto flag_summary = [&] {
        const std::vector<runtime::QueryProvenance>& prov = lowprec.last_provenance();
        std::size_t escalated = 0;
        std::size_t served_exact = 0;
        std::size_t survived = 0;
        int max_escalations = 0;
        for (const runtime::QueryProvenance& p : prov) {
          if (p.escalations > 0) ++escalated;
          if (!p.served_format) ++served_exact;
          if (p.flags.any()) ++survived;
          max_escalations = std::max(max_escalations, p.escalations);
        }
        std::printf("low-precision flag summary: %zu quer%s, %zu escalated, %zu served exact, "
                    "%zu with surviving flags (fallback %s)\n",
                    prov.size(), prov.size() == 1 ? "y" : "ies", escalated, served_exact,
                    survived, fallback_exact ? "exact" : "off");
        if (survived > 0) exit_code = 3;
      };

      if (infer) {
        std::printf("evidence: %s\n", describe_evidence(network, evidence).c_str());
        if (spec.query == errormodel::QueryType::kConditional) {
          const std::vector<double> exact_post = exact.conditional(query_var, evidence);
          const std::vector<double> lp_post = lowprec.conditional(query_var, evidence);
          require(!exact_post.empty(), "Pr(evidence) = 0: the conditional query is undefined");
          if (lp_post.empty()) {
            std::printf("note: %s flushed Pr(evidence) to 0 — low-precision posterior "
                        "undefined\n",
                        report.selected.to_string().c_str());
          }
          std::printf("posterior of %s (exact | %s):\n", network.variable(query_var).name.c_str(),
                      report.selected.to_string().c_str());
          for (int q = 0; q < network.cardinality(query_var); ++q) {
            const std::string lp_cell =
                lp_post.empty() ? std::string("undefined")
                                : str_format("%.8f", lp_post[static_cast<std::size_t>(q)]);
            std::printf("  %-16s %.8f | %s\n",
                        network.variable(query_var).state_names[static_cast<std::size_t>(q)]
                            .c_str(),
                        exact_post[static_cast<std::size_t>(q)], lp_cell.c_str());
          }
        } else if (spec.query == errormodel::QueryType::kMpe) {
          std::printf("MPE value max_x Pr(x, e): exact %.10g | %s %.10g\n",
                      exact.mpe(evidence), report.selected.to_string().c_str(),
                      lowprec.mpe(evidence));
        } else {
          std::printf("Pr(e): exact %.10g | %s %.10g\n", exact.marginal(evidence),
                      report.selected.to_string().c_str(), lowprec.marginal(evidence));
        }
        if (lowprec.last_flags().any()) {
          std::printf("  low-precision flags RAISED (overflow/underflow observed)\n");
        }
        flag_summary();
      }

      if (batch > 0) {
        // Quick throughput readout: N sampled evidence sets through the
        // batched session path, exact then low-precision.
        Rng rng(7);
        std::vector<ac::PartialAssignment> batch_evidence;
        batch_evidence.reserve(static_cast<std::size_t>(batch));
        for (const auto& sample :
             bn::sample_dataset(network, static_cast<int>(batch), rng)) {
          ac::PartialAssignment a(sample.begin(), sample.end());
          if (query_var >= 0) a[static_cast<std::size_t>(query_var)].reset();
          batch_evidence.push_back(std::move(a));
        }
        auto time_qps = [&](auto&& run) {
          const auto t0 = std::chrono::steady_clock::now();
          run();
          const double secs =
              std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
          return static_cast<double>(batch_evidence.size()) / secs;
        };
        double exact_qps = 0.0;
        double lp_qps = 0.0;
        if (spec.query == errormodel::QueryType::kConditional) {
          exact_qps = time_qps([&] { exact.conditional(query_var, batch_evidence); });
          lp_qps = time_qps([&] { lowprec.conditional(query_var, batch_evidence); });
        } else if (spec.query == errormodel::QueryType::kMpe) {
          exact_qps = time_qps([&] { exact.mpe(batch_evidence); });
          lp_qps = time_qps([&] { lowprec.mpe(batch_evidence); });
        } else {
          exact_qps = time_qps([&] { exact.marginal(batch_evidence); });
          lp_qps = time_qps([&] { lowprec.marginal(batch_evidence); });
        }
        std::printf("throughput over %zu sampled evidence sets: exact %.0f q/s, %s %.0f q/s\n",
                    batch_evidence.size(), exact_qps, report.selected.to_string().c_str(),
                    lp_qps);
        flag_summary();
      }
    }

    // ---- overload-safe serving smoke ---------------------------------------
    if (serve_requests > 0) {
      int query_var = -1;
      if (spec.query == errormodel::QueryType::kConditional) {
        require(!query_var_name.empty(), "--query conditional needs --query-var <name>");
        query_var = resolve_variable(network, query_var_name);
      }

      serve::ServerOptions sopts;
      sopts.capacity = static_cast<std::size_t>(serve_capacity);
      sopts.batch_max = static_cast<std::size_t>(serve_batch);
      sopts.workers = static_cast<int>(serve_workers);
      sopts.flush_deadline = std::chrono::milliseconds(1);
      sopts.full_policy = serve::ServerOptions::FullPolicy::kBlock;
      sopts.overload.shed_depth = std::max<std::size_t>(2, sopts.capacity * 3 / 4);

      std::unique_ptr<serve::Server> server;
      try {
        server = std::make_unique<serve::Server>(model, sopts);
      } catch (const InvalidArgument& e) {
        // Queue misconfiguration mirrors the artifact-mismatch contract: a
        // found-vs-expected message and exit 2, before any request queues.
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
      }
      std::printf("serve: capacity %zu, batch_max %zu, %d worker(s), shed depth %zu\n",
                  sopts.capacity, sopts.batch_max, sopts.workers, sopts.overload.shed_depth);

      Rng rng(11);
      std::vector<ac::PartialAssignment> serve_evidence;
      serve_evidence.reserve(static_cast<std::size_t>(serve_requests));
      for (const auto& sample :
           bn::sample_dataset(network, static_cast<int>(serve_requests), rng)) {
        ac::PartialAssignment a(sample.begin(), sample.end());
        if (query_var >= 0) a[static_cast<std::size_t>(query_var)].reset();
        serve_evidence.push_back(std::move(a));
      }

      // Closed loop with a 64-wide window: below the default capacity's
      // shed threshold, so a clean run exits 0 — while shrinking the queue
      // (e.g. --serve-capacity 8 --serve-batch 8) pushes the same window
      // across the shed depth (any typed rejection flips the exit status
      // to 3).
      const std::size_t window = std::min<std::size_t>(sopts.capacity, 64);
      std::deque<std::future<serve::Response>> in_flight;
      std::uint64_t ok = 0;
      std::uint64_t timeouts = 0;
      std::uint64_t rejected = 0;
      std::uint64_t worker_errors = 0;
      const auto consume = [&](serve::Response response) {
        switch (response.status) {
          case serve::Status::kOk:
            ++ok;
            break;
          case serve::Status::kTimeout:
            ++timeouts;
            break;
          case serve::Status::kError:
            ++worker_errors;
            break;
          default:
            ++rejected;
            break;
        }
      };
      const auto t0 = std::chrono::steady_clock::now();
      for (ac::PartialAssignment& evidence : serve_evidence) {
        serve::Request request;
        request.query = spec.query;
        request.query_var = query_var;
        request.evidence = std::move(evidence);
        request.timeout = std::chrono::seconds(1);
        in_flight.push_back(server->submit(std::move(request)));
        while (in_flight.size() >= window) {
          consume(in_flight.front().get());
          in_flight.pop_front();
        }
      }
      while (!in_flight.empty()) {
        consume(in_flight.front().get());
        in_flight.pop_front();
      }
      server->shutdown(/*drain=*/true);
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

      const serve::StatsSnapshot stats = server->stats();
      std::printf("serve: %ld requests in %.3f s (%.0f q/s): %llu ok, "
                  "%llu timeout, %llu rejected, %llu error; flushes %llu by size / %llu by "
                  "deadline, double completions %llu\n",
                  serve_requests, secs, static_cast<double>(serve_requests) / secs,
                  static_cast<unsigned long long>(ok),
                  static_cast<unsigned long long>(timeouts),
                  static_cast<unsigned long long>(rejected),
                  static_cast<unsigned long long>(worker_errors),
                  static_cast<unsigned long long>(stats.flushes_by_size),
                  static_cast<unsigned long long>(stats.flushes_by_deadline),
                  static_cast<unsigned long long>(stats.double_completions));
      if (timeouts + rejected + worker_errors > 0) {
        // Typed non-ok completions gate scripts exactly like surviving
        // flags do: exit 3, with the counts above naming what happened.
        exit_code = 3;
      }
    }

    if (!verilog_path.empty() || !testbench_path.empty()) {
      const HardwareReport hardware = model->generate_hardware(report);
      std::printf("hardware: %s\n", hardware.stats.to_string().c_str());
      std::printf("netlist energy estimate: %.4g nJ/eval\n", hardware.netlist_energy_nj);
      if (!verilog_path.empty()) write_file(verilog_path, hardware.verilog);
      if (!testbench_path.empty()) {
        // Stimulus: 32 ancestral samples, observed on all variables except
        // the testbench drives the raw indicator ports, so full assignments
        // exercise realistic input patterns.
        Rng rng(1);
        std::vector<ac::PartialAssignment> vectors;
        for (const auto& sample : bn::sample_dataset(network, 32, rng)) {
          vectors.emplace_back(sample.begin(), sample.end());
        }
        const std::string tb =
            report.selected.kind == Representation::Kind::kFixed
                ? hw::emit_fixed_testbench(hardware.netlist, report.selected.fixed, vectors)
                : hw::emit_float_testbench(hardware.netlist, report.selected.flt, vectors);
        write_file(testbench_path, tb);
      }
    }
    if (!dot_path.empty()) {
      std::vector<std::string> names;
      for (int v = 0; v < network.num_variables(); ++v) names.push_back(network.variable(v).name);
      write_file(dot_path, ac::to_dot(model->binary_circuit(), names));
    }
    if (!circuit_path.empty()) {
      write_file(circuit_path, ac::to_text(model->binary_circuit()));
    }
  } catch (const std::exception& e) {
    // problp::Error and the std::stod/std::stol flag-parsing failures alike.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return exit_code;
}
