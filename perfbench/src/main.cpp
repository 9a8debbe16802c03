// perfbench — ProbLP's end-to-end benchmark (README.md has the method).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>] [--rev <source revision>]
//
// Every run goes through the same five phases, timed from outside the
// program through public calls of compile, runtime, errormodel, hw and
// serve:
//
//   1. setup     network -> compile_network -> CompiledModel::compile -> save
//                -> cold ModelRegistry::get -> analyze(served spec)
//                -> Server constructed -> first answer returned
//   2. design    analyze + generate_hardware for one design spec, on a
//                freshly loaded (un-analysed) model
//   3. nominal   open loop at the workload's fixed rate
//   4. closed    one client keeping 2 x batch_max requests outstanding
//   5. overload  open loop at a fixed rate above capacity
//
// The host's speed drifts from second to second, so a run is cut into
// cycles of all five phases (serving in one short slice of each phase per
// cycle), and each metric is a median or interquartile mean over the whole
// run.
//
// The last line of stdout is one JSON object: the end-to-end metrics with
// --trace 0, the per-layer metrics (from spans around the same calls) with
// --trace 1.  Any wrong answer, tolerance violation, broken exactly-once
// accounting or Verilog mismatch fails the run closed: a message on stderr,
// exit code 1, and no metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ac/simd_sweep.hpp"
#include "compile/ve_compiler.hpp"
#include "hw/generator.hpp"
#include "hw/netlist_energy.hpp"
#include "hw/verilog.hpp"
#include "runtime/compiled_model.hpp"
#include "runtime/model_registry.hpp"
#include "runtime/session.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace runtime = problp::runtime;
namespace serve = problp::serve;
using problp::errormodel::QueryType;
using problp::errormodel::ToleranceKind;

// ---- fixed server and measurement settings (identical for every workload) --
constexpr std::size_t kCapacity = 1024;
constexpr std::size_t kBatchMax = 256;
constexpr std::size_t kShedDepth = 768;
constexpr std::chrono::milliseconds kFlushDeadline{1};
/// Closed loop: one client keeps this many requests outstanding.
constexpr std::uint64_t kClosedWindow = 2 * kBatchMax;
/// Each serving slice first runs this long unmeasured (lazy engine set-up,
/// queue fill).
constexpr double kWarmupSeconds = 0.05;
/// Rates are the interquartile mean of the rates of windows about this
/// long, over all slices of a phase, so a host stall that hits a few windows
/// does not move them.
constexpr double kWindowSeconds = 0.25;
/// An open-loop slice's latency quantiles count only when it holds this
/// many ok samples; the phase's quantiles are the medians over slices.
constexpr std::size_t kSliceMinSamples = 500;
/// Traced runs sample one request in this many for per-request spans.
constexpr std::uint64_t kSampleEvery = 16;
/// Shares of --seconds given to the nominal, closed and overload phases,
/// summed over all cycles.
constexpr double kNominalShare = 0.2;
constexpr double kClosedShare = 0.55;
constexpr double kOverloadShare = 0.25;
/// Traced runs time the raw batched session this long, summed over cycles.
constexpr double kSessionSeconds = 0.5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/perfbench/run";
  std::string rev = "unknown";
};

/// Spin-wait hint: keeps a busy-waiting thread from starving a sibling
/// hardware thread, which may be running a server thread.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

[[noreturn]] void fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: FAIL: %s\n", why.c_str());
  std::exit(1);
}

// ---- statistics --------------------------------------------------------------

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return v[idx];
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Mean of the middle half of the sample (all of it below four values).
double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- host stamp --------------------------------------------------------------

/// Clock ticks since boot of all CPU time and of the time the hypervisor
/// ran other guests instead ("steal", /proc/stat); zeros where unavailable.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTicks t;
  if (!(in >> label) || label != "cpu") return t;
  for (int field = 0; field < 8; ++field) {  // user nice system idle iowait irq softirq steal
    std::uint64_t v = 0;
    if (!(in >> v)) return CpuTicks{};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string host_stamp(const Args& args) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"host\":{\"nproc\":%u,\"cpu\":\"%s\",\"isa\":\"%s\",\"compiler\":\"%s\","
                "\"build\":\"%s\",\"rev\":\"%s\"},\"workload\":\"%s\",\"seed\":%llu,"
                "\"seconds\":%g,\"trace\":%d}",
                std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
                problp::ac::simd::level_name(problp::ac::simd::dispatch_level()),
                json_escape(compiler).c_str(), PERFBENCH_BUILD_TYPE,
                json_escape(args.rev).c_str(), json_escape(args.workload).c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  return buf;
}

// ---- the correctness oracle --------------------------------------------------

/// What a stand-alone InferenceSession in the served representation answers
/// for every pool entry, through its per-query API.  Served answers must be
/// bitwise equal to these.
struct Oracle {
  QueryType query = QueryType::kMarginal;
  std::vector<double> value;
  std::vector<std::vector<double>> posterior;

  bool matches(std::uint32_t idx, const serve::Response& r) const {
    if (query == QueryType::kConditional) {
      const std::vector<double>& want = posterior[idx];
      return r.posterior.size() == want.size() &&
             (want.empty() ||
              std::memcmp(r.posterior.data(), want.data(), want.size() * sizeof(double)) == 0);
    }
    return std::memcmp(&r.value, &value[idx], sizeof(double)) == 0;
  }
};

Oracle make_oracle(const std::shared_ptr<const runtime::CompiledModel>& model,
                   const problp::AnalysisReport& report, const Workload& w, const Inputs& in) {
  Oracle oracle;
  oracle.query = w.served.query;
  runtime::InferenceSession session(model, report);
  for (const auto& evidence : in.pool) {
    switch (w.served.query) {
      case QueryType::kConditional:
        oracle.posterior.push_back(session.conditional(in.query_var, evidence));
        break;
      case QueryType::kMpe:
        oracle.value.push_back(session.mpe(evidence));
        break;
      case QueryType::kMarginal:
        oracle.value.push_back(session.marginal(evidence));
        break;
    }
  }
  return oracle;
}

/// The paper's a-priori guarantee: every answer the oracle (and so every ok
/// served answer) gives lies within the spec's tolerance of exact double.
void check_tolerance(const std::shared_ptr<const runtime::CompiledModel>& model,
                     const Workload& w, const Inputs& in, const Oracle& oracle) {
  runtime::InferenceSession exact(model);
  const double tol = w.served.tolerance;
  const bool relative = w.served.kind == ToleranceKind::kRelative;
  const auto within = [&](double served, double truth) {
    const double err = std::abs(served - truth);
    return relative ? (truth > 0.0 ? err <= tol * truth : served == 0.0) : err <= tol;
  };
  std::size_t violations = 0;
  if (w.served.query == QueryType::kConditional) {
    const auto truth = exact.conditional(in.query_var, in.pool);
    for (std::size_t i = 0; i < truth.size(); ++i) {
      if (truth[i].size() != oracle.posterior[i].size()) {
        ++violations;
        continue;
      }
      for (std::size_t q = 0; q < truth[i].size(); ++q) {
        if (!within(oracle.posterior[i][q], truth[i][q])) ++violations;
      }
    }
  } else {
    const auto& truth = w.served.query == QueryType::kMpe ? exact.mpe(in.pool)
                                                           : exact.marginal(in.pool);
    for (std::size_t i = 0; i < truth.size(); ++i) {
      if (!within(oracle.value[i], truth[i])) ++violations;
    }
  }
  if (violations != 0) {
    fail(std::to_string(violations) + " answers of the served format exceed the spec's " +
         (relative ? "relative" : "absolute") + " tolerance " + std::to_string(tol));
  }
}

// ---- serving -------------------------------------------------------------------

serve::ServerOptions server_options(const runtime::SessionOptions& session) {
  serve::ServerOptions o;
  o.capacity = kCapacity;
  o.full_policy = serve::ServerOptions::FullPolicy::kReject;
  o.batch_max = kBatchMax;
  o.flush_deadline = kFlushDeadline;
  o.workers = 1;
  o.overload.shed_depth = kShedDepth;
  o.session = session;
  o.session.batch.num_threads = 1;
  return o;
}

serve::Request make_request(const Workload& w, const Inputs& in, std::uint64_t seq) {
  serve::Request request;
  request.query = w.served.query;
  request.evidence = in.evidence(seq);
  if (w.served.query == QueryType::kConditional) request.query_var = in.query_var;
  return request;
}

/// Times of one sampled request (traced runs), for its spans.
struct RequestSample {
  std::uint64_t seq = 0;
  std::int64_t submit_ns = 0;  ///< 0 = not sampled
  std::int64_t done_ns = 0;
  std::int64_t queue_ns = 0;
  std::int64_t latency_ns = 0;
};

/// Per-request record of an open-loop phase, indexed by sequence number.
struct Slot {
  float latency_us = 0.0f;  ///< completion minus due time
  float late_us = 0.0f;     ///< how late the generator sent it
  bool ok = false;
};

/// State shared between the generator and the completion callbacks of one
/// slice.  Each request writes only its own slot and sample, and the main
/// thread reads them after Server::shutdown() has joined the server threads.
struct PhaseState {
  PhaseState(const Inputs& inputs, const Oracle& oracle_, std::size_t slot_count,
             std::size_t sample_count)
      : in(inputs), oracle(oracle_), slots(slot_count), samples(sample_count) {}

  std::int64_t due(std::uint64_t seq) const {
    return t0 + static_cast<std::int64_t>(static_cast<double>(seq) * period_ns);
  }

  void complete(std::uint64_t seq, serve::Response&& r) {
    const std::int64_t t = now_ns();
    const bool ok = r.ok();
    if (ok) {
      if (!oracle.matches(in.index(seq), r)) wrong.fetch_add(1, std::memory_order_relaxed);
      if (r.flags.any()) flagged.fetch_add(1, std::memory_order_relaxed);
    } else {
      failed.fetch_add(1, std::memory_order_relaxed);
      if (r.status == serve::Status::kRejectedOverload ||
          r.status == serve::Status::kRejectedQueueFull) {
        shed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (!slots.empty()) {
      slots[seq].latency_us = static_cast<float>(static_cast<double>(t - due(seq)) * 1e-3);
      slots[seq].ok = ok;
    }
    if (seq % kSampleEvery == 0 && seq / kSampleEvery < samples.size()) {
      RequestSample& s = samples[seq / kSampleEvery];
      if (s.submit_ns != 0) {
        s.done_ns = t;
        s.queue_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(r.queue_wait).count();
        s.latency_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(r.latency).count();
      }
    }
    done.fetch_add(1, std::memory_order_release);
  }

  std::uint64_t ok_count() const { return done.load() - failed.load(); }

  const Inputs& in;
  const Oracle& oracle;
  std::int64_t t0 = 0;      ///< open loop: due time of request 0
  double period_ns = 0.0;   ///< open loop: due-time spacing
  std::vector<Slot> slots;  ///< open loop only
  std::vector<RequestSample> samples;
  std::atomic<std::uint64_t> done{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> wrong{0};
  std::atomic<std::uint64_t> flagged{0};
};

void submit(serve::Server& server, serve::Request request, PhaseState& state, std::uint64_t seq) {
  PhaseState* st = &state;
  server.submit(std::move(request),
                [st, seq](serve::Response response) { st->complete(seq, std::move(response)); });
}

/// Totals of one phase over all its slices, plus the server's counters.
struct PhaseCounts {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  std::uint64_t flagged = 0;
  std::uint64_t served_ok = 0;  ///< Server::stats().completed_ok
  std::uint64_t batches = 0;
  std::uint64_t size_flushes = 0;
  std::uint64_t deadline_flushes = 0;

  void add(const PhaseCounts& o) {
    sent += o.sent;
    ok += o.ok;
    failed += o.failed;
    shed += o.shed;
    flagged += o.flagged;
    served_ok += o.served_ok;
    batches += o.batches;
    size_flushes += o.size_flushes;
    deadline_flushes += o.deadline_flushes;
  }
  double mean_batch() const {
    return batches == 0 ? 0.0 : static_cast<double>(served_ok) / static_cast<double>(batches);
  }
  double size_flush_share() const {
    const auto flushes = size_flushes + deadline_flushes;
    return flushes == 0 ? 0.0 : static_cast<double>(size_flushes) / static_cast<double>(flushes);
  }
  void print(const char* phase) const {
    std::fprintf(stderr, "  %-8s sent %llu  ok %llu  failed %llu (shed %llu)  mean batch %.1f\n",
                 phase, static_cast<unsigned long long>(sent),
                 static_cast<unsigned long long>(ok), static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(shed), mean_batch());
  }
};

/// Shuts the server down (draining) and checks the exactly-once contract:
/// every request the slice sent completed exactly once, and every ok answer
/// is the oracle's.
PhaseCounts finish_slice(const char* phase, serve::Server& server, const PhaseState& state,
                         std::uint64_t sent) {
  server.shutdown(true);
  const serve::StatsSnapshot stats = server.stats();
  PhaseCounts c;
  c.sent = sent;
  c.ok = state.ok_count();
  c.failed = state.failed.load();
  c.shed = state.shed.load();
  c.flagged = state.flagged.load();
  c.served_ok = stats.completed_ok;
  c.batches = stats.batches_evaluated;
  c.size_flushes = stats.flushes_by_size;
  c.deadline_flushes = stats.flushes_by_deadline;
  if (stats.submitted != sent || stats.total_completed() != sent ||
      stats.double_completions != 0 || state.done.load() != sent || stats.completed_ok != c.ok) {
    fail(std::string(phase) + ": exactly-once accounting broken (sent " + std::to_string(sent) +
         ", submitted " + std::to_string(stats.submitted) + ", completed " +
         std::to_string(stats.total_completed()) + ", callbacks " +
         std::to_string(state.done.load()) + ", double " +
         std::to_string(stats.double_completions) + ")");
  }
  if (state.wrong.load() != 0) {
    fail(std::string(phase) + ": " + std::to_string(state.wrong.load()) +
         " served answers differ from a stand-alone session's");
  }
  return c;
}

/// Ok-completion rates over consecutive windows.  Completions arrive a
/// batch at a time, so a window cut at a fixed time would count whole
/// batches in or out (256 of the about 2500 a float window holds).  Each
/// window instead ends at the first completion seen after its nominal end,
/// so it spans whole batch intervals.
class RateWindows {
 public:
  /// `count` windows of nominally `window_s` each, from `start_ns` on.
  RateWindows(std::int64_t start_ns, double window_s, std::size_t count)
      : next_ns_(start_ns), window_ns_(static_cast<std::int64_t>(window_s * 1e9)), count_(count) {}

  /// Called by the thread driving the load, as often as it can.
  void poll(std::int64_t t, std::uint64_t ok) {
    if (done()) return;
    if (!pending_ && t >= next_ns_) {
      pending_ = true;
      ok_seen_ = ok;
      next_ns_ += window_ns_;
    }
    if (pending_ && ok != ok_seen_) {
      pending_ = false;
      ok_at_.push_back(ok);
      t_at_.push_back(t);
    }
  }
  bool done() const { return ok_at_.size() > count_; }

  void append_rates(std::vector<double>& rates) const {
    for (std::size_t k = 0; k + 1 < ok_at_.size(); ++k) {
      rates.push_back(static_cast<double>(ok_at_[k + 1] - ok_at_[k]) /
                      (static_cast<double>(t_at_[k + 1] - t_at_[k]) * 1e-9));
    }
  }

 private:
  std::int64_t next_ns_;
  std::int64_t window_ns_;
  std::size_t count_;
  bool pending_ = false;
  std::uint64_t ok_seen_ = 0;
  std::vector<std::uint64_t> ok_at_;
  std::vector<std::int64_t> t_at_;
};

/// An open-loop phase, accumulated over its slices in all cycles.
struct OpenLoop {
  OpenLoop(const char* phase_, double rate_) : phase(phase_), rate(rate_) {}

  const char* phase;
  double rate;
  PhaseCounts counts;
  std::vector<double> window_rate;  ///< ok completions per second (RateWindows)
  // Per-slice quantiles of the ok latencies, over slices with at least
  // kSliceMinSamples ok requests; the phase reports their medians.
  std::vector<double> slice_p50;
  std::vector<double> slice_p90;
  std::vector<double> slice_p99;
  std::vector<double> slice_late_p99;  ///< generator lateness, every slice
  std::uint64_t slices = 0;
  std::uint64_t min_slice_samples = 0;
  // Traced runs alternate slices with and without tracing.
  std::vector<double> traced_p50;
  std::vector<double> untraced_p50;
  std::vector<double> submit_us;    ///< time inside Server::submit (traced slices)
  std::vector<RequestSample> samples;

  double ok_qps() const { return interquartile_mean(window_rate); }
  double p50_ms() const { return median(slice_p50); }
  double p90_ms() const { return median(slice_p90); }
  double p99_ms() const { return median(slice_p99); }
  double max_slice_p99_ms() const {
    return slice_p99.empty() ? 0.0 : *std::max_element(slice_p99.begin(), slice_p99.end());
  }
  double late_p99_ms() const { return median(slice_late_p99); }

  void print() const {
    counts.print(phase);
    std::fprintf(stderr,
                 "  %-8s offered %.0f/s  ok %.0f/s  slice medians: p50 %.3f ms  p90 %.3f ms  p99 "
                 "%.3f ms (max %.3f)  generator late p99 %.3f ms; over %zu of %llu slices, "
                 "each with >= %llu ok samples\n",
                 phase, rate, ok_qps(), p50_ms(), p90_ms(), p99_ms(), max_slice_p99_ms(),
                 late_p99_ms(), slice_p99.size(), static_cast<unsigned long long>(slices),
                 static_cast<unsigned long long>(min_slice_samples));
  }
};

/// One open-loop slice: a single generator thread (this one) spin-paces each
/// request to its due time t0 + seq / rate and submits it; latency runs from
/// the due time, so a stalled generator or server is charged to every later
/// request.  When `tracer` is given, the slice times Server::submit and
/// samples requests for spans under one span of the slice.
void run_open_slice(OpenLoop& acc, const std::shared_ptr<const runtime::CompiledModel>& model,
                    const runtime::SessionOptions& session, const Workload& w, const Inputs& in,
                    const Oracle& oracle, double measure_s, Tracer* tracer) {
  const bool traced = tracer != nullptr;
  const double rate = acc.rate;
  const auto warm = static_cast<std::uint64_t>(std::llround(rate * kWarmupSeconds));
  const auto measured = static_cast<std::uint64_t>(std::llround(rate * measure_s));
  const std::uint64_t total = warm + measured;

  PhaseState state(in, oracle, total, traced ? total / kSampleEvery + 1 : 0);
  serve::Server server(model, server_options(session));
  const int span = traced ? tracer->begin(acc.phase) : -1;
  state.period_ns = 1e9 / rate;
  state.t0 = now_ns() + 1'000'000;
  // Rate windows cover 90% of the measured span, so that each ends at a
  // completion while the generator still runs, never in the drain after it.
  const auto rate_windows = std::max<std::size_t>(1, static_cast<std::size_t>(measure_s / kWindowSeconds));
  RateWindows rates(state.due(warm), 0.9 * measure_s / static_cast<double>(rate_windows), rate_windows);
  for (std::uint64_t seq = 0; seq < total; ++seq) {
    const std::int64_t due = state.due(seq);
    std::int64_t t = now_ns();
    rates.poll(t, state.ok_count());
    while (t < due) {
      cpu_relax();
      t = now_ns();
      rates.poll(t, state.ok_count());
    }
    state.slots[seq].late_us = static_cast<float>(static_cast<double>(t - due) * 1e-3);
    serve::Request request = make_request(w, in, seq);
    if (traced && seq >= warm) {
      const std::int64_t ts = now_ns();
      if (seq % kSampleEvery == 0) state.samples[seq / kSampleEvery] = {seq, ts, 0, 0, 0};
      submit(server, std::move(request), state, seq);
      acc.submit_us.push_back(static_cast<double>(now_ns() - ts) * 1e-3);
    } else {
      submit(server, std::move(request), state, seq);
    }
  }
  acc.counts.add(finish_slice(acc.phase, server, state, total));
  rates.append_rates(acc.window_rate);
  if (traced) {
    tracer->end(span);
    for (const RequestSample& s : state.samples) {
      if (s.submit_ns == 0) continue;
      const int id = tracer->add("serve.request", s.submit_ns, s.done_ns, span,
                                 static_cast<std::int64_t>(s.seq));
      tracer->add("serve.queue", s.submit_ns, s.submit_ns + s.queue_ns, id);
      tracer->add("serve.service", s.submit_ns + s.queue_ns, s.submit_ns + s.latency_ns, id);
      acc.samples.push_back(s);
    }
  }

  std::vector<double> slice_ms;
  std::vector<double> late_us;
  for (std::uint64_t seq = warm; seq < total; ++seq) {
    const Slot& s = state.slots[seq];
    late_us.push_back(s.late_us);
    if (s.ok) slice_ms.push_back(s.latency_us * 1e-3);
  }
  acc.slice_late_p99.push_back(quantile(late_us, 0.99) * 1e-3);
  if (slice_ms.size() >= kSliceMinSamples) {
    acc.min_slice_samples = acc.slice_p50.empty()
                                ? slice_ms.size()
                                : std::min<std::uint64_t>(acc.min_slice_samples, slice_ms.size());
    acc.slice_p50.push_back(median(slice_ms));
    acc.slice_p90.push_back(quantile(slice_ms, 0.90));
    acc.slice_p99.push_back(quantile(slice_ms, 0.99));
    (traced ? acc.traced_p50 : acc.untraced_p50).push_back(acc.slice_p50.back());
  }
  ++acc.slices;
}

/// The closed phase, accumulated over its slices in all cycles.
struct ClosedLoop {
  PhaseCounts counts;
  std::vector<double> window_rate;  ///< ok completions per second of each window

  double qps() const { return interquartile_mean(window_rate); }
  void print() const {
    counts.print("closed");
    const auto [lo, hi] = std::minmax_element(window_rate.begin(), window_rate.end());
    std::fprintf(stderr,
                 "  closed   window %llu  ok %.0f/s (windows %.0f..%.0f/s)  size-flush share %.3f\n",
                 static_cast<unsigned long long>(kClosedWindow), qps(), *lo, *hi,
                 counts.size_flush_share());
  }
};

/// One closed slice: one client (this thread) keeps kClosedWindow requests
/// outstanding and counts ok completions per window after the warm-up.
void run_closed_slice(ClosedLoop& acc, const std::shared_ptr<const runtime::CompiledModel>& model,
                      const runtime::SessionOptions& session, const Workload& w,
                      const Inputs& in, const Oracle& oracle, double measure_s) {
  PhaseState state(in, oracle, 0, 0);
  serve::Server server(model, server_options(session));
  RateWindows rates(now_ns() + static_cast<std::int64_t>(kWarmupSeconds * 1e9), kWindowSeconds,
                    std::max<std::size_t>(
                        1, static_cast<std::size_t>(std::llround(measure_s / kWindowSeconds))));
  std::uint64_t seq = 0;
  while (!rates.done()) {
    rates.poll(now_ns(), state.ok_count());
    if (seq - state.done.load(std::memory_order_acquire) >= kClosedWindow) {
      cpu_relax();
      continue;
    }
    submit(server, make_request(w, in, seq), state, seq);
    ++seq;
  }
  acc.counts.add(finish_slice("closed", server, state, seq));
  rates.append_rates(acc.window_rate);
}

/// Per-query cost of the raw batched session in the served format at
/// batch_max, the engine alone without the serving stack: one sample per
/// batch, timed for at least `seconds`, appended to `per_query_us`.
void time_session(std::vector<double>& per_query_us,
                  const std::shared_ptr<const runtime::CompiledModel>& model,
                  const runtime::SessionOptions& session_options, const Workload& w,
                  const Inputs& in, double seconds) {
  runtime::SessionOptions options = session_options;
  options.batch.num_threads = 1;
  runtime::InferenceSession session(model, options);
  // Batches cycle through the request order, so the session sees the same
  // evidence the server does.
  std::vector<std::vector<problp::ac::PartialAssignment>> batches(in.order.size() / kBatchMax);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    for (std::uint64_t i = 0; i < kBatchMax; ++i) batches[b].push_back(in.evidence(b * kBatchMax + i));
  }
  const auto call = [&](const std::vector<problp::ac::PartialAssignment>& batch) {
    if (w.served.query == QueryType::kConditional) {
      session.conditional(in.query_var, batch);
    } else if (w.served.query == QueryType::kMpe) {
      session.mpe(batch);
    } else {
      session.marginal(batch);
    }
  };
  call(batches[0]);  // builds the lazy engines
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t k = 0; k < 2 || now_ns() < end; ++k) {
    const std::int64_t t = now_ns();
    call(batches[k % batches.size()]);
    per_query_us.push_back(static_cast<double>(now_ns() - t) * 1e-3 / static_cast<double>(kBatchMax));
  }
}

// ---- setup and design ------------------------------------------------------------

struct SetupResult {
  double seconds = 0.0;
  int span = -1;
  std::shared_ptr<const runtime::CompiledModel> model;
  std::optional<problp::AnalysisReport> report;
  runtime::SessionOptions session;
  std::optional<serve::Response> first;
};

/// One fresh set-up: new network, model, artifact, registry and Server,
/// up to the first answer.  The Server is shut down (untimed) before return.
SetupResult run_setup(const Workload& w, const Inputs& in, const std::string& artifact,
                      Tracer& tracer) {
  SetupResult out;
  // Declared outside the timed scope so their destruction is not timed.
  std::optional<problp::bn::BayesianNetwork> network;
  std::optional<problp::ac::Circuit> circuit;
  std::shared_ptr<const runtime::CompiledModel> compiled;
  std::optional<runtime::ModelRegistry> registry;
  std::optional<serve::Server> server;
  const std::int64_t t0 = now_ns();
  {
    Scope phase(tracer, "setup");
    out.span = phase.id();
    {
      Scope s(tracer, "bn.network");
      network.emplace(build_network(w.topology));
    }
    {
      Scope s(tracer, "compile.ve");
      circuit.emplace(problp::compile::compile_network(*network));
    }
    {
      Scope s(tracer, "runtime.compile");
      compiled = runtime::CompiledModel::compile(*circuit);
    }
    {
      Scope s(tracer, "runtime.save");
      compiled->save(artifact);
    }
    {
      Scope s(tracer, "runtime.load");
      registry.emplace();
      out.model = registry->get(artifact);
    }
    {
      Scope s(tracer, "errormodel.analyze");
      out.report = out.model->analyze(w.served);
    }
    {
      Scope s(tracer, "serve.start");
      out.session = runtime::InferenceSession(out.model, *out.report).options();
      server.emplace(out.model, server_options(out.session));
      out.first = server->submit(make_request(w, in, 0)).get();
    }
  }
  out.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  server->shutdown(true);
  const serve::StatsSnapshot s = server->stats();
  if (s.submitted != 1 || s.total_completed() != 1 || s.double_completions != 0) {
    fail("setup: exactly-once accounting broken on the first request");
  }
  return out;
}

struct DesignResult {
  double seconds = 0.0;
  int span = -1;
  std::string verilog;
};

/// One design phase for one spec on a freshly loaded model whose artifact
/// carries no cached analysis, so the spec pays its full bit-width search.
/// When the tracer records, generate_hardware's three steps run as
/// separately timed public calls; otherwise generate_hardware itself runs.
DesignResult run_design(const Workload& w, const problp::errormodel::QuerySpec& spec,
                        const std::string& artifact, Tracer& tracer) {
  runtime::ModelRegistry registry;
  const auto model = registry.get(artifact);
  const problp::FrameworkOptions& fo = model->options();
  DesignResult out;
  const std::int64_t t0 = now_ns();
  {
    Scope phase(tracer, "design");
    out.span = phase.id();
    std::optional<problp::AnalysisReport> report;
    {
      Scope s(tracer, "errormodel.analyze");
      report = model->analyze(spec);
    }
    if (!report->any_feasible) fail(std::string("design: no feasible format for a spec of ") + w.name);
    if (!tracer.active()) {
      out.verilog = model->generate_hardware(*report).verilog;
    } else {
      const bool fixed = report->selected.kind == problp::Representation::Kind::kFixed;
      std::optional<problp::hw::Netlist> netlist;
      {
        Scope s(tracer, "hw.netlist");
        netlist.emplace(problp::hw::generate_netlist(model->circuit_for(spec.query)));
        // generate_hardware also computes the stats; keep the work equal.
        const problp::hw::NetlistStats stats = netlist->stats();
        (void)stats;
      }
      {
        Scope s(tracer, "hw.verilog");
        problp::hw::VerilogOptions vopts;
        if (fixed) {
          vopts.rounding = fo.search.fixed_options.rounding;
          out.verilog = problp::hw::emit_fixed_verilog(*netlist, report->selected.fixed, vopts);
        } else {
          vopts.rounding = fo.search.float_rounding;
          out.verilog = problp::hw::emit_float_verilog(*netlist, report->selected.flt, vopts);
        }
      }
      {
        Scope s(tracer, "hw.energy");
        const double fj =
            fixed ? problp::hw::fixed_netlist_energy(*netlist, report->selected.fixed, fo.netlist_energy).total_fj()
                  : problp::hw::float_netlist_energy(*netlist, report->selected.flt, fo.netlist_energy).total_fj();
        if (!(fj > 0.0)) fail("design: netlist energy is not positive");
      }
    }
  }
  out.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  return out;
}

// ---- trace-derived layer metrics -------------------------------------------------

/// Per phase span, the summed duration of its children by name; then the
/// median across the phase spans.
std::map<std::string, double> median_child_seconds(const Tracer& tracer,
                                                   const std::vector<int>& phases) {
  std::map<std::string, std::vector<double>> per_phase;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    for (const Span& s : tracer.spans()) {
      if (s.parent != phases[p]) continue;
      auto& v = per_phase[s.name];
      v.resize(phases.size(), 0.0);
      v[p] += s.seconds();
    }
  }
  std::map<std::string, double> out;
  for (const auto& [name, v] : per_phase) out[name] = median(v);
  return out;
}

double median_coverage(const Tracer& tracer, const std::vector<int>& phases) {
  std::vector<double> shares;
  for (const int id : phases) {
    shares.push_back(tracer.child_seconds(id) / tracer.spans()[static_cast<std::size_t>(id)].seconds());
  }
  return median(shares);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const std::vector<Metric>& metrics, std::uint64_t attempted,
                  std::uint64_t failed) {
  std::string line = "{\"correct\": true, \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (!std::isfinite(metrics[i].value)) fail("metric " + metrics[i].name + " is not finite");
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// Sum over specs of each spec's per-layer medians.
std::map<std::string, double> summed_child_seconds(const Tracer& tracer,
                                                   const std::vector<std::vector<int>>& per_spec) {
  std::map<std::string, double> out;
  for (const std::vector<int>& spans : per_spec) {
    for (const auto& [name, seconds] : median_child_seconds(tracer, spans)) out[name] += seconds;
  }
  return out;
}

double sum_of_medians(const std::vector<std::vector<double>>& per_spec) {
  double total = 0.0;
  for (const std::vector<double>& v : per_spec) total += median(v);
  return total;
}

int run(const Args& args) {
  const Workload& w = find_workload(args.workload);
  const std::string stamp = host_stamp(args);
  std::fprintf(stderr, "perfbench %s\n", stamp.c_str());
  Tracer tracer(args.trace);

  const fs::path workdir = fs::path(args.workdir) / (std::string(w.name) + "-" + std::to_string(args.seed) + "-" + std::to_string(::getpid()));
  fs::create_directories(workdir);
  struct Cleanup {
    fs::path dir;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{workdir};

  const Inputs in = make_inputs(w, build_network(w.topology), args.seed);
  const CpuTicks ticks_begin = cpu_ticks();

  const std::size_t specs = w.design.size();
  const double slice_s = args.seconds / w.cycles;
  const double session_s = kSessionSeconds / w.cycles;
  int setups = 0;
  int designs = 0;
  std::vector<double> setup_plain, setup_traced;
  std::vector<int> setup_spans;
  std::vector<std::vector<double>> design_plain(specs), design_traced(specs);
  std::vector<std::vector<int>> design_spans(specs);
  std::vector<std::string> plain_verilog(specs), traced_verilog(specs);
  std::vector<double> verilog_mb(specs, 0.0);
  std::vector<double> session_us;
  // The set-up that serves every slice, its artifact (which the design
  // phases load) and the answers it must give.
  std::optional<SetupResult> kept;
  std::string artifact;
  std::optional<Oracle> oracle;
  OpenLoop nominal("nominal", w.nominal_rate);
  OpenLoop overload("overload", w.overload_rate);
  ClosedLoop closed;

  // Traced runs trace every other set-up, design phase and nominal slice,
  // so the tracing overhead is measured in-run.
  for (int cycle = 0; cycle < w.cycles; ++cycle) {
    // ---- 1. setup: fresh set-ups; setup_s is the median of all of them.
    for (int k = 0; k < w.setups_per_cycle; ++k, ++setups) {
      tracer.set_active(setups % 2 == 1);
      const std::string path = (workdir / ("model-" + std::to_string(setups) + ".pbm")).string();
      SetupResult s = run_setup(w, in, path, tracer);
      (tracer.active() ? setup_traced : setup_plain).push_back(s.seconds);
      if (s.span >= 0) setup_spans.push_back(s.span);
      const serve::Response first = *s.first;
      if (!kept) {
        kept = std::move(s);
        artifact = path;
        // The oracle and the a-priori tolerance gate.
        oracle.emplace(make_oracle(kept->model, *kept->report, w, in));
        check_tolerance(kept->model, w, in, *oracle);
      } else {
        fs::remove(path);
      }
      if (!first.ok() || !oracle->matches(in.index(0), first)) fail("setup: wrong first answer");
    }

    // ---- 2. design: one spec per design phase, round-robin over the specs.
    if (cycle % w.design_every == 0) {
      tracer.set_active(designs % 2 == 1);
      const std::size_t spec = static_cast<std::size_t>(designs) % specs;
      DesignResult d = run_design(w, w.design[spec], artifact, tracer);
      (tracer.active() ? design_traced : design_plain)[spec].push_back(d.seconds);
      if (d.span >= 0) design_spans[spec].push_back(d.span);
      verilog_mb[spec] = static_cast<double>(d.verilog.size()) / 1e6;
      if (args.trace) {
        std::string& keep = tracer.active() ? traced_verilog[spec] : plain_verilog[spec];
        if (keep.empty()) keep = std::move(d.verilog);
      }
      ++designs;
    }

    // ---- 3-5. serving: one slice of each phase.
    tracer.set_active(cycle % 2 == 1);
    run_open_slice(nominal, kept->model, kept->session, w, in, *oracle, kNominalShare * slice_s,
                   tracer.active() ? &tracer : nullptr);
    tracer.set_active(false);
    // Traced runs time the raw session right before each closed slice, so
    // serve.overhead_share compares the two under the same host conditions
    // as far as possible.
    if (args.trace) time_session(session_us, kept->model, kept->session, w, in, session_s);
    run_closed_slice(closed, kept->model, kept->session, w, in, *oracle, kClosedShare * slice_s);
    run_open_slice(overload, kept->model, kept->session, w, in, *oracle,
                   kOverloadShare * slice_s, nullptr);
  }

  for (std::size_t spec = 0; spec < specs; ++spec) {
    if (design_plain[spec].empty() || (args.trace && design_traced[spec].empty())) {
      fail(std::string("design: a spec of ") + w.name + " was never designed; raise its cycles");
    }
    if (args.trace && traced_verilog[spec] != plain_verilog[spec]) {
      fail("design: the traced Verilog differs from generate_hardware's");
    }
  }
  plain_verilog.clear();
  traced_verilog.clear();
  const double artifact_mb = static_cast<double>(fs::file_size(artifact)) / 1e6;
  const double setup_s = median(setup_plain);
  const double design_s = sum_of_medians(design_plain);
  double verilog_total_mb = 0.0;
  for (const double mb : verilog_mb) verilog_total_mb += mb;
  std::fprintf(stderr,
               "  setup    %d fresh set-ups in %d cycles (first answers sent %d ok %d failed 0), "
               "median %.4f s, artifact %.2f MB, serving %s\n",
               setups, w.cycles, setups, setups, setup_s, artifact_mb,
               kept->report->selected.to_string().c_str());
  std::fprintf(stderr,
               "  design   %d phases over %zu spec(s) (sent %d ok %d failed 0), sum of per-spec "
               "medians %.4f s, %.2f MB Verilog\n",
               designs, specs, designs, designs, design_s, verilog_total_mb);
  nominal.print();
  closed.print();
  overload.print();

  // Overload shedding is the designed response to excess load and is
  // reported as `shed`; every other failed request counts as failed.
  const std::uint64_t attempted = static_cast<std::uint64_t>(setups + designs) +
                                  nominal.counts.sent + closed.counts.sent + overload.counts.sent;
  const std::uint64_t failed = nominal.counts.failed + closed.counts.failed +
                               (overload.counts.failed - overload.counts.shed);
  // A run on a host that gave much of its CPU to other guests shows as such.
  const CpuTicks ticks_end = cpu_ticks();
  const double steal_share =
      ticks_end.total > ticks_begin.total
          ? static_cast<double>(ticks_end.steal - ticks_begin.steal) /
                static_cast<double>(ticks_end.total - ticks_begin.total)
          : 0.0;
  std::fprintf(stderr, "  host     steal share %.4f of all CPU time during the run\n", steal_share);

  if (!args.trace) {
    print_result({{"setup_s", setup_s, "s"},
                  {"design_s", design_s, "s"},
                  {"qps", closed.qps(), "1/s"},
                  {"rss_mb", peak_rss_mb(), "MB"}},
                 attempted, failed);
    return 0;
  }

  // ---- traced run: per-layer metrics
  const double session = median(session_us);
  const auto setup_layers = median_child_seconds(tracer, setup_spans);
  const auto design_layers = summed_child_seconds(tracer, design_spans);
  const auto layer = [](const std::map<std::string, double>& m, const char* name) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  };
  std::vector<int> all_design_spans;
  for (const std::vector<int>& spans : design_spans) {
    all_design_spans.insert(all_design_spans.end(), spans.begin(), spans.end());
  }
  std::vector<double> queue_ms, service_ms;
  for (const RequestSample& s : nominal.samples) {
    queue_ms.push_back(static_cast<double>(s.queue_ns) * 1e-6);
    service_ms.push_back(static_cast<double>(s.latency_ns - s.queue_ns) * 1e-6);
  }
  const std::uint64_t ok_total = nominal.counts.ok + closed.counts.ok + overload.counts.ok;
  const std::uint64_t flagged_total =
      nominal.counts.flagged + closed.counts.flagged + overload.counts.flagged;
  const double overhead_share = 1.0 - session * closed.qps() / 1e6;
  const double design_traced_s = sum_of_medians(design_traced);
  const double verilog_share = layer(design_layers, "hw.verilog") / design_traced_s;
  const double setup_coverage = median_coverage(tracer, setup_spans);
  const double design_coverage = median_coverage(tracer, all_design_spans);

  const std::vector<Metric> metrics = {
      {"bn.network_s", layer(setup_layers, "bn.network"), "s"},
      {"compile.ve_s", layer(setup_layers, "compile.ve"), "s"},
      {"runtime.compile_s", layer(setup_layers, "runtime.compile"), "s"},
      {"runtime.save_s", layer(setup_layers, "runtime.save"), "s"},
      {"runtime.load_s", layer(setup_layers, "runtime.load"), "s"},
      {"runtime.artifact_mb", artifact_mb, "MB"},
      {"errormodel.setup_analyze_s", layer(setup_layers, "errormodel.analyze"), "s"},
      {"serve.start_s", layer(setup_layers, "serve.start"), "s"},
      {"errormodel.analyze_s", layer(design_layers, "errormodel.analyze"), "s"},
      {"hw.netlist_s", layer(design_layers, "hw.netlist"), "s"},
      {"hw.verilog_s", layer(design_layers, "hw.verilog"), "s"},
      {"hw.energy_s", layer(design_layers, "hw.energy"), "s"},
      {"hw.verilog_mb", verilog_total_mb, "MB"},
      {"hw.verilog_design_share", verilog_share, "ratio"},
      {"runtime.session_us", session, "us"},
      {"serve.submit_us.p50", quantile(nominal.submit_us, 0.5), "us"},
      {"serve.submit_us.p99", quantile(nominal.submit_us, 0.99), "us"},
      {"serve.queue_ms", median(queue_ms), "ms"},
      {"serve.service_ms", median(service_ms), "ms"},
      {"serve.overhead_share", overhead_share, "ratio"},
      {"serve.mean_batch", closed.counts.mean_batch(), "count"},
      {"serve.nominal_mean_batch", nominal.counts.mean_batch(), "count"},
      {"serve.size_flush_share", closed.counts.size_flush_share(), "ratio"},
      {"serve.overload_ok_qps", overload.ok_qps(), "1/s"},
      {"serve.shed_share",
       static_cast<double>(overload.counts.shed) / static_cast<double>(overload.counts.sent),
       "ratio"},
      {"serve.p50_ms", nominal.p50_ms(), "ms"},
      {"serve.p90_ms", nominal.p90_ms(), "ms"},
      {"serve.p99_ms", nominal.p99_ms(), "ms"},
      {"serve.max_slice_p99_ms", nominal.max_slice_p99_ms(), "ms"},
      {"serve.overload_p99_ms", overload.p99_ms(), "ms"},
      {"gen.late_ms", nominal.late_p99_ms(), "ms"},
      {"gen.overload_late_ms", overload.late_p99_ms(), "ms"},
      {"lowprec.flagged_share",
       ok_total == 0 ? 0.0 : static_cast<double>(flagged_total) / static_cast<double>(ok_total),
       "ratio"},
      {"host.steal_share", steal_share, "ratio"},
      {"trace.setup_coverage", setup_coverage, "ratio"},
      {"trace.design_coverage", design_coverage, "ratio"},
      {"trace.setup_overhead_share", median(setup_traced) / setup_s - 1.0, "ratio"},
      {"trace.design_overhead_share", design_traced_s / design_s - 1.0, "ratio"},
      // 0 when too short a run leaves no nominal slice with enough samples.
      {"trace.nominal_p50_overhead_share",
       nominal.traced_p50.empty() || nominal.untraced_p50.empty()
           ? 0.0
           : median(nominal.traced_p50) / median(nominal.untraced_p50) - 1.0,
       "ratio"},
  };

  // Measured layer shares next to the predictions README.md records.
  std::fprintf(stderr,
               "  layer shares (measured | predicted):\n"
               "    serve overhead share of closed-loop qps  %.3f | ~0.55 on alarm-marginal, "
               "<0.03 on alarm-posterior\n"
               "    Verilog share of design_s                %.3f | ~0.95 on ve28, small on ALARM\n"
               "    setup / design span coverage             %.3f / %.3f | >= 0.90\n",
               overhead_share, verilog_share, setup_coverage, design_coverage);
  const fs::path trace_file =
      fs::path(args.workdir) / ("trace-" + std::string(w.name) + "-" + std::to_string(args.seed) + ".jsonl");
  tracer.write(trace_file.string(), stamp);
  std::fprintf(stderr, "  trace    %zu spans -> %s\n", tracer.spans().size(), trace_file.c_str());
  print_result(metrics, attempted, failed);
  return 0;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--rev") {
      args.rev = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return args;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
