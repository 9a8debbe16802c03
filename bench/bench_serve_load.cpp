// Load bench for the async serving front-end (src/serve/): how much of the
// raw batched engine's throughput survives the queue/worker-shard stack,
// and what the tail looks like under saturation and overload.
//
// Three phases on the ALARM model (the acceptance circuit):
//
//   1. raw        — the reference: one InferenceSession driving the batched
//                   marginal sweep directly at the server's batch size.
//   2. closed loop — 1..N client threads sharing a window of
//                   (workers + 1) x batch_max outstanding requests (so
//                   every shard can hold a full batch while the clients
//                   refill the next one), swept across 1 and 2 worker
//                   shards with clients + workers <= nproc.  Per-row:
//                   workers, clients, window, qps, client-observed p50/p99
//                   latency.  The
//                   headline ratio compares like with like: one serving
//                   worker against one raw engine thread,
//                   `throughput_ratio` = best workers=1 qps / raw qps
//                   (acceptance: >= 0.85 — the serving stack's per-request
//                   cost within 15% of the raw engine at saturation).  The
//                   2-worker rows are reported separately, as
//                   `two_worker_qps` and `two_worker_scaling` (best
//                   workers=2 qps / best workers=1 qps).
//   3. open loop  — requests arrive at 2x the measured saturation rate with
//                   per-request deadlines and shedding armed past 3/4 of
//                   the queue.  Nothing
//                   waits for completions: this is the overload-robustness
//                   probe.  The bench FAILS (non-zero exit, no JSON) unless
//                   every submitted request completed exactly once with a
//                   value, a typed timeout, or a typed rejection — the same
//                   accounting identity the serve tests pin down — so a row
//                   in BENCH_serve.json is itself evidence of overload
//                   safety, not just speed.
//
// Output: one JSON line on stdout (scripts/bench.sh appends it to
// BENCH_serve.json):
//
//   {"bench":"serve_load","circuit":"alarm","nodes":...,"batch_max":...,
//    "flush_deadline_us":...,"raw_batched_qps":...,
//    "closed":[{"workers":1,"clients":1,"window":...,"qps":...,"p50_us":...,
//     "p99_us":...},...],
//    "throughput_ratio":...,"two_worker_qps":...,"two_worker_scaling":...,
//    "open_loop":{"workers":2,"offered_qps":...,"duration_s":...,
//     "submitted":...,"ok":...,"timed_out":...,"rejected":...,
//     "p50_us":...,"p99_us":...},"exactly_once":true}
//
// Flags: --min-seconds=S (measurement window per phase, default 0.3),
//        --clients=N (max closed-loop clients, default 8; the sweep also
//        stops where clients + workers would exceed nproc).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "datasets/benchmark_suite.hpp"
#include "serve/server.hpp"

namespace problp::bench {
namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

double quantile_us(std::vector<double>& latencies_us, double q) {
  if (latencies_us.empty()) return 0.0;
  std::sort(latencies_us.begin(), latencies_us.end());
  const std::size_t idx = std::min(
      latencies_us.size() - 1, static_cast<std::size_t>(q * static_cast<double>(latencies_us.size())));
  return latencies_us[idx];
}

struct ClosedLoopRow {
  int clients = 0;
  int workers = 1;
  int window = 0;  ///< outstanding requests per client
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

serve::ServerOptions serving_options() {
  serve::ServerOptions options;
  options.capacity = 1024;
  options.batch_max = 256;
  options.flush_deadline = std::chrono::microseconds(1000);
  options.workers = 1;  // one shard: the ratio compares against ONE raw engine
  return options;
}

/// Windowed closed loop: each client keeps up to `window` requests in
/// flight (an atomic outstanding counter; the callback completion API —
/// the serving stack's cheap path — decrements it from the worker thread).
/// A strict one-outstanding-request client can never exceed
/// clients / flush_deadline qps (each round waits out the coalescing
/// linger), so the window is what lets the workers fill real batches.
/// Latency is sampled every 16th request: client-observed percentiles
/// survive sampling, and a clock read per request would be measurement
/// cost charged to the system under test.
ClosedLoopRow closed_loop(serve::Server& server, const std::vector<ac::PartialAssignment>& pool,
                          int clients, int window, double min_seconds) {
  struct Client {
    std::atomic<std::uint64_t> outstanding{0};
    std::atomic<std::uint64_t> completed{0};
    std::mutex mutex;
    std::vector<double> latencies_us;
  };
  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<Client>> state;
  for (int c = 0; c < clients; ++c) state.push_back(std::make_unique<Client>());
  std::vector<std::thread> threads;
  const auto start = SteadyClock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Client& client = *state[static_cast<std::size_t>(c)];
      std::size_t i = static_cast<std::size_t>(c);
      std::uint64_t submitted = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        while (client.outstanding.load(std::memory_order_acquire) >=
               static_cast<std::uint64_t>(window)) {
          std::this_thread::yield();
          if (stop.load(std::memory_order_relaxed)) break;
        }
        serve::Request request;
        request.query = errormodel::QueryType::kMarginal;
        request.evidence = pool[i++ % pool.size()];
        const bool sampled = (submitted++ % 16) == 0;
        const auto sent = sampled ? SteadyClock::now() : SteadyClock::time_point{};
        client.outstanding.fetch_add(1, std::memory_order_relaxed);
        server.submit(std::move(request), [&client, sent](serve::Response response) {
          if (response.status == serve::Status::kOk) {  // unloaded: kOk only
            client.completed.fetch_add(1, std::memory_order_relaxed);
            if (sent != SteadyClock::time_point{}) {
              const double us =
                  std::chrono::duration<double, std::micro>(SteadyClock::now() - sent).count();
              std::lock_guard<std::mutex> lock(client.mutex);
              client.latencies_us.push_back(us);
            }
          }
          client.outstanding.fetch_sub(1, std::memory_order_release);
        });
      }
      // Drain: every callback fires before shutdown() returns, but this
      // client must not exit while its submissions are still in flight.
      while (client.outstanding.load(std::memory_order_acquire) > 0) std::this_thread::yield();
    });
  }
  while (seconds_since(start) < min_seconds) std::this_thread::yield();
  stop.store(true);
  for (auto& t : threads) t.join();
  const double elapsed = seconds_since(start);
  std::uint64_t completed = 0;
  std::vector<double> latencies_us;
  for (auto& client : state) {
    completed += client->completed.load();
    latencies_us.insert(latencies_us.end(), client->latencies_us.begin(),
                        client->latencies_us.end());
  }
  ClosedLoopRow row;
  row.clients = clients;
  row.window = window;
  row.qps = static_cast<double>(completed) / elapsed;
  row.p50_us = quantile_us(latencies_us, 0.50);
  row.p99_us = quantile_us(latencies_us, 0.99);
  return row;
}

}  // namespace
}  // namespace problp::bench

int main(int argc, char** argv) {
  using namespace problp;
  using namespace problp::bench;

  double min_seconds = 0.3;
  int max_clients = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--min-seconds=", 14) == 0) min_seconds = std::atof(argv[i] + 14);
    if (std::strncmp(argv[i], "--clients=", 10) == 0) max_clients = std::atoi(argv[i] + 10);
  }

  const datasets::Benchmark alarm = datasets::make_alarm_benchmark(/*seed=*/1,
                                                                   /*num_test_samples=*/512);
  const auto model = runtime::CompiledModel::compile(alarm.circuit);
  const std::vector<ac::PartialAssignment> pool = to_assignments(alarm.test_evidence);

  // ---- phase 1: the raw batched engine reference ---------------------------
  const serve::ServerOptions options = serving_options();
  // Median of five rounds: the bench shares its machine, and a single raw
  // window that lands on a noisy slice would skew the headline ratio in
  // either direction.
  double raw_qps = 0.0;
  {
    runtime::InferenceSession session(model);
    std::vector<ac::PartialAssignment> batch(pool.begin(),
                                             pool.begin() + std::min<std::size_t>(
                                                                pool.size(), options.batch_max));
    std::vector<double> rounds;
    for (int round = 0; round < 5; ++round) {
      std::uint64_t evaluated = 0;
      const auto start = SteadyClock::now();
      do {
        session.marginal(batch);
        evaluated += batch.size();
      } while (seconds_since(start) < min_seconds / 2.0);
      rounds.push_back(static_cast<double>(evaluated) / seconds_since(start));
    }
    std::sort(rounds.begin(), rounds.end());
    raw_qps = rounds[rounds.size() / 2];
  }
  std::fprintf(stderr, "raw batched engine: %.0f qps (median of 5)\n", raw_qps);

  // ---- phase 2: closed loop at 1..N clients, 1..2 worker shards ------------
  // workers=1 is the pure-overhead row (everything the stack adds rides the
  // single evaluation thread); workers=2 is the deployment shape, where the
  // second shard hides the per-request completion cost behind evaluation.
  const int nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<ClosedLoopRow> closed;
  double best_qps[2] = {0.0, 0.0};  // per worker count
  for (int workers = 1; workers <= 2; ++workers) {
    serve::ServerOptions worker_options = options;
    worker_options.workers = workers;
    serve::Server server(model, worker_options);
    // Client threads and workers share the cores: more clients than the
    // workers leave free would measure oversubscription, not the server.
    const int clients_max = std::max(1, std::min(max_clients, nproc - workers));
    for (int clients = 1; clients <= clients_max; clients *= 2) {
      // Total outstanding is (workers + 1) batches regardless of the client
      // count: by Little's law every shard can then hold a full batch while
      // the clients refill the next one, and the clients axis varies
      // producer contention, not offered load.
      const int window =
          std::max(1, (workers + 1) * static_cast<int>(options.batch_max) / clients);
      ClosedLoopRow row = closed_loop(server, pool, clients, window, min_seconds);
      row.workers = workers;
      std::fprintf(stderr, "closed loop, %d worker(s), %2d clients (window %3d): %.0f qps  "
                           "p50 %.0f us  p99 %.0f us\n",
                   workers, row.clients, window, row.qps, row.p50_us, row.p99_us);
      best_qps[workers - 1] = std::max(best_qps[workers - 1], row.qps);
      closed.push_back(row);
    }
    server.shutdown(true);
    const serve::StatsSnapshot s = server.stats();
    if (s.submitted != s.total_completed() || s.double_completions != 0) {
      std::fprintf(stderr, "FAIL: closed-loop accounting broken (submitted %llu, completed %llu, "
                           "double %llu)\n",
                   static_cast<unsigned long long>(s.submitted),
                   static_cast<unsigned long long>(s.total_completed()),
                   static_cast<unsigned long long>(s.double_completions));
      return 1;
    }
  }
  const double ratio = best_qps[0] / raw_qps;
  const double two_worker_scaling = best_qps[1] / best_qps[0];
  std::fprintf(stderr, "saturation ratio, 1 worker vs 1 raw thread: %.2f; 2 workers: %.0f qps "
                       "(%.2fx 1 worker)\n",
               ratio, best_qps[1], two_worker_scaling);

  // ---- phase 3: open loop at 2x saturation with shedding armed -------------
  serve::ServerOptions overload_options = options;
  overload_options.workers = 2;  // the deployment shape phase 2 measured
  overload_options.overload.shed_depth = overload_options.capacity * 3 / 4;
  const double offered_qps = 2.0 * std::max(best_qps[0], best_qps[1]);
  std::uint64_t open_submitted = 0;
  serve::StatsSnapshot open_stats;
  std::vector<double> open_latencies_us;
  double open_elapsed = 0.0;
  {
    serve::Server server(model, overload_options);
    std::mutex latency_mutex;
    const auto interval =
        std::chrono::duration<double>(offered_qps > 0.0 ? 1.0 / offered_qps : 1e-4);
    const auto start = SteadyClock::now();
    auto next_send = start;
    std::size_t i = 0;
    while (seconds_since(start) < min_seconds) {
      const auto now = SteadyClock::now();
      if (now < next_send) continue;  // spin-pace: sleep granularity >> interval
      next_send += std::chrono::duration_cast<SteadyClock::duration>(interval);
      serve::Request request;
      request.query = errormodel::QueryType::kMarginal;
      request.evidence = pool[i++ % pool.size()];
      request.timeout = std::chrono::milliseconds(50);
      const auto sent = now;
      server.submit(std::move(request), [&, sent](serve::Response response) {
        if (response.status != serve::Status::kOk) return;
        std::lock_guard<std::mutex> lock(latency_mutex);
        open_latencies_us.push_back(
            std::chrono::duration<double, std::micro>(SteadyClock::now() - sent).count());
      });
      ++open_submitted;
    }
    open_elapsed = seconds_since(start);
    server.shutdown(true);
    open_stats = server.stats();
  }
  std::fprintf(stderr,
               "open loop @ %.0f qps offered: submitted %llu  ok %llu  timeout %llu  "
               "rejected %llu\n",
               offered_qps, static_cast<unsigned long long>(open_submitted),
               static_cast<unsigned long long>(open_stats.completed_ok),
               static_cast<unsigned long long>(open_stats.timed_out),
               static_cast<unsigned long long>(open_stats.rejected_overload +
                                               open_stats.rejected_queue_full));

  // Overload safety IS the acceptance gate: every open-loop request must
  // have completed exactly once with a value or a typed timeout/rejection.
  const bool exactly_once = open_stats.submitted == open_submitted &&
                            open_stats.submitted == open_stats.total_completed() &&
                            open_stats.double_completions == 0;
  if (!exactly_once) {
    std::fprintf(stderr, "FAIL: open-loop accounting broken (submitted %llu, stats %llu, "
                         "completed %llu, double %llu)\n",
                 static_cast<unsigned long long>(open_submitted),
                 static_cast<unsigned long long>(open_stats.submitted),
                 static_cast<unsigned long long>(open_stats.total_completed()),
                 static_cast<unsigned long long>(open_stats.double_completions));
    return 1;
  }

  // ---- the JSON row --------------------------------------------------------
  std::printf("{\"bench\":\"serve_load\",\"circuit\":\"alarm\",\"nodes\":%zu,"
              "\"batch_max\":%zu,\"flush_deadline_us\":%lld,"
              "\"raw_batched_qps\":%.0f,\"closed\":[",
              alarm.circuit.num_nodes(), options.batch_max,
              static_cast<long long>(std::chrono::duration_cast<std::chrono::microseconds>(
                                         options.flush_deadline)
                                         .count()),
              raw_qps);
  for (std::size_t r = 0; r < closed.size(); ++r) {
    std::printf("%s{\"workers\":%d,\"clients\":%d,\"window\":%d,\"qps\":%.0f,"
                "\"p50_us\":%.0f,\"p99_us\":%.0f}",
                r == 0 ? "" : ",", closed[r].workers, closed[r].clients, closed[r].window,
                closed[r].qps, closed[r].p50_us, closed[r].p99_us);
  }
  std::printf("],\"throughput_ratio\":%.3f,\"two_worker_qps\":%.0f,"
              "\"two_worker_scaling\":%.3f,\"open_loop\":{\"workers\":2,\"offered_qps\":%.0f,"
              "\"duration_s\":%.2f,\"submitted\":%llu,\"ok\":%llu,\"timed_out\":%llu,"
              "\"rejected\":%llu,\"p50_us\":%.0f,\"p99_us\":%.0f},"
              "\"exactly_once\":true}\n",
              ratio, best_qps[1], two_worker_scaling, offered_qps, open_elapsed,
              static_cast<unsigned long long>(open_submitted),
              static_cast<unsigned long long>(open_stats.completed_ok),
              static_cast<unsigned long long>(open_stats.timed_out),
              static_cast<unsigned long long>(open_stats.rejected_overload +
                                              open_stats.rejected_queue_full),
              quantile_us(open_latencies_us, 0.50), quantile_us(open_latencies_us, 0.99));
  return 0;
}
