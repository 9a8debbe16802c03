// Server — the overload-safe async serving front-end over the runtime.
//
// The SoA engines below the runtime seam want big batches; serving traffic
// arrives as single concurrent requests.  The Server adapts the two as a
// set of shards (docs/serving.md has the full design):
//
//   producers ──submit()──▶ route() ─────▶ shard 0: bounded queue ──▶ worker 0
//                (backpressure,             shard 1: bounded queue ──▶ worker 1
//                 overload shedding)        ...   (each worker cuts its own
//                                                  batches: no batcher thread)
//
// * submit() keeps routing to one shard while its worker is free and its
//   batch is not yet full, then moves to a free worker's shard, or else the
//   shallowest queue.  Each worker cuts up to batch_max requests, or sleeps
//   until the oldest has waited flush_deadline, the earliest request
//   deadline, or shutdown.  Expired requests complete as typed timeouts,
//   before and after the cut.
// * Admission reserves the summed depth against `capacity` (a reservation
//   succeeds only below the limit) and rejects (FullPolicy::kReject) or
//   blocks up to a timeout (kBlock) when full; past shed_depth requests
//   are shed (serve/options.hpp).  Requests ride slots from a pool
//   fixed at construction (capacity + workers * batch_max); workers hand
//   evidence back to the slots, so they free nothing per request.
// * Shutdown: drain=true evaluates everything queued; drain=false rejects
//   what is not yet cut.  Every request completes exactly once, under the
//   serve.enqueue / serve.flush / serve.worker faults too.
//
// Thread-safety: submit(), stats() and shutdown() are safe from any thread.
// Completions happen on server threads; a callback must not call submit()
// on a server that is being destroyed.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "serve/options.hpp"
#include "serve/stats.hpp"
#include "serve/types.hpp"

namespace problp::serve {

class Server {
 public:
  /// Validates `options`, allocates the request-slot pool and starts one
  /// worker thread per shard.  Worker sessions are constructed inside their
  /// threads (engines are lazy, so startup is cheap until the first batch).
  Server(std::shared_ptr<const runtime::CompiledModel> model, ServerOptions options = {});

  /// shutdown(true) if the caller has not already shut down.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Submits one request; the returned future becomes ready exactly once
  /// with the terminal Response.  Malformed requests (evidence size
  /// mismatch, bad query_var) throw InvalidArgument immediately — they
  /// never enter the queue.
  std::future<Response> submit(Request request);

  /// Callback flavour: `done` is invoked exactly once, on a server thread
  /// (or inline on the submitting thread for immediate rejections), and
  /// destroyed right after it returns, on the same thread.  stats() counts
  /// the outcome before `done` runs.
  void submit(Request request, std::function<void(Response)> done);

  /// Stops admission and joins every thread.  drain=true evaluates the
  /// backlog (per-request deadlines still honoured); drain=false completes
  /// queued-but-uncut requests with kRejectedShutdown.  Idempotent;
  /// concurrent callers block until the first call finishes.
  void shutdown(bool drain = true);

  StatsSnapshot stats() const;

  const ServerOptions& options() const { return options_; }
  const std::shared_ptr<const runtime::CompiledModel>& model() const { return model_; }

 private:
  /// One request slot: the Request, its completion channel and admission
  /// stamps.  Owned by one party at a time (free list -> submitter -> shard
  /// queue -> worker -> free list), completed exactly once per use.  The
  /// callback flavour never constructs the promise (its shared state is an
  /// allocation and set_value a mutex).
  struct Pending {
    Request request;
    std::optional<std::promise<Response>> promise;
    std::function<void(Response)> callback;
    util::Clock::TimePoint enqueued{};
    util::Clock::TimePoint deadline = util::Clock::TimePoint::max();
    util::Clock::TimePoint flushed{};  ///< set when a worker cuts it into a batch
    std::atomic<bool> completed{false};  ///< exactly-once latch, reset on reuse
  };

  struct Shard;   ///< one bounded queue plus its worker (server.cpp)
  struct Worker;  ///< a worker's session and batch scratch (server.cpp)

  std::future<Response> submit_internal(Request request, std::function<void(Response)> done);
  /// Reserves one place in the summed depth if it is below `limit`.
  /// Returns the depth seen: below `limit` on success, else at least it.
  std::size_t try_reserve(std::size_t limit);
  /// The shard a new request joins (see the header comment).
  std::size_t route();
  /// Completes a request that never got a slot (rejected at admission).
  std::future<Response> reject(std::function<void(Response)> done, util::Clock::TimePoint enqueued,
                               Status status, const std::string& message);

  /// Sets the promise / invokes the callback exactly once; false (and a
  /// counted double completion) on a second call.  Counts every status but
  /// kOk, which evaluate_group counts per group before completing it.
  /// Never called with a shard lock held.
  bool complete(Pending& pending, Response&& response);
  void complete_rejection(Pending& pending, Status status, const std::string& message);
  void complete_timeout(Pending& pending, bool after_flush);

  /// Returns slots to the free list in one lock acquisition, then
  /// unreserve(reserved).
  void release(std::span<Pending* const> slots, std::size_t reserved);
  /// Releases admission reservations; wakes blocked producers, if any.
  void unreserve(std::size_t n);

  void worker_main(Shard& shard);
  /// Serves one cut batch: the serve.flush fault, the test hook, the
  /// post-cut deadline re-check, then one evaluation per homogeneous group.
  void process_batch(Worker& worker);
  /// Evaluates one homogeneous group (same query and query_var) and
  /// completes its members; on any exception the whole group completes
  /// with typed kError responses.
  void evaluate_group(Worker& worker, std::span<Pending* const> group);

  std::shared_ptr<const runtime::CompiledModel> model_;
  ServerOptions options_;
  std::shared_ptr<util::Clock> clock_;

  std::vector<Pending> slots_;  ///< the pool: capacity + workers * batch_max
  std::mutex free_mu_;
  std::vector<Pending*> free_;  ///< guarded by free_mu_

  /// Summed queue depth, reserved before a request takes a slot; capacity
  /// bounds it exactly, so the pool never runs dry.
  alignas(64) std::atomic<std::size_t> queued_{0};
  std::atomic<std::size_t> route_{0};  ///< the shard producers currently fill
  std::atomic<bool> stopping_{false};
  std::atomic<bool> drain_{true};

  std::mutex admit_mu_;                  ///< blocked producers only
  std::condition_variable cv_not_full_;  ///< space freed (blocked producers)

  std::mutex shutdown_mu_;  ///< serialises shutdown()
  bool joined_ = false;     ///< guarded by shutdown_mu_

  Counters counters_;

  std::unique_ptr<Shard[]> shards_;  ///< last: worker threads use every member above
};

}  // namespace problp::serve
