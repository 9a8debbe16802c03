#include "serve/server.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "util/fault_injection.hpp"
#include "util/strings.hpp"

namespace problp::serve {

// One bounded queue plus the worker that batches and serves it.  The queue
// is reserved to `capacity` — admission bounds the summed depth by it — so
// pushes never reallocate and cuts never free.
struct Server::Shard {
  std::mutex mu;
  std::condition_variable cv;   ///< arrivals and shutdown wake the worker
  std::vector<Pending*> queue;  ///< FIFO; guarded by mu, like every field below
  std::size_t deadlines = 0;    ///< queued requests with a finite deadline
  // Written under mu; route() reads both without it.  A worker releases mu
  // only to serve a batch or to sleep, so under mu a worker that is not
  // busy is asleep or about to re-read the queue.
  std::atomic<bool> busy{false};      ///< the worker holds a cut batch
  std::atomic<std::size_t> depth{0};  ///< queue.size()
  std::thread worker;
};

// A worker's session — built with the thread; the engines inside are lazy
// — plus per-batch scratch reserved once, so serving a batch allocates
// nothing per request.
struct Server::Worker {
  runtime::InferenceSession session;

  std::vector<Pending*> batch;  ///< cut batch or expired requests, back to the pool after
  std::vector<ac::PartialAssignment> evidence;  ///< a group's evidence, lent by its slots

  explicit Worker(const Server& s) : session(s.model_, s.options_.session) {
    batch.reserve(s.options_.batch_max);
    evidence.reserve(s.options_.batch_max);
  }
};

Server::Server(std::shared_ptr<const runtime::CompiledModel> model, ServerOptions options)
    : model_(std::move(model)), options_(std::move(options)) {
  require(model_ != nullptr, "serve: Server: null model");
  options_.validate();
  clock_ = options_.clock ? options_.clock : util::Clock::steady();
  // Surface session misconfiguration on the constructing thread, not as an
  // exception escaping a worker thread minutes later: build (and discard) a
  // probe session.  Sessions are scratch-only until their first query, so
  // this is cheap.
  { runtime::InferenceSession probe(model_, options_.session); }
  const auto workers = static_cast<std::size_t>(options_.workers);
  slots_ = std::vector<Pending>(options_.capacity + workers * options_.batch_max);
  free_.reserve(slots_.size());
  for (Pending& slot : slots_) free_.push_back(&slot);
  shards_ = std::make_unique<Shard[]>(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    Shard& shard = shards_[w];
    shard.queue.reserve(options_.capacity);
    shard.worker = std::thread([this, &shard] { worker_main(shard); });
  }
}

Server::~Server() { shutdown(true); }

// ---- admission -------------------------------------------------------------

std::future<Response> Server::submit(Request request) {
  return submit_internal(std::move(request), nullptr);
}

void Server::submit(Request request, std::function<void(Response)> done) {
  require(done != nullptr, "serve: submit: null completion callback");
  submit_internal(std::move(request), std::move(done));
}

std::future<Response> Server::submit_internal(Request request,
                                              std::function<void(Response)> done) {
  // Malformed requests are caller bugs, not load conditions: they throw
  // here, synchronously, and never occupy queue space.  Messages are
  // formatted only on failure — str_format on the submit hot path would
  // cost more than the rest of admission combined.
  if (request.evidence.size() != static_cast<std::size_t>(model_->num_variables())) {
    throw InvalidArgument(str_format("serve: request evidence size: found %zu, expected %d",
                                     request.evidence.size(), model_->num_variables()));
  }
  if (request.query == errormodel::QueryType::kConditional) {
    if (request.query_var < 0 || request.query_var >= model_->num_variables()) {
      throw InvalidArgument(
          str_format("serve: conditional request query_var: found %d, expected in [0, %d)",
                     request.query_var, model_->num_variables()));
    }
    require(!request.evidence[static_cast<std::size_t>(request.query_var)].has_value(),
            "serve: conditional request: query_var must be unobserved in the evidence");
  }

  counters_.submitted.fetch_add(1, std::memory_order_relaxed);
  const util::Clock::TimePoint now = clock_->now();
  if (stopping_.load()) {
    return reject(std::move(done), now, Status::kRejectedShutdown,
                  "serve: server is shutting down");
  }
  // serve.enqueue forces the queue-full rejection path — the same typed
  // completion a physically full server produces under FullPolicy::kReject.
  if (util::fault_point("serve.enqueue")) {
    return reject(std::move(done), now, Status::kRejectedQueueFull,
                  "serve: injected fault at serve.enqueue — submission queue full");
  }
  // A producer that blocked stays counted until its request has landed in
  // a queue or completed, so an observer that sees no blocked producer
  // knows every one it admitted is queued.
  bool blocked = false;
  const auto unblock = [&] {
    if (blocked) counters_.producers_blocked.fetch_sub(1);
    blocked = false;
  };
  // Reserve a place in the summed depth before taking a slot.  The
  // reservation is what keeps the depth within capacity under concurrent
  // producers, and it never refuses a producer below the real depth.
  std::size_t depth = try_reserve(std::min(options_.capacity, options_.overload.shed_depth));
  if (depth >= options_.overload.shed_depth) {
    return reject(std::move(done), now, Status::kRejectedOverload,
                  str_format("serve: overload shed — queue depth %zu >= shed threshold %zu",
                             depth, options_.overload.shed_depth));
  }
  if (depth >= options_.capacity) {
    if (options_.full_policy == ServerOptions::FullPolicy::kReject) {
      return reject(std::move(done), now, Status::kRejectedQueueFull,
                    str_format("serve: submission queue full (capacity %zu)", options_.capacity));
    }
    // Block-with-timeout backpressure: the producer waits for space, but
    // never forever — a stalled pipeline turns into a typed rejection, not
    // a wedged client.  Workers wake blocked producers whenever they free
    // depth (see unreserve).
    blocked = true;
    counters_.producers_blocked.fetch_add(1);
    const util::Clock::TimePoint block_deadline = now + options_.block_timeout;
    std::unique_lock<std::mutex> lock(admit_mu_);
    while ((depth = try_reserve(options_.capacity)) >= options_.capacity) {
      if (stopping_.load() || clock_->now() >= block_deadline) {
        lock.unlock();
        unblock();
        if (stopping_.load()) {
          return reject(std::move(done), now, Status::kRejectedShutdown,
                        "serve: server shut down while blocked on a full queue");
        }
        return reject(
            std::move(done), now, Status::kRejectedQueueFull,
            str_format("serve: submission queue still full after block timeout (capacity %zu)",
                       options_.capacity));
      }
      clock_->wait_until(cv_not_full_, lock, block_deadline);
    }
  }
  Pending* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(free_mu_);
    // Cannot run dry: queued requests hold at most `capacity` slots and
    // each worker's cut batch at most batch_max.
    assert(!free_.empty());
    slot = free_.back();
    free_.pop_back();
  }
  Pending& pending = *slot;
  // Assigning the request releases the evidence buffer the slot's previous
  // request handed back — here, on a submitting thread, never on a worker.
  pending.request = std::move(request);
  pending.callback = std::move(done);
  std::future<Response> future;
  pending.promise.reset();
  if (!pending.callback) future = pending.promise.emplace().get_future();
  pending.enqueued = now;
  pending.deadline = pending.request.timeout ? now + *pending.request.timeout
                                             : util::Clock::TimePoint::max();
  pending.completed.store(false, std::memory_order_relaxed);
  const bool has_deadline = pending.deadline != util::Clock::TimePoint::max();

  Shard& shard = shards_[route()];
  bool wake = false;
  {
    std::unique_lock<std::mutex> lock(shard.mu);
    // Checked under the shard lock: shutdown sets stopping_ before it takes
    // each shard's lock, so a request either lands before shutdown sees the
    // queue or is refused here — never stranded.
    if (stopping_.load()) {
      lock.unlock();
      unblock();
      complete_rejection(pending, Status::kRejectedShutdown, "serve: server is shutting down");
      release({&slot, 1}, 1);
      return future;
    }
    shard.queue.push_back(slot);
    shard.depth.store(shard.queue.size(), std::memory_order_relaxed);
    if (has_deadline) ++shard.deadlines;
    // Wake the worker only when its plan can change: the first request arms
    // the linger timer, the batch_max-th makes a full batch, and a finite
    // deadline may be earlier than the sleep it already computed.  A busy
    // worker re-reads the queue before it sleeps again.
    wake = !shard.busy.load(std::memory_order_relaxed) &&
           (shard.queue.size() == 1 || shard.queue.size() == options_.batch_max || has_deadline);
  }
  unblock();
  if (wake) shard.cv.notify_one();
  return future;
}

std::size_t Server::try_reserve(std::size_t limit) {
  std::size_t depth = queued_.load();
  while (depth < limit && !queued_.compare_exchange_weak(depth, depth + 1)) {
  }
  return depth;
}

std::size_t Server::route() {
  const std::size_t workers = static_cast<std::size_t>(options_.workers);
  if (workers == 1) return 0;
  // Ready shards (worker free, batch not full) first, then shallower
  // queues; the current shard keeps producers for as long as it is ready.
  const auto rank = [&](std::size_t w) {
    const Shard& s = shards_[w];
    const std::size_t depth = s.depth.load(std::memory_order_relaxed);
    const bool ready = !s.busy.load(std::memory_order_relaxed) && depth < options_.batch_max;
    return std::pair(!ready, depth);
  };
  const std::size_t current = route_.load(std::memory_order_relaxed);
  auto best_rank = rank(current);
  if (!best_rank.first) return current;
  std::size_t best = current;
  for (std::size_t w = 0; w < workers; ++w) {
    const auto r = rank(w);
    if (r < best_rank) {
      best = w;
      best_rank = r;
    }
  }
  if (best != current) route_.store(best, std::memory_order_relaxed);
  return best;
}

std::future<Response> Server::reject(std::function<void(Response)> done,
                                     util::Clock::TimePoint enqueued, Status status,
                                     const std::string& message) {
  Pending local;
  local.callback = std::move(done);
  std::future<Response> future;
  if (!local.callback) future = local.promise.emplace().get_future();
  local.enqueued = enqueued;
  complete_rejection(local, status, message);
  return future;
}

void Server::release(std::span<Pending* const> slots, std::size_t reserved) {
  {
    std::lock_guard<std::mutex> lock(free_mu_);
    free_.insert(free_.end(), slots.begin(), slots.end());
  }
  if (reserved != 0) unreserve(reserved);
}

void Server::unreserve(std::size_t n) {
  // Sequentially consistent with the blocked producer's own increment of
  // producers_blocked before it re-reads queued_: either this load sees the
  // producer, or the producer sees the freed depth.
  queued_.fetch_sub(n);
  if (counters_.producers_blocked.load() != 0) {
    { std::lock_guard<std::mutex> lock(admit_mu_); }
    cv_not_full_.notify_all();
  }
}

// ---- completion funnel -----------------------------------------------------

bool Server::complete(Pending& pending, Response&& response) {
  // Exactly-once: the first completion wins; a second is counted as the bug
  // it would be (the drain and stress tests assert this stays 0) and
  // dropped rather than crossing a std::promise twice.
  if (pending.completed.exchange(true)) {
    counters_.double_completions.fetch_add(1);
    return false;
  }
  if (response.status != Status::kOk) counters_.count(response.status).fetch_add(1);
  // Exactly one channel is engaged (see Pending).  The callback is
  // destroyed as soon as it has run, so nothing it captured outlives its
  // request; the promise stays in the slot until the slot is reused.
  if (pending.callback) {
    std::exchange(pending.callback, nullptr)(std::move(response));
  } else {
    pending.promise->set_value(std::move(response));
  }
  return true;
}

void Server::complete_rejection(Pending& pending, Status status, const std::string& message) {
  Response response;
  response.status = status;
  response.message = message;
  response.queue_wait = clock_->now() - pending.enqueued;
  response.latency = response.queue_wait;
  complete(pending, std::move(response));
}

void Server::complete_timeout(Pending& pending, bool after_flush) {
  if (after_flush) counters_.timed_out_after_flush.fetch_add(1);
  complete_rejection(pending, Status::kTimeout,
                     after_flush ? "serve: deadline exceeded after flush, before evaluation"
                                 : "serve: deadline exceeded while queued");
}

// ---- workers ---------------------------------------------------------------

void Server::worker_main(Shard& shard) {
  Worker worker(*this);
  const std::size_t batch_max = options_.batch_max;
  std::unique_lock<std::mutex> lock(shard.mu);
  for (;;) {
    const util::Clock::TimePoint now = clock_->now();

    // Expired requests leave the queue as typed timeouts — before any cut
    // decision, so an expired request is never silently evaluated.  The
    // sweep is O(depth), so it only runs while some queued request actually
    // carries a deadline.
    std::vector<Pending*>& queue = shard.queue;
    if (shard.deadlines > 0) {
      std::size_t kept = 0;
      for (Pending* p : queue) {
        if (p->deadline <= now) {
          --shard.deadlines;
          worker.batch.push_back(p);
        } else {
          queue[kept++] = p;
        }
      }
      queue.resize(kept);
    }
    const bool expired = !worker.batch.empty();
    const bool stopping = stopping_.load();
    // Otherwise cut on size, on the oldest request's linger, or — draining —
    // at once.
    if (!expired && !queue.empty() &&
        (queue.size() >= batch_max || (stopping && drain_.load()) ||
         now - queue.front()->enqueued >= options_.flush_deadline)) {
      (queue.size() >= batch_max ? counters_.flushes_by_size : counters_.flushes_by_deadline)
          .fetch_add(1);
      const auto cut = queue.begin() + static_cast<long>(std::min(queue.size(), batch_max));
      for (auto it = queue.begin(); it != cut; ++it) {
        (*it)->flushed = now;
        if ((*it)->deadline != util::Clock::TimePoint::max()) --shard.deadlines;
      }
      worker.batch.assign(queue.begin(), cut);
      queue.erase(queue.begin(), cut);
    }
    shard.depth.store(queue.size(), std::memory_order_relaxed);
    if (!worker.batch.empty()) {
      shard.busy.store(true, std::memory_order_relaxed);
      lock.unlock();
      if (expired) {
        for (Pending* p : worker.batch) complete_timeout(*p, false);
      } else {
        unreserve(worker.batch.size());  // the cut frees queue space while it evaluates
        process_batch(worker);
      }
      // Expired requests release their depth only with their slots, so
      // admission never reserves a place whose slot is still held here.
      release(worker.batch, expired ? worker.batch.size() : 0);
      worker.batch.clear();
      lock.lock();
      shard.busy.store(false, std::memory_order_relaxed);
      continue;
    }

    if (stopping && queue.empty()) break;

    // Sleep until the earliest actionable instant: the oldest request's
    // linger deadline or any request's own deadline, whichever is sooner.
    util::Clock::TimePoint next = util::Clock::TimePoint::max();
    if (!queue.empty()) {
      next = queue.front()->enqueued + options_.flush_deadline;
      if (shard.deadlines > 0) {
        for (const Pending* p : queue) next = std::min(next, p->deadline);
      }
    }
    clock_->wait_until(shard.cv, lock, next);
  }
}

void Server::process_batch(Worker& worker) {
  std::vector<Pending*>& batch = worker.batch;
  if (util::fault_point("serve.flush")) {
    // A failed cut must still complete every member exactly once — the real
    // mid-flush error path, driven deterministically.
    for (Pending* p : batch) {
      complete_rejection(*p, Status::kError,
                         "serve: injected fault at serve.flush — batch dispatch failed");
    }
    return;
  }
  if (options_.test_worker_hook) options_.test_worker_hook();
  // Deadlines are re-checked after the cut: a request that expired between
  // the cut and evaluation is a typed timeout, not a stale answer.
  const util::Clock::TimePoint now = clock_->now();
  const auto live_end = std::partition(batch.begin(), batch.end(),
                                       [&](const Pending* p) { return p->deadline > now; });
  for (auto it = live_end; it != batch.end(); ++it) complete_timeout(**it, true);
  if (live_end == batch.begin()) return;
  counters_.batches_evaluated.fetch_add(1);
  // One batched session call per homogeneous group (same query and
  // query_var); sorting on that key lines the groups up.  A saturated batch
  // is almost always one group.
  const auto key = [](const Pending* p) {
    return std::pair(p->request.query, p->request.query_var);
  };
  std::sort(batch.begin(), live_end,
            [&](const Pending* a, const Pending* b) { return key(a) < key(b); });
  for (auto first = batch.begin(); first != live_end;) {
    const auto last =
        std::find_if(first, live_end, [&](const Pending* p) { return key(p) != key(*first); });
    evaluate_group(worker, {first, last});
    first = last;
  }
}

void Server::evaluate_group(Worker& worker, std::span<Pending* const> group) {
  const errormodel::QueryType query = group.front()->request.query;
  const int query_var = group.front()->request.query_var;
  // The slots lend their evidence to the batched call and get it back
  // at the end, so no buffer is freed on this thread.
  worker.evidence.clear();
  for (Pending* p : group) worker.evidence.push_back(std::move(p->request.evidence));
  std::size_t undelivered_ok = 0;  // counted ok below, not yet completed
  try {
    // serve.worker mirrors batch.worker: a *foreign* exception from the
    // serving thread's evaluation, driven deterministically.
    if (util::fault_point("serve.worker")) {
      throw std::runtime_error("injected fault: serve.worker evaluation failed");
    }
    runtime::InferenceSession& session = worker.session;
    const std::vector<double>* values = nullptr;
    std::vector<std::vector<double>> posteriors;
    if (query == errormodel::QueryType::kConditional) {
      posteriors = session.conditional(query_var, worker.evidence);
    } else if (query == errormodel::QueryType::kMpe) {
      values = &session.mpe(worker.evidence);
    } else {
      values = &session.marginal(worker.evidence);
    }
    const std::vector<runtime::QueryProvenance>& provenance = session.last_provenance();
    const util::Clock::TimePoint done = clock_->now();
    // The group's ok completions are counted before any member completes,
    // so a client that has its answer also finds it in stats().
    counters_.count(Status::kOk).fetch_add(group.size(), std::memory_order_relaxed);
    undelivered_ok = group.size();
    for (std::size_t j = 0; j < group.size(); ++j) {
      Pending& pending = *group[j];
      Response response;
      response.status = Status::kOk;
      if (query == errormodel::QueryType::kConditional) {
        response.posterior = std::move(posteriors[j]);
      } else {
        response.value = (*values)[j];
      }
      const runtime::QueryProvenance& prov = provenance[j];
      response.served_format = prov.served_format;
      response.escalations = prov.escalations;
      response.flags = prov.flags;
      response.queue_wait = pending.flushed - pending.enqueued;
      response.latency = done - pending.enqueued;
      --undelivered_ok;
      if (!complete(pending, std::move(response))) counters_.count(Status::kOk).fetch_sub(1);
    }
  } catch (const std::exception& e) {
    // The whole group shares the failed sweep (or a callback threw); each
    // member not yet completed completes exactly once, as a typed error —
    // no longer counted as ok — and the worker thread survives.
    counters_.count(Status::kOk).fetch_sub(undelivered_ok);
    const std::string message = str_format("serve: worker evaluation failed: %s", e.what());
    for (Pending* p : group) {
      if (!p->completed.load()) complete_rejection(*p, Status::kError, message);
    }
  }
  for (std::size_t j = 0; j < group.size(); ++j) {
    group[j]->request.evidence = std::move(worker.evidence[j]);
  }
}

// ---- shutdown & stats ------------------------------------------------------

void Server::shutdown(bool drain) {
  std::lock_guard<std::mutex> join_lock(shutdown_mu_);
  if (joined_) return;
  drain_.store(drain);
  stopping_.store(true);
  std::vector<Pending*> cancelled;
  for (std::size_t w = 0; w < static_cast<std::size_t>(options_.workers); ++w) {
    Shard& shard = shards_[w];
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (!drain) {
        cancelled.insert(cancelled.end(), shard.queue.begin(), shard.queue.end());
        shard.queue.clear();
        shard.depth.store(0, std::memory_order_relaxed);
        shard.deadlines = 0;
      }
    }
    shard.cv.notify_all();
  }
  { std::lock_guard<std::mutex> lock(admit_mu_); }
  cv_not_full_.notify_all();
  for (Pending* p : cancelled) {
    complete_rejection(*p, Status::kRejectedShutdown,
                       "serve: server shut down before the request was flushed");
  }
  release(cancelled, cancelled.size());
  for (std::size_t w = 0; w < static_cast<std::size_t>(options_.workers); ++w) {
    if (shards_[w].worker.joinable()) shards_[w].worker.join();
  }
  joined_ = true;
}

StatsSnapshot Server::stats() const {
  StatsSnapshot s;
  s.submitted = counters_.submitted.load();
  s.completed_ok = counters_.count(Status::kOk);
  s.timed_out = counters_.count(Status::kTimeout);
  s.timed_out_after_flush = counters_.timed_out_after_flush.load();
  s.rejected_queue_full = counters_.count(Status::kRejectedQueueFull);
  s.rejected_overload = counters_.count(Status::kRejectedOverload);
  s.rejected_shutdown = counters_.count(Status::kRejectedShutdown);
  s.errors = counters_.count(Status::kError);
  s.flushes_by_size = counters_.flushes_by_size.load();
  s.flushes_by_deadline = counters_.flushes_by_deadline.load();
  s.batches_evaluated = counters_.batches_evaluated.load();
  s.double_completions = counters_.double_completions.load();
  s.producers_blocked = counters_.producers_blocked.load();
  s.queue_depth = queued_.load();
  return s;
}

}  // namespace problp::serve
