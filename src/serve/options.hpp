// Configuration of the async serving front-end — every policy the Server
// enforces is explicit here, so a misconfigured serving stack fails at
// construction (validate(), found-vs-expected messages) rather than under
// load.
//
// The two pressure valves, in the order they engage as load rises:
//
//   1. coalescing — requests wait at most `flush_deadline` on their shard's
//                   queue to ride a batch of up to `batch_max` that the
//                   shard's worker cuts (bigger batches = the SIMD engines'
//                   preferred shape).
//   2. shedding   — past OverloadPolicy::shed_depth (and always when the
//                   bounded queues are full under FullPolicy::kReject, or
//                   stay full past the block timeout under kBlock), new
//                   requests complete immediately with a typed rejection.
//                   The queue never grows without bound.
//
// Overload never lowers answer precision: every admitted request is served
// on the configured session backend.  On a CPU every low-precision format
// is emulated, so a cheaper rung would buy no capacity; precision changes
// only through the session's flag-driven escalation (runtime/session.hpp
// FallbackPolicy), which is about correctness.  See docs/serving.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "runtime/session.hpp"
#include "util/clock.hpp"

namespace problp::serve {

struct OverloadPolicy {
  /// Queue depth at or above which new requests are shed with a typed
  /// rejection (kRejectedOverload).
  std::size_t shed_depth = SIZE_MAX;
};

struct ServerOptions {
  /// Bounded queue depth: requests admitted but not yet cut into a batch,
  /// summed over all shards.  In-flight state never exceeds the slot pool
  /// allocated at construction, capacity + workers * batch_max.
  std::size_t capacity = 1024;

  /// What submit() does when the server is full.
  enum class FullPolicy {
    kReject,  ///< complete immediately with kRejectedQueueFull
    kBlock,   ///< block the producer up to block_timeout, then reject
  };
  FullPolicy full_policy = FullPolicy::kReject;
  util::Clock::Duration block_timeout = std::chrono::milliseconds(100);

  /// Coalescing: a shard's worker cuts a batch when this many requests are
  /// queued on its shard...
  std::size_t batch_max = 64;
  /// ...or when the oldest queued request has waited this long.  This is
  /// the p99-latency knob: no request waits in the queue longer than
  /// flush_deadline before its worker cuts it (its own deadline permitting).
  util::Clock::Duration flush_deadline = std::chrono::milliseconds(2);

  /// Shards: each is one queue plus one worker thread that batches and
  /// serves it with its own InferenceSession.
  int workers = 1;

  /// Backend every worker session is built with (exact double by
  /// default; set `session.representation` to serve low-precision, plus
  /// `session.fallback` for flag-driven escalation).  For serving, prefer
  /// session.batch.num_threads == 1: workers are already the parallelism.
  runtime::SessionOptions session;

  OverloadPolicy overload;

  /// Deadline/timer domain; null = the process steady clock.  Tests inject
  /// util::ManualClock to drive flush deadlines and timeouts by hand.
  std::shared_ptr<util::Clock> clock;

  /// Test seam: called by a worker when it has cut a batch, *before* the
  /// post-flush deadline re-check — lets tests hold a cut batch while they
  /// advance the clock.  Never set in production.
  std::function<void()> test_worker_hook;

  /// Throws InvalidArgument (found-vs-expected message) on any
  /// inconsistency; called by the Server constructor.
  void validate() const;
};

}  // namespace problp::serve
