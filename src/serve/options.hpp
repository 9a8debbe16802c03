// Configuration of the async serving front-end — every policy the Server
// enforces is explicit here, so a misconfigured serving stack fails at
// construction (validate(), found-vs-expected messages) rather than under
// load.
//
// The three pressure valves, in the order they engage as load rises:
//
//   1. coalescing   — requests wait at most `flush_deadline` on their
//                     shard's queue to ride a batch of up to `batch_max`
//                     that the shard's worker cuts (bigger batches = the
//                     SIMD engines' preferred shape).
//   2. degradation  — past OverloadPolicy::degrade_depth (or an observed-p99
//                     threshold), *new* requests are admitted onto the
//                     configured lower-precision rung: cheaper to serve, and
//                     — this is ProbLP's trick — still carrying the format's
//                     analytic a-priori error bound, so the caller knows
//                     exactly what it traded.
//   3. shedding     — past OverloadPolicy::shed_depth (and always when the
//                     bounded queues are full under FullPolicy::kReject,
//                     or stays full past the block timeout under kBlock), new
//                     requests complete immediately with a typed rejection.
//                     The queue never grows without bound.
//
// Degradation is the serving-side dual of the session's escalation fallback
// (runtime/session.hpp FallbackPolicy): escalation spends *more* precision
// on flagged answers after the fact; degradation spends *less* on new
// answers before the fact, trading a known bound for admission under
// overload.  See docs/serving.md.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>

#include "runtime/session.hpp"
#include "util/clock.hpp"

namespace problp::serve {

/// The lower-precision rung degraded requests are served on, plus the
/// analytic error bound that makes serving it defensible.
struct DegradedTier {
  Representation repr;
  lowprec::RoundingMode rounding = lowprec::RoundingMode::kNearestEven;
  /// The format's a-priori query-error bound (from the bit-width search /
  /// AnalysisReport), stamped on every degraded answer's provenance.
  double error_bound = 0.0;

  /// The tier an analysis selected: the report's representation with its
  /// plan's predicted bound and the rounding mode the analysis assumed.
  /// Requires a feasible report.
  static DegradedTier from_report(const runtime::CompiledModel& model,
                                  const AnalysisReport& report);
};

struct OverloadPolicy {
  /// Rung new requests are served on while the controller is degrading.
  /// Unset = never degrade (depth/latency thresholds then must be unset
  /// too — validate() rejects a threshold with no rung to degrade to).
  std::optional<DegradedTier> degraded;
  /// Queue depth at or above which new requests are admitted degraded.
  std::size_t degrade_depth = SIZE_MAX;
  /// Observed p99 completion latency (sliding window) above which new
  /// requests are admitted degraded, independent of queue depth.
  std::optional<util::Clock::Duration> degrade_p99;
  /// Queue depth at or above which new requests are shed with a typed
  /// rejection (kRejectedOverload) — degradation's last line.
  std::size_t shed_depth = SIZE_MAX;

  bool enabled() const { return degraded.has_value() || shed_depth != SIZE_MAX; }
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
  /// serves it with its own InferenceSession pool (base + degraded tiers).
  int workers = 1;

  /// Base-tier backend every worker session is built with (exact double by
  /// default; set `session.representation` to serve low-precision, plus
  /// `session.fallback` for flag-driven escalation).  For serving, prefer
  /// session.batch.num_threads == 1: workers are already the parallelism.
  runtime::SessionOptions session;
  /// Analytic error bound of session.representation, stamped on normal-tier
  /// low-precision answers (exact answers never carry a bound).
  std::optional<double> base_error_bound;

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
