// Serving-layer observability: lock-free counters for every completion
// class, plus a small sliding latency window the overload controller's
// degrade_p99 trigger reads its p99 from.
//
// The accounting identity the drain tests pin down:
//
//   submitted == completed_ok + timed_out + rejected_queue_full
//              + rejected_overload + rejected_shutdown + errors
//
// holds after shutdown() returns — every request completes exactly once
// (double_completions counts violations of "exactly once"; it must stay 0,
// and the stress/drain tests assert it).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "serve/types.hpp"
#include "util/clock.hpp"

namespace problp::serve {

/// A point-in-time copy of the server's counters.
struct StatsSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t timed_out = 0;           ///< expired in queue, never evaluated
  std::uint64_t timed_out_after_flush = 0;  ///< subset of timed_out: expired between flush and eval
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t errors = 0;
  std::uint64_t degraded_admitted = 0;  ///< admitted onto the degraded tier
  std::uint64_t flushes_by_size = 0;
  std::uint64_t flushes_by_deadline = 0;
  std::uint64_t batches_evaluated = 0;
  std::uint64_t double_completions = 0;  ///< exactly-once violations; must be 0
  std::uint64_t producers_blocked = 0;   ///< currently blocked in submit()
  std::uint64_t queue_depth = 0;         ///< current
  std::uint64_t total_completed() const {
    return completed_ok + timed_out + rejected_queue_full + rejected_overload +
           rejected_shutdown + errors;
  }
};

inline constexpr std::size_t kStatusCount = static_cast<std::size_t>(Status::kError) + 1;

/// The mutable counters (relaxed atomics — serving-path increments never
/// contend on a lock).  The admission side (written by submitting threads)
/// and the completion side (written by workers, which add a group's ok
/// completions at once) sit on separate cache lines.
struct Counters {
  alignas(64) std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> degraded_admitted{0};
  std::atomic<std::uint64_t> producers_blocked{0};

  alignas(64) std::atomic<std::uint64_t> completed[kStatusCount] = {};  ///< indexed by Status
  std::atomic<std::uint64_t> timed_out_after_flush{0};
  std::atomic<std::uint64_t> batches_evaluated{0};
  std::atomic<std::uint64_t> double_completions{0};
  std::atomic<std::uint64_t> flushes_by_size{0};
  std::atomic<std::uint64_t> flushes_by_deadline{0};

  std::atomic<std::uint64_t>& count(Status s) { return completed[static_cast<std::size_t>(s)]; }
  std::uint64_t count(Status s) const { return completed[static_cast<std::size_t>(s)].load(); }
};

/// Sliding window of recent completion latencies; p99() feeds the overload
/// controller's latency trigger (workers record only when it is armed).
/// Writers (workers) and readers (admission) share one small mutex — the
/// window is 256 entries, the critical sections a few loads/stores.
class LatencyWindow {
 public:
  explicit LatencyWindow(std::size_t size = 256) : ring_(size) {}

  /// One lock for a whole batch of completions (a worker finishing a group
  /// records every member at once — per-request locking would cost more
  /// than the stores).
  void record_many(const std::vector<util::Clock::Duration>& ds) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (util::Clock::Duration d : ds) {
      ring_[next_++ % ring_.size()] = d;
      if (count_ < ring_.size()) ++count_;
    }
  }

  /// p99 over the window (0 when empty).
  util::Clock::Duration p99() const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (count_ == 0) return util::Clock::Duration::zero();
    std::vector<util::Clock::Duration> sorted(ring_.begin(),
                                              ring_.begin() + static_cast<long>(count_));
    std::sort(sorted.begin(), sorted.end());
    return sorted[std::min(count_ - 1,
                           static_cast<std::size_t>(0.99 * static_cast<double>(count_)))];
  }

 private:
  mutable std::mutex mutex_;
  std::vector<util::Clock::Duration> ring_;
  std::size_t next_ = 0;
  std::size_t count_ = 0;
};

}  // namespace problp::serve
