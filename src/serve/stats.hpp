// Serving-layer observability: lock-free counters for every completion
// class.
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

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "serve/types.hpp"

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

}  // namespace problp::serve
