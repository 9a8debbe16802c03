// Deterministic, site-keyed fault injection for the serving runtime.
//
// Production failure paths (a truncated artifact, a load that throws under
// the registry lock, an exception escaping a batched worker thread) are
// exactly the paths no unit test reaches by accident.  This harness makes
// them reachable on demand: code under test declares named *sites* with
// `util::fault_point("artifact.checksum")`, and a test (or the
// PROBLP_FAULTS environment variable) arms a site to fire on its N-th hit.
// A fired site does not throw by itself — each call site implements its own
// failure (flip the checksum it just computed, pretend mmap returned
// MAP_FAILED, throw from the worker lambda), so the *real* error path runs,
// not a synthetic stand-in.
//
// Registered sites (see the call sites for exact semantics):
//
//   artifact.write        ArtifactWriter::write: the payload stream fails
//   artifact.mmap         MappedArtifact::open: mmap fails -> heap fallback
//   artifact.short_read   MappedArtifact::open: heap read comes up short
//   artifact.checksum     MappedArtifact::open: a section checksum flips
//   artifact.size_recheck MappedArtifact::open: file shrank after open
//   registry.load         ModelRegistry::get: the cold load throws
//   batch.worker          batched engines: a worker thread throws a foreign
//                         (non-problp) exception
//   serve.enqueue         serve::Server::submit: forces the queue-full
//                         rejection path (typed kRejectedQueueFull)
//   serve.flush           serve::Server worker cutting a batch: the batch
//                         fails; every member completes with a typed kError
//   serve.worker          serve::Server worker: evaluation throws mid-batch;
//                         the group completes kError, the worker survives
//
// Determinism: arming is per-site and single-shot ("fire on the nth hit"),
// hit counting is globally serialised, and nothing fires unless armed — the
// disabled fast path is one relaxed atomic load, so instrumented hot paths
// cost nothing in production.
//
// PROBLP_FAULTS="site[=nth][,site[=nth]...]" arms sites from the
// environment at first use (nth defaults to 1), so the CLI and benches can
// be driven into failure paths without recompiling.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace problp::util {

class FaultInjector {
 public:
  /// The process-wide injector (sites are process-wide by nature: the code
  /// under test reaches them through free functions, not injected handles).
  static FaultInjector& instance();

  /// Arms `site` to fire on its `nth` hit from now (1-based, single-shot);
  /// resets the site's hit counter so tests compose.
  void arm(const std::string& site, std::uint64_t nth = 1);

  /// Disarms `site` (its hit/fired history is kept until reset()).
  void disarm(const std::string& site);

  /// Disarms every site and clears all counters.  Tests call this in
  /// teardown so no armed fault leaks into the next test.
  void reset();

  /// Hits `site` has taken since it was last armed (or reset).
  std::uint64_t hits(const std::string& site) const;

  /// Whether `site` has fired since it was last armed.
  bool fired(const std::string& site) const;

  /// Counts a hit at `site`; true exactly when the armed nth hit is reached.
  bool should_fire(const char* site);

  /// Cheap guard for the disabled case (no site armed, no PROBLP_FAULTS).
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

 private:
  FaultInjector();  ///< parses PROBLP_FAULTS

  struct Site {
    std::uint64_t arm_at = 0;  ///< 0 = not armed
    std::uint64_t hits = 0;
    bool fired = false;
  };

  void recompute_enabled_locked();

  mutable std::mutex mutex_;
  std::map<std::string, Site> sites_;
  std::atomic<bool> enabled_{false};
};

/// The per-site hook: true when the armed fault at `site` must fire now.
/// Disabled (the production default) this is one relaxed atomic load.
inline bool fault_point(const char* site) {
  FaultInjector& injector = FaultInjector::instance();
  if (!injector.enabled()) return false;
  return injector.should_fire(site);
}

}  // namespace problp::util
