// Request/response vocabulary of the async serving front-end (serve/server.hpp).
//
// A Request names one inference query (marginal / conditional / MPE) with
// its evidence and an optional relative deadline.  Every submitted request
// completes exactly once with a Response whose Status says how it ended:
//
//   kOk                 evaluated; value/posterior + provenance are valid
//   kTimeout            its deadline passed before evaluation started — the
//                       request was *never* evaluated, by contract
//   kRejectedQueueFull  backpressure: the bounded queue was full (or stayed
//                       full past the block timeout under FullPolicy::kBlock)
//   kRejectedOverload   shed at admission (queue depth crossed
//                       OverloadPolicy::shed_depth)
//   kRejectedShutdown   submitted after shutdown began, or cancelled by a
//                       non-draining shutdown before it was flushed
//   kError              evaluation failed (worker fault); message has detail
//
// Provenance: an ok answer names the format it was computed in (nullopt =
// exact double), how many fallback-ladder rungs the session climbed, and
// the datapath's sticky flags.  See docs/serving.md for the taxonomy table.
//
// The typed-error mirror: callers that prefer exceptions over status codes
// use value_or_throw() / posterior_or_throw(), which throw the matching
// problp::Error subclass (QueueFullError, OverloadShedError,
// DeadlineExceededError, ShutdownError, ServeError).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ac/evaluator.hpp"
#include "errormodel/query_bounds.hpp"
#include "lowprec/format.hpp"
#include "problp/report.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace problp::serve {

/// Family root of the serving layer's typed failures.
class ServeError : public Error {
 public:
  explicit ServeError(const std::string& what) : Error(what) {}
};

/// Backpressure: the bounded submission queue rejected the request.
class QueueFullError : public ServeError {
 public:
  explicit QueueFullError(const std::string& what) : ServeError(what) {}
};

/// The overload controller shed the request past its shedding threshold.
class OverloadShedError : public ServeError {
 public:
  explicit OverloadShedError(const std::string& what) : ServeError(what) {}
};

/// The request's deadline passed before evaluation started.
class DeadlineExceededError : public ServeError {
 public:
  explicit DeadlineExceededError(const std::string& what) : ServeError(what) {}
};

/// The server was shutting down.
class ShutdownError : public ServeError {
 public:
  explicit ShutdownError(const std::string& what) : ServeError(what) {}
};

/// One inference request.  `evidence` must be sized to the model's variable
/// count; `query_var` is required (and must be unobserved) for conditional
/// queries.  `timeout` is relative to submission; unset means no deadline.
struct Request {
  errormodel::QueryType query = errormodel::QueryType::kMarginal;
  ac::PartialAssignment evidence;
  int query_var = -1;
  std::optional<util::Clock::Duration> timeout;
};

enum class Status {
  kOk,
  kTimeout,
  kRejectedQueueFull,
  kRejectedOverload,
  kRejectedShutdown,
  kError,
};

const char* to_string(Status s);

struct Response {
  Status status = Status::kError;
  /// Root value for marginal/MPE queries (undefined otherwise).
  double value = 0.0;
  /// Posterior per state for conditional queries; empty when Pr(e) was not
  /// positive in the serving format (check flags.underflow to distinguish
  /// "flushed to zero" from "structurally impossible").
  std::vector<double> posterior;

  // ---- provenance (kOk only) ----------------------------------------------
  /// Format the answer was computed in; nullopt = exact IEEE double.
  std::optional<Representation> served_format;
  /// Fallback-ladder climbs the base session performed (see runtime docs).
  int escalations = 0;
  /// Sticky flags of the serving datapath (clean on the exact backend).
  lowprec::ArithFlags flags;

  /// Detail for non-kOk statuses (injected-fault site, rejection reason...).
  std::string message;

  /// Time spent queued before evaluation (or before the terminal non-kOk
  /// completion), and submission-to-completion latency.
  util::Clock::Duration queue_wait{};
  util::Clock::Duration latency{};

  bool ok() const { return status == Status::kOk; }

  /// The marginal/MPE value, or throws the Status's typed error.
  double value_or_throw() const;
  /// The posterior, or throws the Status's typed error.
  const std::vector<double>& posterior_or_throw() const;
  /// Throws the typed error matching a non-kOk status; no-op when kOk.
  void throw_if_failed() const;
};

}  // namespace problp::serve
