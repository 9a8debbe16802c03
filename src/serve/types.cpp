#include "serve/types.hpp"

namespace problp::serve {

const char* to_string(Status s) {
  switch (s) {
    case Status::kOk:
      return "ok";
    case Status::kTimeout:
      return "timeout";
    case Status::kRejectedQueueFull:
      return "rejected-queue-full";
    case Status::kRejectedOverload:
      return "rejected-overload";
    case Status::kRejectedShutdown:
      return "rejected-shutdown";
    case Status::kError:
      return "error";
  }
  return "unknown";
}

void Response::throw_if_failed() const {
  const std::string detail =
      message.empty() ? std::string(to_string(status)) : message;
  switch (status) {
    case Status::kOk:
      return;
    case Status::kTimeout:
      throw DeadlineExceededError(detail);
    case Status::kRejectedQueueFull:
      throw QueueFullError(detail);
    case Status::kRejectedOverload:
      throw OverloadShedError(detail);
    case Status::kRejectedShutdown:
      throw ShutdownError(detail);
    case Status::kError:
      throw ServeError(detail);
  }
}

double Response::value_or_throw() const {
  throw_if_failed();
  return value;
}

const std::vector<double>& Response::posterior_or_throw() const {
  throw_if_failed();
  return posterior;
}

}  // namespace problp::serve
