// Error types shared across the ProbLP libraries.
//
// ProbLP reports contract violations (malformed networks, out-of-range
// formats, unsupported query/representation combinations) with exceptions
// derived from `problp::Error`, so callers can catch the whole family at the
// API boundary.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace problp {

/// Base class of every exception thrown by ProbLP libraries.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller violated a documented precondition (bad argument, bad state).
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Input text (BIF file, circuit file, ...) could not be parsed.
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what) : Error(what) {}
};

/// Throws InvalidArgument with `what` when `cond` does not hold.  The
/// message string is built only on failure, so per-query checks with a
/// literal message cost no allocation.
inline void require(bool cond, std::string_view what) {
  if (!cond) throw InvalidArgument(std::string(what));
}

}  // namespace problp
