#pragma once
/// \file error.hpp
/// Error handling for the obscorr libraries.
///
/// The libraries are exception-based: precondition violations throw
/// `std::invalid_argument` (caller bug) and internal invariant violations
/// throw `obscorr::InternalError` (library bug). No error codes, no abort.

#include <stdexcept>
#include <string>

namespace obscorr {

/// Thrown when an internal invariant of the library is violated.
/// Seeing this exception always indicates a bug in obscorr itself.
class InternalError : public std::logic_error {
 public:
  explicit InternalError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
[[noreturn]] inline void throw_require(const std::string& msg) { throw std::invalid_argument(msg); }
[[noreturn]] inline void throw_invariant(const char* expr, const char* file, int line) {
  throw InternalError(std::string("invariant violated: ") + expr + " at " + file + ":" +
                      std::to_string(line));
}
}  // namespace detail

}  // namespace obscorr

/// Validate a caller-supplied precondition; throws std::invalid_argument
/// carrying `msg` alone, since the message reaches users verbatim
/// (`error: <msg>` from the CLI, the daemon's error responses).
#define OBSCORR_REQUIRE(expr, msg)                                              \
  do {                                                                          \
    if (!(expr)) ::obscorr::detail::throw_require(msg);                         \
  } while (false)

/// Validate an internal invariant; throws obscorr::InternalError with
/// the failed expression and its source location, as it marks a bug.
#define OBSCORR_INVARIANT(expr)                                                 \
  do {                                                                          \
    if (!(expr)) ::obscorr::detail::throw_invariant(#expr, __FILE__, __LINE__); \
  } while (false)
