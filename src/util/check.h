// Invariant checking macros.
//
// DISCS_CHECK is always on (simulation correctness depends on it; the
// simulator is not a hot inner loop in the HPC sense — the Monte-Carlo
// harness parallelizes whole runs instead).  Failures throw CheckFailure so
// tests can assert on violated invariants instead of aborting the process.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace discs {

/// Thrown when a DISCS_CHECK fails.  Carries the failing expression and
/// location; simulation state is unwound safely because all components use
/// RAII ownership.
class CheckFailure : public std::logic_error {
 public:
  explicit CheckFailure(const std::string& what) : std::logic_error(what) {}
};

/// Throws `Error` (a CheckFailure) carrying the failing expression,
/// location and message.
template <class Error = CheckFailure>
[[noreturn]] void check_failed(const char* expr, const char* file, int line,
                               const std::string& msg) {
  std::ostringstream os;
  os << "DISCS_CHECK failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}

}  // namespace discs

#define DISCS_CHECK(expr)                                        \
  do {                                                           \
    if (!(expr)) {                                               \
      ::discs::check_failed(#expr, __FILE__, __LINE__, "");      \
    }                                                            \
  } while (0)

#define DISCS_CHECK_MSG(expr, msg)                               \
  do {                                                           \
    if (!(expr)) {                                               \
      std::ostringstream discs_os_;                              \
      discs_os_ << msg;                                          \
      ::discs::check_failed(#expr, __FILE__, __LINE__,           \
                            discs_os_.str());                    \
    }                                                            \
  } while (0)
