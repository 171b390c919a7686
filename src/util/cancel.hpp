// Cooperative per-job cancellation for the serving layer.
//
// util/interrupt.hpp carries exactly one process-global flag (Ctrl-C); a
// server needs one cancellation channel *per job* so that a client
// disconnect or an expired per-job deadline aborts that job alone while the
// rest of the queue keeps executing. A CancelToken is that channel: the
// connection/admission side calls cancel() or set_deadline(), and the
// compute side polls throw_if_cancelled() at every unit dispatch
// (search::UnitScheduler), which is the same granularity the global
// interrupt uses. Cancellation is therefore prompt to within one running
// unit, and a
// partially executed job leaves its completed units in the result cache —
// a retry resumes instead of recomputing.
#pragma once

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <string>

#include "util/deadline.hpp"

namespace qhdl::util {

/// Thrown by throw_if_cancelled(). Derives from std::runtime_error so
/// generic error handling may absorb it, but the serving layer catches it
/// explicitly to distinguish "cancelled" replies from "failed" ones.
class Cancelled : public std::runtime_error {
 public:
  explicit Cancelled(const std::string& reason)
      : std::runtime_error("cancelled: " + reason) {}
};

/// One job's cancellation channel: an explicit flag (first cancel() wins)
/// plus an optional wall-clock deadline. All methods are thread-safe; the
/// not-cancelled fast path is one relaxed atomic load.
class CancelToken {
 public:
  /// Requests cancellation. Idempotent; the first reason is kept.
  void cancel(const std::string& reason);

  /// Arms (or replaces) the wall-clock deadline; expiry counts as
  /// cancellation with reason "deadline exceeded".
  void set_deadline(Deadline deadline);

  bool cancelled() const;

  /// Why the token is cancelled ("" when it is not).
  std::string reason() const;

  /// Throws Cancelled{reason()} when cancelled; otherwise a no-op.
  void throw_if_cancelled() const;

  /// True when cancellation was caused by the deadline rather than an
  /// explicit cancel() call.
  bool deadline_expired() const;

 private:
  mutable std::mutex mutex_;
  std::atomic<bool> flag_{false};
  Deadline deadline_{};  // never expires by default
  std::string reason_;
};

/// Null-tolerant helper for call sites that thread an optional token.
inline void throw_if_cancelled(const CancelToken* token) {
  if (token != nullptr) token->throw_if_cancelled();
}

}  // namespace qhdl::util
