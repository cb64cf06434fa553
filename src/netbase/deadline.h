// A shared wall-clock budget for cooperative cancellation.
//
// The repair engine creates one Deadline for an entire run; every
// per-problem solver call derives its timeout from the remaining budget, so
// N problems cannot each consume the full budget. Deadline is a copyable
// value type (it only stores an expiry instant), so worker threads can hold
// their own copies without synchronization.

#ifndef CPR_SRC_NETBASE_DEADLINE_H_
#define CPR_SRC_NETBASE_DEADLINE_H_

#include <algorithm>
#include <chrono>
#include <limits>

namespace cpr {

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  // Default-constructed deadlines never expire.
  Deadline() = default;

  static Deadline Never() { return Deadline(); }

  // A deadline `seconds` from now; <= 0 means unbounded (the convention of
  // solver timeouts and cprd's default budget).
  static Deadline After(double seconds) {
    Deadline deadline;
    if (seconds > 0) {
      deadline.bounded_ = true;
      deadline.at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
    }
    return deadline;
  }

  // A deadline that has already passed. This is how "zero budget" is spelled
  // explicitly: After(0) means unbounded, but a server that computes
  // `remaining = budget - elapsed` and lands on <= 0 must produce a deadline
  // that is expired, not one that never expires.
  static Deadline Exhausted() {
    Deadline deadline;
    deadline.bounded_ = true;
    deadline.at_ = Clock::time_point::min();
    return deadline;
  }

  // Remaining budget as a deadline: seconds > 0 behaves like After();
  // seconds <= 0 is an exhausted (already expired) budget. Distinct from
  // After() because callers subtracting elapsed time from a budget must
  // never have an overdrawn budget flip to "unbounded".
  static Deadline FromBudget(double seconds) {
    return seconds > 0 ? After(seconds) : Exhausted();
  }

  bool unbounded() const { return !bounded_; }

  bool Expired() const { return bounded_ && Clock::now() >= at_; }

  // Seconds until expiry, clamped at 0; +infinity when unbounded.
  double RemainingSeconds() const {
    if (!bounded_) {
      return std::numeric_limits<double>::infinity();
    }
    Clock::time_point now = Clock::now();
    if (now >= at_) {
      // Checked before subtracting: Exhausted()'s time_point::min() would
      // overflow the duration arithmetic below.
      return 0.0;
    }
    return std::chrono::duration<double>(at_ - now).count();
  }

  // Per-call solver timeout: the smaller of `cap` (<= 0 meaning "no cap")
  // and the remaining budget. A bounded deadline never yields <= 0 (which
  // backends would read as "unbounded"); an exhausted budget clamps to a
  // millisecond so the solver call returns kTimeout immediately.
  double ClampTimeout(double cap) const {
    if (!bounded_) {
      return cap;
    }
    double remaining = std::max(RemainingSeconds(), 1e-3);
    return cap > 0 ? std::min(cap, remaining) : remaining;
  }

 private:
  bool bounded_ = false;
  Clock::time_point at_{};
};

}  // namespace cpr

#endif  // CPR_SRC_NETBASE_DEADLINE_H_
