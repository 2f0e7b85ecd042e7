// Cooperative deadlines and cancellation for long-running solver stages.
//
// The solver never preempts work: stages poll an ExecContext at natural
// checkpoints (per decomposition frame, every few thousand DP merges, per
// parallel_for item) and unwind with a typed SolveError when the budget is
// gone.  Deadline reads the clock, so hot loops go through PeriodicCheck,
// which amortizes the clock read over a stride of iterations while still
// noticing cancellation on every tick.
//
// Concurrency: nothing here blocks or locks — Deadline is immutable after
// construction and CancelToken is a single release/acquire atomic — so
// this header sits outside the capability layer of util/sync.hpp.  One
// caveat the analysis cannot see: when a CancelToken's flag is the
// predicate of a condition-variable wait (the service's backoff sleep),
// the *store* must still happen under the waiter's mutex; see the
// lost-wakeup rule in util/sync.hpp.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "util/status.hpp"

namespace hgp {

/// A point on the steady clock after which work should stop.  The default
/// instance never expires.
///
/// Thread-safety: a Deadline is immutable after construction, so any
/// number of threads may call the const observers concurrently (the TSan
/// stress test shares one across a pool); re-assigning a shared Deadline
/// while workers poll it is the caller's race to avoid.
class Deadline {
 public:
  Deadline() = default;

  static Deadline never() { return Deadline(); }

  /// Expires `ms` milliseconds from now (ms <= 0 expires immediately).
  /// Arithmetic saturates instead of overflowing: a budget too large for
  /// the clock's representation (e.g. --timeout-ms near int64 max, or a
  /// non-finite value) pins the expiry at Clock::time_point::max(), which
  /// behaves like "never expires in this process's lifetime".
  static Deadline after_ms(double ms) {
    Deadline d;
    d.armed_ = true;
    const auto now = Clock::now();
    // Largest millisecond count that still fits the clock's duration once
    // added to `now` (duration_cast of anything larger is UB-adjacent
    // int64 overflow, which UBSan rightly traps).
    const double headroom_ms =
        std::chrono::duration<double, std::milli>(Clock::time_point::max() -
                                                  now)
            .count();
    if (!(ms < headroom_ms)) {  // also catches NaN and +inf
      d.at_ = Clock::time_point::max();
      return d;
    }
    d.at_ = now + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(ms));
    return d;
  }

  bool is_never() const { return !armed_; }

  bool expired() const { return armed_ && Clock::now() >= at_; }

  /// Milliseconds until expiry (clamped at 0 once past, +inf when never).
  /// Never negative: callers size sleeps and sub-budgets from this value,
  /// and a negative duration handed to a wait API is at best confusing and
  /// at worst an overflow when converted to an unsigned count.
  double remaining_ms() const {
    if (!armed_) return std::numeric_limits<double>::infinity();
    const double left =
        std::chrono::duration<double, std::milli>(at_ - Clock::now()).count();
    return left > 0 ? left : 0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point at_{};
  bool armed_ = false;
};

/// A thread-safe one-way flag the caller flips to stop a solve in flight.
/// Share by pointer; the token must outlive the work observing it.
///
/// Release/acquire ordering (not relaxed): everything the cancelling
/// thread wrote before request_cancel() — the reason it cancelled, a
/// replacement work item — is visible to a worker that observes the flag,
/// so observers may act on that state without extra synchronization.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void request_cancel() { cancelled_.store(true, std::memory_order_release); }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// The pair (deadline, cancel token) threaded through solver stages.
/// Copyable and cheap; a default-constructed context is unconstrained, and
/// a null pointer wherever an ExecContext* is accepted means the same.
struct ExecContext {
  Deadline deadline;
  const CancelToken* cancel = nullptr;

  /// The context of a solve with a `timeout_ms` budget (0 = unbounded).
  static ExecContext with_budget(double timeout_ms,
                                 const CancelToken* cancel) {
    return {timeout_ms > 0 ? Deadline::after_ms(timeout_ms)
                           : Deadline::never(),
            cancel};
  }

  bool cancelled() const { return cancel != nullptr && cancel->cancelled(); }

  /// Throws SolveError{kCancelled|kDeadlineExceeded} when the budget is
  /// gone.  Cancellation wins ties: a caller that cancels wants silence,
  /// not a deadline report.
  void check(const char* where) const {
    if (cancelled()) {
      throw SolveError(StatusCode::kCancelled,
                       std::string("cancelled during ") + where);
    }
    if (deadline.expired()) {
      throw SolveError(StatusCode::kDeadlineExceeded,
                       std::string("deadline expired during ") + where);
    }
  }
};

/// Amortized ExecContext polling for hot loops: cancellation (an atomic
/// load) is checked on every tick, the deadline clock only every `stride`
/// ticks.  A null context makes every tick a branch on a constant.
class PeriodicCheck {
 public:
  explicit PeriodicCheck(const ExecContext* ctx, const char* where,
                         std::uint32_t stride = 1024)
      : ctx_(ctx), where_(where), stride_(stride == 0 ? 1 : stride) {}

  /// `n` ticks at once (one by default), for loops that batch their work:
  /// cancellation is read once per call, and the deadline is checked in
  /// the call that completes the stride — the one in which the stride-th
  /// single tick would have fallen.  The remainder carries over, so the
  /// cadence matches n single ticks however the work is batched.
  void tick(std::size_t n = 1) {
    if (ctx_ == nullptr) return;
    if (ctx_->cancelled()) ctx_->check(where_);
    count_ += n;
    if (count_ >= stride_) {
      count_ %= stride_;
      ctx_->check(where_);
    }
  }

 private:
  const ExecContext* ctx_;
  const char* where_;
  std::size_t stride_;
  std::size_t count_ = 0;
};

}  // namespace hgp
