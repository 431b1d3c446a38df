#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace atm::exec {

/// Why a CancellationToken tripped. The first cause wins: once a token is
/// cancelled its reason never changes, so a box that hit its deadline is
/// reported as deadline-exceeded even if an operator stop follows.
enum class CancelReason : int {
    kNone = 0,
    kStop = 1,      ///< operator-requested drain (SIGINT in the CLI)
    kDeadline = 2,  ///< per-box wall-clock deadline expired
};

inline const char* to_string(CancelReason reason) {
    switch (reason) {
        case CancelReason::kNone: return "none";
        case CancelReason::kStop: return "stop";
        case CancelReason::kDeadline: return "deadline";
    }
    return "unknown";
}

/// Thrown by CancellationToken::check at a cooperative cancellation point.
/// Deliberately NOT a core::PipelineError (exec cannot depend on core); the
/// fleet driver maps kDeadline to PipelineErrorCode::kDeadlineExceeded and
/// kStop to kCancelled, recording `where` as the stage.
class OperationCancelled : public std::runtime_error {
  public:
    OperationCancelled(CancelReason reason, std::string where)
        : std::runtime_error(std::string("cancelled (") + to_string(reason) +
                             ") at " + where),
          reason_(reason),
          where_(std::move(where)) {}

    [[nodiscard]] CancelReason reason() const { return reason_; }
    /// The cancellation point that observed the trip ("forecast.mlp.epoch",
    /// "search.dtw", ...).
    [[nodiscard]] const std::string& where() const { return where_; }

  private:
    CancelReason reason_;
    std::string where_;
};

/// Cooperative cancellation: long-running stages poll `check()` at loop
/// boundaries; anyone holding the token can `cancel()` it. Lock-free —
/// `cancel()` is a single atomic CAS, safe from other threads or a signal
/// handler (std::atomic<int> is lock-free on every platform we target).
/// A token can also carry a wall-clock deadline: once armed, `check()`
/// trips itself when steady_clock passes the deadline, so no watchdog
/// thread is needed.
class CancellationToken {
  public:
    CancellationToken() = default;
    CancellationToken(const CancellationToken&) = delete;
    CancellationToken& operator=(const CancellationToken&) = delete;

    /// Trips the token. First reason wins; later calls are no-ops.
    void cancel(CancelReason reason) noexcept {
        int expected = 0;
        state_.compare_exchange_strong(expected, static_cast<int>(reason),
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire);
    }

    /// Arms (or re-arms) a deadline `seconds` from now; <= 0 (or NaN)
    /// disarms. The budget saturates at 2^62 ns (about 146 years), so a
    /// huge or infinite budget arms a deadline that never trips in
    /// practice instead of overflowing into one that trips at once.
    void arm_deadline_after(double seconds) noexcept {
        if (!(seconds > 0.0)) {
            deadline_ns_.store(0, std::memory_order_release);
            return;
        }
        constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
        // Capped below 2^62 before the cast, so the cast stays defined and
        // `kNever - budget` cannot overflow.
        const double ns = seconds * 1e9;
        const std::int64_t budget = ns < 0x1p62 ? static_cast<std::int64_t>(ns)
                                                : std::int64_t{1} << 62;
        const std::int64_t now = now_ns();
        deadline_ns_.store(now > kNever - budget ? kNever : now + budget,
                           std::memory_order_release);
    }

    /// Current reason; kNone while the token is live. Reading the reason of
    /// an armed token past its deadline trips it (so the trip is observed
    /// by whoever reads next, with no watchdog thread).
    [[nodiscard]] CancelReason reason() const noexcept {
        int state = state_.load(std::memory_order_acquire);
        if (state == 0) {
            const std::int64_t deadline =
                deadline_ns_.load(std::memory_order_acquire);
            if (deadline != 0 && now_ns() >= deadline) {
                int expected = 0;
                state_.compare_exchange_strong(
                    expected, static_cast<int>(CancelReason::kDeadline),
                    std::memory_order_acq_rel, std::memory_order_acquire);
                state = state_.load(std::memory_order_acquire);
            }
        }
        return static_cast<CancelReason>(state);
    }

    [[nodiscard]] bool cancelled() const noexcept {
        return reason() != CancelReason::kNone;
    }

    /// Cancellation point: throws OperationCancelled when tripped. `where`
    /// names the point for the error stage; keep it a string literal.
    void check(const char* where) const {
        const CancelReason r = reason();
        if (r != CancelReason::kNone) throw OperationCancelled(r, where);
    }

  private:
    static std::int64_t now_ns() noexcept {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    /// 0 while live, else the CancelReason. Mutable: observing an expired
    /// deadline latches the trip even through const access.
    mutable std::atomic<int> state_{0};
    /// steady_clock deadline in ns since its epoch; 0 = no deadline.
    std::atomic<std::int64_t> deadline_ns_{0};
};

/// Null-tolerant cancellation point: the pipeline threads an optional
/// `const CancellationToken*` through its stages, and a null token makes
/// this a single pointer test (the clean path stays at zero overhead).
inline void checkpoint(const CancellationToken* token, const char* where) {
    if (token != nullptr) token->check(where);
}

}  // namespace atm::exec
