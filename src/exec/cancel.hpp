#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace atm::exec {

/// Thrown by CancellationToken::check at a cooperative cancellation point;
/// what() names the point ("cancelled at search.dtw"). Deliberately NOT a
/// core::PipelineError (exec cannot depend on core): serve catches it to
/// shed the rest of a window's work (DESIGN.md §7.12).
class OperationCancelled : public std::runtime_error {
  public:
    explicit OperationCancelled(const char* where)
        : std::runtime_error(std::string("cancelled at ") + where) {}
};

/// Cooperative cancellation: long-running stages poll `check()` at loop
/// boundaries; anyone holding the token can `cancel()` it. Lock-free —
/// `cancel()` is a single atomic store, safe from other threads or a
/// signal handler (std::atomic<bool> is lock-free on every platform we
/// target). A token can also carry a wall-clock deadline: once armed,
/// `check()` trips itself when steady_clock passes the deadline, so no
/// watchdog thread is needed.
class CancellationToken {
  public:
    CancellationToken() = default;
    CancellationToken(const CancellationToken&) = delete;
    CancellationToken& operator=(const CancellationToken&) = delete;

    /// Trips the token; it stays tripped.
    void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }

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

    /// True once cancelled. Observing an armed token past its deadline
    /// trips it (so the trip is seen by whoever reads next, with no
    /// watchdog thread).
    [[nodiscard]] bool cancelled() const noexcept {
        if (cancelled_.load(std::memory_order_acquire)) return true;
        const std::int64_t deadline = deadline_ns_.load(std::memory_order_acquire);
        if (deadline == 0 || now_ns() < deadline) return false;
        cancelled_.store(true, std::memory_order_release);
        return true;
    }

    /// Cancellation point: throws OperationCancelled when tripped. `where`
    /// names the point; keep it a string literal.
    void check(const char* where) const {
        if (cancelled()) throw OperationCancelled(where);
    }

  private:
    static std::int64_t now_ns() noexcept {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    /// Mutable: observing an expired deadline latches the trip even
    /// through const access.
    mutable std::atomic<bool> cancelled_{false};
    /// steady_clock deadline in ns since its epoch; 0 = no deadline.
    std::atomic<std::int64_t> deadline_ns_{0};
};

/// Null-tolerant cancellation point: callers thread an optional
/// `const CancellationToken*` through the long loops, and a null token
/// makes this a single pointer test (the clean path stays at zero
/// overhead).
inline void checkpoint(const CancellationToken* token, const char* where) {
    if (token != nullptr) token->check(where);
}

}  // namespace atm::exec
