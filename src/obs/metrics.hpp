#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace atm::obs {

/// Aggregate of ScopedTimer durations under one name. All fields are
/// integers, so merging per-box snapshots is exact and
/// order-independent — but the *values* depend on machine load, which is
/// why timers are excluded from the determinism contract (DESIGN.md).
struct TimerStat {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t min_ns = 0;
    std::uint64_t max_ns = 0;

    void record(std::uint64_t ns);
    void merge(const TimerStat& other);
    [[nodiscard]] double total_seconds() const {
        return static_cast<double>(total_ns) * 1e-9;
    }
};

/// Fixed-bucket histogram: `bounds` are ascending upper bucket edges;
/// `counts` has bounds.size() + 1 entries (the last bucket is open to
/// +infinity). Two histograms under the same name must share bounds, which
/// makes merging a plain element-wise sum — the property that lets
/// per-box snapshots combine into a fleet view.
struct HistogramSnapshot {
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    void record(double value);
    /// Throws std::invalid_argument on bucket-bound mismatch.
    void merge(const HistogramSnapshot& other);
    /// Quantile estimate for p in [0, 1] by linear interpolation inside
    /// the covering bucket, clamped to the observed [min, max]. Returns 0
    /// for an empty histogram.
    [[nodiscard]] double percentile(double p) const;
    [[nodiscard]] double mean() const {
        return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
};

/// Point-in-time view of a registry (or a merge of several): plain maps,
/// ordered by name so serialization is deterministic.
struct MetricsSnapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, TimerStat> timers;
    std::map<std::string, HistogramSnapshot> histograms;

    /// Counters and timers add; histograms bucket-sum; gauges take the
    /// other side's value (callers merge in a deterministic order).
    void merge(const MetricsSnapshot& other);
    [[nodiscard]] bool empty() const {
        return counters.empty() && gauges.empty() && timers.empty() &&
               histograms.empty();
    }
    /// Counter value, 0 when absent (test/report convenience).
    [[nodiscard]] std::uint64_t counter(const std::string& name) const;
};

/// Default histogram bucket edges: a 1-2-5 grid from 1e-3 to 100,
/// suitable for the ratios (APE) and seconds the pipeline observes.
std::span<const double> default_histogram_bounds();

/// Thread-safe metrics registry: one mutex-guarded store.
///
/// Pipeline registries have a single writer — each fleet box owns one and
/// only the worker running the box records into it. The mutex is there
/// for the registries that do see concurrent writers (the `atmd` daemon's
/// transport registry, fed by every connection's reader thread) and for
/// `snapshot()` taken while writers are live; uncontended, it costs one
/// lock/unlock per record.
///
/// Instrumentation is off when an instrumentation site gets a null
/// `MetricsRegistry*`, which costs a pointer test only.
///
/// Determinism: counter merges are exact integer sums, so deterministic
/// instrumentation (cell counts, cache hits, iterations) is bit-identical
/// regardless of worker count or merge order. Gauges and histogram `sum`
/// are only deterministic when written from a single thread per
/// registry — the convention all pipeline instrumentation follows.
class MetricsRegistry {
public:
    MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /// Adds `delta` to the named monotonic counter.
    void add(std::string_view name, std::uint64_t delta = 1);
    /// Sets the named gauge to `value` (last write wins).
    void set_gauge(std::string_view name, double value);
    /// Records one observation into the named histogram. `bounds` is used
    /// only when the histogram is first created; empty selects
    /// `default_histogram_bounds()`. All observers of one name must use
    /// the same bounds.
    void observe(std::string_view name, double value,
                 std::span<const double> bounds = {});
    /// Records one duration into the named timer aggregate.
    void record_ns(std::string_view name, std::uint64_t ns);

    /// Copies the store into one snapshot. Safe to call while other
    /// threads are still recording (each op holds the mutex); for a
    /// quiescent-point snapshot, call after joining/fencing writers.
    [[nodiscard]] MetricsSnapshot snapshot() const;

private:
    mutable std::mutex mutex_;
    std::unordered_map<std::string, std::uint64_t> counters_;
    std::unordered_map<std::string, double> gauges_;
    std::unordered_map<std::string, TimerStat> timers_;
    std::unordered_map<std::string, HistogramSnapshot> histograms_;
};

/// RAII span timer: records the elapsed wall time into
/// `registry->record_ns(name)` on destruction (or an explicit `stop()`).
/// A null registry makes construction and destruction no-ops (no clock
/// reads).
class ScopedTimer {
public:
    ScopedTimer(MetricsRegistry* registry, std::string name);
    ~ScopedTimer() { stop(); }

    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

    /// Records now instead of at scope exit; further calls are no-ops.
    void stop();

private:
    MetricsRegistry* registry_;
    std::string name_;
    std::chrono::steady_clock::time_point start_;
    bool armed_;
};

}  // namespace atm::obs
