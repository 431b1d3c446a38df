#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace atm::obs {

// ------------------------------------------------------------- TimerStat

void TimerStat::record(std::uint64_t ns) {
    if (count == 0) {
        min_ns = ns;
        max_ns = ns;
    } else {
        min_ns = std::min(min_ns, ns);
        max_ns = std::max(max_ns, ns);
    }
    ++count;
    total_ns += ns;
}

void TimerStat::merge(const TimerStat& other) {
    if (other.count == 0) return;
    if (count == 0) {
        *this = other;
        return;
    }
    min_ns = std::min(min_ns, other.min_ns);
    max_ns = std::max(max_ns, other.max_ns);
    count += other.count;
    total_ns += other.total_ns;
}

// ----------------------------------------------------- HistogramSnapshot

void HistogramSnapshot::record(double value) {
    if (counts.size() != bounds.size() + 1) counts.assign(bounds.size() + 1, 0);
    const auto bucket = static_cast<std::size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), value) - bounds.begin());
    ++counts[bucket];
    if (count == 0) {
        min = value;
        max = value;
    } else {
        min = std::min(min, value);
        max = std::max(max, value);
    }
    ++count;
    sum += value;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
    if (!bounds.empty() && !other.bounds.empty() && bounds != other.bounds) {
        throw std::invalid_argument(
            "HistogramSnapshot::merge: bucket bounds differ");
    }
    if (other.count == 0) return;
    if (count == 0) {
        *this = other;
        return;
    }
    for (std::size_t k = 0; k < counts.size(); ++k) counts[k] += other.counts[k];
    min = std::min(min, other.min);
    max = std::max(max, other.max);
    count += other.count;
    sum += other.sum;
}

double HistogramSnapshot::percentile(double p) const {
    if (count == 0) return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    const double target = p * static_cast<double>(count);
    std::uint64_t cumulative = 0;
    for (std::size_t k = 0; k < counts.size(); ++k) {
        if (counts[k] == 0) continue;
        const double before = static_cast<double>(cumulative);
        cumulative += counts[k];
        if (static_cast<double>(cumulative) < target) continue;
        // Interpolate inside bucket k, clamped to the observed range (the
        // first/last buckets have no finite edge of their own).
        double lo = k == 0 ? min : bounds[k - 1];
        double hi = k < bounds.size() ? bounds[k] : max;
        lo = std::max(lo, min);
        hi = std::min(hi, max);
        if (hi < lo) hi = lo;
        const double frac =
            counts[k] == 0 ? 0.0
                           : (target - before) / static_cast<double>(counts[k]);
        return lo + frac * (hi - lo);
    }
    return max;
}

// ------------------------------------------------------- MetricsSnapshot

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
    for (const auto& [name, value] : other.counters) counters[name] += value;
    for (const auto& [name, value] : other.gauges) gauges[name] = value;
    for (const auto& [name, stat] : other.timers) timers[name].merge(stat);
    for (const auto& [name, hist] : other.histograms) {
        histograms[name].merge(hist);
    }
}

std::uint64_t MetricsSnapshot::counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

std::span<const double> default_histogram_bounds() {
    static const std::vector<double> kBounds{
        1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 0.1, 0.2, 0.5,
        1.0,  2.0,  5.0,  10.0, 20.0, 50.0, 100.0};
    return kBounds;
}

// ------------------------------------------------------- MetricsRegistry

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[std::string(name)] += delta;
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
    std::lock_guard<std::mutex> lock(mutex_);
    gauges_[std::string(name)] = value;
}

void MetricsRegistry::observe(std::string_view name, double value,
                              std::span<const double> bounds) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = histograms_.try_emplace(std::string(name));
    if (inserted) {
        const std::span<const double> chosen =
            bounds.empty() ? default_histogram_bounds() : bounds;
        it->second.bounds.assign(chosen.begin(), chosen.end());
        it->second.counts.assign(it->second.bounds.size() + 1, 0);
    }
    it->second.record(value);
}

void MetricsRegistry::record_ns(std::string_view name, std::uint64_t ns) {
    std::lock_guard<std::mutex> lock(mutex_);
    timers_[std::string(name)].record(ns);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
    MetricsSnapshot out;
    std::lock_guard<std::mutex> lock(mutex_);
    out.counters.insert(counters_.begin(), counters_.end());
    out.gauges.insert(gauges_.begin(), gauges_.end());
    out.timers.insert(timers_.begin(), timers_.end());
    out.histograms.insert(histograms_.begin(), histograms_.end());
    return out;
}

// ----------------------------------------------------------- ScopedTimer

ScopedTimer::ScopedTimer(MetricsRegistry* registry, std::string name)
    : registry_(registry), name_(std::move(name)),
      armed_(registry != nullptr) {
    if (armed_) start_ = std::chrono::steady_clock::now();
}

void ScopedTimer::stop() {
    if (!armed_) return;
    armed_ = false;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    registry_->record_ns(
        name_, static_cast<std::uint64_t>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                       .count()));
}

}  // namespace atm::obs
