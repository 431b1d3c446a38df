#include "timeseries/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace atm::ts {

double mean(std::span<const double> xs) {
    if (xs.empty()) return 0.0;
    return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
    if (xs.size() < 1) return 0.0;
    const double m = mean(xs);
    double acc = 0.0;
    for (double x : xs) acc += (x - m) * (x - m);
    return acc / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double covariance(std::span<const double> xs, std::span<const double> ys) {
    assert(xs.size() == ys.size());
    if (xs.empty()) return 0.0;
    const double mx = mean(xs);
    const double my = mean(ys);
    double acc = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) acc += (xs[i] - mx) * (ys[i] - my);
    return acc / static_cast<double>(xs.size());
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
    assert(xs.size() == ys.size());
    const double sx = stddev(xs);
    const double sy = stddev(ys);
    if (sx <= 0.0 || sy <= 0.0) return 0.0;
    return covariance(xs, ys) / (sx * sy);
}

double quantile(std::span<const double> xs, double q) {
    if (xs.empty()) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    std::vector<double> sorted(xs.begin(), xs.end());
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = static_cast<std::size_t>(std::ceil(pos));
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

Summary summarize(std::span<const double> xs) {
    Summary s;
    s.count = xs.size();
    if (xs.empty()) return s;
    std::vector<double> sorted(xs.begin(), xs.end());
    std::sort(sorted.begin(), sorted.end());
    auto at = [&](double q) {
        const double pos = q * static_cast<double>(sorted.size() - 1);
        const auto lo = static_cast<std::size_t>(std::floor(pos));
        const auto hi = static_cast<std::size_t>(std::ceil(pos));
        const double frac = pos - static_cast<double>(lo);
        return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
    };
    s.min = sorted.front();
    s.max = sorted.back();
    s.p25 = at(0.25);
    s.median = at(0.5);
    s.p75 = at(0.75);
    s.mean = mean(xs);
    s.stddev = stddev(xs);
    return s;
}

double mean_absolute_percentage_error(std::span<const double> actual,
                                      std::span<const double> fitted,
                                      double eps) {
    assert(actual.size() == fitted.size());
    double acc = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < actual.size(); ++i) {
        if (std::abs(actual[i]) < eps) continue;
        acc += std::abs(actual[i] - fitted[i]) / std::abs(actual[i]);
        ++n;
    }
    return n == 0 ? 0.0 : acc / static_cast<double>(n);
}

}  // namespace atm::ts
