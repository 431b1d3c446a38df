#pragma once

// Shared helpers for the figure-regeneration benches. Every bench accepts
// scale knobs via environment variables (ATM_BOXES, ATM_SEED, ...) so a
// paper-scale run (6000 boxes) is one env var away from the fast default.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/io.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "timeseries/cdf.hpp"
#include "timeseries/stats.hpp"

namespace atm::bench {

/// Schema tag stamped on every bench JSON artifact (BENCH_*.json).
inline constexpr const char* kBenchSchema = "atm.bench.v1";

/// Serializes `doc` to `path` (pretty-printed, trailing newline) so bench
/// runs leave a machine-readable perf trajectory next to the binary.
/// Written atomically (temp + rename), so an interrupted bench never
/// leaves a truncated artifact. Throws std::runtime_error on failure.
inline void write_json_file(const std::string& path,
                            const obs::json::Value& doc) {
    exec::write_file_atomic(path, obs::json::serialize(doc, 2) + '\n');
}

/// Integer knob from the environment with a default.
inline int env_int(const char* name, int fallback) {
    const char* value = std::getenv(name);
    return value == nullptr ? fallback : std::atoi(value);
}

inline double env_double(const char* name, double fallback) {
    const char* value = std::getenv(name);
    return value == nullptr ? fallback : std::atof(value);
}

/// Prints a figure banner with the paper reference values for comparison.
inline void banner(const char* figure, const char* paper_says) {
    std::printf("==============================================================\n");
    std::printf("%s\n", figure);
    std::printf("paper: %s\n", paper_says);
    std::printf("==============================================================\n");
}

/// Prints a box-plot style summary row (the paper's Fig. 6/7 box plots).
inline void print_summary_row(const std::string& label,
                              std::span<const double> values) {
    const ts::Summary s = ts::summarize(values);
    std::printf("%-28s p25=%7.2f median=%7.2f p75=%7.2f mean=%7.2f "
                "min=%7.2f max=%7.2f (n=%zu)\n",
                label.c_str(), s.p25, s.median, s.p75, s.mean, s.min, s.max,
                s.count);
}

/// Prints an empirical CDF as (x, F) rows, `points` rows.
inline void print_cdf(const std::string& label, std::span<const double> values,
                      int points = 11) {
    const ts::EmpiricalCdf cdf(values);
    std::printf("%s CDF (n=%zu):\n", label.c_str(), cdf.sample_count());
    for (const auto& p : cdf.grid(points)) {
        std::printf("  x=%8.3f  F=%.3f\n", p.x, p.f);
    }
}

/// Prints the per-stage timer breakdown of a metrics snapshot (every
/// timer named `stage.*`), sorted by total time, plus the headline work
/// counters. Feed it FleetResult::metrics from a collect_metrics run.
inline void print_stage_breakdown(const obs::MetricsSnapshot& metrics) {
    std::vector<std::pair<std::string, obs::TimerStat>> stages;
    double total = 0.0;
    for (const auto& [name, stat] : metrics.timers) {
        if (name.rfind("stage.", 0) != 0) continue;
        stages.emplace_back(name, stat);
        total += stat.total_seconds();
    }
    if (stages.empty()) {
        std::printf("(no stage metrics collected)\n");
        return;
    }
    std::sort(stages.begin(), stages.end(), [](const auto& a, const auto& b) {
        return a.second.total_ns > b.second.total_ns;
    });
    std::printf("stage breakdown (CPU-side wall per stage, all boxes):\n");
    for (const auto& [name, stat] : stages) {
        std::printf("  %-20s %8.3fs %5.1f%%  (n=%llu)\n", name.c_str() + 6,
                    stat.total_seconds(),
                    total > 0.0 ? 100.0 * stat.total_seconds() / total : 0.0,
                    static_cast<unsigned long long>(stat.count));
    }
    const auto counter = [&metrics](const char* name) {
        return static_cast<unsigned long long>(metrics.counter(name));
    };
    std::printf("  dtw cells=%llu  "
                "vif iters=%llu  mlp epochs=%llu  mckp iters=%llu\n",
                counter("cluster.dtw.cells"), counter("linalg.vif.iterations"), counter("forecast.mlp.epochs"),
                counter("resize.mckp.greedy_iterations"));
}

}  // namespace atm::bench
