// Fleet-executor scaling study: wall-clock of the full ATM pipeline over
// a box population at increasing worker counts, against the legacy
// serial loop (run_pipeline_on_box per box, one thread, no helper threads).
//
// Prints per-jobs wall time, throughput (boxes/sec), speedup over
// serial, and verifies that the fleet aggregates are bit-identical at
// every worker count — the executor's determinism contract. The same
// rows are written as a JSON perf-trajectory artifact (schema
// atm.bench.v1) to ATM_BENCH_JSON (default BENCH_fleet.json) so CI and
// before/after comparisons can diff machine-readable numbers.
//
// The largest multi-worker row whose worker count fits the machine is
// additionally *asserted*: its speedup over jobs=1 must clear a floor
// scaled to the hardware (>=8 threads: 2.0x, >=4: 1.6x, >=2: 1.1x,
// single-core: 0.75x — i.e. scheduling overhead must stay small even
// where no parallel speedup is physically possible). A violation exits
// nonzero so CI catches scaling regressions. ATM_BENCH_MIN_SPEEDUP
// overrides the floor (set 0 to disable).
//
// ATM_PAPER_SCALE=1 appends the paper-scale section: a 6000-box /
// ~80K-VM / 7-day fleet (the population of the DSN'16 datacenter) timed
// at jobs=1 and jobs=8, with peak RSS, written under "paper" in the JSON
// artifact.
//
// Knobs: ATM_BOXES (default 24), ATM_MAX_JOBS (default
// max(8, hardware concurrency) so the sweep exercises oversubscription
// even on small CI runners), ATM_JOBS (explicit comma-separated sweep,
// e.g. ATM_JOBS=1,3,12 — overrides ATM_MAX_JOBS; jobs=1 is always
// prepended as the determinism reference), ATM_SEED, ATM_BENCH_JSON,
// ATM_PAPER_SCALE, ATM_PAPER_BOXES, ATM_BENCH_MIN_SPEEDUP.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench_common.hpp"
#include "core/fleet.hpp"
#include "linalg/simd/simd.hpp"
#include "obs/json.hpp"
#include "tracegen/generator.hpp"

namespace {

/// Jobs sweep: ATM_JOBS comma list if set, else 1 and doubling worker
/// counts up to `max_jobs` (plus max_jobs itself when not a power of
/// two). jobs=1 always leads so later rows have a serial reference.
std::vector<int> sweep_job_counts(int max_jobs) {
    std::vector<int> job_counts;
    if (const char* spec = std::getenv("ATM_JOBS")) {
        std::string token;
        for (const char* c = spec;; ++c) {
            if (*c != '\0' && *c != ',') {
                token.push_back(*c);
                continue;
            }
            if (!token.empty()) {
                const int jobs = std::atoi(token.c_str());
                if (jobs > 0 &&
                    std::find(job_counts.begin(), job_counts.end(), jobs) ==
                        job_counts.end()) {
                    job_counts.push_back(jobs);
                }
                token.clear();
            }
            if (*c == '\0') break;
        }
    } else {
        for (int j = 1; j <= max_jobs; j *= 2) job_counts.push_back(j);
        if (max_jobs > 1 && job_counts.back() != max_jobs) {
            job_counts.push_back(max_jobs);
        }
    }
    if (job_counts.empty() || job_counts.front() != 1) {
        job_counts.erase(
            std::remove(job_counts.begin(), job_counts.end(), 1),
            job_counts.end());
        job_counts.insert(job_counts.begin(), 1);
    }
    return job_counts;
}

/// Peak resident set size of the process so far, in bytes (0 where
/// getrusage is unavailable). Monotone over the process lifetime, so
/// report it after the largest run.
std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage {};
    if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
    return 0;
#endif
}

/// Minimum acceptable speedup of the largest machine-fitting parallel
/// row over jobs=1, scaled to what the hardware can deliver.
double min_speedup_floor(unsigned hw) {
    if (const char* env = std::getenv("ATM_BENCH_MIN_SPEEDUP")) {
        return std::atof(env);
    }
    if (hw >= 8) return 2.0;
    if (hw >= 4) return 1.6;
    if (hw >= 2) return 1.1;
    // Single hardware thread: no speedup is possible; require only that
    // the parallel box loop's overhead stays bounded.
    return 0.75;
}

}  // namespace

int main() {
    using namespace atm;
    bench::banner("Fleet executor — wall-clock scaling vs worker count",
                  "embarrassingly parallel per-box batch; target >=2x at 4 cores");

    trace::TraceGenOptions options;
    options.num_boxes = bench::env_int("ATM_BOXES", 24);
    options.num_days = 6;
    options.gappy_box_fraction = 0.0;
    options.seed = static_cast<std::uint64_t>(bench::env_int("ATM_SEED", 20150403));
    const trace::Trace t = trace::generate_trace(options);

    core::FleetConfig config;
    config.pipeline.search.method = core::ClusteringMethod::kDtw;
    config.pipeline.temporal = forecast::TemporalModel::kNeuralNetwork;
    config.pipeline.train_days = 5;
    config.collect_metrics = true;

    const unsigned hw = std::thread::hardware_concurrency();
    // Default past the physical core count: the executor's contract is
    // determinism at ANY worker count, and oversubscribed rows are the
    // cheap way to shake out schedule-dependent bugs on small runners.
    const int max_jobs = bench::env_int(
        "ATM_MAX_JOBS", std::max(8, hw == 0 ? 1 : static_cast<int>(hw)));

    std::printf("%zu boxes, %u hardware threads, simd=%s\n\n", t.boxes.size(),
                hw, simd::to_string(simd::active_path()));
    std::printf("%6s %10s %11s %9s %s\n", "jobs", "wall(s)", "boxes/sec",
                "speedup", "identical");

    double serial_wall = 0.0;
    core::FleetResult reference;
    const std::vector<int> job_counts = sweep_job_counts(max_jobs);

    // Speedup of the largest parallel row that fits the machine (jobs <=
    // hardware threads) — the row the scaling assertion judges.
    double asserted_speedup = -1.0;
    int asserted_jobs = 0;

    obs::json::Value runs = obs::json::Value::make_array();
    for (const int jobs : job_counts) {
        config.jobs = jobs;
        const core::FleetResult fleet = core::run_pipeline_on_fleet(t, config);
        bool identical = true;
        if (jobs == 1) {
            serial_wall = fleet.wall_seconds;
            reference = fleet;
        } else {
            for (std::size_t b = 0; identical && b < fleet.boxes.size(); ++b) {
                const auto& got = fleet.boxes[b].result;
                const auto& want = reference.boxes[b].result;
                identical = got.ape_all == want.ape_all &&
                            got.ape_peak == want.ape_peak &&
                            got.policies.size() == want.policies.size();
                for (std::size_t p = 0; identical && p < got.policies.size(); ++p) {
                    identical = got.policies[p].cpu_after == want.policies[p].cpu_after &&
                                got.policies[p].ram_after == want.policies[p].ram_after;
                }
            }
        }
        const double speedup =
            serial_wall > 0.0 ? serial_wall / fleet.wall_seconds : 1.0;
        const double boxes_per_sec =
            fleet.wall_seconds > 0.0
                ? static_cast<double>(t.boxes.size()) / fleet.wall_seconds
                : 0.0;
        if (jobs > 1 &&
            (hw < 2 || jobs <= static_cast<int>(hw)) && jobs >= asserted_jobs) {
            asserted_jobs = jobs;
            asserted_speedup = speedup;
        }
        std::printf("%6d %10.2f %11.2f %8.2fx %s\n", jobs, fleet.wall_seconds,
                    boxes_per_sec, speedup,
                    jobs == 1 ? "(reference)" : (identical ? "yes" : "NO"));
        if (!identical) {
            std::fprintf(stderr,
                         "FAIL: jobs=%d results differ from the jobs=1 "
                         "reference\n",
                         jobs);
            return 1;
        }

        obs::json::Value run = obs::json::Value::make_object();
        run.set("jobs", obs::json::Value::of(static_cast<std::int64_t>(jobs)));
        run.set("wall_seconds", obs::json::Value::of(fleet.wall_seconds));
        run.set("boxes_per_sec", obs::json::Value::of(boxes_per_sec));
        run.set("speedup", obs::json::Value::of(speedup));
        run.set("identical", obs::json::Value::of(identical));
        runs.array.push_back(std::move(run));
    }

    std::printf("\n");
    bench::print_stage_breakdown(reference.metrics);

    obs::json::Value doc = obs::json::Value::make_object();
    doc.set("schema", obs::json::Value::of(bench::kBenchSchema));
    doc.set("bench", obs::json::Value::of("fleet_scaling"));
    doc.set("boxes",
            obs::json::Value::of(static_cast<std::uint64_t>(t.boxes.size())));
    doc.set("days",
            obs::json::Value::of(static_cast<std::int64_t>(options.num_days)));
    doc.set("seed", obs::json::Value::of(
                        static_cast<std::uint64_t>(options.seed)));
    doc.set("hardware_threads",
            obs::json::Value::of(static_cast<std::uint64_t>(hw)));
    // Dispatched SIMD kernel path: rows from different ISAs are not
    // comparable wall-clock-for-wall-clock, so stamp the provenance.
    doc.set("simd", obs::json::Value::of(reference.simd_path));
    doc.set("runs", std::move(runs));
    obs::json::Value counters = obs::json::Value::make_object();
    for (const char* name :
         {"cluster.dtw.pairs", "cluster.dtw.cells", "linalg.vif.iterations",
          "forecast.mlp.epochs", "resize.mckp.greedy_iterations"}) {
        counters.set(name,
                     obs::json::Value::of(reference.metrics.counter(name)));
    }
    doc.set("counters", std::move(counters));

    // ---- paper-scale section (opt-in: it is minutes of work) -----------
    if (bench::env_int("ATM_PAPER_SCALE", 0) != 0) {
        trace::TraceGenOptions paper_options;
        paper_options.num_boxes = bench::env_int("ATM_PAPER_BOXES", 6000);
        paper_options.num_days = 7;
        // ~13.3 VMs/box x 6000 boxes ~= the paper's ~80K-VM datacenter.
        paper_options.mean_vms_per_box = 13.3;
        paper_options.gappy_box_fraction = 0.0;
        paper_options.seed = options.seed;
        std::printf("\npaper scale: generating %d boxes x %d days...\n",
                    paper_options.num_boxes, paper_options.num_days);
        const trace::Trace paper_trace = trace::generate_trace(paper_options);
        std::printf("paper scale: %zu boxes / %zu VMs\n", paper_trace.boxes.size(),
                    paper_trace.total_vms());

        core::FleetConfig paper_config = config;
        paper_config.collect_metrics = false;  // pure wall-clock run

        obs::json::Value paper_runs = obs::json::Value::make_array();
        std::printf("%6s %10s %11s %14s\n", "jobs", "wall(s)",
                    "boxes/sec", "peak RSS(MB)");
        std::int64_t paper_cpu_after = -1;
        for (const int jobs : {1, 8}) {
            paper_config.jobs = jobs;
            const core::FleetResult fleet =
                core::run_pipeline_on_fleet(paper_trace, paper_config);
            const double boxes_per_sec =
                fleet.wall_seconds > 0.0
                    ? static_cast<double>(paper_trace.boxes.size()) /
                          fleet.wall_seconds
                    : 0.0;
            const std::uint64_t rss = peak_rss_bytes();
            std::printf("%6d %10.2f %11.2f %14.1f\n", jobs,
                        fleet.wall_seconds, boxes_per_sec,
                        static_cast<double>(rss) / (1024.0 * 1024.0));
            // Cheap cross-jobs identity probe on the aggregate (the small
            // sweep above does the exhaustive per-box comparison).
            const std::int64_t cpu_after =
                fleet.totals.empty() ? 0 : fleet.totals[0].cpu_after;
            if (paper_cpu_after < 0) {
                paper_cpu_after = cpu_after;
            } else if (cpu_after != paper_cpu_after) {
                std::fprintf(stderr,
                             "FAIL: paper-scale jobs=%d aggregate differs\n",
                             jobs);
                return 1;
            }
            obs::json::Value run = obs::json::Value::make_object();
            run.set("jobs",
                    obs::json::Value::of(static_cast<std::int64_t>(jobs)));
            run.set("wall_seconds", obs::json::Value::of(fleet.wall_seconds));
            run.set("boxes_per_sec", obs::json::Value::of(boxes_per_sec));
            run.set("peak_rss_bytes", obs::json::Value::of(rss));
            paper_runs.array.push_back(std::move(run));
        }
        obs::json::Value paper = obs::json::Value::make_object();
        paper.set("boxes", obs::json::Value::of(static_cast<std::uint64_t>(
                               paper_trace.boxes.size())));
        paper.set("vms", obs::json::Value::of(static_cast<std::uint64_t>(
                             paper_trace.total_vms())));
        paper.set("days", obs::json::Value::of(static_cast<std::int64_t>(
                              paper_options.num_days)));
        paper.set("runs", std::move(paper_runs));
        doc.set("paper", std::move(paper));
    }

    const char* out_env = std::getenv("ATM_BENCH_JSON");
    const std::string out_path =
        out_env != nullptr ? out_env : "BENCH_fleet.json";
    bench::write_json_file(out_path, doc);
    std::printf("\nwrote %s\n", out_path.c_str());

    // ---- scaling assertion ---------------------------------------------
    const double floor = min_speedup_floor(hw);
    if (asserted_jobs > 0 && floor > 0.0) {
        std::printf("scaling assertion: jobs=%d speedup %.2fx vs floor %.2fx "
                    "(%u hardware threads)\n",
                    asserted_jobs, asserted_speedup, floor, hw);
        if (asserted_speedup < floor) {
            std::fprintf(stderr,
                         "FAIL: jobs=%d speedup %.2fx is below the %.2fx "
                         "floor for this machine\n",
                         asserted_jobs, asserted_speedup, floor);
            return 1;
        }
    }
    return 0;
}
