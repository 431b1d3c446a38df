// perfbench harness: generates a workload's synthetic trace and measures one
// workload through the repository's public entry points (trace loading,
// core::run_pipeline_on_fleet, serve::ServeEngine::apply, the serve
// protocol codec, and ServeClient against a spawned `atm serve`).
//
//   perfbench_harness gen --workload W --seed N --out trace.bin
//   perfbench_harness run --workload W --seed N --seconds S --trace 0|1
//                         --input trace.bin --atm path/to/atm --work dir
//
// `run` prints one JSON line: metrics by name, the deterministic check
// values run.py compares against its goldens, attempted/failed counts and
// the provenance stamp. Any internal inconsistency (a pass that does not
// repeat the first one, a socket recommendation that differs from the
// in-process engine) throws, and the harness exits 1 without a result.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/fleet.hpp"
#include "linalg/simd/simd.hpp"
#include "obs/json.hpp"
#include "serve/protocol.hpp"
#include "serve/serve.hpp"
#include "tracegen/generator.hpp"
#include "tracegen/trace_binary.hpp"

extern char** environ;

namespace {

using namespace atm;
using Clock = std::chrono::steady_clock;
using obs::json::Value;

double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double cpu_seconds() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                      usage.ru_stime.tv_usec);
}

double self_peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// FNV-1a over raw bytes: a bit-exact digest of recommendations.
struct Digest {
    std::uint64_t h = 1469598103934665603ull;
    void bytes(const void* p, std::size_t n) {
        const auto* c = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= c[i];
            h *= 1099511628211ull;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void doubles(const std::vector<double>& v) {
        u64(v.size());
        bytes(v.data(), v.size() * sizeof(double));
    }
    [[nodiscard]] std::string hex() const {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }
};

// ---------------------------------------------------------------------------
// Spans: recorded by the harness around each call into a layer, kept in
// memory and written out when the run ends. Off in untraced runs.

struct Span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;
    int pass = 0;
};

class Tracer {
  public:
    explicit Tracer(bool on) : on_(on) {}
    [[nodiscard]] bool on() const { return on_; }
    void set_pass(int pass) { pass_ = pass; }

    int begin(const char* name, int parent = -1) {
        if (!on_) return -1;
        spans_.push_back({name, now_ms(), 0.0, parent, pass_});
        return static_cast<int>(spans_.size()) - 1;
    }
    void end(int id) {
        if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ms = now_ms();
    }

    /// Self time (span duration minus the time its direct children cover)
    /// summed per layer, the layer being the span name up to its first '.'.
    [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span& s : spans_) {
            if (s.parent >= 0) {
                child[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
            }
        }
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out[s.name.substr(0, s.name.find('.'))] +=
                (s.end_ms - s.start_ms) - child[i];
        }
        return out;
    }

    void write(const std::string& path) const {
        std::ofstream out(path);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            char line[256];
            std::snprintf(line, sizeof line,
                          "{\"id\":%zu,\"name\":\"%s\",\"start_ms\":%.6f,"
                          "\"end_ms\":%.6f,\"parent\":%d,\"pass\":%d}\n",
                          i, s.name.c_str(), s.start_ms, s.end_ms, s.parent,
                          s.pass);
            out << line;
        }
        if (!out) throw std::runtime_error("cannot write spans to " + path);
    }
    [[nodiscard]] std::size_t size() const { return spans_.size(); }

  private:
    [[nodiscard]] double now_ms() const {
        return ms_between(origin_, Clock::now());
    }
    bool on_;
    int pass_ = 0;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

class SpanScope {
  public:
    SpanScope(Tracer& tracer, const char* name, int parent = -1)
        : tracer_(tracer), id_(tracer.begin(name, parent)) {}
    ~SpanScope() { tracer_.end(id_); }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;
    [[nodiscard]] int id() const { return id_; }

  private:
    Tracer& tracer_;
    int id_;
};

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
    const char* name;
    int boxes;
    double gappy_fraction;
    int vms_per_box;  // 0: the generator's default log-normal spread (2-32)
};

// fleet_dtw_wide is the generator's default fleet: 400 boxes whose VM
// counts spread 2-32, so the large boxes set its tail. fleet_cbc_mlp holds
// 48 boxes of exactly 10 VMs (the generator's mean): with the default spread,
// its tail was whichever box drew the most VMs, and over ten seeds its p99
// ranged 150-455 ms. See README.md for why each workload exists.
constexpr Workload kWorkloads[] = {
    {"fleet_cbc_mlp", 48, 0.0, 10},
    {"fleet_dtw_wide", 400, 0.3, 0},
};
// The serve path's input, measured in fleet_cbc_mlp's traced run.
constexpr Workload kServeTrace = {"serve", 12, 0.0, 10};

constexpr int kJobs = 4;
// The serve replay's open loop: one window per box per tick, box b due at
// b/boxes of the way into the tick. At 290 ms a box's slot (24 ms) outlasts
// a warm retrain (13.5 ms, 20 ms when the host runs slow), so a retrain
// burst drains within its tick and the engine stays busy under a fifth of
// the time. With shorter ticks a slow retrain overran its slot and queued
// the next box.
constexpr double kReplayTickMs = 290.0;
constexpr std::uint64_t kReplayTicks = 20;
// Sleep until this close to a window's due time, then spin: timer wake-up
// jitter would otherwise land in the measured latency.
constexpr double kSpinMs = 1.0;

const Workload& find_workload(const std::string& name) {
    for (const Workload& w : kWorkloads) {
        if (name == w.name) return w;
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}

trace::TraceGenOptions gen_options(const Workload& w, std::uint64_t seed) {
    trace::TraceGenOptions o;
    o.num_boxes = w.boxes;
    o.num_days = 7;
    o.seed = seed;
    o.gappy_box_fraction = w.gappy_fraction;
    if (w.vms_per_box > 0) {
        o.mean_vms_per_box = w.vms_per_box;
        o.min_vms_per_box = w.vms_per_box;
        o.max_vms_per_box = w.vms_per_box;
    }
    return o;
}

int worker_count() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? kJobs : std::min<int>(kJobs, static_cast<int>(hw));
}

// The library's search default is DTW; `atm predict` and `atm serve`
// default to CBC, so the CLI-default workloads set it explicitly.
core::FleetConfig fleet_config(const Workload& w) {
    core::FleetConfig c;
    c.jobs = worker_count();
    c.pipeline.search.method = core::ClusteringMethod::kCbc;
    if (std::string(w.name) == "fleet_dtw_wide") {
        c.pipeline.search.method = core::ClusteringMethod::kDtw;
        c.pipeline.temporal = forecast::TemporalModel::kSeasonalNaive;
        c.policies = {resize::ResizePolicy::kAtmGreedy,
                      resize::ResizePolicy::kMaxMinFairness,
                      resize::ResizePolicy::kStingy};
    }
    return c;
}

// ---------------------------------------------------------------------------
// Output

/// Deterministic values a run must repeat exactly, by name.
using Checks = std::map<std::string, std::string>;

struct Result {
    std::map<std::string, double> metrics;
    Checks checks;
    std::map<std::string, Value> info;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

void check_u64(Checks& c, const std::string& name, std::uint64_t v) {
    c[name] = std::to_string(v);
}

/// Doubles that must repeat bit for bit are checked as their bit pattern;
/// the readable value is reported separately.
void check_double(Checks& c, const std::string& name, double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(bits));
    c[name] = buf;
}

double counter_of(const obs::MetricsSnapshot& m, const std::string& name) {
    return static_cast<double>(m.counter(name));
}

double timer_ms(const obs::MetricsSnapshot& m, const std::string& name) {
    const auto it = m.timers.find(name);
    return it == m.timers.end() ? 0.0
                                : static_cast<double>(it->second.total_ns) * 1e-6;
}

// ---------------------------------------------------------------------------
// Set-up: load the binary trace and validate the configuration.

/// Set-up timings: trace load alone, and load plus validation.
struct SetupTimes {
    std::vector<double> load_ms;
    std::vector<double> setup_s;
};

/// Loads and validates the trace `reps` times; keeps the last load.
trace::Trace load_trace_timed(const std::string& path, Tracer& tracer, int reps,
                              const std::function<void(const trace::Trace&)>& validate,
                              SetupTimes& times) {
    trace::Trace out;
    for (int i = 0; i < reps; ++i) {
        out = trace::Trace{};  // one trace in memory at a time
        SpanScope setup(tracer, "bench.setup");
        const auto t0 = Clock::now();
        {
            SpanScope load(tracer, "tracegen.load", setup.id());
            out = trace::read_trace_any_file(path);
        }
        const auto t1 = Clock::now();
        validate(out);
        const auto t2 = Clock::now();
        times.load_ms.push_back(ms_between(t0, t1));
        times.setup_s.push_back(ms_between(t0, t2) * 1e-3);
    }
    return out;
}

// Set-up takes 5-60 ms, so a host slowdown of a few hundred milliseconds
// covers a whole batch of repetitions. Half of them run before the timed
// passes and half after, and the reported time is the fastest of all: the
// repetition the host disturbed least.
constexpr int kSetupRepsEachSide = 20;

// ---------------------------------------------------------------------------
// Fleet workloads

double ticket_reduction_pct(const core::FleetPolicyTotals& t) {
    const double before = static_cast<double>(t.cpu_before + t.ram_before);
    const double after = static_cast<double>(t.cpu_after + t.ram_after);
    return before == 0.0 ? 0.0 : 100.0 * (before - after) / before;
}

/// Deterministic outcome of one fleet pass; every pass must repeat the
/// first exactly.
Checks fleet_checks(const core::FleetResult& r) {
    Checks c;
    check_u64(c, "boxes_evaluated", r.boxes_evaluated());
    check_u64(c, "boxes_failed", r.boxes_failed);
    check_double(c, "mean_ape_all", r.mean_ape_all);
    Digest d;
    for (const core::FleetPolicyTotals& t : r.totals) {
        d.u64(static_cast<std::uint64_t>(t.cpu_before));
        d.u64(static_cast<std::uint64_t>(t.cpu_after));
        d.u64(static_cast<std::uint64_t>(t.ram_before));
        d.u64(static_cast<std::uint64_t>(t.ram_after));
    }
    for (const core::FleetBoxResult& b : r.boxes) {
        for (const auto& row : b.result.predicted_demands) d.doubles(row);
    }
    c["outputs_digest"] = d.hex();
    for (const char* name :
         {"cluster.dtw.pairs", "cluster.dtw.cells", "linalg.vif.iterations",
          "forecast.mlp.fits", "forecast.mlp.epochs",
          "resize.mckp.greedy_iterations", "search.series",
          "search.final_signatures"}) {
        check_u64(c, name, r.metrics.counter(name));
    }
    return c;
}

void run_fleet(const Workload& w, const std::string& input, double seconds,
               Tracer& tracer, Result& res) {
    const core::FleetConfig base = fleet_config(w);
    const auto validate = [&](const trace::Trace& t) {
        if (const std::string p = base.validate(t); !p.empty()) {
            throw std::runtime_error("fleet config invalid: " + p);
        }
    };
    SetupTimes setup;
    trace::Trace trace =
        load_trace_timed(input, tracer, kSetupRepsEachSide, validate, setup);

    std::vector<double> wall_ms;
    std::vector<double> traced_wall_ms;
    std::vector<double> boxes_per_s;
    std::vector<double> box_ms;
    std::vector<double> pass_p99_ms;
    std::vector<double> util_pct;
    std::map<std::string, std::vector<double>> layer;
    Checks first_checks;
    core::FleetResult first;

    // Pass 0 warms the worker pool and arenas and is not timed. Every pass
    // collects the program's per-box stage metrics, as `atm predict
    // --metrics-out` does: the per-layer counters are checked on every pass,
    // and a box's stage-timer sum is its pipeline time. Its p99 is taken per
    // pass and the median over passes reported: a host stall lifts the tail
    // of the pass it hits, not the run's. A traced run records spans on
    // every second pass; the difference is the overhead.
    core::FleetConfig config = base;
    config.collect_metrics = true;
    Tracer off(false);
    const auto start = Clock::now();
    for (int pass = 0;; ++pass) {
        const bool traced = tracer.on() && pass % 2 == 0 && pass > 0;
        Tracer& t = traced ? tracer : off;
        t.set_pass(pass);
        const double cpu0 = cpu_seconds();
        const auto t0 = Clock::now();
        core::FleetResult r;
        {
            SpanScope p(t, "bench.pass");
            SpanScope call(t, "core.run_pipeline_on_fleet", p.id());
            r = core::run_pipeline_on_fleet(trace, config);
        }
        const auto t1 = Clock::now();
        const double cpu = cpu_seconds() - cpu0;
        const double ms = ms_between(t0, t1);

        res.attempted += r.boxes.size();
        res.failed += r.boxes_failed;
        const Checks checks = fleet_checks(r);
        if (pass == 0) {
            first_checks = checks;
            first = std::move(r);
        } else {
            if (checks != first_checks) {
                throw std::runtime_error("fleet pass " + std::to_string(pass) +
                                         " did not repeat the first pass's outputs");
            }
            (traced ? traced_wall_ms : wall_ms).push_back(ms);
            boxes_per_s.push_back(static_cast<double>(r.boxes_evaluated()) / (ms * 1e-3));
            util_pct.push_back(100.0 * cpu / (ms * 1e-3 * config.jobs));
            std::vector<double> pass_box_ms;
            for (const core::FleetBoxResult& b : r.boxes) {
                double ns = 0.0;
                for (const auto& [name, timer] : b.result.metrics.timers) {
                    if (name.starts_with("stage.")) ns += static_cast<double>(timer.total_ns);
                }
                pass_box_ms.push_back(ns * 1e-6);
            }
            pass_p99_ms.push_back(quantile(pass_box_ms, 0.99));
            box_ms.insert(box_ms.end(), pass_box_ms.begin(), pass_box_ms.end());
            const obs::MetricsSnapshot& m = r.metrics;
            layer["core.search_ms"].push_back(timer_ms(m, "stage.search"));
            layer["core.spatial_fit_ms"].push_back(timer_ms(m, "stage.spatial_fit"));
            layer["core.forecast_ms"].push_back(timer_ms(m, "stage.forecast"));
            layer["core.resize_ms"].push_back(timer_ms(m, "stage.resize"));
            layer["forecast.mlp_fit_ms"].push_back(timer_ms(m, "forecast.fit.mlp"));
            layer["resize.atm_ms"].push_back(timer_ms(m, "resize.policy.atm"));
            const double cells = counter_of(m, "cluster.dtw.cells");
            layer["cluster.dtw_ns_per_cell"].push_back(
                cells == 0.0 ? 0.0 : timer_ms(m, "stage.search") * 1e6 / cells);
            const double epochs = counter_of(m, "forecast.mlp.epochs");
            layer["forecast.mlp_us_per_epoch"].push_back(
                epochs == 0.0 ? 0.0
                              : timer_ms(m, "forecast.fit.mlp") * 1e3 / epochs);
        }
        if (pass >= 3 && ms_between(start, Clock::now()) >= seconds * 1e3) break;
    }
    // Peak RSS over set-up and the timed passes. The repetitions below run
    // while the passes' results and workspaces are still held, which would
    // add to it.
    res.metrics["peak_rss_mb"] = self_peak_rss_mb();
    trace = trace::Trace{};
    load_trace_timed(input, tracer, kSetupRepsEachSide, validate, setup);

    res.metrics["setup_s"] = *std::min_element(setup.setup_s.begin(), setup.setup_s.end());
    res.metrics["boxes_per_s"] = median(boxes_per_s);
    res.metrics["core.box_p50_ms"] = median(box_ms);
    res.metrics["core.box_p99_ms"] = median(pass_p99_ms);
    res.metrics["ape_all_pct"] = 100.0 * first.mean_ape_all;
    res.metrics["ticket_reduction_pct"] = ticket_reduction_pct(first.totals.front());
    Value pass_ms = Value::make_array();
    for (double ms : wall_ms) pass_ms.array.push_back(Value::of(ms));
    res.info["pass_ms"] = pass_ms;
    res.info["latency_samples"] = Value::of(static_cast<std::uint64_t>(box_ms.size()));
    res.info["simd_path"] = Value::of(first.simd_path);
    res.info["jobs"] = Value::of(static_cast<std::int64_t>(first.jobs));
    res.info["boxes_evaluated"] = Value::of(static_cast<std::uint64_t>(first.boxes_evaluated()));
    res.checks = first_checks;
    check_double(res.checks, "ticket_reduction_pct", res.metrics["ticket_reduction_pct"]);

    if (tracer.on()) {
        for (const auto& [k, v] : layer) res.metrics[k] = median(v);
        const obs::MetricsSnapshot& m = first.metrics;
        const double series = counter_of(m, "search.series");
        res.metrics["core.signature_ratio"] =
            series == 0.0 ? 0.0 : counter_of(m, "search.final_signatures") / series;
        for (const auto& [metric, counter] :
             {std::pair{"cluster.dtw_pairs", "cluster.dtw.pairs"},
              {"cluster.dtw_cells", "cluster.dtw.cells"},
              {"linalg.vif_iterations", "linalg.vif.iterations"},
              {"forecast.mlp_fits", "forecast.mlp.fits"},
              {"forecast.mlp_epochs", "forecast.mlp.epochs"},
              {"resize.mckp_greedy_iterations", "resize.mckp.greedy_iterations"}}) {
            res.metrics[metric] = counter_of(m, counter);
        }
        const double mb = static_cast<double>(std::filesystem::file_size(input)) / 1e6;
        res.metrics["tracegen.load_ms"] = median(setup.load_ms);
        res.metrics["tracegen.load_mb_per_s"] = mb / (median(setup.load_ms) * 1e-3);
        res.metrics["exec.cpu_utilization_pct"] = median(util_pct);
        res.metrics["trace.overhead_pct"] =
            100.0 * (median(traced_wall_ms) / median(wall_ms) - 1.0);
    }
}

// ---------------------------------------------------------------------------
// Serve: shared helpers

std::uint64_t warmup_epochs(const trace::Trace& t) {
    // The engine models from two full days of history on (serve.cpp); the
    // first modelling window runs the initial search and cold fits.
    return 2 * static_cast<std::uint64_t>(t.windows_per_day) + 1;
}

void window_samples(const trace::BoxTrace& box, std::uint64_t epoch,
                    std::vector<double>& cpu, std::vector<double>& ram) {
    cpu.clear();
    ram.clear();
    for (const trace::VmTrace& vm : box.vms) {
        cpu.push_back(vm.cpu_demand_ghz.values()[epoch]);
        ram.push_back(vm.ram_demand_gb.values()[epoch]);
    }
}

bool status_ok(const std::string& status) {
    return status == "applied" || status == "warming";
}

void digest_response(Digest& d, int box, const serve::Response& r) {
    d.u64(static_cast<std::uint64_t>(box));
    d.u64(r.epoch);
    d.u64(static_cast<std::uint64_t>(r.ladder));
    d.bytes(r.status.data(), r.status.size());
    d.doubles(r.cpu);
    d.doubles(r.ram);
}

double model_work_count(const obs::MetricsSnapshot& m) {
    return counter_of(m, "serve.retrain.warm") + counter_of(m, "serve.retrain.cold") +
           counter_of(m, "serve.search.runs");
}

/// One window through the daemon's codec and the engine, as atmd does it.
struct CodecTimes {
    double codec_ms = 0.0;
    double apply_ms = 0.0;
};

serve::Response codec_apply(serve::ServeEngine& engine, const std::string& box_name,
                            std::uint64_t epoch, const std::vector<double>& cpu,
                            const std::vector<double>& ram, Tracer& tracer,
                            int parent, CodecTimes& times) {
    const auto t0 = Clock::now();
    std::string line;
    {
        SpanScope s(tracer, "protocol.encode_window", parent);
        line = serve::encode_window(box_name, epoch, cpu, ram);
    }
    serve::Request request;
    {
        SpanScope s(tracer, "protocol.parse_request", parent);
        request = serve::parse_request(line);
    }
    serve::WindowUpdate update;
    update.box_index = engine.find_box(request.box);
    update.epoch = request.epoch;
    update.cpu = std::move(request.cpu);
    update.ram = std::move(request.ram);
    const auto t1 = Clock::now();
    serve::ApplyOutcome outcome;
    {
        SpanScope s(tracer, "serve.apply", parent);
        outcome = engine.apply(update);
    }
    const auto t2 = Clock::now();
    {
        SpanScope s(tracer, "protocol.encode_ack", parent);
        line = serve::encode_ack(outcome);
    }
    serve::Response response;
    {
        SpanScope s(tracer, "protocol.parse_response", parent);
        response = serve::parse_response(line);
    }
    const auto t3 = Clock::now();
    times.codec_ms += ms_between(t0, t1) + ms_between(t2, t3);
    times.apply_ms += ms_between(t1, t2);
    return response;
}

// ---------------------------------------------------------------------------
// Serve replay: in-process engine, warm-up catch-up, then an open loop.

struct ReplayPass {
    std::vector<double> latency_ms;
    std::vector<double> wait_ms;
    std::vector<double> late_ms;
    std::vector<double> plain_ms;
    std::vector<double> retrain_ms;
    double busy_ms = 0.0;
    double open_ms = 0.0;
    double codec_ms = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string digest;
    obs::MetricsSnapshot catchup_metrics;
    obs::MetricsSnapshot metrics;
};

ReplayPass run_replay_pass(const trace::Trace& trace, const serve::ServeConfig& config,
                           std::uint64_t ticks, Tracer& tracer, bool split,
                           int pass_index) {
    ReplayPass out;
    tracer.set_pass(pass_index);
    SpanScope pass(tracer, "bench.pass");
    serve::ServeEngine engine(trace, config);

    const auto boxes = static_cast<int>(trace.boxes.size());
    Digest digest;
    std::vector<double> cpu;
    std::vector<double> ram;
    CodecTimes times;
    const auto send = [&](int b, std::uint64_t epoch, int parent) {
        const trace::BoxTrace& box = trace.boxes[static_cast<std::size_t>(b)];
        window_samples(box, epoch, cpu, ram);
        const serve::Response r =
            codec_apply(engine, box.name, epoch, cpu, ram, tracer, parent, times);
        ++out.attempted;
        if (!status_ok(r.status)) ++out.failed;
        digest_response(digest, b, r);
    };

    const std::uint64_t warm = warmup_epochs(trace);
    {
        SpanScope catchup(tracer, "serve.catchup", pass.id());
        for (std::uint64_t epoch = 0; epoch < warm; ++epoch) {
            for (int b = 0; b < boxes; ++b) send(b, epoch, catchup.id());
        }
    }

    out.catchup_metrics = engine.metrics();
    const double slot_ms = kReplayTickMs / boxes;
    const auto open_start = Clock::now();
    for (std::uint64_t tick = 0; tick < ticks; ++tick) {
        for (int b = 0; b < boxes; ++b) {
            const auto due =
                open_start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(
                                     static_cast<double>(tick) * kReplayTickMs +
                                     b * slot_ms));
            bool slept = false;
            if (Clock::now() < due) {
                std::this_thread::sleep_until(
                    due - std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(kSpinMs)));
                while (Clock::now() < due) {
                }
                slept = true;
            }
            const auto start = Clock::now();
            const double behind = ms_between(due, start);
            out.wait_ms.push_back(slept ? 0.0 : behind);
            out.late_ms.push_back(slept ? behind : 0.0);
            SpanScope window(tracer, "bench.window", pass.id());
            const double before = split ? model_work_count(engine.metrics()) : 0.0;
            const double apply_before = times.apply_ms;
            send(b, warm + tick, window.id());
            if (split) {
                const double apply = times.apply_ms - apply_before;
                (model_work_count(engine.metrics()) != before ? out.retrain_ms
                                                             : out.plain_ms)
                    .push_back(apply);
            }
            const auto end = Clock::now();
            out.latency_ms.push_back(ms_between(due, end));
            out.busy_ms += ms_between(start, end);
        }
    }
    out.open_ms = ms_between(open_start, Clock::now());
    out.codec_ms = times.codec_ms;
    out.digest = digest.hex();
    out.metrics = engine.metrics();
    return out;
}

void measure_daemon_path(const std::string& input, const std::string& atm,
                         const std::string& work, Tracer& tracer, Result& res);

/// The serve path's per-layer numbers, measured in fleet_cbc_mlp's traced
/// run on a 12-box trace of the same seed: an in-process engine with
/// `atm serve` defaults (CBC, MLP, warm retrain every 4 windows, journal
/// off) in the open loop above, then the daemon path. Two identical passes,
/// the second traced; their outputs must repeat exactly.
void measure_serve_path(std::uint64_t seed, const std::string& atm,
                        const std::string& work, Tracer& tracer, Result& res) {
    const std::string input = work + "/serve-" + std::to_string(seed) + ".bin";
    trace::write_trace_binary_file(input,
                                   trace::generate_trace(gen_options(kServeTrace, seed)));
    const trace::Trace trace = trace::read_trace_any_file(input);
    serve::ServeConfig config;
    config.pipeline.search.method = core::ClusteringMethod::kCbc;

    // Span pass ids from 1000 on mark the serve path in the spans file.
    Tracer off(false);
    const ReplayPass plain = run_replay_pass(trace, config, kReplayTicks, off, false, 0);
    const ReplayPass traced = run_replay_pass(trace, config, kReplayTicks, tracer, true, 1000);
    if (traced.digest != plain.digest ||
        !(traced.metrics.counters == plain.metrics.counters)) {
        throw std::runtime_error("serve replay passes did not repeat each other");
    }
    if (traced.failed != 0) {
        throw std::runtime_error("serve replay: " + std::to_string(traced.failed) +
                                 " windows were neither applied nor warming");
    }
    res.checks["serve_path.recommendations_digest"] = traced.digest;
    for (const auto& [name, value] : traced.metrics.counters) {
        check_u64(res.checks, "serve_path." + name, value);
    }

    // Model work is counted over the open loop only: the catch-up's initial
    // searches and cold fits are excluded.
    const obs::MetricsSnapshot& m = traced.metrics;
    const obs::MetricsSnapshot& c = traced.catchup_metrics;
    const auto open_count = [&](const char* name) {
        return counter_of(m, name) - counter_of(c, name);
    };
    res.metrics["serve.apply_plain_p50_ms"] = median(traced.plain_ms);
    res.metrics["serve.apply_retrain_p50_ms"] = median(traced.retrain_ms);
    res.metrics["serve.retrains"] =
        open_count("serve.retrain.warm") + open_count("serve.retrain.cold");
    res.metrics["serve.searches"] = open_count("serve.search.runs");
    res.metrics["serve.queue_wait_p99_ms"] = quantile(traced.wait_ms, 0.99);
    res.metrics["serve.busy_pct"] = 100.0 * traced.busy_ms / traced.open_ms;
    res.metrics["serve.sched_late_ms"] = quantile(traced.late_ms, 0.99);
    res.metrics["serve.window_p50_ms"] = median(traced.latency_ms);
    res.metrics["serve.window_p99_ms"] = quantile(traced.latency_ms, 0.99);
    res.metrics["serve.overhead_pct"] = 100.0 * (traced.busy_ms / plain.busy_ms - 1.0);
    res.metrics["protocol.codec_us_per_window"] =
        1e3 * traced.codec_ms / static_cast<double>(traced.attempted);
    tracer.set_pass(2000);
    measure_daemon_path(input, atm, work, tracer, res);
    std::filesystem::remove(input);
}

// ---------------------------------------------------------------------------
// The atmd path, measured after the serve replay: `atm serve` as
// operators run it (seasonal-naive, fsync'd journal, fresh directory) driven
// by one ServeClient in a closed loop as `atm play` does, then split into
// engine, codec, journal and transport. It is not an end-to-end workload of
// its own: every window crosses three threads and an fsync, and on a shared
// host its round trips moved two- to fourfold between sets of runs.

/// A spawned `atm serve`; the destructor kills and reaps it if it still runs.
class Daemon {
  public:
    Daemon(const std::string& atm, const std::string& input, const std::string& dir)
        : socket_(dir + "/atmd.sock") {
        const std::string log = dir + "/atmd.log";
        std::vector<std::string> args = {atm,     "serve",    input,          "--socket",
                                         socket_, "--model",  "seasonal-naive",
                                         "--journal", dir + "/journal"};
        std::vector<char*> argv;
        for (std::string& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
        posix_spawn_file_actions_adddup2(&actions, 1, 2);
        const int rc = posix_spawn(&pid_, atm.c_str(), &actions, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0) {
            throw std::runtime_error("cannot spawn " + atm + ": " + std::strerror(rc));
        }
    }
    ~Daemon() {
        if (pid_ > 0) {
            kill(pid_, SIGKILL);
            waitpid(pid_, nullptr, 0);
        }
    }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /// Waits for exit; throws when the daemon exits uncleanly.
    void wait_exit() {
        int status = 0;
        if (waitpid(pid_, &status, 0) != pid_) {
            throw std::runtime_error("waitpid on atmd failed");
        }
        pid_ = -1;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            throw std::runtime_error("atmd exited uncleanly (status " +
                                     std::to_string(status) + ")");
        }
    }
    [[nodiscard]] const std::string& socket() const { return socket_; }

  private:
    std::string socket_;
    pid_t pid_ = -1;
};

std::string fresh_dir(const std::string& work, int n) {
    const std::string dir = work + "/atmd-" + std::to_string(getpid()) + "-" +
                            std::to_string(n);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/// Every window of the trace, epoch-major, through the codec and an
/// in-process engine; one digest per window in send order.
struct InProcess {
    std::vector<std::string> window_digests;
    obs::MetricsSnapshot metrics;
    double apply_ms = 0.0;
    double codec_ms = 0.0;
    std::vector<double> plain_ms;
};

InProcess run_in_process(const trace::Trace& trace, serve::ServeConfig config,
                         Tracer& tracer) {
    InProcess out;
    serve::ServeEngine engine(trace, std::move(config));
    SpanScope pass(tracer, "bench.inprocess");
    std::vector<double> cpu;
    std::vector<double> ram;
    CodecTimes times;
    const std::uint64_t warm = warmup_epochs(trace);
    for (std::uint64_t epoch = 0; epoch < trace.boxes.front().length(); ++epoch) {
        for (int b = 0; b < static_cast<int>(trace.boxes.size()); ++b) {
            const trace::BoxTrace& box = trace.boxes[static_cast<std::size_t>(b)];
            window_samples(box, epoch, cpu, ram);
            const double before = times.apply_ms;
            const double work = model_work_count(engine.metrics());
            const serve::Response r =
                codec_apply(engine, box.name, epoch, cpu, ram, tracer, pass.id(), times);
            if (epoch >= warm && model_work_count(engine.metrics()) == work) {
                out.plain_ms.push_back(times.apply_ms - before);
            }
            Digest d;
            digest_response(d, b, r);
            out.window_digests.push_back(d.hex());
        }
    }
    out.apply_ms = times.apply_ms;
    out.codec_ms = times.codec_ms;
    out.metrics = engine.metrics();
    return out;
}

struct SocketPass {
    double rtt_ms = 0.0;
    double queue_peak = 0.0;
};

/// One pass of the whole trace through a fresh daemon. Every ack must equal
/// the in-process engine's bit for bit, and the daemon's engine counters
/// (its `stat` reply) must equal that engine's.
SocketPass run_socket_pass(const trace::Trace& trace, const std::string& atm,
                           const std::string& input, const std::string& dir,
                           const InProcess& reference, Tracer& tracer) {
    SocketPass out;
    SpanScope pass(tracer, "bench.socket_pass");
    Daemon daemon(atm, input, dir);
    std::optional<serve::ServeClient> client;
    {
        SpanScope start(tracer, "transport.daemon_start", pass.id());
        client.emplace(serve::ServeClient::connect(daemon.socket(), 30000));
    }
    std::vector<double> cpu;
    std::vector<double> ram;
    std::size_t k = 0;
    for (std::uint64_t epoch = 0; epoch < trace.boxes.front().length(); ++epoch) {
        for (int b = 0; b < static_cast<int>(trace.boxes.size()); ++b) {
            const trace::BoxTrace& box = trace.boxes[static_cast<std::size_t>(b)];
            window_samples(box, epoch, cpu, ram);
            const auto t0 = Clock::now();
            serve::Response r;
            {
                SpanScope rt(tracer, "transport.round_trip", pass.id());
                r = client->window_retry(box.name, epoch, cpu, ram);
            }
            out.rtt_ms += ms_between(t0, Clock::now());
            Digest d;
            digest_response(d, b, r);
            if (d.hex() != reference.window_digests[k++]) {
                throw std::runtime_error(
                    "atmd: recommendation for box " + box.name + " epoch " +
                    std::to_string(epoch) + " differs from the in-process engine");
            }
        }
    }
    const Value report = obs::json::parse(client->stat().metrics_json);
    if (!(obs::json::snapshot_from_json(report.at("engine")).counters ==
          reference.metrics.counters)) {
        throw std::runtime_error(
            "atmd: engine counters differ from the in-process engine");
    }
    const obs::MetricsSnapshot transport =
        obs::json::snapshot_from_json(report.at("transport"));
    if (const auto it = transport.gauges.find("transport.queue.peak");
        it != transport.gauges.end()) {
        out.queue_peak = it->second;
    }
    client->shutdown();
    client.reset();
    daemon.wait_exit();
    std::filesystem::remove_all(dir);
    return out;
}

void measure_daemon_path(const std::string& input, const std::string& atm,
                         const std::string& work, Tracer& tracer, Result& res) {
    serve::ServeConfig config;
    config.pipeline.search.method = core::ClusteringMethod::kCbc;
    config.pipeline.temporal = forecast::TemporalModel::kSeasonalNaive;
    const trace::Trace trace = trace::read_trace_any_file(input);
    Tracer off(false);
    const InProcess reference = run_in_process(trace, config, off);
    const auto windows = static_cast<double>(reference.window_digests.size());

    constexpr int kReps = 2;
    std::vector<double> rtt_us;
    std::vector<double> off_us;
    std::vector<double> on_us;
    std::vector<double> codec_us;
    double queue_peak = 0.0;
    double journal_bytes = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
        const SocketPass socket = run_socket_pass(
            trace, atm, input, fresh_dir(work, rep), reference, tracer);
        rtt_us.push_back(1e3 * socket.rtt_ms / windows);
        queue_peak = std::max(queue_peak, socket.queue_peak);

        const std::string dir = fresh_dir(work, kReps + rep);
        serve::ServeConfig journaled = config;
        journaled.journal_path = dir + "/journal";
        const InProcess plain = run_in_process(trace, config, off);
        const InProcess j = run_in_process(trace, journaled, off);
        if (plain.window_digests != reference.window_digests ||
            j.window_digests != reference.window_digests) {
            throw std::runtime_error("atmd: in-process passes differ");
        }
        off_us.push_back(1e3 * plain.apply_ms / windows);
        on_us.push_back(1e3 * j.apply_ms / windows);
        codec_us.push_back(1e3 * plain.codec_ms / windows);
        journal_bytes =
            static_cast<double>(std::filesystem::file_size(journaled.journal_path)) /
            windows;
        std::filesystem::remove_all(dir);
    }
    // The engine passes no registry to resize, so the greedy MCKP's cost is
    // taken as a plain window's apply time over that of max-min.
    serve::ServeConfig max_min = config;
    max_min.policy = resize::ResizePolicy::kMaxMinFairness;
    res.info["atmd_resize_atm_us"] = Value::of(
        1e3 * (median(run_in_process(trace, config, off).plain_ms) -
               median(run_in_process(trace, max_min, off).plain_ms)));
    // Per window of the daemon: journal = in-process apply with it on minus
    // off; transport = round trip minus in-process apply (journal on) and
    // codec.
    res.metrics["journal.us_per_window"] = median(on_us) - median(off_us);
    res.metrics["journal.bytes_per_window"] = journal_bytes;
    res.metrics["transport.us_per_window"] =
        median(rtt_us) - median(on_us) - median(codec_us);
    res.metrics["transport.queue_peak"] = queue_peak;
    res.info["atmd_rtt_us_per_window"] = Value::of(median(rtt_us));
    res.info["atmd_engine_us_per_window"] = Value::of(median(off_us));
    res.info["atmd_codec_us_per_window"] = Value::of(median(codec_us));
}

// ---------------------------------------------------------------------------

struct Args {
    std::string command;
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
    std::string input;
    std::string atm;
    std::string work = ".";
};

Args parse_args(int argc, char** argv) {
    if (argc < 2) throw std::invalid_argument("usage: perfbench_harness gen|run ...");
    Args a;
    a.command = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload") a.workload = value;
        else if (key == "--seed") a.seed = std::stoull(value);
        else if (key == "--seconds") a.seconds = std::stod(value);
        else if (key == "--trace") a.trace = value == "1";
        else if (key == "--out") a.out = value;
        else if (key == "--input") a.input = value;
        else if (key == "--atm") a.atm = value;
        else if (key == "--work") a.work = value;
        else throw std::invalid_argument("unknown option " + key);
    }
    return a;
}

int run(const Args& args) {
    const Workload& w = find_workload(args.workload);
    if (args.command == "gen") {
        trace::write_trace_binary_file(args.out,
                                       trace::generate_trace(gen_options(w, args.seed)));
        return 0;
    }
    if (args.command != "run") throw std::invalid_argument("unknown command " + args.command);

    Tracer tracer(args.trace);
    Result res;
    run_fleet(w, args.input, args.seconds, tracer, res);
    if (tracer.on() && std::string(w.name) == "fleet_cbc_mlp") {
        measure_serve_path(args.seed, args.atm, args.work, tracer, res);
    }

    if (args.trace) res.metrics["trace.spans"] = static_cast<double>(tracer.size());
    Value metrics = Value::make_object();
    for (const auto& [name, value] : res.metrics) metrics.set(name, Value::of(value));
    if (args.trace) {
        const std::string spans_path =
            args.work + "/spans-" + args.workload + "-" + std::to_string(args.seed) + ".jsonl";
        tracer.write(spans_path);
        Value self = Value::make_object();
        for (const auto& [layer, ms] : tracer.self_ms_by_layer()) {
            self.set(layer, Value::of(ms));
        }
        res.info["self_ms_by_layer"] = self;
        res.info["spans_file"] = Value::of(spans_path);
    }

    Value checks = Value::make_object();
    for (const auto& [k, v] : res.checks) checks.set(k, Value::of(v));
    Value info = Value::make_object();
    for (const auto& [k, v] : res.info) info.set(k, v);

    Value provenance = Value::make_object();
    provenance.set("nproc", Value::of(static_cast<std::uint64_t>(std::thread::hardware_concurrency())));
    provenance.set("simd", Value::of(simd::to_string(simd::active_path())));
    provenance.set("compiler", Value::of(PERFBENCH_COMPILER));
    provenance.set("build_type", Value::of(PERFBENCH_BUILD_TYPE));
    provenance.set("seed", Value::of(args.seed));
    provenance.set("trace_bytes",
                   Value::of(static_cast<std::uint64_t>(std::filesystem::file_size(args.input))));
    {
        const trace::Trace t = trace::read_trace_any_file(args.input);
        std::uint64_t vms = 0;
        for (const auto& b : t.boxes) vms += b.vms.size();
        provenance.set("trace_boxes", Value::of(static_cast<std::uint64_t>(t.boxes.size())));
        provenance.set("trace_vms", Value::of(vms));
        provenance.set("trace_windows", Value::of(static_cast<std::uint64_t>(t.boxes.front().length())));
    }

    Value out = Value::make_object();
    out.set("metrics", metrics);
    out.set("checks", checks);
    out.set("attempted", Value::of(res.attempted));
    out.set("failed", Value::of(res.failed));
    out.set("info", info);
    out.set("provenance", provenance);
    std::printf("%s\n", obs::json::serialize(out, 0).c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
        return 1;
    }
}
