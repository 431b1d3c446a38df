// atm — command-line front end for the ATM library.
//
// Subcommands:
//   atm generate <out>          synthesize a monitoring trace (CSV, or the
//                               binary atm.trace.bin.v1 format for *.bin)
//   atm characterize <trace>    Section-II report: tickets, culprits,
//                               correlations
//   atm predict <trace>         fleet signature search + next-day accuracy
//   atm resize <trace>          fleet next-day resizing from predictions
//   atm backtest <trace>        temporal-model shoot-out on one series
//   atm serve <trace>           atmd: streaming prediction/resizing daemon
//   atm play <trace>            stream a trace into a running atmd
//   atm trace pack|unpack       convert between CSV and the binary format
//
// Every subcommand supports --help, accepts both `--key value` and
// `--key=value`, and rejects unknown or malformed flags with a
// diagnostic. `predict` and `resize` run the fleet executor — `--jobs N`
// selects the worker count (default: hardware concurrency).
//
// Trace inputs are format-sniffed: both the CSV schema of
// src/tracegen/trace_io.hpp and the binary format of
// src/tracegen/trace_binary.hpp (read in one pass, without text
// parsing) are accepted everywhere, so real
// monitoring exports and packed paper-scale traces are analyzed the
// same way.

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "core/fleet.hpp"
#include "core/metrics_report.hpp"
#include "exec/arg_parser.hpp"
#include "forecast/backtest.hpp"
#include "linalg/simd/simd.hpp"
#include "obs/metrics.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "ticketing/characterization.hpp"
#include "timeseries/stats.hpp"
#include "tracegen/generator.hpp"
#include "tracegen/trace_binary.hpp"
#include "tracegen/trace_io.hpp"

namespace {

using namespace atm;

/// Operator stop flag of the fleet subcommands and the daemon. Setting it
/// is one lock-free atomic store, so the SIGINT handler may set it
/// directly (async-signal-safe).
std::atomic<bool> g_stop{false};
static_assert(std::atomic<bool>::is_always_lock_free,
              "the signal handler's store must be lock-free");

extern "C" void handle_stop_signal(int sig) {
    if (g_stop.load()) {
        // Second signal: the operator wants out *now*. Restore the
        // default disposition and re-raise so the shell sees a real
        // signal death; the journal already holds every completed unit.
        std::signal(sig, SIG_DFL);
        std::raise(sig);
        return;
    }
    g_stop.store(true);
}

/// First SIGINT/SIGTERM drains (finish in-flight work, journal it, write
/// partial outputs); a second one kills. SIGTERM gets the same graceful
/// path as Ctrl-C because that is what process supervisors and `timeout`
/// send — a fleet run or daemon under systemd should flush, not die torn.
void install_sigint_drain() {
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
}

/// Shared model/threshold flags of the prediction-driven subcommands.
void add_pipeline_flags(exec::ArgParser& parser) {
    parser.option("method", "cbc", "clustering method: dtw|cbc")
        .option("model", "mlp",
                "temporal model: mlp|ar|seasonal-naive")
        .option("threshold", "60", "ticket threshold in percent")
        .option("epsilon", "5", "discretization factor, % of VM capacity")
        .option("train-days", "5", "days of training history")
        .option("jobs", "0",
                "worker threads, at most " +
                    std::to_string(core::FleetConfig::kMaxJobs) +
                    "; 0 = hardware concurrency")
        .option("simd", "",
                "force the SIMD kernel path: scalar|avx2|avx512 "
                "(default: best supported; env ATM_SIMD)")
        .option("box", "", "evaluate only the box with this name")
        .option("max-boxes", "-1",
                "evaluate at most this many selected boxes (trace order); "
                "negative = unlimited")
        .option("metrics-out", "",
                "write a JSON stage-metrics report (atm.metrics.v1) here")
        .option("fault-spec", "",
                "chaos testing: comma-separated site=action[@rate] rules "
                "(e.g. samples=nan@0.01,pipeline.forecast=throw@0.5)")
        .option("fault-seed", "42", "seed for the deterministic fault plan")
        .option("checkpoint", "",
                "append-only journal of completed boxes; enables --resume "
                "after a crash or kill")
        .flag("resume",
              "replay boxes already recorded in --checkpoint instead of "
              "recomputing them")
        .flag("include-gappy", "also evaluate boxes with monitoring gaps");
}

/// Builds the validated FleetConfig from parsed flags; throws
/// ArgParseError on unknown enum values, std::invalid_argument on ranges.
core::FleetConfig fleet_config_from_flags(const exec::ArgParser& parser) {
    core::FleetConfig config;

    const std::string method = parser.get("method");
    if (method == "dtw") {
        config.pipeline.search.method = core::ClusteringMethod::kDtw;
    } else if (method == "cbc") {
        config.pipeline.search.method = core::ClusteringMethod::kCbc;
    } else {
        throw exec::ArgParseError("unknown --method '" + method +
                                  "' (expected dtw|cbc)");
    }

    const std::string model = parser.get("model");
    if (model == "mlp") {
        config.pipeline.temporal = forecast::TemporalModel::kNeuralNetwork;
    } else if (model == "ar") {
        config.pipeline.temporal = forecast::TemporalModel::kAutoregressive;
    } else if (model == "seasonal-naive") {
        config.pipeline.temporal = forecast::TemporalModel::kSeasonalNaive;
    } else {
        throw exec::ArgParseError("unknown --model '" + model +
                                  "' (expected mlp|ar|seasonal-naive)");
    }

    config.pipeline.alpha = parser.get_double("threshold") / 100.0;
    config.pipeline.epsilon_pct = parser.get_double("epsilon");
    config.pipeline.train_days = parser.get_int("train-days");
    config.jobs = parser.get_int("jobs");

    // The flag wins over a conflicting ATM_SIMD environment variable.
    // Either spelling is resolved here, so an unknown or unsupported
    // path is a usage error before any work starts.
    try {
        if (const std::string& simd = parser.get("simd"); !simd.empty()) {
            simd::set_path(simd::parse_path(simd));
        } else {
            (void)simd::active_path();  // resolves ATM_SIMD
        }
    } catch (const std::invalid_argument& e) {
        throw exec::ArgParseError(e.what());
    }
    config.skip_gappy_boxes = !parser.get_flag("include-gappy");
    if (!parser.get("box").empty()) config.box_names = {parser.get("box")};
    config.max_boxes = parser.get_int("max-boxes");

    // Fail a bad report path *before* the fleet run, as a usage error.
    if (const std::string& metrics_out = parser.get("metrics-out");
        !metrics_out.empty()) {
        exec::require_writable_file("metrics-out", metrics_out);
        config.collect_metrics = true;
    }

    // Resilience knobs (DESIGN.md §7.12). The journal path must be
    // writable up front — discovering it isn't after an hour of fleet
    // work would defeat the point.
    if (const std::string& checkpoint = parser.get("checkpoint");
        !checkpoint.empty()) {
        exec::require_writable_file("checkpoint", checkpoint);
        config.checkpoint_path = checkpoint;
    }
    config.resume = parser.get_flag("resume");

    // Reproducible chaos runs (see DESIGN.md §7.11); a malformed spec is a
    // usage error reported before any work starts.
    if (const std::string& fault_spec = parser.get("fault-spec");
        !fault_spec.empty()) {
        try {
            config.faults =
                exec::FaultPlan::parse(fault_spec, parser.get_u64("fault-seed"));
        } catch (const std::invalid_argument& e) {
            throw exec::ArgParseError(e.what());
        }
    }

    if (const std::string problems = config.validate(); !problems.empty()) {
        throw exec::ArgParseError(problems);
    }
    return config;
}

/// True when `path` names the binary trace format by extension.
bool wants_binary_trace(const std::string& path) {
    return path.size() >= 4 && path.compare(path.size() - 4, 4, ".bin") == 0;
}

int cmd_generate(int argc, char** argv) {
    exec::ArgParser parser(
        "atm generate",
        "synthesize a monitoring trace; *.bin writes the binary "
        "atm.trace.bin.v1 format, anything else CSV");
    parser.positional("out", "output path (*.bin = binary, else CSV)")
        .option("boxes", "50", "number of physical boxes")
        .option("days", "7", "trace length in days")
        .option("seed", "20150403", "trace generator seed");
    if (!parser.parse(argc, argv, 2)) return 0;

    trace::TraceGenOptions options;
    options.num_boxes = parser.get_int("boxes");
    options.num_days = parser.get_int("days");
    options.seed = parser.get_u64("seed");
    trace::Trace t;
    try {
        t = trace::generate_trace(options);
    } catch (const std::invalid_argument& e) {
        throw exec::ArgParseError(e.what());
    }
    const std::string out = parser.get("out");
    if (wants_binary_trace(out)) {
        trace::write_trace_binary_file(out, t);
    } else {
        trace::write_trace_csv_file(out.c_str(), t);
    }
    std::printf("wrote %zu boxes / %zu VMs / %d days to %s\n", t.boxes.size(),
                t.total_vms(), options.num_days, out.c_str());
    return 0;
}

int cmd_trace(int argc, char** argv) {
    const std::string verb = argc > 2 ? argv[2] : "";
    if (verb == "pack") {
        exec::ArgParser parser(
            "atm trace pack",
            "convert a CSV trace to the binary atm.trace.bin.v1 format "
            "(validated and loaded in one pass, without text parsing)");
        parser.positional("in.csv", "input CSV trace")
            .positional("out.bin", "output binary trace");
        if (!parser.parse(argc, argv, 3)) return 0;
        const trace::Trace t =
            trace::read_trace_csv_file(parser.get("in.csv").c_str());
        trace::write_trace_binary_file(parser.get("out.bin"), t);
        std::printf("packed %zu boxes / %zu VMs into %s\n", t.boxes.size(),
                    t.total_vms(), parser.get("out.bin").c_str());
        return 0;
    }
    if (verb == "unpack") {
        exec::ArgParser parser("atm trace unpack",
                               "convert a binary trace back to CSV");
        parser.positional("in.bin", "input binary trace")
            .positional("out.csv", "output CSV trace");
        if (!parser.parse(argc, argv, 3)) return 0;
        const trace::Trace t = trace::read_trace_binary_file(parser.get("in.bin"));
        trace::write_trace_csv_file(parser.get("out.csv").c_str(), t);
        std::printf("unpacked %zu boxes / %zu VMs into %s\n", t.boxes.size(),
                    t.total_vms(), parser.get("out.csv").c_str());
        return 0;
    }
    std::fprintf(stderr,
                 "usage: atm trace pack <in.csv> <out.bin>\n"
                 "       atm trace unpack <in.bin> <out.csv>\n");
    return verb.empty() || verb == "--help" || verb == "-h" ? 0 : 2;
}

int cmd_characterize(int argc, char** argv) {
    exec::ArgParser parser(
        "atm characterize",
        "Section-II style report: ticket distribution, culprits, correlations");
    parser.positional("trace.csv", "input trace CSV")
        .option("threshold", "60", "ticket threshold in percent");
    if (!parser.parse(argc, argv, 2)) return 0;

    const double threshold = parser.get_double("threshold");
    const trace::Trace t = trace::read_trace_any_file(parser.get("trace.csv"));
    std::printf("trace: %zu boxes, %zu VMs\n\n", t.boxes.size(), t.total_vms());

    const auto c = ticketing::characterize_tickets(t, threshold);
    std::printf("threshold %.0f%%:\n", threshold);
    std::printf("  boxes with tickets: CPU %.1f%%  RAM %.1f%%\n",
                100 * c.boxes_with_cpu_tickets, 100 * c.boxes_with_ram_tickets);
    std::printf("  tickets/box:        CPU %.1f (+-%.1f)  RAM %.1f (+-%.1f)\n",
                c.mean_cpu_tickets_per_box, c.std_cpu_tickets_per_box,
                c.mean_ram_tickets_per_box, c.std_ram_tickets_per_box);
    std::printf("  culprit VMs:        CPU %.2f  RAM %.2f\n", c.mean_cpu_culprits,
                c.mean_ram_culprits);

    const auto corr = ticketing::characterize_correlations(t);
    std::printf("\ncorrelation (mean of per-box medians):\n");
    std::printf("  intra-CPU %.3f  intra-RAM %.3f  inter-all %.3f  inter-pair %.3f\n",
                ts::mean(corr.intra_cpu), ts::mean(corr.intra_ram),
                ts::mean(corr.inter_all), ts::mean(corr.inter_pair));
    return 0;
}

/// Reads the trace of `atm predict` / `atm resize`. A train window that
/// fits no box of it is a configuration error (exit 2), reported before
/// any box runs.
trace::Trace read_fleet_trace(const exec::ArgParser& parser,
                              const core::FleetConfig& config,
                              obs::MetricsRegistry& cli_metrics) {
    trace::Trace t = trace::read_trace_any_file(
        parser.get("trace.csv"), 96,
        config.collect_metrics ? &cli_metrics : nullptr);
    if (const std::string problems = config.validate(t); !problems.empty()) {
        throw exec::ArgParseError("FleetConfig: " + problems);
    }
    return t;
}

/// Exit status of `atm predict` / `atm resize` after their report: 130
/// for an interrupted (drained) run, 1 when no box was evaluated or
/// replayed (every box failed, or none was selected), 0 otherwise.
int fleet_exit_status(const core::FleetResult& fleet) {
    if (fleet.interrupted) {
        std::printf("interrupted: drained in-flight boxes and stopped; "
                    "re-run with --checkpoint <path> --resume to continue\n");
        return 130;  // 128 + SIGINT, the conventional interrupted status
    }
    if (fleet.boxes_evaluated() == 0) {
        std::fflush(stdout);  // the report first, then the verdict
        if (fleet.boxes_failed > 0) {
            std::fprintf(stderr,
                         "atm: every box failed (%zu); nothing evaluated\n",
                         fleet.boxes_failed);
        } else {
            std::fprintf(stderr,
                         "atm: nothing evaluated: the trace has no "
                         "selectable box (%zu skipped)\n",
                         fleet.boxes_skipped);
        }
        return 1;
    }
    return 0;
}

int cmd_predict(int argc, char** argv) {
    exec::ArgParser parser(
        "atm predict",
        "fleet signature search + next-day prediction accuracy per box");
    parser.positional("trace.csv", "input trace CSV");
    add_pipeline_flags(parser);
    if (!parser.parse(argc, argv, 2)) return 0;

    core::FleetConfig config = fleet_config_from_flags(parser);
    config.policies.clear();  // prediction only, no resizing
    install_sigint_drain();
    config.stop = &g_stop;
    // Trace loading happens outside any box pipeline, so its metrics live
    // in a CLI-owned registry merged into the report as `extra`.
    obs::MetricsRegistry cli_metrics;
    const trace::Trace t = read_fleet_trace(parser, config, cli_metrics);

    const core::FleetResult fleet = core::run_pipeline_on_fleet(t, config);

    // Partial outputs are still written on an interrupted (drained) run:
    // the report is atomic and the journal holds every finished box.
    if (const std::string& out = parser.get("metrics-out"); !out.empty()) {
        core::write_metrics_report_file(out, fleet, "predict",
                                        cli_metrics.snapshot());
        std::printf("metrics report: %s\n", out.c_str());
    }

    std::printf("%-12s %10s %10s %12s %10s\n", "box", "series", "signatures",
                "APE all(%)", "peak(%)");
    for (const core::FleetBoxResult& b : fleet.boxes) {
        if (!b.error.empty()) {
            std::printf("%-12s failed [%s@%s]: %s\n", b.box_name.c_str(),
                        core::to_string(b.error_code), b.error_stage.c_str(),
                        b.error.c_str());
            continue;
        }
        const auto& box = t.boxes[static_cast<std::size_t>(b.box_index)];
        std::printf("%-12s %10zu %10zu %12.1f %10.1f\n", b.box_name.c_str(),
                    box.vms.size() * 2, b.result.search.signatures.size(),
                    100.0 * b.result.ape_all, 100.0 * b.result.ape_peak);
    }
    if (fleet.boxes_evaluated() > 0) {
        std::printf("\nmean APE over %zu boxes: %.1f%% (peak %.1f%%)\n",
                    fleet.boxes_evaluated(), 100.0 * fleet.mean_ape_all,
                    100.0 * fleet.mean_ape_peak);
    }
    std::printf("%zu skipped, %zu failed; %d jobs, %.2fs wall\n",
                fleet.boxes_skipped, fleet.boxes_failed, fleet.jobs,
                fleet.wall_seconds);
    for (const auto& [code, count] : fleet.failures_by_code) {
        std::printf("  %zu x %s\n", count, core::to_string(code));
    }
    if (fleet.boxes_replayed > 0) {
        std::printf("%zu boxes replayed from checkpoint\n",
                    fleet.boxes_replayed);
    }
    return fleet_exit_status(fleet);
}

int cmd_resize(int argc, char** argv) {
    exec::ArgParser parser(
        "atm resize",
        "fleet next-day resizing from predicted demands; prints per-box tickets");
    parser.positional("trace.csv", "input trace CSV");
    add_pipeline_flags(parser);
    parser.option("policy", "atm", "resize policy: atm|max-min|stingy");
    if (!parser.parse(argc, argv, 2)) return 0;

    core::FleetConfig config = fleet_config_from_flags(parser);
    const std::string policy_name = parser.get("policy");
    if (policy_name == "atm") {
        config.policies = {resize::ResizePolicy::kAtmGreedy};
    } else if (policy_name == "max-min") {
        config.policies = {resize::ResizePolicy::kMaxMinFairness};
    } else if (policy_name == "stingy") {
        config.policies = {resize::ResizePolicy::kStingy};
    } else {
        throw exec::ArgParseError("unknown --policy '" + policy_name +
                                  "' (expected atm|max-min|stingy)");
    }
    install_sigint_drain();
    config.stop = &g_stop;
    obs::MetricsRegistry cli_metrics;
    const trace::Trace t = read_fleet_trace(parser, config, cli_metrics);

    const core::FleetResult fleet = core::run_pipeline_on_fleet(t, config);

    if (const std::string& out = parser.get("metrics-out"); !out.empty()) {
        core::write_metrics_report_file(out, fleet, "resize",
                                        cli_metrics.snapshot());
        std::printf("metrics report: %s\n", out.c_str());
    }

    std::printf("%-12s %14s %14s\n", "box", "CPU tickets", "RAM tickets");
    for (const core::FleetBoxResult& b : fleet.boxes) {
        if (!b.error.empty()) {
            std::printf("%-12s failed [%s@%s]: %s\n", b.box_name.c_str(),
                        core::to_string(b.error_code), b.error_stage.c_str(),
                        b.error.c_str());
            continue;
        }
        const auto& p = b.result.policies[0];
        std::printf("%-12s %6d -> %-6d %6d -> %-6d\n", b.box_name.c_str(),
                    p.cpu_before, p.cpu_after, p.ram_before, p.ram_after);
    }
    const core::FleetPolicyTotals& total = fleet.totals[0];
    const std::int64_t before = total.cpu_before + total.ram_before;
    const std::int64_t after = total.cpu_after + total.ram_after;
    std::printf("\ntotal: %lld -> %lld tickets (%.1f%% reduction, policy %s, "
                "%d jobs, %.2fs wall)\n",
                static_cast<long long>(before), static_cast<long long>(after),
                before > 0 ? 100.0 * static_cast<double>(before - after) /
                                 static_cast<double>(before)
                           : 0.0,
                policy_name.c_str(), fleet.jobs, fleet.wall_seconds);
    if (fleet.boxes_replayed > 0) {
        std::printf("%zu boxes replayed from checkpoint\n",
                    fleet.boxes_replayed);
    }
    return fleet_exit_status(fleet);
}

int cmd_backtest(int argc, char** argv) {
    exec::ArgParser parser(
        "atm backtest",
        "rolling-origin comparison of every temporal model on one series");
    parser.positional("trace.csv", "input trace CSV")
        .option("box", "", "box name (default: first box)")
        .option("vm", "0", "VM index within the box")
        .option("resource", "cpu", "series to backtest: cpu|ram");
    if (!parser.parse(argc, argv, 2)) return 0;

    const std::string box_name = parser.get("box");
    const int vm_index = parser.get_int("vm");
    const std::string resource = parser.get("resource");
    if (resource != "cpu" && resource != "ram") {
        throw exec::ArgParseError("unknown --resource '" + resource +
                                  "' (expected cpu|ram)");
    }
    const trace::Trace t = trace::read_trace_any_file(parser.get("trace.csv"));

    const trace::BoxTrace* box = nullptr;
    for (const trace::BoxTrace& b : t.boxes) {
        if (box_name.empty() || b.name == box_name) {
            box = &b;
            break;
        }
    }
    if (box == nullptr || vm_index < 0 ||
        static_cast<std::size_t>(vm_index) >= box->vms.size()) {
        std::fprintf(stderr, "atm backtest: box/vm not found\n");
        return 2;
    }
    const auto& series = resource == "ram"
                             ? box->vms[static_cast<std::size_t>(vm_index)].ram_demand_gb
                             : box->vms[static_cast<std::size_t>(vm_index)].cpu_demand_ghz;
    std::printf("backtesting %s (%zu samples)\n\n", series.name().c_str(),
                series.size());

    const auto results = forecast::compare_models(
        series.values(), t.windows_per_day,
        /*min_history=*/static_cast<std::size_t>(2 * t.windows_per_day),
        /*horizon=*/t.windows_per_day,
        /*step=*/static_cast<std::size_t>(t.windows_per_day));
    std::printf("%-16s %8s %12s %12s %8s\n", "model", "folds", "MAPE(%)",
                "peak(%)", "RMSE");
    for (const auto& r : results) {
        std::printf("%-16s %8zu %12.1f %12.1f %8.3f\n", r.model.c_str(),
                    r.folds.size(), 100.0 * r.mean_mape,
                    100.0 * r.mean_peak_mape, r.mean_rmse);
    }
    return 0;
}

int cmd_serve(int argc, char** argv) {
    exec::ArgParser parser(
        "atm serve",
        "run atmd: a streaming prediction/resizing daemon over a Unix "
        "socket (protocol atm.serve.v1); box metadata comes from the "
        "trace, samples from clients");
    parser.positional("trace.csv", "trace supplying box/VM metadata")
        .option("socket", "", "Unix-domain socket path to listen on")
        .option("method", "cbc", "clustering method: dtw|cbc")
        .option("model", "mlp", "temporal model: mlp|seasonal-naive")
        .option("threshold", "60", "ticket threshold in percent")
        .option("epsilon", "5", "discretization factor, % of VM capacity")
        .option("train-days", "5", "rolling-window length in days")
        .option("seed", "42", "model seed")
        .option("queue-depth", "256",
                "bounded ingest queue; beyond it clients get busy + "
                "retry-after (backpressure)")
        .option("drift-threshold", "0.25",
                "mean-|correlation| drift that re-triggers signature search")
        .option("retrain-every", "4", "warm-retrain cadence in windows")
        .option("retrain-epochs", "8", "SGD epochs per warm retrain")
        .option("train-epochs", "40", "SGD epochs per cold fit")
        .option("journal", "",
                "epoch journal path; enables crash-safe warm restart")
        .option("metrics-out", "",
                "serve metrics report (atm.serve-metrics.v1), written "
                "atomically and refreshed while serving")
        .option("metrics-every", "64",
                "rewrite the metrics report every N applied windows")
        .option("retry-after-ms", "25", "backpressure hint sent with busy")
        .option("apply-delay-ms", "0",
                "test seam: sleep before each apply (backpressure tests)")
        .option("fault-spec", "",
                "chaos testing, e.g. serve.ingest=throw@0.1 (answered "
                "busy) or serve.apply=throw@0.05 (window ingest-only)")
        .option("fault-seed", "42", "seed for the deterministic fault plan")
        .flag("resume", "warm-restart from --journal when its header matches");
    if (!parser.parse(argc, argv, 2)) return 0;

    serve::ServeConfig config;
    const std::string method = parser.get("method");
    if (method == "dtw") {
        config.pipeline.search.method = core::ClusteringMethod::kDtw;
    } else if (method == "cbc") {
        config.pipeline.search.method = core::ClusteringMethod::kCbc;
    } else {
        throw exec::ArgParseError("unknown --method '" + method +
                                  "' (expected dtw|cbc)");
    }
    const std::string model = parser.get("model");
    if (model == "mlp") {
        config.pipeline.temporal = forecast::TemporalModel::kNeuralNetwork;
    } else if (model == "seasonal-naive") {
        config.pipeline.temporal = forecast::TemporalModel::kSeasonalNaive;
    } else {
        throw exec::ArgParseError("unknown --model '" + model +
                                  "' (expected mlp|seasonal-naive)");
    }
    config.pipeline.alpha = parser.get_double("threshold") / 100.0;
    config.pipeline.epsilon_pct = parser.get_double("epsilon");
    config.pipeline.train_days = parser.get_int("train-days");
    config.pipeline.seed = static_cast<unsigned>(parser.get_u64("seed"));
    config.queue_depth = parser.get_int("queue-depth");
    config.drift_threshold = parser.get_double("drift-threshold");
    config.retrain_every = parser.get_int("retrain-every");
    config.retrain_epochs = parser.get_int("retrain-epochs");
    config.train_epochs = parser.get_int("train-epochs");
    config.journal_path = parser.get("journal");
    config.resume = parser.get_flag("resume");
    if (const std::string& fault_spec = parser.get("fault-spec");
        !fault_spec.empty()) {
        try {
            config.faults =
                exec::FaultPlan::parse(fault_spec, parser.get_u64("fault-seed"));
        } catch (const std::invalid_argument& e) {
            throw exec::ArgParseError(e.what());
        }
    }
    if (const std::string problems = config.validate(); !problems.empty()) {
        throw exec::ArgParseError(problems);
    }

    serve::DaemonOptions options;
    options.socket_path = parser.get("socket");
    if (options.socket_path.empty()) {
        throw exec::ArgParseError("--socket is required");
    }
    options.metrics_path = parser.get("metrics-out");
    if (!options.metrics_path.empty()) {
        exec::require_writable_file("metrics-out", options.metrics_path);
    }
    if (!config.journal_path.empty()) {
        exec::require_writable_file("journal", config.journal_path);
    }
    options.metrics_every_windows = parser.get_int("metrics-every");
    options.retry_after_ms = parser.get_double("retry-after-ms");
    options.apply_delay_ms = parser.get_double("apply-delay-ms");

    install_sigint_drain();
    options.stop = &g_stop;

    const trace::Trace t = trace::read_trace_any_file(parser.get("trace.csv"));
    serve::ServeDaemon daemon(t, config, options);
    std::printf("atmd: listening on %s (%zu boxes%s)\n",
                daemon.socket_path().c_str(), t.boxes.size(),
                config.resume ? ", resume" : "");
    std::fflush(stdout);
    const int code = daemon.run();
    std::printf("atmd: drained, exit %d\n", code);
    return code;
}

int cmd_play(int argc, char** argv) {
    exec::ArgParser parser(
        "atm play",
        "stream a trace's windows into a running atmd (reference client); "
        "retries on backpressure, skips epochs the daemon already has");
    parser.positional("trace.csv", "trace whose demand samples to stream")
        .option("socket", "", "daemon socket path")
        .option("windows", "-1",
                "stream at most this many windows per box; negative = all")
        .option("connect-timeout-ms", "10000", "daemon connect timeout")
        .flag("shutdown", "send a shutdown request after streaming");
    if (!parser.parse(argc, argv, 2)) return 0;

    const std::string socket_path = parser.get("socket");
    if (socket_path.empty()) throw exec::ArgParseError("--socket is required");
    const trace::Trace t = trace::read_trace_any_file(parser.get("trace.csv"));

    serve::ServeClient client = serve::ServeClient::connect(
        socket_path, parser.get_int("connect-timeout-ms"));
    std::printf("play: connected (%d boxes at daemon%s)\n",
                client.hello().boxes,
                client.hello().resumed ? ", warm restart" : "");

    std::size_t windows = t.boxes.empty() ? 0 : t.boxes.front().length();
    if (const int limit = parser.get_int("windows"); limit >= 0) {
        windows = std::min(windows, static_cast<std::size_t>(limit));
    }
    std::uint64_t applied = 0;
    std::uint64_t warming = 0;
    std::uint64_t stale = 0;
    std::uint64_t degraded = 0;
    std::vector<double> cpu;
    std::vector<double> ram;
    for (std::size_t epoch = 0; epoch < windows; ++epoch) {
        for (const trace::BoxTrace& box : t.boxes) {
            cpu.clear();
            ram.clear();
            for (const trace::VmTrace& vm : box.vms) {
                cpu.push_back(vm.cpu_demand_ghz.values()[epoch]);
                ram.push_back(vm.ram_demand_gb.values()[epoch]);
            }
            const serve::Response response =
                client.window_retry(box.name, epoch, cpu, ram);
            if (response.type == "error") {
                std::fprintf(stderr, "play: %s\n", response.message.c_str());
                return 1;
            }
            if (response.status == "applied") {
                ++applied;
                if (response.ladder != 0) ++degraded;
            } else if (response.status == "warming") {
                ++warming;
            } else if (response.status == "stale") {
                // This daemon already applied the window (a client
                // re-send). After a warm restart journaled windows are
                // re-applied, so they count as applied or warming.
                ++stale;
            } else {
                std::fprintf(stderr, "play: box %s epoch %zu: %s\n",
                             box.name.c_str(), epoch,
                             response.status.c_str());
                return 1;
            }
        }
    }
    std::printf("play: %llu applied (%llu degraded), %llu warming, "
                "%llu stale (already applied)\n",
                static_cast<unsigned long long>(applied),
                static_cast<unsigned long long>(degraded),
                static_cast<unsigned long long>(warming),
                static_cast<unsigned long long>(stale));
    if (parser.get_flag("shutdown")) {
        client.shutdown();
        std::printf("play: daemon shutdown requested\n");
    }
    return 0;
}

void print_usage(std::FILE* out) {
    std::fprintf(out,
                 "atm — Active Ticket Managing (DSN'16 reproduction)\n"
                 "usage: atm <subcommand> [args] [--help]\n\n"
                 "subcommands:\n"
                 "  generate      synthesize a monitoring trace as CSV\n"
                 "  characterize  ticket/correlation report over a trace\n"
                 "  predict       fleet next-day prediction accuracy (--jobs N)\n"
                 "  resize        fleet prediction-driven resizing (--jobs N)\n"
                 "  backtest      temporal-model comparison on one series\n"
                 "  serve         run atmd, the streaming daemon (Unix socket)\n"
                 "  play          stream a trace into a running atmd\n"
                 "  trace         pack/unpack between CSV and binary traces\n");
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2 || std::string(argv[1]) == "--help") {
        print_usage(argc < 2 ? stderr : stdout);
        return argc < 2 ? 2 : 0;
    }
    try {
        const std::string cmd = argv[1];
        if (cmd == "generate") return cmd_generate(argc, argv);
        if (cmd == "characterize") return cmd_characterize(argc, argv);
        if (cmd == "predict") return cmd_predict(argc, argv);
        if (cmd == "resize") return cmd_resize(argc, argv);
        if (cmd == "backtest") return cmd_backtest(argc, argv);
        if (cmd == "serve") return cmd_serve(argc, argv);
        if (cmd == "play") return cmd_play(argc, argv);
        if (cmd == "trace") return cmd_trace(argc, argv);
        std::fprintf(stderr, "atm: unknown subcommand '%s'\n", cmd.c_str());
        print_usage(stderr);
        return 2;
    } catch (const atm::exec::ArgParseError& e) {
        std::fprintf(stderr, "atm: %s\n", e.what());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "atm: %s\n", e.what());
        return 1;
    }
}
