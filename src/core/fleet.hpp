#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/pipeline.hpp"

namespace atm::core {

/// Fleet-level configuration: the per-box PipelineConfig plus execution
/// and box-selection knobs. The CLI and examples construct pipeline runs
/// only through this type, so every entry point shares one validation
/// path (`validate()`) instead of each caller re-checking ranges.
struct FleetConfig {
    PipelineConfig pipeline;

    /// Workers of the fleet's box loop (exec::parallel_for): 0 = hardware
    /// concurrency, 1 = fully serial (no threads), at most kMaxJobs.
    /// Results are bit-identical for every value — per-box seeds are
    /// derived from `pipeline.seed` and the box index (splitmix64), never
    /// from scheduling order.
    int jobs = 0;
    /// Upper bound on `jobs`: `validate()` rejects more, so a mistyped
    /// `--jobs` cannot ask the OS for an unbounded number of threads.
    static constexpr int kMaxJobs = 256;

    /// Drop boxes whose monitoring data has gaps (the paper's Section V
    /// evaluation keeps only the gap-free boxes).
    bool skip_gappy_boxes = true;

    /// Evaluate only boxes with these names; empty = every box.
    std::vector<std::string> box_names;

    /// Evaluate at most this many selected boxes (in trace order);
    /// negative = unlimited.
    int max_boxes = -1;

    /// Policies evaluated per box. Empty = prediction only (no resizing),
    /// as in the Fig. 9 accuracy study.
    std::vector<resize::ResizePolicy> policies = default_policies();

    /// Collect stage metrics: each box gets its own MetricsRegistry (so
    /// attribution is exact per box), its snapshot lands in
    /// BoxPipelineResult::metrics, and the per-box snapshots are merged —
    /// in trace order, so counter sums are identical for every `jobs`
    /// value — into FleetResult::metrics. Off by default: the pipeline
    /// then runs with a null registry at near-zero overhead.
    bool collect_metrics = false;

    /// Crash-safe checkpoint journal (DESIGN.md §7.12): when non-empty,
    /// every finished box is appended (framed + fsync'd) to this file as
    /// it completes, under a header binding (trace fingerprint, config
    /// digest, seed). Empty (the default) disables journaling.
    std::string checkpoint_path;

    /// Resume from `checkpoint_path`: boxes already journaled by a
    /// matching previous run are replayed bit-identically instead of
    /// recomputed, so a resumed run's FleetResult equals an uninterrupted
    /// one (modulo wall_seconds/jobs/boxes_replayed). A journal whose
    /// header does not match the current trace + config is ignored and
    /// the run starts fresh. Requires a non-empty `checkpoint_path`.
    bool resume = false;

    /// Optional operator stop flag (not owned), checked between boxes.
    /// Once set, boxes not yet started are recorded as kCancelled (and
    /// not journaled) while in-flight boxes run to completion and are
    /// journaled — the graceful-drain half of the CLI's SIGINT handling.
    const std::atomic<bool>* stop = nullptr;

    /// Empty string when the configuration is usable; otherwise a
    /// human-readable description of every out-of-range value.
    [[nodiscard]] std::string validate() const;

    /// Same, plus trace-dependent checks: `train_days` + the evaluation
    /// day must fit in the longest box. Used by run_pipeline_on_fleet
    /// (evaluate_resize_on_fleet never trains, so it skips this).
    [[nodiscard]] std::string validate(const trace::Trace& trace) const;
};

/// Outcome of one box inside a fleet run.
struct FleetBoxResult {
    /// Index into Trace::boxes (results are returned in trace order,
    /// independent of worker scheduling).
    int box_index = -1;
    std::string box_name;
    BoxPipelineResult result;
    /// Non-empty if the box's pipeline threw; `result` is then empty and
    /// the box is excluded from the aggregates below.
    std::string error;
    /// Structured failure taxonomy alongside the message: kNone while the
    /// box succeeded; PipelineError's own code for classified failures;
    /// kInternal for anything the taxonomy does not know.
    PipelineErrorCode error_code = PipelineErrorCode::kNone;
    /// Stage the failure came from; empty on success.
    std::string error_stage;
};

/// Fleet-wide ticket sums for one policy. Deliberately wider than the
/// per-box PolicyTickets: a paper-scale fleet (thousands of boxes x
/// hundreds of windows x tens of VMs) overflows 32-bit sums long before
/// it overflows per-box counts, so the accumulators are 64-bit.
struct FleetPolicyTotals {
    resize::ResizePolicy policy = resize::ResizePolicy::kAtmGreedy;
    std::int64_t cpu_before = 0;
    std::int64_t cpu_after = 0;
    std::int64_t ram_before = 0;
    std::int64_t ram_after = 0;

    /// Signed reduction percentage; 0 when there were no tickets before.
    [[nodiscard]] double cpu_reduction_pct() const {
        return cpu_before == 0
                   ? 0.0
                   : 100.0 * static_cast<double>(cpu_before - cpu_after) /
                         static_cast<double>(cpu_before);
    }
    [[nodiscard]] double ram_reduction_pct() const {
        return ram_before == 0
                   ? 0.0
                   : 100.0 * static_cast<double>(ram_before - ram_after) /
                         static_cast<double>(ram_before);
    }
};

/// Fleet-level outcome: per-box results plus cross-box aggregates.
struct FleetResult {
    /// One entry per *evaluated* box (selected, gap-filtered, capped), in
    /// trace order.
    std::vector<FleetBoxResult> boxes;

    std::size_t boxes_in_trace = 0;
    /// Boxes excluded by name selection, the gap filter, or `max_boxes`.
    std::size_t boxes_skipped = 0;
    /// Boxes whose pipeline threw (subset of `boxes`).
    std::size_t boxes_failed = 0;
    /// Failed boxes bucketed by taxonomy code (empty when none failed).
    /// When `collect_metrics` is on, the same counts land in
    /// FleetResult::metrics as `robust.error.<code>` counters, merged in
    /// trace order.
    std::map<PipelineErrorCode, std::size_t> failures_by_code;

    /// Fleet-wide ticket sums per policy, same order as
    /// FleetConfig::policies: cpu/ram before and after summed over every
    /// successfully evaluated box (64-bit — see FleetPolicyTotals).
    std::vector<FleetPolicyTotals> totals;

    /// Mean per-box APE over successfully evaluated boxes ("All" /
    /// "Peak" of Fig. 9; peak mean skips boxes without peak windows).
    double mean_ape_all = 0.0;
    double mean_ape_peak = 0.0;

    /// Merge of every evaluated box's metrics snapshot (trace order);
    /// empty unless FleetConfig::collect_metrics was set. Counters and
    /// histogram counts are deterministic across job counts; timer values
    /// are wall-clock measurements and are not.
    obs::MetricsSnapshot metrics;

    /// Wall-clock duration of the run (scheduling + compute).
    double wall_seconds = 0.0;
    /// Worker count actually used (jobs after hardware-concurrency
    /// resolution).
    int jobs = 0;
    /// SIMD kernel path the run dispatched to ("scalar", "avx2",
    /// "avx512") — recorded in metrics reports and BENCH JSON so
    /// perf numbers are attributable to an ISA. Bound by the checkpoint
    /// journal header: a resume under a different path starts fresh
    /// (vectorized MLP forwards may drift by ULPs from scalar, so mixed
    /// journals would break resume bit-equivalence).
    std::string simd_path;
    /// Boxes replayed bit-identically from the resume journal instead of
    /// recomputed. Like wall_seconds/jobs, excluded from the
    /// resume-equivalence contract (it describes how the run executed,
    /// not what it computed).
    std::size_t boxes_replayed = 0;
    /// Set when FleetConfig::resume found a checkpoint journal written for
    /// a different run: the journal was started afresh and no box was
    /// replayed. Names what differs (journal_header_mismatch), e.g.
    /// "trace"; empty otherwise. Like boxes_replayed, outside
    /// the resume-equivalence contract.
    std::string checkpoint_discarded;
    /// True when FleetConfig::stop drained this run: some boxes were
    /// recorded as kCancelled without being evaluated (or journaled).
    bool interrupted = false;

    [[nodiscard]] std::size_t boxes_evaluated() const {
        return boxes.size() - boxes_failed;
    }
};

/// Runs the full ATM pipeline over every selected box of the trace on
/// the parallel box loop (exec::parallel_for), each box serially on one
/// thread with scratch of its own. Throws
/// std::invalid_argument when `config.validate()` reports problems.
/// Deterministic: per-box seeds are splitmix64-derived from
/// (config.pipeline.seed, box index), and results land in trace order — `jobs = 1`
/// and `jobs = N` produce bit-identical results. With
/// `checkpoint_path`/`resume` set the run is additionally crash-safe:
/// finished boxes are journaled as they complete and a resumed run
/// replays them bit-identically (DESIGN.md §7.12).
FleetResult run_pipeline_on_fleet(const trace::Trace& trace,
                                  const FleetConfig& config);

/// Fleet version of the Fig. 8 study: resizing with *perfect* demand
/// knowledge of day `day` (no prediction; `pipeline.temporal`,
/// `pipeline.search` and the seed are unused). Only the `policies`
/// tickets of each FleetBoxResult are populated.
FleetResult evaluate_resize_on_fleet(const trace::Trace& trace, int day,
                                     const FleetConfig& config);

}  // namespace atm::core
