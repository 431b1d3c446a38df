#include "core/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/fleet_journal.hpp"
#include "exec/journal.hpp"
#include "exec/parallel_for.hpp"
#include "exec/seed.hpp"
#include "linalg/simd/simd.hpp"

namespace atm::core {
namespace {

/// Resolves FleetConfig::jobs to a concrete worker count.
unsigned resolve_jobs(int jobs) {
    if (jobs > 0) return static_cast<unsigned>(jobs);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

/// Indices of the boxes a fleet run evaluates, in trace order.
std::vector<int> select_boxes(const trace::Trace& trace,
                              const FleetConfig& config) {
    std::vector<int> selected;
    for (std::size_t b = 0; b < trace.boxes.size(); ++b) {
        const trace::BoxTrace& box = trace.boxes[b];
        if (config.skip_gappy_boxes && box.has_gaps) continue;
        if (!config.box_names.empty() &&
            std::find(config.box_names.begin(), config.box_names.end(),
                      box.name) == config.box_names.end()) {
            continue;
        }
        if (config.max_boxes >= 0 &&
            selected.size() >= static_cast<std::size_t>(config.max_boxes)) {
            break;
        }
        selected.push_back(static_cast<int>(b));
    }
    return selected;
}

/// Sums per-box policy tickets into the fleet totals and computes the
/// mean APEs; boxes that failed contribute nothing.
void aggregate(const FleetConfig& config, FleetResult& fleet) {
    fleet.totals.assign(config.policies.size(), FleetPolicyTotals{});
    for (std::size_t p = 0; p < config.policies.size(); ++p) {
        fleet.totals[p].policy = config.policies[p];
    }
    double ape_all_sum = 0.0;
    double ape_peak_sum = 0.0;
    std::size_t evaluated = 0;
    std::size_t peak_boxes = 0;
    for (const FleetBoxResult& b : fleet.boxes) {
        if (!b.error.empty()) {
            ++fleet.boxes_failed;
            ++fleet.failures_by_code[b.error_code];
            continue;
        }
        ++evaluated;
        ape_all_sum += b.result.ape_all;
        if (b.result.ape_peak > 0.0) {
            ape_peak_sum += b.result.ape_peak;
            ++peak_boxes;
        }
        for (std::size_t p = 0;
             p < b.result.policies.size() && p < fleet.totals.size(); ++p) {
            // Widen before summing: per-box counts are int, but a
            // paper-scale fleet sum can exceed 2^31.
            fleet.totals[p].cpu_before +=
                static_cast<std::int64_t>(b.result.policies[p].cpu_before);
            fleet.totals[p].cpu_after +=
                static_cast<std::int64_t>(b.result.policies[p].cpu_after);
            fleet.totals[p].ram_before +=
                static_cast<std::int64_t>(b.result.policies[p].ram_before);
            fleet.totals[p].ram_after +=
                static_cast<std::int64_t>(b.result.policies[p].ram_after);
        }
    }
    if (evaluated > 0) {
        fleet.mean_ape_all = ape_all_sum / static_cast<double>(evaluated);
    }
    if (peak_boxes > 0) {
        fleet.mean_ape_peak = ape_peak_sum / static_cast<double>(peak_boxes);
    }
}

/// Shared scheduling skeleton of both fleet drivers: validate, select,
/// run every box on the parallel loop, fill result slots by index
/// (journaling and replaying when a checkpoint is configured), and
/// aggregate. Every box is evaluated at most once and runs to
/// completion: the pipeline is a deterministic in-memory computation, so
/// a failure would repeat. `evaluate_box` must be thread-compatible (it
/// only receives the box index, and writes the slot it owns).
template <typename EvaluateBox>
FleetResult run_fleet(const trace::Trace& trace, const FleetConfig& config,
                      const EvaluateBox& evaluate_box) {
    if (const std::string problems = config.validate(); !problems.empty()) {
        throw std::invalid_argument("FleetConfig: " + problems);
    }
    const auto start = std::chrono::steady_clock::now();

    FleetResult fleet;
    // Resolve the SIMD dispatch up front: the journal header binds it, and
    // an invalid ATM_SIMD should fail the run here, not mid-box.
    fleet.simd_path = simd::to_string(simd::active_path());
    fleet.boxes_in_trace = trace.boxes.size();
    const std::vector<int> selected = select_boxes(trace, config);
    fleet.boxes_skipped = trace.boxes.size() - selected.size();

    // Checkpoint journal: load the replayable prefix (resume) and open the
    // writer. A header mismatch — different trace, result-affecting
    // config, seed or SIMD path — means the old journal answers a
    // different question, so it is ignored, the file starts fresh, and
    // the result says why.
    std::map<int, FleetBoxResult> replayed;
    std::optional<exec::JournalWriter> journal;
    if (!config.checkpoint_path.empty()) {
        const std::string header =
            journal_header(kFleetJournalSchema, trace,
                           fleet_config_digest(config), config.pipeline.seed);
        bool fresh = true;
        if (config.resume) {
            const exec::JournalLoad load =
                exec::load_journal(config.checkpoint_path);
            if (load.exists && load.header == header) {
                // A record that fails to *decode* is treated like checksum
                // corruption: keep the boxes before it, truncate the rest.
                std::uint64_t keep_bytes = load.header_end;
                for (std::size_t i = 0; i < load.records.size(); ++i) {
                    FleetBoxResult box;
                    try {
                        box = decode_box_record(load.records[i]);
                    } catch (const std::exception&) {
                        break;
                    }
                    const int index = box.box_index;
                    replayed.insert({index, std::move(box)});
                    keep_bytes = load.record_ends[i];
                }
                journal.emplace(exec::JournalWriter::append_after(
                    config.checkpoint_path, keep_bytes));
                fresh = false;
            } else if (load.exists) {
                fleet.checkpoint_discarded =
                    journal_header_mismatch(load.header, header);
            }
        }
        if (fresh) {
            journal.emplace(
                exec::JournalWriter::create(config.checkpoint_path, header));
        }
    }

    const unsigned jobs = resolve_jobs(config.jobs);
    fleet.jobs = static_cast<int>(jobs);

    fleet.boxes.resize(selected.size());
    // jobs == 1 runs strictly on the calling thread; the determinism tests
    // compare this path against the parallel one.
    exec::parallel_for(selected.size(), jobs, [&](std::size_t task) {
        const int box_index = selected[task];
        FleetBoxResult& slot = fleet.boxes[task];
        slot.box_index = box_index;
        slot.box_name = trace.boxes[static_cast<std::size_t>(box_index)].name;
        // Resume: replay the journaled outcome bit-identically. The
        // journal key is the box index (stable in trace order), so the
        // replay is independent of worker scheduling.
        if (const auto it = replayed.find(box_index); it != replayed.end()) {
            const std::string name = std::move(slot.box_name);
            slot = it->second;
            slot.box_index = box_index;
            slot.box_name = name;
            return;
        }
        // Operator drain: boxes not yet started when the stop flag is set
        // are recorded as kCancelled — and NOT journaled, so a resume
        // evaluates them. In-flight boxes run to completion below.
        if (config.stop != nullptr && config.stop->load()) {
            slot.error = "cancelled before start (operator stop)";
            slot.error_code = PipelineErrorCode::kCancelled;
            slot.error_stage = "fleet";
            return;
        }
        try {
            evaluate_box(box_index, slot.result);
        } catch (const PipelineError& e) {
            slot.error = e.what();
            slot.error_code = e.code();
            slot.error_stage = e.stage();
        } catch (const std::invalid_argument& e) {
            // Precondition violations from lower layers (shape
            // mismatches, out-of-range days) mean the box's input was
            // unusable.
            slot.error = e.what();
            slot.error_code = PipelineErrorCode::kTraceInvalid;
            slot.error_stage = "input";
        } catch (const std::exception& e) {
            slot.error = e.what();
            slot.error_code = PipelineErrorCode::kInternal;
            slot.error_stage = "unknown";
        }
        // Journal the outcome — success or settled failure. (The drained
        // boxes returned above are not journaled: they describe this
        // run's interruption, not the box, and a resume evaluates them.)
        if (journal) journal->append(encode_box_record(slot));
    });

    aggregate(config, fleet);
    for (const FleetBoxResult& b : fleet.boxes) {
        if (replayed.count(b.box_index) != 0) ++fleet.boxes_replayed;
    }
    fleet.interrupted = config.stop != nullptr && config.stop->load();
    if (config.collect_metrics) {
        // Trace order, so the fleet merge is independent of scheduling.
        for (const FleetBoxResult& b : fleet.boxes) {
            if (b.error.empty()) fleet.metrics.merge(b.result.metrics);
        }
        // Structured failure counters, also in trace order. These only
        // exist when a box failed, so the clean golden run's counter set
        // is unchanged.
        for (const FleetBoxResult& b : fleet.boxes) {
            if (!b.error.empty()) {
                fleet.metrics.counters[error_counter_name(b.error_code)] += 1;
            }
        }
    }
    fleet.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return fleet;
}

}  // namespace

std::string FleetConfig::validate() const {
    std::string problems = pipeline.validate();
    const auto add = [&problems](const std::string& p) {
        if (!problems.empty()) problems += "; ";
        problems += p;
    };
    if (jobs < 0 || jobs > kMaxJobs) {
        add("jobs must be in [0, " + std::to_string(kMaxJobs) +
            "] (0 = hardware concurrency), got " + std::to_string(jobs));
    }
    if (resume && checkpoint_path.empty()) {
        add("resume requires a non-empty checkpoint_path");
    }
    return problems;
}

std::string FleetConfig::validate(const trace::Trace& trace) const {
    std::string problems = validate();
    const auto add = [&problems](const std::string& p) {
        if (!problems.empty()) problems += "; ";
        problems += p;
    };
    // The pipeline needs train_days of history plus one evaluation day.
    // Check against the longest box: short boxes still fail individually
    // with kTraceInvalid, but a train window no box can satisfy is a
    // configuration error, not a data problem.
    std::size_t longest = 0;
    for (const trace::BoxTrace& box : trace.boxes) {
        longest = std::max(longest, box.length());
    }
    const std::size_t needed =
        (static_cast<std::size_t>(std::max(pipeline.train_days, 1)) + 1) *
        static_cast<std::size_t>(trace.windows_per_day);
    if (!trace.boxes.empty() && longest < needed) {
        add("train_days = " + std::to_string(pipeline.train_days) + " needs " +
            std::to_string(needed) + " windows per box but the longest box has " +
            std::to_string(longest));
    }
    return problems;
}

FleetResult run_pipeline_on_fleet(const trace::Trace& trace,
                                  const FleetConfig& config) {
    // The trace-aware overload additionally checks that the train window
    // fits; evaluate_resize_on_fleet skips it (it never trains).
    if (const std::string problems = config.validate(trace); !problems.empty()) {
        throw std::invalid_argument("FleetConfig: " + problems);
    }
    return run_fleet(
        trace, config,
        [&trace, &config](int box_index, BoxPipelineResult& out) {
            PipelineConfig box_config = config.pipeline;
            // Per-box seed from (fleet seed, box index): independent of
            // worker count and scheduling order, distinct per box.
            box_config.seed = static_cast<unsigned>(exec::derive_seed(
                config.pipeline.seed, static_cast<std::uint64_t>(box_index)));
            // One registry per box, written only by the worker running it.
            std::optional<obs::MetricsRegistry> registry;
            if (config.collect_metrics) {
                registry.emplace();
                box_config.metrics = &*registry;
            }
            out = run_pipeline_on_box(
                trace.boxes[static_cast<std::size_t>(box_index)],
                trace.windows_per_day, box_config, config.policies);
        });
}

FleetResult evaluate_resize_on_fleet(const trace::Trace& trace, int day,
                                     const FleetConfig& config) {
    return run_fleet(trace, config,
                     [&trace, &config, day](int box_index,
                                            BoxPipelineResult& out) {
                         std::optional<obs::MetricsRegistry> registry;
                         if (config.collect_metrics) registry.emplace();
                         obs::MetricsRegistry* metrics =
                             registry ? &*registry : nullptr;
                         out.policies = evaluate_resize_policies_on_actuals(
                             trace.boxes[static_cast<std::size_t>(box_index)],
                             trace.windows_per_day, day, config.pipeline.alpha,
                             config.pipeline.epsilon_pct, config.policies,
                             config.pipeline.use_lower_bounds, metrics);
                         if (metrics != nullptr) out.metrics = metrics->snapshot();
                     });
}

}  // namespace atm::core
