// Robustness suite (ctest -L robust): the degradation ladder and the
// fleet's failure isolation driven from hostile trace files. The fleet
// runs assert the robustness contract of DESIGN.md §7.11: no crash,
// structured error codes, exact exclusion of failed boxes from
// aggregates, finite outputs from degraded boxes, and bit-identical
// results for jobs=1 vs jobs=8 and for a resume from any cut point.
//
// Every degraded or failed box in a fleet here comes from CSV text the
// test writes and reads back through read_trace_csv, the path a trace
// file takes. Both readers reject non-finite and negative samples at
// load, so the pipeline's own rejection of them is checked on boxes
// built in memory.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/fleet.hpp"
#include "core/fleet_journal.hpp"
#include "core/pipeline.hpp"
#include "core/spatial_model.hpp"
#include "exec/journal.hpp"
#include "exec/seed.hpp"
#include "linalg/simd/simd.hpp"
#include "tracegen/generator.hpp"
#include "tracegen/trace_io.hpp"

namespace atm {
namespace {

using core::PipelineErrorCode;

constexpr int kWindowsPerDay = 24;

// ------------------------------------------------------------ hostile traces

trace::Trace small_trace(int boxes) {
    trace::TraceGenOptions options;
    options.num_boxes = boxes;
    options.num_days = 6;  // 5 training days + 1 evaluation day
    options.windows_per_day = kWindowsPerDay;
    options.gappy_box_fraction = 0.0;
    options.seed = 20150403;
    return trace::generate_trace(options);
}

std::string to_csv(const trace::Trace& t) {
    std::ostringstream out;
    trace::write_trace_csv(out, t);
    return out.str();
}

trace::Trace from_csv(const std::string& csv) {
    std::istringstream in(csv);
    return trace::read_trace_csv(in, kWindowsPerDay);
}

/// Rewrites the data rows of box `box` in CSV text: `edit` gets each
/// row's nine fields and returns false to drop the row.
std::string edit_rows(const std::string& csv, const std::string& box,
                      const std::function<bool(std::vector<std::string>&)>& edit) {
    std::istringstream in(csv);
    std::string out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(box + ",", 0) == 0) {
            std::vector<std::string> fields;
            std::istringstream row(line);
            for (std::string f; std::getline(row, f, ',');) fields.push_back(f);
            if (!edit(fields)) continue;
            line.clear();
            for (const std::string& f : fields) {
                line += (line.empty() ? "" : ",") + f;
            }
        }
        out += line + '\n';
    }
    return out;
}

/// Multiplies box `box`'s demand columns by `factor`: monitoring exported
/// in the wrong unit. 1e200 is finite, so both readers load it, and large
/// enough that DTW distances, OLS normal equations and AR fits overflow.
std::string scale_demands(const std::string& csv, const std::string& box,
                          double factor) {
    return edit_rows(csv, box, [factor](std::vector<std::string>& f) {
        for (const std::size_t col : {7u, 8u}) {
            std::ostringstream value;
            value.precision(17);
            value << std::stod(f[col]) * factor;
            f[col] = value.str();
        }
        return true;
    });
}

/// Drops the rows of box `box` from window `from` on, for VM `vm` only
/// (a ragged box) or for every VM when `vm` is empty (a short box).
std::string cut_rows(const std::string& csv, const std::string& box,
                     const std::string& vm, long from) {
    return edit_rows(csv, box, [&](std::vector<std::string>& f) {
        return (!vm.empty() && f[1] != vm) || std::stol(f[2]) < from;
    });
}

constexpr int kHugeBox = 2;

/// The hostile trace of the fleet-level tests, `boxes` >= 4 generated
/// boxes read back from CSV: box kHugeBox has its demands scaled by 1e200
/// (it degrades), the last box has its last VM cut to half a day (it is
/// ragged and fails at input), and the rest are clean.
trace::Trace hostile_trace(int boxes) {
    const trace::Trace t = small_trace(boxes);
    const trace::BoxTrace& last = t.boxes.back();
    std::string csv = to_csv(t);
    csv = scale_demands(csv, t.boxes[kHugeBox].name, 1e200);
    csv = cut_rows(csv, last.name, last.vms.back().name, kWindowsPerDay / 2);
    return from_csv(csv);
}

core::FleetConfig fleet_config() {
    core::FleetConfig config;
    config.pipeline.temporal = forecast::TemporalModel::kSeasonalNaive;
    config.pipeline.train_days = 5;
    config.jobs = 1;
    config.collect_metrics = true;
    return config;
}

/// DTW search and AR forecasts: on the 1e200 box both fail, so the search
/// and forecast rungs fire.
core::FleetConfig ladder_config() {
    core::FleetConfig config = fleet_config();
    config.pipeline.temporal = forecast::TemporalModel::kAutoregressive;
    return config;
}

bool has_degradation(const core::BoxPipelineResult& result,
                     const std::string& stage, PipelineErrorCode code) {
    for (const core::Degradation& d : result.degradations) {
        if (d.stage == stage && d.code == code) return true;
    }
    return false;
}

bool has_degradation(const core::BoxPipelineResult& result,
                     const std::string& stage) {
    for (const core::Degradation& d : result.degradations) {
        if (d.stage == stage) return true;
    }
    return false;
}

// ------------------------------------------------- the ladder, from a file

TEST(ChaosFleetTest, RecoverableSitesEngageFallbacksNotFailures) {
    const trace::Trace t = hostile_trace(4);
    for (const core::ClusteringMethod method :
         {core::ClusteringMethod::kDtw, core::ClusteringMethod::kCbc}) {
        SCOPED_TRACE(method == core::ClusteringMethod::kDtw ? "dtw" : "cbc");
        core::FleetConfig config = ladder_config();
        config.pipeline.search.method = method;
        const core::FleetResult fleet = core::run_pipeline_on_fleet(t, config);

        ASSERT_EQ(fleet.boxes.size(), 4u);
        EXPECT_EQ(fleet.boxes_failed, 1u);  // the ragged box, nothing else
        for (const core::FleetBoxResult& b : fleet.boxes) {
            if (b.box_index == 3) continue;
            EXPECT_TRUE(b.error.empty()) << b.error;
            EXPECT_TRUE(std::isfinite(b.result.ape_all));
            EXPECT_TRUE(std::isfinite(b.result.ape_peak));
            ASSERT_FALSE(b.result.policies.empty());
            for (const core::PolicyTickets& p : b.result.policies) {
                EXPECT_GE(p.cpu_after, 0);
                EXPECT_GE(p.ram_after, 0);
            }
            if (b.box_index != kHugeBox) {
                EXPECT_TRUE(b.result.degradations.empty()) << b.box_index;
            }
        }
        const core::BoxPipelineResult& huge = fleet.boxes[kHugeBox].result;
        // DTW distances overflow, so clustering has no finite silhouette;
        // CBC still clusters (correlation ignores scale), but the OLS fit
        // of the dependents overflows even with ridge.
        if (method == core::ClusteringMethod::kDtw) {
            EXPECT_TRUE(has_degradation(huge, "search",
                                        PipelineErrorCode::kSearchDegenerate));
            EXPECT_EQ(fleet.metrics.counter("robust.fallback.search"), 1u);
            EXPECT_EQ(fleet.metrics.counter("robust.fallback.spatial"), 0u);
        } else {
            EXPECT_TRUE(has_degradation(huge, "spatial"));
            EXPECT_EQ(fleet.metrics.counter("robust.fallback.search"), 0u);
            EXPECT_EQ(fleet.metrics.counter("robust.fallback.spatial"), 1u);
        }
        EXPECT_TRUE(has_degradation(huge, "forecast",
                                    PipelineErrorCode::kModelFitFailed));
        EXPECT_EQ(fleet.metrics.counter("robust.fallback.forecast"),
                  huge.search.signatures.size());
        EXPECT_EQ(fleet.metrics.counter("robust.fallback.resize"), 0u);
    }
}

TEST(DegradationLadderTest, ArForecastFallsBackToSeasonalNaiveOnHugeDemand) {
    const trace::Trace clean = small_trace(1);
    const trace::Trace t =
        from_csv(scale_demands(to_csv(clean), clean.boxes[0].name, 1e200));
    core::PipelineConfig config = ladder_config().pipeline;
    obs::MetricsRegistry metrics;
    config.metrics = &metrics;
    const core::BoxPipelineResult result =
        core::run_pipeline_on_box(t.boxes[0], kWindowsPerDay, config);

    // The search fell back to the all-signature set, so every series is
    // forecast on its own, and every AR fit failed: each prediction is
    // the seasonal-naive one, the series' last training day.
    const la::FlatMatrix demands = t.boxes[0].demand_matrix();
    ASSERT_EQ(result.search.signatures.size(), demands.size());
    ASSERT_EQ(result.predicted_demands.size(), demands.size());
    const std::size_t last_day = 4 * kWindowsPerDay;
    for (std::size_t i = 0; i < demands.size(); ++i) {
        const std::span<const double> want =
            demands[i].subspan(last_day, kWindowsPerDay);
        EXPECT_EQ(result.predicted_demands[i],
                  std::vector<double>(want.begin(), want.end()))
            << "series " << i;
    }
    std::size_t forecast_rungs = 0;
    for (const core::Degradation& d : result.degradations) {
        if (d.stage != "forecast") continue;
        ++forecast_rungs;
        EXPECT_EQ(d.code, PipelineErrorCode::kModelFitFailed);
        EXPECT_NE(d.detail.find("; fell back to seasonal-naive"),
                  std::string::npos)
            << d.detail;
    }
    EXPECT_EQ(forecast_rungs, demands.size());
    EXPECT_EQ(metrics.snapshot().counter("robust.fallback.forecast"),
              demands.size());
    EXPECT_TRUE(std::isfinite(result.ape_all));
}

TEST(DegradationLadderTest, ResizeFallsBackWhenKeptCapacitiesOvershootTheBudget) {
    // Two VMs, each peaking at exactly 10 GHz every day, on a 20 GHz box:
    // the lower bounds (yesterday's peaks) sum to the budget, so they are
    // kept. Each VM's current capacity, 10 + 9e-10 GHz, is a candidate
    // that passes its bound within the 1e-9 tolerance and is its cheapest
    // one, yet the two together exceed the budget by 1.8e-9: no candidate
    // choice fits, the ATM greedy reports infeasible, and the box falls
    // back to max-min fairness.
    std::string csv =
        "box,vm,window,cpu_capacity_ghz,ram_capacity_gb,cpu_usage_pct,"
        "ram_usage_pct,cpu_demand_ghz,ram_demand_gb\n#box,tight,20,200,0\n";
    for (const char* vm : {"vm0", "vm1"}) {
        for (int t = 0; t < 6 * kWindowsPerDay; ++t) {
            const bool peak = t % kWindowsPerDay == kWindowsPerDay / 2;
            csv += std::string("tight,") + vm + "," + std::to_string(t) +
                   ",10.0000000009,40," + (peak ? "100" : "20") + ",12.5," +
                   (peak ? "10" : "2") + ",5\n";
        }
    }
    const trace::Trace t = from_csv(csv);
    obs::MetricsRegistry metrics;
    const std::vector<core::PolicyTickets> tickets =
        core::evaluate_resize_policies_on_actuals(
            t.boxes[0], kWindowsPerDay, 5, 0.6, 5.0, core::default_policies(),
            /*use_lower_bounds=*/true, &metrics);
    const obs::MetricsSnapshot snapshot = metrics.snapshot();
    EXPECT_EQ(snapshot.counter("resize.mckp.infeasible"), 1u);  // CPU only
    EXPECT_EQ(snapshot.counter("robust.fallback.resize"), 1u);
    ASSERT_EQ(tickets.size(), 1u);
    // Max-min fairness splits the 20 GHz evenly, and a 10 GHz peak on a
    // 10 GHz allocation is still past the 60% threshold: each VM keeps the
    // one ticket it had.
    EXPECT_EQ(tickets[0].cpu_before, 2);
    EXPECT_EQ(tickets[0].cpu_after, 2);
}

TEST(DegradationLadderTest, SpatialRidgeFallbackOnUnderdeterminedFit) {
    // 3 training samples against 3 signatures + intercept: OLS is
    // underdetermined and must hand the dependent series to ridge.
    const la::FlatMatrix series({{1.0, 2.0, 3.0},
                                 {2.0, 1.0, 4.0},
                                 {0.5, 0.5, 1.0},
                                 {1.5, 2.5, 3.5}});
    core::SpatialModel model;
    model.fit(series, {0, 1, 2});
    EXPECT_TRUE(model.fitted());
    EXPECT_EQ(model.ridge_fallbacks(), 1u);
    const auto rebuilt = model.reconstruct(la::FlatMatrix(
        {{1.0, 2.0, 3.0}, {2.0, 1.0, 4.0}, {0.5, 0.5, 1.0}}));
    ASSERT_EQ(rebuilt.size(), 4u);
    for (const double x : rebuilt[3]) EXPECT_TRUE(std::isfinite(x));
}

// ------------------------------------------------------ rejected input

TEST(DegradationLadderTest, OverlyCorruptBoxIsRejectedWithTaxonomy) {
    // The readers never load such a sample, but a box built in memory
    // gets the same verdict: one bad sample rejects the whole box.
    const trace::BoxTrace clean = small_trace(1).boxes[0];
    core::PipelineConfig config = fleet_config().pipeline;
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(), -1.0}) {
        trace::BoxTrace box = clean;
        box.vms[0].ram_demand_gb.values()[7] = bad;
        try {
            core::run_pipeline_on_box(box, kWindowsPerDay, config);
            FAIL() << "expected PipelineError for " << bad;
        } catch (const core::PipelineError& e) {
            EXPECT_EQ(e.code(), PipelineErrorCode::kTraceInvalid);
            EXPECT_EQ(e.stage(), "input");
            EXPECT_NE(std::string(e.what()).find(
                          "VM " + box.vms[0].name +
                          " has a non-finite or negative ram demand at "
                          "window 7"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ChaosFleetTest, HeavyCorruptionRejectsEveryBox) {
    trace::Trace t = small_trace(4);
    const double bad[] = {std::numeric_limits<double>::quiet_NaN(), -0.5,
                          std::numeric_limits<double>::infinity(), -1e-300};
    for (std::size_t b = 0; b < t.boxes.size(); ++b) {
        trace::VmTrace& vm = t.boxes[b].vms.back();
        (b % 2 == 0 ? vm.cpu_demand_ghz : vm.ram_demand_gb).values()[b * 11] =
            bad[b];
    }
    const core::FleetResult fleet = core::run_pipeline_on_fleet(t, fleet_config());

    ASSERT_EQ(fleet.boxes.size(), 4u);
    EXPECT_EQ(fleet.boxes_failed, 4u);
    EXPECT_EQ(fleet.boxes_evaluated(), 0u);
    for (const core::FleetBoxResult& b : fleet.boxes) {
        EXPECT_FALSE(b.error.empty());
        EXPECT_EQ(b.error_code, PipelineErrorCode::kTraceInvalid);
        EXPECT_EQ(b.error_stage, "input");
        EXPECT_TRUE(b.result.policies.empty());
    }
    ASSERT_EQ(fleet.failures_by_code.size(), 1u);
    EXPECT_EQ(fleet.failures_by_code.at(PipelineErrorCode::kTraceInvalid), 4u);
    EXPECT_EQ(fleet.metrics.counter("robust.error.trace-invalid"), 4u);
    // Failed boxes contribute nothing to the aggregates.
    EXPECT_EQ(fleet.mean_ape_all, 0.0);
    for (const core::FleetPolicyTotals& p : fleet.totals) {
        EXPECT_EQ(p.cpu_before, 0);
        EXPECT_EQ(p.cpu_after, 0);
        EXPECT_EQ(p.ram_before, 0);
        EXPECT_EQ(p.ram_after, 0);
    }
}

TEST(ChaosFleetTest, TruncationExcludesFailedBoxesFromAggregatesExactly) {
    // Boxes 1, 4 and 6 lose their last 1.5 days in the file and can no
    // longer fit the 5-day training window: they must fail as invalid
    // input, and the aggregates must be exactly the survivors' sums.
    const trace::Trace generated = small_trace(8);
    const std::string csv = to_csv(generated);
    std::string truncated_csv = csv;
    const std::set<int> truncated{1, 4, 6};
    for (const int b : truncated) {
        truncated_csv = cut_rows(truncated_csv, generated.boxes[b].name, "",
                                 4 * kWindowsPerDay + kWindowsPerDay / 2);
    }
    const core::FleetResult baseline =
        core::run_pipeline_on_fleet(from_csv(csv), fleet_config());
    const core::FleetResult fleet =
        core::run_pipeline_on_fleet(from_csv(truncated_csv), fleet_config());

    ASSERT_EQ(fleet.boxes.size(), 8u);
    EXPECT_EQ(fleet.boxes_failed, truncated.size());
    double ape_sum = 0.0;
    std::vector<core::FleetPolicyTotals> totals(fleet.totals.size());
    for (std::size_t i = 0; i < fleet.boxes.size(); ++i) {
        const core::FleetBoxResult& b = fleet.boxes[i];
        if (truncated.count(b.box_index) != 0) {
            EXPECT_EQ(b.error_code, PipelineErrorCode::kTraceInvalid);
            EXPECT_EQ(b.error_stage, "input");
            continue;
        }
        // Survivors are untouched: bit-identical to the intact file.
        const core::FleetBoxResult& base = baseline.boxes[i];
        EXPECT_TRUE(b.error.empty());
        EXPECT_EQ(b.result.ape_all, base.result.ape_all);
        EXPECT_EQ(b.result.ape_peak, base.result.ape_peak);
        ASSERT_EQ(b.result.policies.size(), totals.size());
        for (std::size_t p = 0; p < totals.size(); ++p) {
            EXPECT_EQ(b.result.policies[p].cpu_after, base.result.policies[p].cpu_after);
            totals[p].cpu_before += b.result.policies[p].cpu_before;
            totals[p].cpu_after += b.result.policies[p].cpu_after;
            totals[p].ram_before += b.result.policies[p].ram_before;
            totals[p].ram_after += b.result.policies[p].ram_after;
        }
        ape_sum += b.result.ape_all;
    }
    const std::size_t survivors = 8u - truncated.size();
    EXPECT_DOUBLE_EQ(fleet.mean_ape_all,
                     ape_sum / static_cast<double>(survivors));
    for (std::size_t p = 0; p < totals.size(); ++p) {
        EXPECT_EQ(fleet.totals[p].cpu_before, totals[p].cpu_before);
        EXPECT_EQ(fleet.totals[p].cpu_after, totals[p].cpu_after);
        EXPECT_EQ(fleet.totals[p].ram_before, totals[p].ram_before);
        EXPECT_EQ(fleet.totals[p].ram_after, totals[p].ram_after);
    }
}

/// Cuts every series of VM `vm` to `len` samples: the shape of a trace
/// file in which one VM has fewer rows than the others. box.length()
/// reads VM 0, so a later VM's cut hides from the length check.
void cut_vm(trace::BoxTrace& box, std::size_t vm, std::size_t len) {
    trace::VmTrace& v = box.vms.at(vm);
    for (ts::Series* series : {&v.cpu_usage_pct, &v.ram_usage_pct,
                               &v.cpu_demand_ghz, &v.ram_demand_gb}) {
        series->values().resize(len);
    }
}

TEST(RaggedBoxTest, BoxWithUnequalSeriesLengthsIsRejectedAtInput) {
    trace::Trace t = small_trace(1);
    trace::BoxTrace& box = t.boxes[0];
    ASSERT_GE(box.vms.size(), 2u);
    cut_vm(box, box.vms.size() - 1, box.length() - 20);
    ASSERT_FALSE(box.equal_lengths());

    core::PipelineConfig config;
    config.temporal = forecast::TemporalModel::kSeasonalNaive;
    config.train_days = 5;
    try {
        core::run_pipeline_on_box(box, t.windows_per_day, config);
        FAIL() << "expected PipelineError";
    } catch (const core::PipelineError& e) {
        EXPECT_EQ(e.code(), PipelineErrorCode::kTraceInvalid);
        EXPECT_EQ(e.stage(), "input");
    }
    try {
        core::evaluate_resize_policies_on_actuals(box, t.windows_per_day, 5,
                                                  0.6, 5.0);
        FAIL() << "expected PipelineError";
    } catch (const core::PipelineError& e) {
        EXPECT_EQ(e.code(), PipelineErrorCode::kTraceInvalid);
        EXPECT_EQ(e.stage(), "input");
    }
}

TEST(RaggedBoxTest, RaggedBoxFailsAloneInAFleet) {
    const trace::Trace generated = small_trace(3);
    const trace::BoxTrace& bad = generated.boxes[1];
    ASSERT_GE(bad.vms.size(), 2u);
    const std::string csv = to_csv(generated);
    const trace::Trace clean = from_csv(csv);
    const trace::Trace ragged = from_csv(
        cut_rows(csv, bad.name, bad.vms[1].name,
                 static_cast<long>(bad.length() / 2)));

    const core::FleetResult baseline =
        core::run_pipeline_on_fleet(clean, fleet_config());
    const core::FleetResult fleet =
        core::run_pipeline_on_fleet(ragged, fleet_config());

    ASSERT_EQ(fleet.boxes.size(), 3u);
    EXPECT_EQ(fleet.boxes_failed, 1u);
    EXPECT_EQ(fleet.boxes[1].error_code, PipelineErrorCode::kTraceInvalid);
    EXPECT_EQ(fleet.boxes[1].error_stage, "input");
    EXPECT_EQ(fleet.metrics.counter("robust.error.trace-invalid"), 1u);
    for (const std::size_t i : {0u, 2u}) {
        const core::BoxPipelineResult& got = fleet.boxes[i].result;
        const core::BoxPipelineResult& want = baseline.boxes[i].result;
        EXPECT_TRUE(fleet.boxes[i].error.empty());
        EXPECT_EQ(got.ape_all, want.ape_all);
        EXPECT_EQ(got.ape_peak, want.ape_peak);
        EXPECT_EQ(got.predicted_demands, want.predicted_demands);
        EXPECT_EQ(got.search.signatures, want.search.signatures);
        ASSERT_EQ(got.policies.size(), want.policies.size());
        for (std::size_t p = 0; p < got.policies.size(); ++p) {
            EXPECT_EQ(got.policies[p].cpu_after, want.policies[p].cpu_after);
            EXPECT_EQ(got.policies[p].ram_after, want.policies[p].ram_after);
        }
    }
}

// ------------------------------------------------- run-level determinism

void expect_fleet_equal(const core::FleetResult& a, const core::FleetResult& b) {
    ASSERT_EQ(a.boxes.size(), b.boxes.size());
    for (std::size_t i = 0; i < a.boxes.size(); ++i) {
        const core::FleetBoxResult& ra = a.boxes[i];
        const core::FleetBoxResult& rb = b.boxes[i];
        EXPECT_EQ(ra.box_index, rb.box_index);
        EXPECT_EQ(ra.error, rb.error) << "box " << i;
        EXPECT_EQ(ra.error_code, rb.error_code) << "box " << i;
        EXPECT_EQ(ra.error_stage, rb.error_stage) << "box " << i;
        EXPECT_EQ(ra.result.ape_all, rb.result.ape_all) << "box " << i;
        EXPECT_EQ(ra.result.ape_peak, rb.result.ape_peak) << "box " << i;
        EXPECT_EQ(ra.result.search.signatures, rb.result.search.signatures);
        // Bit-identity of the raw predictions, not just the summary APEs.
        EXPECT_EQ(ra.result.predicted_demands, rb.result.predicted_demands)
            << "box " << i;
        ASSERT_EQ(ra.result.degradations.size(), rb.result.degradations.size())
            << "box " << i;
        for (std::size_t d = 0; d < ra.result.degradations.size(); ++d) {
            EXPECT_EQ(ra.result.degradations[d].code, rb.result.degradations[d].code);
            EXPECT_EQ(ra.result.degradations[d].stage,
                      rb.result.degradations[d].stage);
            EXPECT_EQ(ra.result.degradations[d].detail,
                      rb.result.degradations[d].detail);
        }
        ASSERT_EQ(ra.result.policies.size(), rb.result.policies.size());
        for (std::size_t p = 0; p < ra.result.policies.size(); ++p) {
            EXPECT_EQ(ra.result.policies[p].cpu_before, rb.result.policies[p].cpu_before);
            EXPECT_EQ(ra.result.policies[p].cpu_after, rb.result.policies[p].cpu_after);
            EXPECT_EQ(ra.result.policies[p].ram_before, rb.result.policies[p].ram_before);
            EXPECT_EQ(ra.result.policies[p].ram_after, rb.result.policies[p].ram_after);
        }
    }
    EXPECT_EQ(a.boxes_failed, b.boxes_failed);
    EXPECT_EQ(a.failures_by_code, b.failures_by_code);
    EXPECT_EQ(a.mean_ape_all, b.mean_ape_all);
    EXPECT_EQ(a.mean_ape_peak, b.mean_ape_peak);
    ASSERT_EQ(a.totals.size(), b.totals.size());
    for (std::size_t p = 0; p < a.totals.size(); ++p) {
        EXPECT_EQ(a.totals[p].cpu_after, b.totals[p].cpu_after);
        EXPECT_EQ(a.totals[p].ram_after, b.totals[p].ram_after);
    }
    // Counters (including every robust.*) merge in trace order, so the
    // whole map must match; timers are wall-clock and excluded.
    EXPECT_EQ(a.metrics.counters, b.metrics.counters);
}

TEST(ChaosFleetTest, MixedPlanIsBitIdenticalAcrossJobCounts) {
    // Clean, degraded and failed boxes in one run.
    const trace::Trace t = hostile_trace(8);
    core::FleetConfig serial = ladder_config();
    serial.jobs = 1;
    const core::FleetResult a = core::run_pipeline_on_fleet(t, serial);

    core::FleetConfig pooled = ladder_config();
    pooled.jobs = 8;
    const core::FleetResult b = core::run_pipeline_on_fleet(t, pooled);

    expect_fleet_equal(a, b);
    EXPECT_EQ(a.boxes_failed, 1u);
    EXPECT_FALSE(a.boxes[kHugeBox].result.degradations.empty());
}

/// Per-box digest of an MLP run: the box's error, every degradation, its
/// MLP fit and fallback counters, its APEs, its predicted demands (the
/// signature forecasts and their spatial reconstruction) and its tickets.
std::vector<std::string> box_digests(const core::FleetResult& fleet) {
    std::vector<std::string> digests;
    for (const core::FleetBoxResult& b : fleet.boxes) {
        std::uint64_t hash = exec::kFnv1a64Offset;
        exec::mix_string(hash, b.error);
        for (const core::Degradation& d : b.result.degradations) {
            exec::mix_u64(hash, static_cast<std::uint64_t>(d.code));
            exec::mix_string(hash, d.stage);
            exec::mix_string(hash, d.detail);
        }
        exec::mix_u64(hash, b.result.metrics.counter("forecast.mlp.fits"));
        exec::mix_u64(hash, b.result.metrics.counter("robust.fallback.forecast"));
        exec::mix_double(hash, b.result.ape_all);
        exec::mix_double(hash, b.result.ape_peak);
        for (const std::vector<double>& demand : b.result.predicted_demands) {
            for (const double v : demand) exec::mix_double(hash, v);
        }
        for (const core::PolicyTickets& p : b.result.policies) {
            exec::mix_u64(hash, static_cast<std::uint64_t>(p.cpu_before));
            exec::mix_u64(hash, static_cast<std::uint64_t>(p.cpu_after));
            exec::mix_u64(hash, static_cast<std::uint64_t>(p.ram_before));
            exec::mix_u64(hash, static_cast<std::uint64_t>(p.ram_after));
        }
        digests.push_back(exec::hex16(hash));
    }
    return digests;
}

core::FleetConfig mlp_config(int jobs) {
    core::FleetConfig config = fleet_config();
    config.pipeline.temporal = forecast::TemporalModel::kNeuralNetwork;
    config.pipeline.search.method = core::ClusteringMethod::kCbc;
    config.jobs = jobs;
    return config;
}

TEST(ChaosFleetTest, MlpLaneBatchingHoldsOnHostileInput) {
    // A box's MLP networks train together. Per box, the predictions,
    // degradation notes, MLP fit counts, APEs and tickets must not depend
    // on the job count (digests pinned per path). The MLP clamps its
    // output, so it needs no forecast fallback even on 1e200 demand: the
    // huge box degrades in its spatial fit only.
    const std::map<simd::Path, std::vector<std::string>> pinned{
        {simd::Path::kScalar,
         {"585d8cb01685e757", "85842b339fc18837", "c8443fef35068018",
          "ed29412155de3dc7", "068ed5092b90ac96", "83c6c58d959c4ca9"}},
        {simd::Path::kAvx2,
         {"d5f4475777401ac0", "de405991319fc59a", "91cd347d9f8bf522",
          "0827541f7bc95499", "c15fc0c01af693f8", "2742e23759bfcb96"}},
        {simd::Path::kAvx512,
         {"c1e6e55173f914d2", "c3ae3c1e36a41ca1", "34d8991ddcfe6ffe",
          "b2ebee74af0e57af", "3cfe7ce97ed50de9", "bbfb4ded6666bbbf"}},
    };
    // Box 1's first series is constant, so that signature's MLP is
    // degenerate (nothing to train) while the box's other signatures
    // train in one batch: the batch must skip it without shifting the
    // others.
    trace::Trace generated = small_trace(6);
    constexpr std::size_t kMixedBox = 1;
    trace::VmTrace& flat_vm = generated.boxes[kMixedBox].vms[0];
    for (double& v : flat_vm.cpu_demand_ghz.values()) {
        v = 0.4 * flat_vm.cpu_capacity_ghz;
    }
    for (double& v : flat_vm.cpu_usage_pct.values()) v = 40.0;
    const trace::Trace t = from_csv(scale_demands(
        to_csv(generated), generated.boxes[kHugeBox].name, 1e200));

    const core::FleetResult serial = core::run_pipeline_on_fleet(t, mlp_config(1));
    const core::FleetResult pooled = core::run_pipeline_on_fleet(t, mlp_config(4));
    expect_fleet_equal(serial, pooled);
    EXPECT_EQ(box_digests(serial), pinned.at(simd::active_path()));

    for (const core::FleetBoxResult& b : serial.boxes) {
        ASSERT_TRUE(b.error.empty());
        EXPECT_EQ(b.result.metrics.counter("robust.fallback.forecast"), 0u)
            << "box " << b.box_index;
        EXPECT_TRUE(std::isfinite(b.result.ape_all));
        if (b.box_index == kHugeBox) {
            ASSERT_EQ(b.result.degradations.size(), 1u);
            EXPECT_EQ(b.result.degradations[0].stage, "spatial");
        } else {
            EXPECT_TRUE(b.result.degradations.empty()) << "box " << b.box_index;
        }
    }

    // The mixed box trained every signature but the constant one.
    const core::BoxPipelineResult& mixed = serial.boxes[kMixedBox].result;
    const std::vector<int>& signatures = mixed.search.signatures;
    ASSERT_NE(std::find(signatures.begin(), signatures.end(), 0),
              signatures.end());
    ASSERT_GT(signatures.size(), 1u);
    EXPECT_EQ(mixed.metrics.counter("forecast.mlp.fits"), signatures.size() - 1);
}

// --------------------------------------------------------- checkpoint/resume

/// Fresh temp path for a journal (removing any leftover from a prior run).
std::string journal_path(const char* name) {
    const std::string path = testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

/// Rebuilds a journal at `dst` holding `src`'s header and its first
/// `keep_records` records — the journal an interrupted run would have left
/// behind had it been killed at that point.
void truncate_journal(const std::string& src, const std::string& dst,
                      std::size_t keep_records) {
    const exec::JournalLoad load = exec::load_journal(src);
    ASSERT_TRUE(load.exists);
    ASSERT_FALSE(load.header.empty());
    ASSERT_LE(keep_records, load.records.size());
    exec::JournalWriter writer = exec::JournalWriter::create(dst, load.header);
    for (std::size_t i = 0; i < keep_records; ++i) {
        writer.append(load.records[i]);
    }
}

TEST(CheckpointResumeTest, ResumedRunIsBitIdenticalFromEveryCutPoint) {
    // The hostile trace, so the journal holds successes, a degraded box
    // AND a settled failure — all three must replay faithfully.
    const trace::Trace t = hostile_trace(6);
    const std::string full = journal_path("atm_resume_full.jsonl");

    core::FleetConfig fresh = ladder_config();
    fresh.checkpoint_path = full;
    const core::FleetResult baseline = core::run_pipeline_on_fleet(t, fresh);
    EXPECT_EQ(baseline.boxes_failed, 1u);
    EXPECT_FALSE(baseline.boxes[kHugeBox].result.degradations.empty());
    EXPECT_EQ(baseline.boxes_replayed, 0u);
    ASSERT_EQ(exec::load_journal(full).records.size(), 6u);

    const std::string cut = journal_path("atm_resume_cut.jsonl");
    for (const std::size_t keep : {0u, 1u, 3u, 5u, 6u}) {
        SCOPED_TRACE("cut at " + std::to_string(keep));
        for (const int jobs : {1, 8}) {
            SCOPED_TRACE("jobs=" + std::to_string(jobs));
            truncate_journal(full, cut, keep);
            core::FleetConfig resume = ladder_config();
            resume.checkpoint_path = cut;
            resume.resume = true;
            resume.jobs = jobs;
            const core::FleetResult resumed =
                core::run_pipeline_on_fleet(t, resume);
            EXPECT_EQ(resumed.boxes_replayed, keep);
            expect_fleet_equal(baseline, resumed);
            // The resumed run re-journals what it recomputed: the cut
            // journal is complete again and a further resume is all-replay.
            EXPECT_EQ(exec::load_journal(cut).records.size(), 6u);
        }
    }
    std::remove(full.c_str());
    std::remove(cut.c_str());
}

TEST(CheckpointResumeTest, TornTailAndCorruptRecordsAreRecovered) {
    const trace::Trace t = small_trace(4);
    const std::string full = journal_path("atm_resume_crash.jsonl");
    core::FleetConfig fresh = fleet_config();
    fresh.checkpoint_path = full;
    const core::FleetResult baseline = core::run_pipeline_on_fleet(t, fresh);

    // Torn tail: a crash mid-append leaves half a frame. The intact prefix
    // replays; the torn box is recomputed.
    const exec::JournalLoad load = exec::load_journal(full);
    ASSERT_EQ(load.records.size(), 4u);
    {
        truncate_journal(full, full, 3u);
        const std::string tail = exec::frame_journal_record(load.records[3]);
        std::ofstream out(full, std::ios::binary | std::ios::app);
        out << tail.substr(0, tail.size() / 2);
    }
    core::FleetConfig resume = fleet_config();
    resume.checkpoint_path = full;
    resume.resume = true;
    const core::FleetResult after_tear = core::run_pipeline_on_fleet(t, resume);
    EXPECT_EQ(after_tear.boxes_replayed, 3u);
    expect_fleet_equal(baseline, after_tear);

    // Checksum corruption inside a record: that record and everything
    // after it are dropped; the run still converges to the same result.
    {
        truncate_journal(full, full, 2u);
        std::string bad = exec::frame_journal_record(load.records[2]);
        bad[26] = bad[26] == 'x' ? 'y' : 'x';
        std::ofstream out(full, std::ios::binary | std::ios::app);
        out << bad << exec::frame_journal_record(load.records[3]);
    }
    const core::FleetResult after_corruption =
        core::run_pipeline_on_fleet(t, resume);
    EXPECT_EQ(after_corruption.boxes_replayed, 2u);
    expect_fleet_equal(baseline, after_corruption);
    std::remove(full.c_str());
}

TEST(CheckpointResumeTest, HeaderMismatchStartsFreshInsteadOfReplayingLies) {
    const trace::Trace t = small_trace(4);
    const std::string path = journal_path("atm_resume_header.jsonl");
    core::FleetConfig first = fleet_config();
    first.checkpoint_path = path;
    core::run_pipeline_on_fleet(t, first);
    ASSERT_EQ(exec::load_journal(path).records.size(), 4u);

    // Same journal, different pipeline seed: the journaled results answer
    // a different question and must NOT be replayed. The header binds the
    // seed once, as a field of its own.
    core::FleetConfig other = fleet_config();
    other.checkpoint_path = path;
    other.resume = true;
    other.pipeline.seed = 43;
    const core::FleetResult resumed = core::run_pipeline_on_fleet(t, other);
    EXPECT_EQ(resumed.boxes_replayed, 0u);
    EXPECT_EQ(resumed.checkpoint_discarded, "seed (42, now 43)");

    core::FleetConfig clean = fleet_config();
    clean.pipeline.seed = 43;
    expect_fleet_equal(core::run_pipeline_on_fleet(t, clean), resumed);

    // A config change alone (the journal now holds seed 43) reads
    // "config": the two are told apart.
    core::FleetConfig threshold = other;
    threshold.pipeline.alpha = 0.7;
    const core::FleetResult rethresholded =
        core::run_pipeline_on_fleet(t, threshold);
    EXPECT_EQ(rethresholded.boxes_replayed, 0u);
    EXPECT_EQ(rethresholded.checkpoint_discarded, "config");
    std::remove(path.c_str());
}

// ------------------------------------------------------ journal codecs

/// Replaces the first `from` in `text` with `to` (the key must be there).
std::string replace_first(std::string text, const std::string& from,
                          const std::string& to) {
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) text.replace(at, from.size(), to);
    return text;
}

TEST(CheckpointResumeTest, DiscardedCheckpointNamesWhatDiffers) {
    const trace::Trace t = small_trace(3);
    const std::string path = journal_path("atm_resume_discarded.jsonl");
    std::remove(path.c_str());
    core::FleetConfig config = fleet_config();
    config.checkpoint_path = path;
    config.resume = true;
    // Nothing to resume from, then a matching journal: nothing discarded.
    EXPECT_EQ(core::run_pipeline_on_fleet(t, config).checkpoint_discarded, "");
    const core::FleetResult replayed = core::run_pipeline_on_fleet(t, config);
    EXPECT_EQ(replayed.boxes_replayed, 3u);
    EXPECT_EQ(replayed.checkpoint_discarded, "");

    // Another trace: its journal no longer matches, and the fresh one
    // written in its place matches the next resume again.
    const trace::Trace other = small_trace(2);
    EXPECT_EQ(core::run_pipeline_on_fleet(other, config).checkpoint_discarded,
              "trace");
    EXPECT_EQ(core::run_pipeline_on_fleet(other, config).boxes_replayed, 2u);
    std::remove(path.c_str());

    const std::string header = core::journal_header(
        core::kFleetJournalSchema, t, core::fleet_config_digest(config), 42);
    const std::string simd = std::string("\"simd\":\"") +
                             simd::to_string(simd::active_path()) + "\"";
    const std::string foreign =
        replace_first(header, simd, "\"simd\":\"neon\"");
    EXPECT_EQ(core::journal_header_mismatch(foreign, header),
              std::string("SIMD path (neon, now ") +
                  simd::to_string(simd::active_path()) + ")");
    EXPECT_EQ(core::journal_header_mismatch(header, header), "");
    EXPECT_EQ(core::journal_header_mismatch("", header), "no readable header");
    EXPECT_EQ(core::journal_header_mismatch("{\"schema\":", header),
              "no readable header");
}

TEST(JournalCodecTest, OutOfRangeIntegersAreRejected) {
    core::FleetBoxResult box;
    box.box_index = 0;
    box.box_name = "b0";
    box.error = "boom";
    box.error_code = PipelineErrorCode::kInternal;
    box.error_stage = "fleet";
    const std::string record = core::encode_box_record(box);
    EXPECT_NO_THROW(core::decode_box_record(record));
    // A double-to-integer cast out of range is undefined behaviour, and an
    // index past int would wrap onto another box: the decoder must reject
    // such numbers instead.
    for (const char* bad : {"\"box\":1e300", "\"box\":1e400", "\"box\":-1e19",
                            "\"box\":4294967296"}) {
        EXPECT_THROW(core::decode_box_record(
                         replace_first(record, "\"box\":0", bad)),
                     std::runtime_error)
            << bad;
    }

    core::ServeEpochRecord window;
    window.epoch = 7;
    const std::string epoch_record = core::encode_epoch_record(window);
    for (const char* bad : {"\"epoch\":1e30", "\"epoch\":-1"}) {
        EXPECT_THROW(core::decode_epoch_record(
                         replace_first(epoch_record, "\"epoch\":7", bad)),
                     std::runtime_error)
            << bad;
    }
}

TEST(JournalCodecTest, SeededMutationsDecodeOrThrowNeverCrash) {
    // Real payloads of every record shape: full box results (search,
    // predictions, tickets, degradations, metrics), a settled failure, and
    // serve windows with and without a recommendation.
    const core::FleetResult fleet =
        core::run_pipeline_on_fleet(hostile_trace(4), ladder_config());
    std::vector<std::string> payloads;
    for (const core::FleetBoxResult& box : fleet.boxes) {
        payloads.push_back(core::encode_box_record(box));
    }
    const std::size_t box_payloads = payloads.size();
    core::ServeEpochRecord window;
    window.box_index = 2;
    window.epoch = 300;
    window.cpu = {0.5, 1.0 / 3.0};
    window.ram = {8.0, 1e-12};
    payloads.push_back(core::encode_epoch_record(window));
    window.cpu.clear();
    window.ram.clear();
    payloads.push_back(core::encode_epoch_record(window));

    // Bytes that steer a JSON parser into its number, string and nesting
    // paths, plus arbitrary bytes.
    const std::string alphabet = "0123456789-+.eE\"\\{}[]:, tfnu";
    std::uint64_t state = 0x5eed;
    const auto next = [&state](std::uint64_t bound) {
        state = exec::derive_seed(state, bound);
        return state % bound;
    };
    std::size_t decoded = 0;
    std::size_t rejected = 0;
    for (std::size_t p = 0; p < payloads.size(); ++p) {
        for (int trial = 0; trial < 400; ++trial) {
            std::string text = payloads[p];
            const std::uint64_t edits = 1 + next(3);
            for (std::uint64_t e = 0; e < edits && !text.empty(); ++e) {
                const std::size_t at = next(text.size());
                switch (next(5)) {
                    case 0: text[at] = alphabet[next(alphabet.size())]; break;
                    case 1: text[at] = static_cast<char>(next(256)); break;
                    case 2: text.resize(at); break;  // truncation
                    case 3: text.erase(at, 1); break;
                    default: text.insert(at, "e400"); break;  // overflow
                }
            }
            // Either outcome is fine; anything but a std::exception (or a
            // sanitizer report) fails the test.
            try {
                if (p < box_payloads) {
                    (void)core::decode_box_record(text);
                } else {
                    (void)core::decode_epoch_record(text);
                }
                ++decoded;
            } catch (const std::exception&) {
                ++rejected;
            }
        }
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(decoded, 0u);  // some edits hit only string contents
}

// -------------------------------------------------------------- stop token

TEST(StopTokenTest, PreCancelledStopDrainsEveryBoxAndResumeFinishesTheJob) {
    const trace::Trace t = small_trace(4);
    const std::string path = journal_path("atm_drain.jsonl");
    const std::atomic<bool> stop{true};

    core::FleetConfig config = fleet_config();
    config.checkpoint_path = path;
    config.stop = &stop;
    const core::FleetResult drained = core::run_pipeline_on_fleet(t, config);
    EXPECT_TRUE(drained.interrupted);
    ASSERT_EQ(drained.boxes.size(), 4u);
    for (const core::FleetBoxResult& b : drained.boxes) {
        EXPECT_EQ(b.error_code, PipelineErrorCode::kCancelled);
        EXPECT_EQ(b.error_stage, "fleet");  // drained, never started
    }
    // Drained boxes are not journaled: nothing false to replay.
    EXPECT_TRUE(exec::load_journal(path).records.empty());

    core::FleetConfig resume = fleet_config();
    resume.checkpoint_path = path;
    resume.resume = true;
    const core::FleetResult resumed = core::run_pipeline_on_fleet(t, resume);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.boxes_failed, 0u);
    expect_fleet_equal(core::run_pipeline_on_fleet(t, fleet_config()), resumed);
    std::remove(path.c_str());
}

// ------------------------------------------------------------ config checks

TEST(ResilienceConfigTest, ValidateReportsExactMessages) {
    core::FleetConfig config;
    config.resume = true;
    EXPECT_EQ(config.validate(), "resume requires a non-empty checkpoint_path");
    config.checkpoint_path = "journal.jsonl";
    EXPECT_TRUE(config.validate().empty());
}

}  // namespace
}  // namespace atm
