// Chaos suite (ctest -L robust): the fault-injection plan grammar, the
// deterministic fault draws, and the fleet under escalating fault plans.
// The fleet runs assert the robustness contract of DESIGN.md §7.11: no
// crash, structured error codes matching the injected faults, exact
// exclusion of failed boxes from aggregates, finite outputs from degraded
// boxes, and bit-identical results for jobs=1 vs jobs=8.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/fleet.hpp"
#include "core/fleet_journal.hpp"
#include "core/pipeline.hpp"
#include "core/spatial_model.hpp"
#include "exec/fault.hpp"
#include "exec/journal.hpp"
#include "exec/seed.hpp"
#include "linalg/simd/simd.hpp"
#include "tracegen/generator.hpp"

namespace atm {
namespace {

using core::PipelineErrorCode;

// ---------------------------------------------------------------- FaultPlan

TEST(FaultPlanTest, ParsesSpecGrammar) {
    const exec::FaultPlan plan = exec::FaultPlan::parse(
        "samples=nan@0.05,series=truncate@0.5,pipeline.forecast=throw", 7);
    EXPECT_EQ(plan.seed, 7u);
    ASSERT_EQ(plan.rules.size(), 3u);
    EXPECT_EQ(plan.rules[0].site, "samples");
    EXPECT_EQ(plan.rules[0].action, exec::FaultAction::kNan);
    EXPECT_DOUBLE_EQ(plan.rules[0].rate, 0.05);
    EXPECT_EQ(plan.rules[1].site, "series");
    EXPECT_EQ(plan.rules[1].action, exec::FaultAction::kTruncate);
    EXPECT_DOUBLE_EQ(plan.rules[1].rate, 0.5);
    EXPECT_EQ(plan.rules[2].site, "pipeline.forecast");
    EXPECT_EQ(plan.rules[2].action, exec::FaultAction::kThrow);
    EXPECT_DOUBLE_EQ(plan.rules[2].rate, 1.0);  // default rate
    EXPECT_FALSE(plan.empty());
    EXPECT_TRUE(plan.has_data_faults());
}

TEST(FaultPlanTest, EmptySpecDisablesInjection) {
    const exec::FaultPlan plan = exec::FaultPlan::parse("", 42);
    EXPECT_TRUE(plan.empty());
    EXPECT_FALSE(plan.has_data_faults());
    // A throw-only plan carries no data faults.
    EXPECT_FALSE(exec::FaultPlan::parse("fleet.box=throw@0.5", 1).has_data_faults());
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
    const std::vector<std::string> bad = {
        "samples=bogus",        // unknown action
        "nan@0.5",              // no '='
        "=nan@0.5",             // empty site
        "samples=nan@0",        // rate must be > 0
        "samples=nan@1.5",      // rate must be <= 1
        "samples=nan@x",        // unparseable rate
        "pipeline.search=nan",  // sample action on a code site
        "samples=truncate",     // truncate needs site 'series'
        "samples=throw",        // throw needs a code site
        "series=throw",         // ditto
        ",,,",                  // non-empty spec without a single rule
    };
    for (const std::string& spec : bad) {
        EXPECT_THROW(exec::FaultPlan::parse(spec, 1), std::invalid_argument)
            << "spec: " << spec;
    }
}

// -------------------------------------------------------------- FaultContext

TEST(FaultContextTest, NullPlanIsInert) {
    const exec::FaultContext ctx;
    EXPECT_NO_THROW(ctx.check_site("pipeline.start"));
    std::vector<double> xs(16, 1.0);
    EXPECT_EQ(ctx.corrupt_samples(xs, 0), 0u);
    EXPECT_EQ(xs, std::vector<double>(16, 1.0));
    EXPECT_EQ(ctx.truncated_length(144), 144u);
}

TEST(FaultContextTest, SampleCorruptionIsDeterministicPerEntityAndStream) {
    const exec::FaultPlan plan = exec::FaultPlan::parse("samples=nan@0.2", 7);
    const auto corrupt = [&plan](std::uint64_t entity, std::uint64_t stream) {
        const exec::FaultContext ctx{&plan, entity};
        std::vector<double> xs(256, 1.0);
        const std::uint64_t n = ctx.corrupt_samples(xs, stream);
        std::vector<bool> pattern(xs.size());
        for (std::size_t t = 0; t < xs.size(); ++t) pattern[t] = std::isnan(xs[t]);
        EXPECT_GT(n, 0u);
        EXPECT_LT(n, xs.size());
        return pattern;
    };
    EXPECT_EQ(corrupt(3, 0), corrupt(3, 0));  // same key, same samples
    EXPECT_NE(corrupt(3, 0), corrupt(4, 0));  // entity changes the draw
    EXPECT_NE(corrupt(3, 0), corrupt(3, 1));  // so does the stream
}

TEST(FaultContextTest, CorruptionActionsProduceTheirValues) {
    const auto apply = [](const std::string& spec) {
        const exec::FaultPlan plan = exec::FaultPlan::parse(spec, 5);
        const exec::FaultContext ctx{&plan, 0};
        std::vector<double> xs(32, 1.0);
        EXPECT_EQ(ctx.corrupt_samples(xs, 0), xs.size()) << spec;
        return xs;
    };
    for (const double x : apply("samples=nan@1")) EXPECT_TRUE(std::isnan(x));
    for (const double x : apply("samples=inf@1")) EXPECT_TRUE(std::isinf(x));
    for (const double x : apply("samples=negative@1")) EXPECT_DOUBLE_EQ(x, -2.0);
    for (const double x : apply("samples=zero-run@1")) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(FaultContextTest, ThrowVerdictIsStablePerEntityAndSite) {
    const exec::FaultPlan plan = exec::FaultPlan::parse("forecast.fit=throw@0.5", 11);
    const auto fires = [&plan](std::uint64_t entity) {
        const exec::FaultContext ctx{&plan, entity};
        try {
            ctx.check_site("forecast.fit");
            return false;
        } catch (const exec::InjectedFault& e) {
            EXPECT_EQ(e.site(), "forecast.fit");
            return true;
        }
    };
    std::size_t fired = 0;
    for (std::uint64_t entity = 0; entity < 64; ++entity) {
        const bool verdict = fires(entity);
        EXPECT_EQ(fires(entity), verdict);  // re-asking never flips it
        EXPECT_EQ(fires(entity), verdict);
        if (verdict) ++fired;
        // An unarmed site never throws, whatever the entity.
        const exec::FaultContext ctx{&plan, entity};
        EXPECT_NO_THROW(ctx.check_site("pipeline.start"));
    }
    // At rate 0.5 over 64 entities both verdicts must occur.
    EXPECT_GT(fired, 0u);
    EXPECT_LT(fired, 64u);
}

TEST(FaultContextTest, EpochRerollsDrawsAndZeroEpochKeepsLegacyChain) {
    const exec::FaultPlan plan =
        exec::FaultPlan::parse("serve.apply=throw@0.5", 11);
    const auto fires = [&plan](std::uint64_t entity, std::uint64_t epoch) {
        exec::FaultContext ctx{&plan, entity};
        ctx.epoch = epoch;
        try {
            ctx.check_site("serve.apply");
            return false;
        } catch (const exec::InjectedFault&) {
            return true;
        }
    };
    // Epoch 0 is bit-identical to a context without the field, so batch
    // key chains (and golden chaos runs) are untouched.
    for (std::uint64_t entity = 0; entity < 8; ++entity) {
        const exec::FaultContext legacy{&plan, entity};
        bool legacy_fires = false;
        try {
            legacy.check_site("serve.apply");
        } catch (const exec::InjectedFault&) {
            legacy_fires = true;
        }
        EXPECT_EQ(fires(entity, 0), legacy_fires);
    }
    // Each (entity, epoch) is an independent Bernoulli: deterministic on
    // re-ask, and across 64 epochs both verdicts occur for a fixed box —
    // no box is permanently wedged or permanently spared by a 0.5 plan.
    std::size_t fired = 0;
    for (std::uint64_t epoch = 1; epoch <= 64; ++epoch) {
        const bool verdict = fires(3, epoch);
        EXPECT_EQ(fires(3, epoch), verdict);
        if (verdict) ++fired;
    }
    EXPECT_GT(fired, 0u);
    EXPECT_LT(fired, 64u);
    // Distinct boxes draw independently at the same epoch.
    bool differs = false;
    for (std::uint64_t entity = 0; entity < 32 && !differs; ++entity) {
        differs = fires(entity, 7) != fires(entity + 32, 7);
    }
    EXPECT_TRUE(differs);
}

TEST(FaultContextTest, TruncationDropsTheTrailingQuarter) {
    const exec::FaultPlan plan = exec::FaultPlan::parse("series=truncate@1", 3);
    const exec::FaultContext ctx{&plan, 0};
    EXPECT_EQ(ctx.truncated_length(144), 108u);
    EXPECT_EQ(ctx.truncated_length(7), 6u);
    EXPECT_EQ(ctx.truncated_length(0), 0u);
    const exec::FaultPlan no_truncate = exec::FaultPlan::parse("samples=nan@1", 3);
    EXPECT_EQ((exec::FaultContext{&no_truncate, 0}).truncated_length(144), 144u);
}

// -------------------------------------------------------------- chaos fleets

trace::Trace chaos_trace(int boxes) {
    trace::TraceGenOptions options;
    options.num_boxes = boxes;
    options.num_days = 6;  // 5 training days + 1 evaluation day
    options.windows_per_day = 24;
    options.gappy_box_fraction = 0.0;
    options.seed = 20150403;
    return trace::generate_trace(options);
}

core::FleetConfig chaos_config(const std::string& spec, std::uint64_t fault_seed) {
    core::FleetConfig config;
    config.pipeline.temporal = forecast::TemporalModel::kSeasonalNaive;
    config.pipeline.train_days = 5;
    config.jobs = 1;
    config.collect_metrics = true;
    config.faults = exec::FaultPlan::parse(spec, fault_seed);
    return config;
}

bool has_degradation(const core::BoxPipelineResult& result,
                     const std::string& stage, PipelineErrorCode code) {
    for (const core::Degradation& d : result.degradations) {
        if (d.stage == stage && d.code == code) return true;
    }
    return false;
}

TEST(ChaosFleetTest, LightCorruptionDegradesButBoxesSurvive) {
    const trace::Trace t = chaos_trace(6);
    const core::FleetConfig config = chaos_config("samples=nan@0.03", 1);
    const core::FleetResult fleet = core::run_pipeline_on_fleet(t, config);

    ASSERT_EQ(fleet.boxes.size(), 6u);
    EXPECT_EQ(fleet.boxes_failed, 0u);
    EXPECT_TRUE(fleet.failures_by_code.empty());
    std::size_t degraded = 0;
    for (const core::FleetBoxResult& b : fleet.boxes) {
        EXPECT_TRUE(b.error.empty());
        EXPECT_EQ(b.error_code, PipelineErrorCode::kNone);
        EXPECT_TRUE(std::isfinite(b.result.ape_all));
        EXPECT_TRUE(std::isfinite(b.result.ape_peak));
        if (has_degradation(b.result, "sanitize", PipelineErrorCode::kTraceInvalid)) {
            ++degraded;
        }
    }
    EXPECT_GT(degraded, 0u);  // ~3% of samples NaN: sanitize must fire
    EXPECT_GT(fleet.metrics.counter("robust.fault.samples_corrupted"), 0u);
    EXPECT_GT(fleet.metrics.counter("robust.sanitize.bad_samples"), 0u);
    EXPECT_GE(fleet.metrics.counter("robust.fallback.sanitize"), degraded);
}

TEST(ChaosFleetTest, HeavyCorruptionRejectsEveryBox) {
    const trace::Trace t = chaos_trace(4);
    const core::FleetConfig config = chaos_config("samples=nan@0.9", 2);
    const core::FleetResult fleet = core::run_pipeline_on_fleet(t, config);

    ASSERT_EQ(fleet.boxes.size(), 4u);
    EXPECT_EQ(fleet.boxes_failed, 4u);
    EXPECT_EQ(fleet.boxes_evaluated(), 0u);
    for (const core::FleetBoxResult& b : fleet.boxes) {
        EXPECT_FALSE(b.error.empty());
        EXPECT_EQ(b.error_code, PipelineErrorCode::kTraceInvalid);
        EXPECT_EQ(b.error_stage, "sanitize");
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
    const trace::Trace t = chaos_trace(8);
    const core::FleetConfig config = chaos_config("series=truncate@0.5", 5);

    // The test derives the truncated set from the same plan the fleet
    // uses: entity draws are position-keyed, so this is the ground truth.
    std::set<int> truncated;
    for (int b = 0; b < 8; ++b) {
        const exec::FaultContext ctx{&config.faults, static_cast<std::uint64_t>(b)};
        if (ctx.truncated_length(t.boxes[0].length()) != t.boxes[0].length()) {
            truncated.insert(b);
        }
    }
    ASSERT_GT(truncated.size(), 0u);  // seed chosen so the plan is mixed
    ASSERT_LT(truncated.size(), 8u);

    core::FleetConfig clean = config;
    clean.faults = exec::FaultPlan{};
    const core::FleetResult baseline = core::run_pipeline_on_fleet(t, clean);
    const core::FleetResult fleet = core::run_pipeline_on_fleet(t, config);

    // Truncated boxes lose 1.5 of 6 days and can no longer fit the
    // 5-day training window: they must fail as invalid input.
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
        // Survivors are untouched: bit-identical to the no-fault run.
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
    // Aggregates are exactly the survivor sums — nothing leaks in from
    // the failed boxes.
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
    trace::Trace t = chaos_trace(1);
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
    const trace::Trace clean = chaos_trace(3);
    trace::Trace ragged = clean;
    trace::BoxTrace& bad = ragged.boxes[1];
    ASSERT_GE(bad.vms.size(), 2u);
    cut_vm(bad, 1, bad.length() / 2);

    const core::FleetConfig config = chaos_config("", 0);
    const core::FleetResult baseline = core::run_pipeline_on_fleet(clean, config);
    const core::FleetResult fleet = core::run_pipeline_on_fleet(ragged, config);

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

TEST(ChaosFleetTest, BoundaryThrowFailsBoxesWithFaultInjected) {
    const trace::Trace t = chaos_trace(8);
    const core::FleetConfig config = chaos_config("pipeline.forecast=throw@0.4", 3);

    std::set<int> expected;
    for (int b = 0; b < 8; ++b) {
        const exec::FaultContext ctx{&config.faults, static_cast<std::uint64_t>(b)};
        try {
            ctx.check_site("pipeline.forecast");
        } catch (const exec::InjectedFault&) {
            expected.insert(b);
        }
    }
    ASSERT_GT(expected.size(), 0u);  // seed chosen so the plan is mixed
    ASSERT_LT(expected.size(), 8u);

    const core::FleetResult fleet = core::run_pipeline_on_fleet(t, config);
    ASSERT_EQ(fleet.boxes.size(), 8u);
    EXPECT_EQ(fleet.boxes_failed, expected.size());
    for (const core::FleetBoxResult& b : fleet.boxes) {
        if (expected.count(b.box_index) != 0) {
            EXPECT_EQ(b.error_code, PipelineErrorCode::kFaultInjected);
            EXPECT_EQ(b.error_stage, "pipeline.forecast");
        } else {
            EXPECT_TRUE(b.error.empty());
            EXPECT_TRUE(b.result.degradations.empty());
        }
    }
    EXPECT_EQ(fleet.failures_by_code.at(PipelineErrorCode::kFaultInjected),
              expected.size());
    EXPECT_EQ(fleet.metrics.counter("robust.error.fault-injected"),
              expected.size());
}

TEST(ChaosFleetTest, RecoverableSitesEngageFallbacksNotFailures) {
    const trace::Trace t = chaos_trace(4);
    const core::FleetConfig config = chaos_config(
        "spatial.ols=throw@1,forecast.fit=throw@1,resize.mckp=throw@1", 9);
    const core::FleetResult fleet = core::run_pipeline_on_fleet(t, config);

    ASSERT_EQ(fleet.boxes.size(), 4u);
    EXPECT_EQ(fleet.boxes_failed, 0u);  // every rung recovers
    for (const core::FleetBoxResult& b : fleet.boxes) {
        EXPECT_TRUE(b.error.empty());
        EXPECT_TRUE(has_degradation(b.result, "spatial",
                                    PipelineErrorCode::kFaultInjected));
        EXPECT_TRUE(has_degradation(b.result, "forecast",
                                    PipelineErrorCode::kFaultInjected));
        EXPECT_TRUE(has_degradation(b.result, "resize",
                                    PipelineErrorCode::kFaultInjected));
        EXPECT_TRUE(std::isfinite(b.result.ape_all));
        ASSERT_FALSE(b.result.policies.empty());
        for (const core::PolicyTickets& p : b.result.policies) {
            EXPECT_GE(p.cpu_after, 0);
            EXPECT_GE(p.ram_after, 0);
        }
    }
    EXPECT_EQ(fleet.metrics.counter("robust.fallback.spatial"), 4u);
    EXPECT_GE(fleet.metrics.counter("robust.fallback.forecast"), 4u);
    EXPECT_GE(fleet.metrics.counter("robust.fallback.resize"), 4u);
}

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
    const trace::Trace t = chaos_trace(8);
    const std::string spec =
        "samples=nan@0.05,series=truncate@0.25,"
        "pipeline.search=throw@0.3,forecast.fit=throw@0.5";

    core::FleetConfig serial = chaos_config(spec, 13);
    serial.jobs = 1;
    const core::FleetResult a = core::run_pipeline_on_fleet(t, serial);

    core::FleetConfig pooled = chaos_config(spec, 13);
    pooled.jobs = 8;
    const core::FleetResult b = core::run_pipeline_on_fleet(t, pooled);

    expect_fleet_equal(a, b);
    // The mixed plan must actually exercise both outcomes.
    EXPECT_GT(a.boxes_failed, 0u);
    EXPECT_LT(a.boxes_failed, a.boxes.size());
}

/// Per-box record of what the forecast ladder decided under an MLP fault
/// plan: the box's error, every degradation (the fallback signatures are
/// named in their details), its MLP fit and fallback counters, its APEs,
/// its predicted demands (the signature forecasts and their spatial
/// reconstruction) and its tickets, as one digest per box.
std::vector<std::string> forecast_ladder_digests(const core::FleetResult& fleet) {
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

core::FleetConfig mlp_fault_config(int jobs) {
    core::FleetConfig config = chaos_config("forecast.fit=throw@0.5", 21);
    config.pipeline.temporal = forecast::TemporalModel::kNeuralNetwork;
    config.pipeline.search.method = core::ClusteringMethod::kCbc;
    config.jobs = jobs;
    return config;
}

TEST(ChaosFleetTest, MlpFitFaultsFallBackPerSignatureUnderLaneBatching) {
    // A box's MLP networks train together, after the forecast.fit fault
    // is drawn for each signature. Per box, the fallback signatures,
    // degradation notes, MLP fit counts, APEs, predictions and tickets
    // must not depend on the job count, and must equal what the
    // one-network-at-a-time loop produced (digests pinned per path; the
    // boxes that fell back to AR never train a network, so theirs agree
    // across paths).
    const std::map<simd::Path, std::vector<std::string>> pinned{
        {simd::Path::kScalar,
         {"b409250a77cbe188", "450999ed6751c050", "134a47941d749995",
          "d4f40b8fa313648b", "df4af53452ce702b", "bb274fa7845bd893"}},
        {simd::Path::kAvx2,
         {"b409250a77cbe188", "450999ed6751c050", "f203f13217aebcb0",
          "d4f40b8fa313648b", "df4af53452ce702b", "bcc724e070b3d9be"}},
        {simd::Path::kAvx512,
         {"b409250a77cbe188", "450999ed6751c050", "989b301b83229a8a",
          "d4f40b8fa313648b", "df4af53452ce702b", "5291caa1a4eda652"}},
    };
    // Box 2's first series is constant, so that signature's MLP is
    // degenerate (nothing to train) while the box's other signatures
    // train in one batch: the batch must skip it without shifting the
    // others.
    trace::Trace t = chaos_trace(6);
    constexpr std::size_t kMixedBox = 2;
    trace::VmTrace& flat_vm = t.boxes[kMixedBox].vms[0];
    for (double& v : flat_vm.cpu_demand_ghz.values()) {
        v = 0.4 * flat_vm.cpu_capacity_ghz;
    }
    for (double& v : flat_vm.cpu_usage_pct.values()) v = 40.0;
    const core::FleetResult serial =
        core::run_pipeline_on_fleet(t, mlp_fault_config(1));
    const core::FleetResult pooled =
        core::run_pipeline_on_fleet(t, mlp_fault_config(4));
    expect_fleet_equal(serial, pooled);
    EXPECT_EQ(forecast_ladder_digests(serial), pinned.at(simd::active_path()));

    // The plan exercises both outcomes: boxes whose every signature fell
    // back to AR (no MLP fit) and boxes that trained their networks.
    std::size_t fell_back = 0;
    std::size_t trained = 0;
    for (const core::FleetBoxResult& b : serial.boxes) {
        ASSERT_TRUE(b.error.empty());
        const std::uint64_t fits = b.result.metrics.counter("forecast.mlp.fits");
        const std::uint64_t fallbacks =
            b.result.metrics.counter("robust.fallback.forecast");
        EXPECT_TRUE((fits == 0) != (fallbacks == 0)) << "box " << b.box_index;
        if (fallbacks > 0) {
            ++fell_back;
            EXPECT_EQ(fallbacks, b.result.degradations.size());
            for (const core::Degradation& d : b.result.degradations) {
                EXPECT_EQ(d.code, PipelineErrorCode::kFaultInjected);
                EXPECT_NE(d.detail.find("injected fault at site 'forecast.fit'; "
                                        "fell back to ar"),
                          std::string::npos)
                    << d.detail;
            }
        } else {
            ++trained;
        }
    }
    EXPECT_GT(fell_back, 0u);
    EXPECT_GT(trained, 0u);

    // The mixed box trained every signature but the constant one.
    const core::BoxPipelineResult& mixed = serial.boxes[kMixedBox].result;
    const std::vector<int>& signatures = mixed.search.signatures;
    ASSERT_NE(std::find(signatures.begin(), signatures.end(), 0),
              signatures.end());
    ASSERT_GT(signatures.size(), 1u);
    EXPECT_EQ(mixed.metrics.counter("forecast.mlp.fits"), signatures.size() - 1);
    EXPECT_TRUE(mixed.degradations.empty());
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
    const trace::Trace t = chaos_trace(6);
    // A mixed plan so the journal holds successes, degraded boxes, AND
    // settled failures — all three must replay faithfully.
    const std::string spec = "samples=nan@0.05,pipeline.search=throw@0.3";
    const std::string full = journal_path("atm_resume_full.jsonl");

    core::FleetConfig fresh = chaos_config(spec, 13);
    fresh.checkpoint_path = full;
    const core::FleetResult baseline = core::run_pipeline_on_fleet(t, fresh);
    EXPECT_GT(baseline.boxes_failed, 0u);
    EXPECT_LT(baseline.boxes_failed, baseline.boxes.size());
    EXPECT_EQ(baseline.boxes_replayed, 0u);
    ASSERT_EQ(exec::load_journal(full).records.size(), 6u);

    const std::string cut = journal_path("atm_resume_cut.jsonl");
    for (const std::size_t keep : {0u, 1u, 3u, 5u, 6u}) {
        SCOPED_TRACE("cut at " + std::to_string(keep));
        for (const int jobs : {1, 8}) {
            SCOPED_TRACE("jobs=" + std::to_string(jobs));
            truncate_journal(full, cut, keep);
            core::FleetConfig resume = chaos_config(spec, 13);
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
    const trace::Trace t = chaos_trace(4);
    const std::string full = journal_path("atm_resume_crash.jsonl");
    core::FleetConfig fresh = chaos_config("", 1);
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
    core::FleetConfig resume = chaos_config("", 1);
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
    const trace::Trace t = chaos_trace(4);
    const std::string path = journal_path("atm_resume_header.jsonl");
    core::FleetConfig first = chaos_config("", 1);
    first.checkpoint_path = path;
    core::run_pipeline_on_fleet(t, first);
    ASSERT_EQ(exec::load_journal(path).records.size(), 4u);

    // Same journal, different pipeline seed: the journaled results answer
    // a different question and must NOT be replayed.
    core::FleetConfig other = chaos_config("", 1);
    other.checkpoint_path = path;
    other.resume = true;
    other.pipeline.seed = 43;
    const core::FleetResult resumed = core::run_pipeline_on_fleet(t, other);
    EXPECT_EQ(resumed.boxes_replayed, 0u);

    core::FleetConfig clean = chaos_config("", 1);
    clean.pipeline.seed = 43;
    expect_fleet_equal(core::run_pipeline_on_fleet(t, clean), resumed);
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

TEST(JournalCodecTest, OutOfRangeIntegersAreRejected) {
    core::FleetBoxResult box;
    box.box_index = 0;
    box.box_name = "b0";
    box.error = "boom";
    box.error_code = PipelineErrorCode::kFaultInjected;
    box.error_stage = "fleet.box";
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
    // Real payloads of every record shape: a full box result (search,
    // predictions, tickets, degradations, metrics), a settled failure, and
    // serve windows with and without a recommendation.
    const trace::Trace t = chaos_trace(2);
    const core::FleetResult fleet = core::run_pipeline_on_fleet(
        t, chaos_config("samples=nan@0.05,pipeline.forecast=throw@0.5", 4));
    std::vector<std::string> payloads;
    for (const core::FleetBoxResult& box : fleet.boxes) {
        payloads.push_back(core::encode_box_record(box));
    }
    core::FleetBoxResult failed;
    failed.box_index = 1;
    failed.box_name = "b1";
    failed.error = "injected";
    failed.error_code = PipelineErrorCode::kFaultInjected;
    failed.error_stage = "fleet.box";
    payloads.push_back(core::encode_box_record(failed));
    const std::size_t box_payloads = payloads.size();
    core::ServeEpochRecord window;
    window.box_index = 2;
    window.epoch = 300;
    window.cpu = {0.5, 1.0 / 3.0};
    window.ram = {8.0, 1e-12};
    payloads.push_back(core::encode_epoch_record(window));
    window.ladder = 8;
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
    const trace::Trace t = chaos_trace(4);
    const std::string path = journal_path("atm_drain.jsonl");
    const std::atomic<bool> stop{true};

    core::FleetConfig config = chaos_config("", 1);
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

    core::FleetConfig resume = chaos_config("", 1);
    resume.checkpoint_path = path;
    resume.resume = true;
    const core::FleetResult resumed = core::run_pipeline_on_fleet(t, resume);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.boxes_failed, 0u);
    expect_fleet_equal(core::run_pipeline_on_fleet(t, chaos_config("", 1)),
                       resumed);
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

// -------------------------------------------------- degradation ladder units

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

TEST(DegradationLadderTest, AllBadSeriesIsPinnedToZerosAndReported) {
    trace::TraceGenOptions options;
    options.num_days = 6;
    options.windows_per_day = 24;
    options.gappy_box_fraction = 0.0;
    trace::BoxTrace box = trace::generate_box(options, 0);
    ASSERT_GE(box.vms.size(), 2u);
    for (double& x : box.vms[0].cpu_demand_ghz.values()) {
        x = std::numeric_limits<double>::quiet_NaN();
    }

    core::PipelineConfig config;
    config.temporal = forecast::TemporalModel::kSeasonalNaive;
    config.train_days = 5;
    const core::BoxPipelineResult result =
        core::run_pipeline_on_box(box, options.windows_per_day, config);
    EXPECT_TRUE(has_degradation(result, "sanitize",
                                PipelineErrorCode::kRepairFailed));
    EXPECT_TRUE(std::isfinite(result.ape_all));
}

TEST(DegradationLadderTest, OverlyCorruptBoxIsRejectedWithTaxonomy) {
    trace::TraceGenOptions options;
    options.num_days = 6;
    options.windows_per_day = 24;
    options.gappy_box_fraction = 0.0;
    trace::BoxTrace box = trace::generate_box(options, 0);
    box.vms[0].cpu_demand_ghz.values()[0] =
        std::numeric_limits<double>::quiet_NaN();

    core::PipelineConfig config;
    config.temporal = forecast::TemporalModel::kSeasonalNaive;
    config.train_days = 5;
    config.max_bad_sample_fraction = 0.0;  // zero tolerance: one NaN rejects
    try {
        core::run_pipeline_on_box(box, options.windows_per_day, config);
        FAIL() << "expected PipelineError";
    } catch (const core::PipelineError& e) {
        EXPECT_EQ(e.code(), PipelineErrorCode::kTraceInvalid);
        EXPECT_EQ(e.stage(), "sanitize");
    }
}

}  // namespace
}  // namespace atm
