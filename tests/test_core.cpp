#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <random>

#include "core/pipeline.hpp"
#include "core/signature_search.hpp"
#include "core/spatial_model.hpp"
#include "timeseries/stats.hpp"
#include "tracegen/generator.hpp"

namespace atm::core {
namespace {

/// Builds a series family: two independent base patterns plus linear
/// combinations of them (the multicollinearity scenario of Section III-A).
la::FlatMatrix correlated_family(std::size_t len, unsigned seed) {
    std::mt19937 rng(seed);
    std::normal_distribution<double> noise(0.0, 0.3);
    std::vector<double> base_a(len);
    std::vector<double> base_b(len);
    for (std::size_t t = 0; t < len; ++t) {
        base_a[t] = 50.0 + 20.0 * std::sin(0.13 * static_cast<double>(t));
        base_b[t] = 30.0 + 15.0 * std::cos(0.07 * static_cast<double>(t));
    }
    la::FlatMatrix series(6, len);
    for (std::size_t t = 0; t < len; ++t) {
        series[0][t] = base_a[t] + noise(rng);
        series[1][t] = 0.8 * base_a[t] + 5.0 + noise(rng);
        series[2][t] = base_b[t] + noise(rng);
        series[3][t] = 1.2 * base_b[t] - 3.0 + noise(rng);
        series[4][t] = 0.5 * base_a[t] + 0.5 * base_b[t] + noise(rng);
        series[5][t] = noise(rng) * 10.0 + 20.0;  // independent
    }
    return series;
}

TEST(SignatureSearchTest, CbcFindsCompactSignatureSet) {
    const auto series = correlated_family(200, 1);
    SignatureSearchOptions options;
    options.method = ClusteringMethod::kCbc;
    const auto result = find_signatures(series, options);
    // Two base patterns + one independent -> at most 4 signatures after
    // stepwise (series 4 is a linear mix and must be eliminated or folded).
    EXPECT_GE(result.signatures.size(), 2u);
    EXPECT_LE(result.signatures.size(), 4u);
    EXPECT_LT(result.signatures.size(), series.size());
}

TEST(SignatureSearchTest, DtwFindsCompactSignatureSet) {
    const auto series = correlated_family(120, 2);
    SignatureSearchOptions options;
    options.method = ClusteringMethod::kDtw;
    const auto result = find_signatures(series, options);
    EXPECT_GE(result.num_clusters, 2);
    EXPECT_LE(result.signatures.size(), result.initial_signatures.size());
    EXPECT_FALSE(result.signatures.empty());
}

TEST(SignatureSearchTest, StepwiseRemovesMulticollinearSignature) {
    // Force every series into its own cluster, then let step 2 act: series
    // 4 = 0.5*s0 + 0.5*s2 must be detected as multicollinear.
    const auto series = correlated_family(200, 3);
    SignatureSearchOptions no_stepwise;
    no_stepwise.method = ClusteringMethod::kCbc;
    no_stepwise.apply_stepwise = false;
    const auto before = find_signatures(series, no_stepwise);

    SignatureSearchOptions with_stepwise = no_stepwise;
    with_stepwise.apply_stepwise = true;
    const auto after = find_signatures(series, with_stepwise);
    EXPECT_LE(after.signatures.size(), before.signatures.size());
}

TEST(SignatureSearchTest, SignatureRatioDefinition) {
    SignatureSearchResult result;
    result.signatures = {0, 2, 4};
    EXPECT_DOUBLE_EQ(result.signature_ratio(12), 0.25);
    EXPECT_DOUBLE_EQ(result.signature_ratio(0), 0.0);
}

TEST(SignatureSearchTest, SingleSeriesIsItsOwnSignature) {
    const la::FlatMatrix one({{1, 2, 3, 4}});
    const auto result = find_signatures(one);
    EXPECT_EQ(result.signatures, (std::vector<int>{0}));
    EXPECT_EQ(result.num_clusters, 1);
}

TEST(SignatureSearchTest, ValidationErrors) {
    EXPECT_THROW(find_signatures(la::FlatMatrix()), std::invalid_argument);
    EXPECT_THROW(find_signatures(la::FlatMatrix(2, 0)), std::invalid_argument);
}

TEST(SignatureSearchTest, SignaturesSortedAndUnique) {
    const auto series = correlated_family(150, 5);
    for (auto method : {ClusteringMethod::kDtw, ClusteringMethod::kCbc}) {
        SignatureSearchOptions options;
        options.method = method;
        const auto result = find_signatures(series, options);
        EXPECT_TRUE(std::is_sorted(result.signatures.begin(),
                                   result.signatures.end()));
        EXPECT_TRUE(std::adjacent_find(result.signatures.begin(),
                                       result.signatures.end()) ==
                    result.signatures.end());
        for (int s : result.signatures) {
            EXPECT_GE(s, 0);
            EXPECT_LT(s, static_cast<int>(series.size()));
        }
    }
}

TEST(ScopeIndicesTest, InterSelectsAll) {
    const auto idx = scope_indices(8, ResourceScope::kInter);
    EXPECT_EQ(idx.size(), 8u);
}

TEST(ScopeIndicesTest, IntraSelectsAlternating) {
    const auto cpu = scope_indices(8, ResourceScope::kIntraCpu);
    EXPECT_EQ(cpu, (std::vector<int>{0, 2, 4, 6}));
    const auto ram = scope_indices(8, ResourceScope::kIntraRam);
    EXPECT_EQ(ram, (std::vector<int>{1, 3, 5, 7}));
}

TEST(SpatialModelTest, ReconstructsDependentsFromSignatures) {
    const auto series = correlated_family(200, 7);
    SpatialModel model;
    model.fit(series, {0, 2, 5});
    EXPECT_EQ(model.dependent_indices(), (std::vector<int>{1, 3, 4}));

    // Reconstruct on the training signatures: dependents must fit well.
    la::FlatMatrix sig_values(3, series.cols());
    std::size_t row = 0;
    for (const std::size_t s : {0, 2, 5}) {
        std::copy(series[s].begin(), series[s].end(), sig_values[row++].begin());
    }
    const auto rebuilt = model.reconstruct(sig_values);
    ASSERT_EQ(rebuilt.size(), series.size());
    for (int dep : model.dependent_indices()) {
        const double ape = ts::mean_absolute_percentage_error(
            series[static_cast<std::size_t>(dep)],
            rebuilt[static_cast<std::size_t>(dep)]);
        EXPECT_LT(ape, 0.05) << "series " << dep;
    }
    // Signature rows pass through verbatim.
    EXPECT_TRUE(std::ranges::equal(rebuilt[0], series[0]));
    EXPECT_TRUE(std::ranges::equal(rebuilt[5], series[5]));
}

TEST(SpatialModelTest, DependentFitApeMatchesManualOls) {
    const auto series = correlated_family(150, 9);
    SpatialModel model;
    model.fit(series, {0, 2});
    ASSERT_EQ(model.dependent_fit_ape().size(), 4u);
    for (double ape : model.dependent_fit_ape()) {
        EXPECT_GE(ape, 0.0);
        EXPECT_LT(ape, 0.6);
    }
    // Series 1 is a clean transform of signature 0 -> near-zero APE.
    EXPECT_LT(model.dependent_fit_ape()[0], 0.03);
}

TEST(SpatialModelTest, ReconstructClampsNegativePredictions) {
    // A dependent with a strongly negative relationship extrapolated far
    // beyond training must not produce negative demand.
    la::FlatMatrix series(2, 50);
    for (std::size_t t = 0; t < 50; ++t) {
        series[0][t] = static_cast<double>(t);
        series[1][t] = 100.0 - 2.0 * static_cast<double>(t);
    }
    SpatialModel model;
    model.fit(series, {0});
    const la::FlatMatrix future({{200.0, 300.0}});
    const auto rebuilt = model.reconstruct(future);
    for (double v : rebuilt[1]) EXPECT_GE(v, 0.0);
}

TEST(SpatialModelTest, Validation) {
    SpatialModel model;
    EXPECT_THROW(model.fit(la::FlatMatrix(), {0}), std::invalid_argument);
    EXPECT_THROW(model.fit(la::FlatMatrix({{1, 2}}), {}), std::invalid_argument);
    EXPECT_THROW(model.fit(la::FlatMatrix({{1, 2}}), {5}), std::invalid_argument);
    EXPECT_THROW((void)model.reconstruct(la::FlatMatrix()), std::logic_error);
    model.fit(la::FlatMatrix({{1, 2, 3}, {2, 4, 6}}), {0});
    EXPECT_THROW((void)model.reconstruct(la::FlatMatrix(2, 1)), std::invalid_argument);
}

// ------------------------------------------------------------ pipeline

trace::BoxTrace pipeline_box() {
    trace::TraceGenOptions options;
    options.num_boxes = 1;
    options.num_days = 6;
    options.gappy_box_fraction = 0.0;
    options.seed = 99;
    return trace::generate_box(options, 0);
}

PipelineConfig fast_config() {
    PipelineConfig config;
    config.temporal = forecast::TemporalModel::kSeasonalNaive;  // fast tests
    config.train_days = 5;
    return config;
}

TEST(PipelineTest, RunsEndToEndAndPredicts) {
    const auto box = pipeline_box();
    const auto result = run_pipeline_on_box(box, 96, fast_config());
    EXPECT_FALSE(result.search.signatures.empty());
    EXPECT_GT(result.ape_all, 0.0);
    EXPECT_LT(result.ape_all, 1.0);
    ASSERT_EQ(result.predicted_demands.size(), box.vms.size() * 2);
    for (const auto& row : result.predicted_demands) {
        ASSERT_EQ(row.size(), 96u);
        for (double v : row) EXPECT_GE(v, 0.0);
    }
}

TEST(PipelineTest, PoliciesReportBeforeAfterTickets) {
    const auto box = pipeline_box();
    const std::vector<resize::ResizePolicy> policies{
        resize::ResizePolicy::kAtmGreedy, resize::ResizePolicy::kStingy};
    const auto result = run_pipeline_on_box(box, 96, fast_config(), policies);
    ASSERT_EQ(result.policies.size(), 2u);
    // "Before" counts are policy-independent.
    EXPECT_EQ(result.policies[0].cpu_before, result.policies[1].cpu_before);
    EXPECT_EQ(result.policies[0].ram_before, result.policies[1].ram_before);
    for (const auto& p : result.policies) {
        EXPECT_GE(p.cpu_after, 0);
        EXPECT_GE(p.ram_after, 0);
    }
}

TEST(PipelineTest, ReductionPctSigns) {
    PolicyTickets t;
    t.cpu_before = 100;
    t.cpu_after = 40;
    EXPECT_DOUBLE_EQ(t.cpu_reduction_pct(), 60.0);
    t.cpu_after = 130;
    EXPECT_DOUBLE_EQ(t.cpu_reduction_pct(), -30.0);
    t.cpu_before = 0;
    EXPECT_DOUBLE_EQ(t.cpu_reduction_pct(), 0.0);
    t.ram_before = 10;
    t.ram_after = 1;
    EXPECT_DOUBLE_EQ(t.ram_reduction_pct(), 90.0);
}

TEST(PipelineTest, IntraScopeSkipsOtherResource) {
    const auto box = pipeline_box();
    PipelineConfig config = fast_config();
    config.scope = ResourceScope::kIntraCpu;
    const auto result = run_pipeline_on_box(
        box, 96, config, {resize::ResizePolicy::kAtmGreedy});
    // RAM rows are unpredicted, RAM tickets untouched (stay 0/0).
    ASSERT_EQ(result.policies.size(), 1u);
    EXPECT_EQ(result.policies[0].ram_before, 0);
    EXPECT_EQ(result.policies[0].ram_after, 0);
    for (std::size_t i = 0; i < result.predicted_demands.size(); ++i) {
        if (i % 2 == 1) {
            EXPECT_TRUE(result.predicted_demands[i].empty());
        }
    }
}

TEST(PipelineTest, TooShortTraceThrows) {
    trace::TraceGenOptions options;
    options.num_boxes = 1;
    options.num_days = 3;
    const auto box = trace::generate_box(options, 0);
    try {
        run_pipeline_on_box(box, 96, fast_config());
        FAIL() << "expected PipelineError";
    } catch (const PipelineError& e) {
        EXPECT_EQ(e.code(), PipelineErrorCode::kTraceInvalid);
        EXPECT_EQ(e.stage(), "input");
    }
}

TEST(PipelineTest, AtmReducesTicketsOnAverage) {
    // Across several boxes, ATM (with prediction) must reduce CPU tickets
    // substantially in aggregate.
    trace::TraceGenOptions options;
    options.num_boxes = 12;
    options.num_days = 6;
    options.gappy_box_fraction = 0.0;
    const auto trace = trace::generate_trace(options);
    int before = 0;
    int after = 0;
    for (const auto& box : trace.boxes) {
        const auto result = run_pipeline_on_box(
            box, 96, fast_config(), {resize::ResizePolicy::kAtmGreedy});
        before += result.policies[0].cpu_before + result.policies[0].ram_before;
        after += result.policies[0].cpu_after + result.policies[0].ram_after;
    }
    ASSERT_GT(before, 0);
    EXPECT_LT(after, before / 2);  // at least 50% aggregate reduction
}

TEST(ResizeOnActualsTest, PerfectKnowledgeNearEliminatesTickets) {
    // Fig. 8 mode: with actual demands and abundant box capacity, ATM
    // should wipe out nearly all tickets.
    trace::TraceGenOptions options;
    options.num_boxes = 10;
    options.num_days = 2;
    options.gappy_box_fraction = 0.0;
    const auto trace = trace::generate_trace(options);
    int before = 0;
    int after = 0;
    for (const auto& box : trace.boxes) {
        const auto results = evaluate_resize_policies_on_actuals(
            box, 96, /*day=*/1, 0.6, 5.0, {resize::ResizePolicy::kAtmGreedy});
        before += results[0].cpu_before + results[0].ram_before;
        after += results[0].cpu_after + results[0].ram_after;
    }
    ASSERT_GT(before, 0);
    // The paper reports ~95% reduction; our population includes capacity-
    // constrained (overcommitted) boxes where zero tickets is infeasible,
    // so require >= 75% aggregate reduction.
    EXPECT_LT(static_cast<double>(after), 0.25 * static_cast<double>(before));
}

TEST(ResizeOnActualsTest, AtmBeatsBaselines) {
    trace::TraceGenOptions options;
    options.num_boxes = 15;
    options.num_days = 2;
    const auto trace = trace::generate_trace(options);
    const std::vector<resize::ResizePolicy> policies{
        resize::ResizePolicy::kAtmGreedy, resize::ResizePolicy::kMaxMinFairness,
        resize::ResizePolicy::kStingy};
    int atm = 0;
    int maxmin = 0;
    int stingy = 0;
    for (const auto& box : trace.boxes) {
        const auto results =
            evaluate_resize_policies_on_actuals(box, 96, 1, 0.6, 5.0, policies);
        atm += results[0].cpu_after + results[0].ram_after;
        maxmin += results[1].cpu_after + results[1].ram_after;
        stingy += results[2].cpu_after + results[2].ram_after;
    }
    EXPECT_LE(atm, maxmin);
    EXPECT_LE(atm, stingy);
}

TEST(ResizeOnActualsTest, DayOutOfRangeThrows) {
    trace::TraceGenOptions options;
    options.num_boxes = 1;
    options.num_days = 2;
    const auto box = trace::generate_box(options, 0);
    try {
        evaluate_resize_policies_on_actuals(box, 96, 5, 0.6, 5.0,
                                            {resize::ResizePolicy::kAtmGreedy});
        FAIL() << "expected PipelineError";
    } catch (const PipelineError& e) {
        EXPECT_EQ(e.code(), PipelineErrorCode::kTraceInvalid);
        EXPECT_EQ(e.stage(), "input");
    }
}

// Parameterized: the pipeline runs under every clustering method x
// temporal model combination.
struct PipelineParam {
    ClusteringMethod method;
    forecast::TemporalModel temporal;
};

class PipelineMatrixTest : public ::testing::TestWithParam<PipelineParam> {};

TEST_P(PipelineMatrixTest, RunsAndPredictsReasonably) {
    const auto box = pipeline_box();
    PipelineConfig config;
    config.search.method = GetParam().method;
    config.temporal = GetParam().temporal;
    const auto result = run_pipeline_on_box(box, 96, config,
                                            {resize::ResizePolicy::kAtmGreedy});
    EXPECT_GT(result.ape_all, 0.0);
    EXPECT_LT(result.ape_all, 1.2);
    EXPECT_FALSE(result.search.signatures.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PipelineMatrixTest,
    ::testing::Values(
        PipelineParam{ClusteringMethod::kDtw, forecast::TemporalModel::kSeasonalNaive},
        PipelineParam{ClusteringMethod::kCbc, forecast::TemporalModel::kSeasonalNaive},
        PipelineParam{ClusteringMethod::kDtw, forecast::TemporalModel::kAutoregressive},
        PipelineParam{ClusteringMethod::kCbc, forecast::TemporalModel::kNeuralNetwork}));

}  // namespace
}  // namespace atm::core
