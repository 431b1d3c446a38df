#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>

#include "timeseries/cdf.hpp"
#include "timeseries/features.hpp"
#include "timeseries/repair.hpp"
#include "timeseries/resource.hpp"
#include "timeseries/series.hpp"
#include "timeseries/stats.hpp"

namespace atm::ts {
namespace {

TEST(SeriesTest, BasicAccessors) {
    Series s("a", {1.0, 2.0, 3.0});
    EXPECT_EQ(s.size(), 3u);
    EXPECT_EQ(s.name(), "a");
    EXPECT_DOUBLE_EQ(s[1], 2.0);
    s[1] = 5.0;
    EXPECT_DOUBLE_EQ(s[1], 5.0);
}

TEST(SeriesTest, SliceClampsToLength) {
    Series s("a", {1, 2, 3, 4, 5});
    const Series mid = s.slice(1, 3);
    ASSERT_EQ(mid.size(), 3u);
    EXPECT_DOUBLE_EQ(mid[0], 2.0);
    EXPECT_DOUBLE_EQ(mid[2], 4.0);
    const Series over = s.slice(3, 10);
    EXPECT_EQ(over.size(), 2u);
    const Series past = s.slice(10, 2);
    EXPECT_TRUE(past.empty());
}

TEST(SeriesTest, ScaledMultipliesEverySample) {
    Series s("a", {1.0, -2.0, 0.5});
    const Series t = s.scaled(2.0);
    EXPECT_DOUBLE_EQ(t[0], 2.0);
    EXPECT_DOUBLE_EQ(t[1], -4.0);
    EXPECT_DOUBLE_EQ(t[2], 1.0);
}

TEST(StatsTest, MeanVarianceStddev) {
    const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    EXPECT_DOUBLE_EQ(mean(xs), 5.0);
    EXPECT_DOUBLE_EQ(variance(xs), 4.0);
    EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
}

TEST(StatsTest, EmptySpansAreZero) {
    const std::vector<double> empty;
    EXPECT_DOUBLE_EQ(mean(empty), 0.0);
    EXPECT_DOUBLE_EQ(variance(empty), 0.0);
    EXPECT_DOUBLE_EQ(quantile(empty, 0.5), 0.0);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
    const std::vector<double> xs{1, 2, 3, 4, 5};
    const std::vector<double> ys{2, 4, 6, 8, 10};
    EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
    const std::vector<double> neg{10, 8, 6, 4, 2};
    EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(StatsTest, PearsonConstantSeriesIsZero) {
    const std::vector<double> xs{1, 2, 3};
    const std::vector<double> flat{5, 5, 5};
    EXPECT_DOUBLE_EQ(pearson(xs, flat), 0.0);
}

TEST(StatsTest, PearsonShiftAndScaleInvariant) {
    const std::vector<double> xs{3, 1, 4, 1, 5, 9, 2, 6};
    std::vector<double> ys(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) ys[i] = 3.0 * xs[i] + 7.0;
    EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
}

TEST(StatsTest, QuantileInterpolates) {
    const std::vector<double> xs{1, 2, 3, 4};
    EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(median(xs), 2.5);
}

TEST(StatsTest, SummaryMatchesComponents) {
    const std::vector<double> xs{5, 1, 3, 2, 4};
    const Summary s = summarize(xs);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 5.0);
    EXPECT_DOUBLE_EQ(s.median, 3.0);
    EXPECT_DOUBLE_EQ(s.p25, 2.0);
    EXPECT_DOUBLE_EQ(s.p75, 4.0);
    EXPECT_DOUBLE_EQ(s.mean, 3.0);
    EXPECT_EQ(s.count, 5u);
}

TEST(StatsTest, MapeMatchesPaperDefinition) {
    const std::vector<double> actual{100, 50, 200};
    const std::vector<double> fitted{80, 60, 200};
    // |100-80|/100 = .2, |50-60|/50 = .2, 0 -> mean .1333
    EXPECT_NEAR(mean_absolute_percentage_error(actual, fitted), 0.4 / 3.0, 1e-12);
}

TEST(StatsTest, MapeSkipsNearZeroActuals) {
    const std::vector<double> actual{0.0, 100.0};
    const std::vector<double> fitted{42.0, 110.0};
    EXPECT_NEAR(mean_absolute_percentage_error(actual, fitted), 0.1, 1e-12);
}

TEST(CdfTest, EvaluatesFractions) {
    const std::vector<double> xs{1, 2, 3, 4};
    const EmpiricalCdf cdf(xs);
    EXPECT_DOUBLE_EQ(cdf(0.5), 0.0);
    EXPECT_DOUBLE_EQ(cdf(1.0), 0.25);
    EXPECT_DOUBLE_EQ(cdf(2.5), 0.5);
    EXPECT_DOUBLE_EQ(cdf(4.0), 1.0);
    EXPECT_DOUBLE_EQ(cdf(99.0), 1.0);
}

TEST(CdfTest, InverseIsQuantile) {
    const std::vector<double> xs{10, 20, 30, 40, 50};
    const EmpiricalCdf cdf(xs);
    EXPECT_DOUBLE_EQ(cdf.inverse(0.2), 10.0);
    EXPECT_DOUBLE_EQ(cdf.inverse(0.5), 30.0);
    EXPECT_DOUBLE_EQ(cdf.inverse(1.0), 50.0);
}

TEST(CdfTest, GridSpansSamples) {
    const std::vector<double> xs{0.0, 1.0};
    const EmpiricalCdf cdf(xs);
    const auto grid = cdf.grid(3);
    ASSERT_EQ(grid.size(), 3u);
    EXPECT_DOUBLE_EQ(grid.front().x, 0.0);
    EXPECT_DOUBLE_EQ(grid.back().x, 1.0);
    EXPECT_DOUBLE_EQ(grid.back().f, 1.0);
}

TEST(CdfTest, EmptyCdf) {
    const EmpiricalCdf cdf;
    EXPECT_TRUE(cdf.empty());
    EXPECT_DOUBLE_EQ(cdf(1.0), 0.0);
    EXPECT_TRUE(cdf.grid(5).empty());
}

TEST(ScalerTest, MinMaxRoundTrip) {
    MinMaxScaler scaler;
    const std::vector<double> xs{10, 20, 30};
    scaler.fit(xs);
    EXPECT_DOUBLE_EQ(scaler.transform(10), 0.0);
    EXPECT_DOUBLE_EQ(scaler.transform(30), 1.0);
    EXPECT_DOUBLE_EQ(scaler.inverse(scaler.transform(17.5)), 17.5);
}

TEST(ScalerTest, MinMaxConstantInput) {
    MinMaxScaler scaler;
    const std::vector<double> xs{5, 5, 5};
    scaler.fit(xs);
    EXPECT_DOUBLE_EQ(scaler.transform(5), 0.5);
    EXPECT_DOUBLE_EQ(scaler.inverse(0.7), 5.0);
}

TEST(ScalerTest, StandardRoundTrip) {
    StandardScaler scaler;
    const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
    scaler.fit(xs);
    EXPECT_DOUBLE_EQ(scaler.mean(), 5.0);
    EXPECT_DOUBLE_EQ(scaler.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(scaler.transform(7.0), 1.0);
    EXPECT_DOUBLE_EQ(scaler.inverse(scaler.transform(3.3)), 3.3);
}

TEST(FeaturesTest, LagDatasetShape) {
    const std::vector<double> xs{1, 2, 3, 4, 5, 6};
    const auto ds = make_lag_dataset(xs, 2);
    ASSERT_EQ(ds.size(), 4u);
    EXPECT_EQ(ds[0].lags, (std::vector<double>{1, 2}));
    EXPECT_DOUBLE_EQ(ds[0].target, 3.0);
    EXPECT_EQ(ds[3].lags, (std::vector<double>{4, 5}));
    EXPECT_DOUBLE_EQ(ds[3].target, 6.0);
}

TEST(FeaturesTest, LagDatasetWithSeasonalFeature) {
    const std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8};
    const auto ds = make_lag_dataset(xs, 2, 4);
    ASSERT_EQ(ds.size(), 4u);
    // First example targets index 4 (value 5): lags {3,4}, seasonal x[0]=1.
    EXPECT_EQ(ds[0].lags, (std::vector<double>{3, 4, 1}));
    EXPECT_DOUBLE_EQ(ds[0].target, 5.0);
}

TEST(FeaturesTest, TooShortHistoryYieldsEmptyDataset) {
    const std::vector<double> xs{1, 2};
    EXPECT_TRUE(make_lag_dataset(xs, 5).empty());
    EXPECT_TRUE(make_lag_dataset(xs, 1, 10).empty());
}

TEST(ResourceTest, FlatIndexRoundTrip) {
    for (int vm = 0; vm < 5; ++vm) {
        for (int r = 0; r < kNumResources; ++r) {
            const SeriesId id{vm, static_cast<ResourceKind>(r)};
            const SeriesId back = SeriesId::from_flat(id.flat_index());
            EXPECT_EQ(back, id);
        }
    }
    EXPECT_EQ(to_string(ResourceKind::kCpu), "CPU");
    EXPECT_EQ(to_string(ResourceKind::kRam), "RAM");
}

// ------------------------------------------------------------------- repair

std::vector<double> sine_series(int n, int period) {
    std::vector<double> xs(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t) {
        xs[static_cast<std::size_t>(t)] =
            10.0 + 4.0 * std::sin(2.0 * std::numbers::pi * t / period);
    }
    return xs;
}


TEST(GapTest, FindsZeroRuns) {
    const std::vector<double> xs{5, 0, 0, 0, 6, 0, 7, 0, 0};
    const auto gaps = find_gaps(xs);
    ASSERT_EQ(gaps.size(), 2u);  // single zero at index 5 ignored (min_run 2)
    EXPECT_EQ(gaps[0].first, 1u);
    EXPECT_EQ(gaps[0].length, 3u);
    EXPECT_EQ(gaps[1].first, 7u);
    EXPECT_EQ(gaps[1].length, 2u);
}

TEST(GapTest, MinRunRespected) {
    const std::vector<double> xs{5, 0, 6, 0, 0, 7};
    EXPECT_EQ(find_gaps(xs, 1e-9, 1).size(), 2u);
    EXPECT_EQ(find_gaps(xs, 1e-9, 2).size(), 1u);
    EXPECT_EQ(find_gaps(xs, 1e-9, 3).size(), 0u);
}

TEST(GapTest, NoGapsInCleanSeries) {
    const std::vector<double> xs{1, 2, 3, 4};
    EXPECT_TRUE(find_gaps(xs).empty());
}

TEST(RepairTest, LinearInterpolation) {
    const std::vector<double> xs{10, 0, 0, 0, 50};
    const auto fixed = repair_gaps(xs, find_gaps(xs), RepairMethod::kLinear);
    EXPECT_DOUBLE_EQ(fixed[1], 20.0);
    EXPECT_DOUBLE_EQ(fixed[2], 30.0);
    EXPECT_DOUBLE_EQ(fixed[3], 40.0);
    EXPECT_DOUBLE_EQ(fixed[0], 10.0);
    EXPECT_DOUBLE_EQ(fixed[4], 50.0);
}

TEST(RepairTest, SeasonalCopiesPriorPeriod) {
    // Period 4; the gap at positions 5-6 copies positions 1-2.
    const std::vector<double> xs{1, 2, 3, 4, 1, 0, 0, 4};
    const auto fixed = repair_gaps(xs, find_gaps(xs), RepairMethod::kSeasonal, 4);
    EXPECT_DOUBLE_EQ(fixed[5], 2.0);
    EXPECT_DOUBLE_EQ(fixed[6], 3.0);
}

TEST(RepairTest, SeasonalFallsBackToLinearInFirstPeriod) {
    const std::vector<double> xs{10, 0, 0, 40, 5, 6, 7, 8};
    const auto fixed = repair_gaps(xs, find_gaps(xs), RepairMethod::kSeasonal, 4);
    EXPECT_DOUBLE_EQ(fixed[1], 20.0);
    EXPECT_DOUBLE_EQ(fixed[2], 30.0);
}

TEST(RepairTest, EdgeGapsUseNearestValue) {
    const std::vector<double> head{0, 0, 9, 9};
    const auto fixed_head =
        repair_gaps(head, find_gaps(head), RepairMethod::kLinear);
    EXPECT_DOUBLE_EQ(fixed_head[0], 9.0);
    EXPECT_DOUBLE_EQ(fixed_head[1], 9.0);

    const std::vector<double> tail{7, 7, 0, 0};
    const auto fixed_tail =
        repair_gaps(tail, find_gaps(tail), RepairMethod::kLinear);
    EXPECT_DOUBLE_EQ(fixed_tail[2], 7.0);
    EXPECT_DOUBLE_EQ(fixed_tail[3], 7.0);
}

TEST(RepairTest, AllGapSeriesIsPinnedToZeros) {
    // A gap spanning the whole series has no valid neighbor in any
    // direction; repair pins it to flat zeros instead of leaving the gap
    // values untouched (the pipeline reports this condition one layer up
    // as PipelineErrorCode::kRepairFailed).
    const std::vector<double> xs(8, std::numeric_limits<double>::quiet_NaN());
    const std::vector<Gap> whole{{0, xs.size()}};
    for (const RepairMethod method :
         {RepairMethod::kLinear, RepairMethod::kSeasonal}) {
        const auto fixed = repair_gaps(xs, whole, method, 4);
        EXPECT_EQ(fixed, std::vector<double>(8, 0.0));
    }
}

TEST(RepairTest, RepairSeriesConvenience) {
    const auto clean = sine_series(96 * 2, 96);
    std::vector<double> gappy = clean;
    for (std::size_t t = 120; t < 130; ++t) gappy[t] = 0.0;
    const auto fixed = repair_series(gappy, RepairMethod::kSeasonal, 96);
    double max_err = 0.0;
    for (std::size_t t = 120; t < 130; ++t) {
        max_err = std::max(max_err, std::abs(fixed[t] - clean[t]));
    }
    EXPECT_LT(max_err, 0.5);  // seasonal copy restores the clean pattern
}

TEST(RepairTest, NoGapsIsIdentity) {
    const std::vector<double> xs{1, 2, 3};
    EXPECT_EQ(repair_series(xs), xs);
}

}  // namespace
}  // namespace atm::ts
