// Tests for the extension modules: k-medoids and DTW alignment (cluster),
// Holt-Winters and ensembles (forecast), DRF (resize), incident extraction
// (ticketing) and the rolling pipeline (core).

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <random>

#include "cluster/dtw.hpp"
#include "cluster/kmedoids.hpp"
#include "core/rolling.hpp"
#include "forecast/holt_winters.hpp"
#include "forecast/seasonal_naive.hpp"
#include "resize/drf.hpp"
#include "ticketing/incidents.hpp"
#include "timeseries/stats.hpp"
#include "tracegen/generator.hpp"

namespace atm {
namespace {

// ------------------------------------------------------------- k-medoids

la::FlatMatrix two_blob_distances() {
    const std::size_t n = 6;
    la::FlatMatrix d(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            if (i == j) continue;
            d[i][j] = (i < 3) == (j < 3) ? 1.0 : 10.0;
        }
    }
    return d;
}

TEST(KMedoidsTest, SeparatesBlobs) {
    const auto result = cluster::k_medoids(two_blob_distances(), 2);
    ASSERT_EQ(result.medoids.size(), 2u);
    EXPECT_NE(result.medoids[0] < 3, result.medoids[1] < 3);
    EXPECT_EQ(result.labels[0], result.labels[1]);
    EXPECT_NE(result.labels[0], result.labels[5]);
    // Each blob: 2 members at distance 1 from the medoid -> cost 4.
    EXPECT_DOUBLE_EQ(result.total_cost, 4.0);
}

TEST(KMedoidsTest, KEqualsNZeroCost) {
    const auto result = cluster::k_medoids(two_blob_distances(), 6);
    EXPECT_DOUBLE_EQ(result.total_cost, 0.0);
}

TEST(KMedoidsTest, KOneMinimizesTotalDistance) {
    // Star: item 0 is the center.
    la::FlatMatrix d(4, 4, 2.0);
    for (std::size_t i = 0; i < 4; ++i) d[i][i] = 0.0;
    for (std::size_t i = 1; i < 4; ++i) {
        d[0][i] = 1.0;
        d[i][0] = 1.0;
    }
    const auto result = cluster::k_medoids(d, 1);
    EXPECT_EQ(result.medoids[0], 0);
    EXPECT_DOUBLE_EQ(result.total_cost, 3.0);
}

TEST(KMedoidsTest, Validation) {
    EXPECT_THROW(cluster::k_medoids(la::FlatMatrix(), 1), std::invalid_argument);
    EXPECT_THROW(cluster::k_medoids(two_blob_distances(), 0),
                 std::invalid_argument);
    EXPECT_THROW(cluster::k_medoids(two_blob_distances(), 7),
                 std::invalid_argument);
}

// --------------------------------------------------------- DTW alignment

TEST(DtwAlignTest, DistanceMatchesDtwDistance) {
    const std::vector<double> p{3, 1, 4, 1, 5};
    const std::vector<double> q{2, 7, 1, 8};
    const auto alignment = cluster::dtw_align(p, q);
    EXPECT_DOUBLE_EQ(alignment.distance, cluster::dtw_distance(p, q));
}

TEST(DtwAlignTest, PathIsMonotoneAndComplete) {
    const std::vector<double> p{1, 2, 3, 2, 1};
    const std::vector<double> q{1, 3, 1};
    const auto alignment = cluster::dtw_align(p, q);
    ASSERT_FALSE(alignment.path.empty());
    EXPECT_EQ(alignment.path.front(), (std::pair<std::size_t, std::size_t>{0, 0}));
    EXPECT_EQ(alignment.path.back(),
              (std::pair<std::size_t, std::size_t>{p.size() - 1, q.size() - 1}));
    for (std::size_t s = 1; s < alignment.path.size(); ++s) {
        const auto [pi, pj] = alignment.path[s - 1];
        const auto [ci, cj] = alignment.path[s];
        EXPECT_LE(ci - pi, 1u);
        EXPECT_LE(cj - pj, 1u);
        EXPECT_GE(ci, pi);
        EXPECT_GE(cj, pj);
        EXPECT_TRUE(ci > pi || cj > pj);
    }
}

TEST(DtwAlignTest, PathCostSumsToDistance) {
    const std::vector<double> p{1, 5, 2, 8};
    const std::vector<double> q{2, 4, 4, 7, 1};
    const auto alignment = cluster::dtw_align(p, q);
    double cost = 0.0;
    for (const auto& [i, j] : alignment.path) {
        cost += (p[i] - q[j]) * (p[i] - q[j]);
    }
    EXPECT_NEAR(cost, alignment.distance, 1e-9);
}

TEST(DtwAlignTest, EmptyInputs) {
    const std::vector<double> p{1};
    EXPECT_TRUE(std::isinf(cluster::dtw_align(p, {}).distance));
    EXPECT_DOUBLE_EQ(cluster::dtw_align({}, {}).distance, 0.0);
}

// ----------------------------------------------------------- Holt-Winters

std::vector<double> seasonal_trend_series(int n, int period, unsigned seed) {
    std::mt19937 rng(seed);
    std::normal_distribution<double> noise(0.0, 0.4);
    std::vector<double> xs(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t) {
        xs[static_cast<std::size_t>(t)] =
            20.0 + 0.01 * t +
            6.0 * std::sin(2.0 * std::numbers::pi * t / period) + noise(rng);
    }
    return xs;
}

TEST(HoltWintersTest, TracksSeasonalSeries) {
    const int period = 48;
    const auto series = seasonal_trend_series(period * 6, period, 1);
    const std::vector<double> history(series.begin(), series.end() - period);
    const std::vector<double> actual(series.end() - period, series.end());
    forecast::HoltWintersForecaster model(period);
    model.fit(history);
    const auto pred = model.forecast(period);
    EXPECT_LT(ts::mean_absolute_percentage_error(actual, pred), 0.08);
}

TEST(HoltWintersTest, ShortHistoryFallsBack) {
    forecast::HoltWintersForecaster model(48);
    const std::vector<double> tiny{5.0, 6.0, 7.0};
    model.fit(tiny);
    for (double v : model.forecast(5)) EXPECT_DOUBLE_EQ(v, 7.0);
}

TEST(HoltWintersTest, Validation) {
    EXPECT_THROW(forecast::HoltWintersForecaster(1), std::invalid_argument);
    forecast::HoltWintersOptions bad;
    bad.alpha = 1.5;
    EXPECT_THROW(forecast::HoltWintersForecaster(10, bad), std::invalid_argument);
    forecast::HoltWintersForecaster model(10);
    EXPECT_THROW(model.forecast(1), std::logic_error);
}

TEST(HoltWintersTest, SeasonalPhaseAlignment) {
    // Noise-free seasonal square-ish pattern: forecasts must continue the
    // phase, not restart it.
    const int period = 8;
    std::vector<double> xs;
    for (int r = 0; r < 8; ++r) {
        for (int p = 0; p < period; ++p) {
            xs.push_back(p < 4 ? 10.0 : 20.0);
        }
    }
    // Cut mid-period: history ends after 3 samples of the low phase.
    const std::vector<double> history(xs.begin(), xs.begin() + 8 * 6 + 3);
    forecast::HoltWintersForecaster model(period);
    model.fit(history);
    const auto pred = model.forecast(5);
    // Next sample is the 4th low sample, then highs.
    EXPECT_NEAR(pred[0], 10.0, 1.5);
    EXPECT_NEAR(pred[2], 20.0, 1.5);
}

TEST(EnsembleTest, AveragesMembers) {
    std::vector<std::unique_ptr<forecast::Forecaster>> members;
    members.push_back(std::make_unique<forecast::SeasonalNaiveForecaster>(2));
    members.push_back(std::make_unique<forecast::SeasonalNaiveForecaster>(4));
    forecast::EnsembleForecaster ensemble(std::move(members));
    const std::vector<double> history{1, 2, 3, 4};
    ensemble.fit(history);
    const auto pred = ensemble.forecast(1);
    // member(period 2) -> 3; member(period 4) -> 1; mean = 2.
    EXPECT_DOUBLE_EQ(pred[0], 2.0);
}

TEST(EnsembleTest, FactoryModelsWork) {
    const auto model = forecast::make_forecaster(
        forecast::TemporalModel::kEnsemble, 24);
    const auto hw = forecast::make_forecaster(
        forecast::TemporalModel::kHoltWinters, 24);
    const auto series = seasonal_trend_series(24 * 6, 24, 3);
    model->fit(series);
    hw->fit(series);
    EXPECT_EQ(model->forecast(24).size(), 24u);
    EXPECT_EQ(hw->forecast(24).size(), 24u);
    EXPECT_EQ(model->name(), "ensemble");
    EXPECT_EQ(hw->name(), "holt-winters");
}

TEST(EnsembleTest, Validation) {
    EXPECT_THROW(forecast::EnsembleForecaster({}), std::invalid_argument);
}

// -------------------------------------------------------------------- DRF

TEST(DrfTest, AmpleCapacitySatisfiesEveryRequest) {
    resize::MultiResourceInput input;
    input.cpu_demands = {{6.0, 3.0}, {1.0, 2.0}};
    input.ram_demands = {{4.0, 4.0}, {8.0, 2.0}};
    input.alpha = 0.6;
    input.cpu_capacity = 100.0;
    input.ram_capacity = 100.0;
    const auto result = resize::drf_resize(input);
    EXPECT_EQ(result.cpu_tickets, 0);
    EXPECT_EQ(result.ram_tickets, 0);
    EXPECT_NEAR(result.cpu_capacities[0], 10.0, 0.2);
    EXPECT_NEAR(result.ram_capacities[1], 8.0 / 0.6, 0.3);
}

TEST(DrfTest, BudgetsRespected) {
    resize::MultiResourceInput input;
    input.cpu_demands = {{9.0}, {9.0}, {9.0}};
    input.ram_demands = {{9.0}, {9.0}, {9.0}};
    input.alpha = 0.6;
    input.cpu_capacity = 10.0;
    input.ram_capacity = 12.0;
    const auto result = resize::drf_resize(input);
    double cpu = 0.0;
    double ram = 0.0;
    for (double c : result.cpu_capacities) cpu += c;
    for (double r : result.ram_capacities) ram += r;
    EXPECT_LE(cpu, input.cpu_capacity + 1e-6);
    EXPECT_LE(ram, input.ram_capacity + 1e-6);
}

TEST(DrfTest, DominantSharesEqualizedUnderScarcity) {
    // VM0 is CPU-heavy, VM1 RAM-heavy; both want more than available.
    resize::MultiResourceInput input;
    input.cpu_demands = {{18.0}, {2.0}};
    input.ram_demands = {{2.0}, {18.0}};
    input.alpha = 1.0;
    input.cpu_capacity = 10.0;
    input.ram_capacity = 10.0;
    const auto result = resize::drf_resize(input);
    const double dom0 = std::max(result.cpu_capacities[0] / 10.0,
                                 result.ram_capacities[0] / 10.0);
    const double dom1 = std::max(result.cpu_capacities[1] / 10.0,
                                 result.ram_capacities[1] / 10.0);
    EXPECT_NEAR(dom0, dom1, 0.12);
}

TEST(DrfTest, Validation) {
    resize::MultiResourceInput input;
    EXPECT_THROW(resize::drf_resize(input), std::invalid_argument);
    input.cpu_demands = {{1.0}};
    input.ram_demands = {{1.0}, {2.0}};
    EXPECT_THROW(resize::drf_resize(input), std::invalid_argument);
}

// -------------------------------------------------------------- incidents

TEST(IncidentTest, ExtractsRuns) {
    const std::vector<double> usage{50, 70, 75, 50, 50, 90, 50};
    const auto incidents = ticketing::extract_incidents(usage, 60.0, 0);
    ASSERT_EQ(incidents.size(), 2u);
    EXPECT_EQ(incidents[0].first_window, 1u);
    EXPECT_EQ(incidents[0].length, 2u);
    EXPECT_EQ(incidents[1].first_window, 5u);
    EXPECT_EQ(incidents[1].length, 1u);
}

TEST(IncidentTest, MergeGapJoinsNearbyRuns) {
    const std::vector<double> usage{70, 50, 70, 70, 50, 50, 50, 70};
    const auto merged = ticketing::extract_incidents(usage, 60.0, 1);
    ASSERT_EQ(merged.size(), 2u);
    EXPECT_EQ(merged[0].first_window, 0u);
    EXPECT_EQ(merged[0].length, 4u);  // windows 0..3 merged over the dip
}

TEST(IncidentTest, SummaryStats) {
    const std::vector<double> usage{70, 70, 50, 70, 70, 70, 50};
    const auto stats = ticketing::summarize_incidents(usage, 60.0, 0);
    EXPECT_EQ(stats.count, 2);
    EXPECT_EQ(stats.total_windows, 5);
    EXPECT_EQ(stats.longest, 3u);
    EXPECT_DOUBLE_EQ(stats.mean_duration, 2.5);
}

TEST(IncidentTest, NoViolationsNoIncidents) {
    const std::vector<double> usage{10, 20, 30};
    EXPECT_TRUE(ticketing::extract_incidents(usage, 60.0).empty());
    EXPECT_EQ(ticketing::summarize_incidents(usage, 60.0).count, 0);
}

// --------------------------------------------------------------- rolling

TEST(RollingPipelineTest, WalksForwardOverTheWeek) {
    trace::TraceGenOptions options;
    options.num_boxes = 1;
    options.num_days = 7;
    options.gappy_box_fraction = 0.0;
    options.seed = 11;
    const trace::BoxTrace box = trace::generate_box(options, 0);

    core::PipelineConfig config;
    config.temporal = forecast::TemporalModel::kSeasonalNaive;
    config.train_days = 5;
    const core::RollingResult result =
        core::run_rolling_pipeline(box, 96, 7, config);
    ASSERT_EQ(result.days.size(), 2u);  // days 5 and 6
    EXPECT_EQ(result.days[0].day, 5);
    EXPECT_EQ(result.days[1].day, 6);
    for (const auto& d : result.days) {
        EXPECT_GT(d.num_signatures, 0);
        EXPECT_GE(d.ape_all, 0.0);
    }
    EXPECT_GE(result.total_before(), 0);
}

TEST(RollingPipelineTest, ReducesTicketsInAggregate) {
    trace::TraceGenOptions options;
    options.num_boxes = 6;
    options.num_days = 7;
    options.gappy_box_fraction = 0.0;
    const auto trace = trace::generate_trace(options);
    core::PipelineConfig config;
    config.temporal = forecast::TemporalModel::kSeasonalNaive;
    config.train_days = 5;
    long before = 0;
    long after = 0;
    for (const auto& box : trace.boxes) {
        const auto result = core::run_rolling_pipeline(box, 96, 7, config);
        before += result.total_before();
        after += result.total_after();
    }
    ASSERT_GT(before, 0);
    EXPECT_LT(after, before / 2);
}

TEST(RollingPipelineTest, Validation) {
    trace::TraceGenOptions options;
    options.num_boxes = 1;
    options.num_days = 3;
    const trace::BoxTrace box = trace::generate_box(options, 0);
    core::PipelineConfig config;
    config.train_days = 5;
    EXPECT_THROW(core::run_rolling_pipeline(box, 96, 7, config),
                 std::invalid_argument);
    config.train_days = 3;
    EXPECT_THROW(core::run_rolling_pipeline(box, 96, 3, config),
                 std::invalid_argument);
}

}  // namespace
}  // namespace atm
