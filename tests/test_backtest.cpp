#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "forecast/backtest.hpp"
#include "forecast/seasonal_naive.hpp"

namespace atm::forecast {
namespace {

std::vector<double> periodic(int n, int period) {
    std::vector<double> xs(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t) {
        xs[static_cast<std::size_t>(t)] =
            50.0 + 20.0 * std::sin(2.0 * std::numbers::pi * t / period);
    }
    return xs;
}

TEST(BacktestTest, FoldLayout) {
    const auto series = periodic(100, 10);
    const auto result = backtest(
        series, [] { return std::make_unique<SeasonalNaiveForecaster>(10); },
        /*min_history=*/50, /*horizon=*/10, /*step=*/10);
    // Origins 50, 60, 70, 80, 90.
    ASSERT_EQ(result.folds.size(), 5u);
    EXPECT_EQ(result.folds.front().origin, 50u);
    EXPECT_EQ(result.folds.back().origin, 90u);
    EXPECT_EQ(result.model, "seasonal-naive");
}

TEST(BacktestTest, PerfectModelZeroError) {
    const auto series = periodic(120, 12);
    const auto result = backtest(
        series, [] { return std::make_unique<SeasonalNaiveForecaster>(12); },
        48, 12, 12);
    EXPECT_NEAR(result.mean_mape, 0.0, 1e-9);
    EXPECT_NEAR(result.mean_rmse, 0.0, 1e-9);
}

TEST(BacktestTest, WrongPeriodHasError) {
    const auto series = periodic(120, 12);
    const auto result = backtest(
        series, [] { return std::make_unique<SeasonalNaiveForecaster>(7); },
        48, 12, 12);
    EXPECT_GT(result.mean_mape, 0.05);
}

TEST(BacktestTest, TooShortThrows) {
    const auto series = periodic(20, 10);
    EXPECT_THROW(backtest(series,
                          [] { return std::make_unique<SeasonalNaiveForecaster>(10); },
                          50, 10, 10),
                 std::invalid_argument);
    EXPECT_THROW(backtest(series,
                          [] { return std::make_unique<SeasonalNaiveForecaster>(10); },
                          10, 0, 10),
                 std::invalid_argument);
}

TEST(CompareModelsTest, SortedByMape) {
    const auto series = periodic(96 * 4, 96);
    const auto results = compare_models(series, 96, 96 * 2, 96, 96);
    ASSERT_EQ(results.size(), 3u);
    for (std::size_t i = 1; i < results.size(); ++i) {
        EXPECT_LE(results[i - 1].mean_mape, results[i].mean_mape);
    }
    // On a perfectly periodic series the seasonal-naive must win outright.
    EXPECT_EQ(results.front().model, "seasonal-naive");
    EXPECT_NEAR(results.front().mean_mape, 0.0, 1e-9);
}

}  // namespace
}  // namespace atm::forecast
