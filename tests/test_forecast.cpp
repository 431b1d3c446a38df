#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <random>
#include <stdexcept>

#include "forecast/ar.hpp"
#include "forecast/forecaster.hpp"
#include "forecast/mlp_forecaster.hpp"
#include "forecast/nn.hpp"
#include "forecast/seasonal_naive.hpp"
#include "timeseries/stats.hpp"

namespace atm::forecast {
namespace {

std::vector<double> diurnal_series(int days, int period, double noise_sigma,
                                   unsigned seed) {
    std::mt19937 rng(seed);
    std::normal_distribution<double> noise(0.0, noise_sigma);
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(days * period));
    for (int t = 0; t < days * period; ++t) {
        const double tod = static_cast<double>(t % period) / period;
        out.push_back(50.0 + 25.0 * std::sin(2.0 * std::numbers::pi * tod) +
                      noise(rng));
    }
    return out;
}

TEST(SeasonalNaiveTest, RepeatsLastSeason) {
    SeasonalNaiveForecaster model(4);
    const std::vector<double> history{1, 2, 3, 4, 5, 6, 7, 8};
    model.fit(history);
    const auto pred = model.forecast(6);
    ASSERT_EQ(pred.size(), 6u);
    EXPECT_DOUBLE_EQ(pred[0], 5.0);
    EXPECT_DOUBLE_EQ(pred[3], 8.0);
    EXPECT_DOUBLE_EQ(pred[4], 5.0);  // wraps within the last season
}

TEST(SeasonalNaiveTest, ShortHistoryFallsBackToLastValue) {
    SeasonalNaiveForecaster model(10);
    const std::vector<double> history{3, 7};
    model.fit(history);
    const auto pred = model.forecast(3);
    for (double v : pred) EXPECT_DOUBLE_EQ(v, 7.0);
}

TEST(SeasonalNaiveTest, ErrorsOnMisuse) {
    EXPECT_THROW(SeasonalNaiveForecaster(0), std::invalid_argument);
    SeasonalNaiveForecaster model(4);
    EXPECT_THROW(model.forecast(1), std::logic_error);
    EXPECT_THROW(model.fit(std::vector<double>{}), std::invalid_argument);
}

TEST(SeasonalNaiveTest, PerfectOnExactlyPeriodicData) {
    const auto series = diurnal_series(3, 24, 0.0, 1);
    SeasonalNaiveForecaster model(24);
    const std::vector<double> history(series.begin(), series.end() - 24);
    model.fit(history);
    const auto pred = model.forecast(24);
    for (int t = 0; t < 24; ++t) {
        EXPECT_NEAR(pred[static_cast<std::size_t>(t)],
                    series[series.size() - 24 + static_cast<std::size_t>(t)], 1e-9);
    }
}

TEST(ArTest, RecoversAr1Coefficient) {
    // x_t = 0.8 x_{t-1} + eps
    std::mt19937 rng(2);
    std::normal_distribution<double> noise(0.0, 0.1);
    std::vector<double> xs(500);
    xs[0] = 0.0;
    for (std::size_t t = 1; t < xs.size(); ++t) xs[t] = 0.8 * xs[t - 1] + noise(rng);
    ArForecaster model(1);
    model.fit(xs);
    ASSERT_EQ(model.coefficients().size(), 2u);
    EXPECT_NEAR(model.coefficients()[1], 0.8, 0.08);
}

TEST(ArTest, IteratedForecastDecaysTowardMean) {
    std::mt19937 rng(4);
    std::normal_distribution<double> noise(0.0, 0.05);
    std::vector<double> xs(400);
    xs[0] = 5.0;
    for (std::size_t t = 1; t < xs.size(); ++t) {
        xs[t] = 2.0 + 0.6 * xs[t - 1] + noise(rng);  // mean = 5
    }
    ArForecaster model(1);
    model.fit(xs);
    const auto pred = model.forecast(50);
    EXPECT_NEAR(pred.back(), 5.0, 0.5);
}

TEST(ArTest, DegradesGracefullyOnTinyHistory) {
    ArForecaster model(6);
    const std::vector<double> tiny{42.0, 43.0};
    model.fit(tiny);
    const auto pred = model.forecast(3);
    for (double v : pred) EXPECT_DOUBLE_EQ(v, 43.0);
}

TEST(ArTest, SeasonalTermImprovesDiurnalForecast) {
    const auto series = diurnal_series(5, 48, 1.0, 5);
    const std::vector<double> history(series.begin(), series.end() - 48);
    const std::vector<double> actual(series.end() - 48, series.end());

    ArForecaster plain(3);
    plain.fit(history);
    ArForecaster seasonal(3, 48);
    seasonal.fit(history);

    const double err_plain =
        ts::mean_absolute_percentage_error(actual, plain.forecast(48));
    const double err_seasonal =
        ts::mean_absolute_percentage_error(actual, seasonal.forecast(48));
    EXPECT_LT(err_seasonal, err_plain);
}

TEST(ArTest, ConstructorValidation) {
    EXPECT_THROW(ArForecaster(0), std::invalid_argument);
    EXPECT_THROW(ArForecaster(2, -1), std::invalid_argument);
}

TEST(MlpNetworkTest, LearnsLinearFunction) {
    MlpNetwork net({2, 1}, 3);
    std::mt19937 rng(6);
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    la::FlatMatrix inputs(300, 2);
    std::vector<double> targets;
    for (std::size_t i = 0; i < 300; ++i) {
        const double a = dist(rng);
        const double b = dist(rng);
        inputs(i, 0) = a;
        inputs(i, 1) = b;
        targets.push_back(0.3 * a + 0.5 * b + 0.1);
    }
    MlpTrainOptions options;
    options.epochs = 200;
    options.validation_fraction = 0.0;
    net.train(inputs, targets, options);
    double max_err = 0.0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        max_err = std::max(max_err, std::abs(net.predict(inputs[i]) - targets[i]));
    }
    EXPECT_LT(max_err, 0.05);
}

TEST(MlpNetworkTest, LearnsNonlinearFunction) {
    MlpNetwork net({1, 10, 1}, 7);
    la::FlatMatrix inputs(200, 1);
    std::vector<double> targets;
    for (std::size_t i = 0; i < 200; ++i) {
        const double x = static_cast<double>(i) / 200.0;
        inputs(i, 0) = x;
        targets.push_back(std::sin(2.0 * std::numbers::pi * x) * 0.4 + 0.5);
    }
    MlpTrainOptions options;
    options.epochs = 400;
    options.learning_rate = 0.08;
    options.validation_fraction = 0.0;
    net.train(inputs, targets, options);
    double mse = 0.0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const double e = net.predict(inputs[i]) - targets[i];
        mse += e * e;
    }
    mse /= static_cast<double>(inputs.size());
    EXPECT_LT(mse, 0.01);
}

TEST(MlpNetworkTest, DeterministicGivenSeed) {
    const la::FlatMatrix inputs(std::vector<std::vector<double>>{{0.1}, {0.5}, {0.9}, {0.3}});
    const std::vector<double> targets{0.2, 0.6, 1.0, 0.4};
    MlpTrainOptions options;
    options.epochs = 50;
    options.validation_fraction = 0.0;

    MlpNetwork a({1, 4, 1}, 42);
    MlpNetwork b({1, 4, 1}, 42);
    a.train(inputs, targets, options);
    b.train(inputs, targets, options);
    const std::vector<double> probe{0.7};
    EXPECT_DOUBLE_EQ(a.predict(probe), b.predict(probe));
}

TEST(MlpNetworkTest, ParameterCount) {
    const MlpNetwork net({3, 5, 1}, 1);
    // (3*5 + 5) + (5*1 + 1) = 26
    EXPECT_EQ(net.parameter_count(), 26u);
}

TEST(MlpNetworkTest, Validation) {
    EXPECT_THROW(MlpNetwork({3}, 1), std::invalid_argument);
    EXPECT_THROW(MlpNetwork({3, 2}, 1), std::invalid_argument);
    MlpNetwork net({2, 1}, 1);
    const std::vector<double> short_input{1.0};
    EXPECT_THROW(static_cast<void>(net.predict(short_input)), std::invalid_argument);
    EXPECT_THROW(net.train(la::FlatMatrix(), std::vector<double>{}, {}),
                 std::invalid_argument);
}

TEST(MlpNetworkTest, LearnsScaledIdentity) {
    MlpNetwork net({1, 6, 1}, 11);
    la::FlatMatrix inputs(100, 1);
    std::vector<double> targets;
    for (std::size_t i = 0; i < 100; ++i) {
        const double x = static_cast<double>(i) / 100.0;
        inputs(i, 0) = x;
        targets.push_back(0.8 * x + 0.1);
    }
    MlpTrainOptions options;
    options.epochs = 300;
    options.validation_fraction = 0.0;
    net.train(inputs, targets, options);
    double mse = 0.0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const double e = net.predict(inputs[i]) - targets[i];
        mse += e * e;
    }
    EXPECT_LT(mse / 100.0, 0.01);
}

TEST(MlpForecasterTest, TracksDiurnalPattern) {
    const auto series = diurnal_series(5, 48, 1.5, 13);
    const std::vector<double> history(series.begin(), series.end() - 48);
    const std::vector<double> actual(series.end() - 48, series.end());

    MlpForecasterOptions options;
    options.seasonal_period = 48;
    MlpForecaster model(options);
    model.fit(history);
    const auto pred = model.forecast(48);
    const double ape = ts::mean_absolute_percentage_error(actual, pred);
    EXPECT_LT(ape, 0.15);
}

TEST(MlpForecasterTest, ConstantSeriesPredictsConstant) {
    MlpForecaster model;
    const std::vector<double> flat(300, 42.0);
    model.fit(flat);
    for (double v : model.forecast(10)) EXPECT_DOUBLE_EQ(v, 42.0);
}

TEST(MlpForecasterTest, TinyHistoryPredictsLastValue) {
    MlpForecaster model;
    const std::vector<double> tiny{1.0, 2.0, 3.0};
    model.fit(tiny);
    for (double v : model.forecast(5)) EXPECT_DOUBLE_EQ(v, 3.0);
}

TEST(MlpForecasterTest, ForecastStaysInPlausibleRange) {
    const auto series = diurnal_series(5, 48, 3.0, 17);
    MlpForecaster model;
    model.fit(series);
    for (double v : model.forecast(96)) {
        EXPECT_GT(v, -30.0);
        EXPECT_LT(v, 130.0);
    }
}

TEST(MlpForecasterTest, ForecastNextOnFitHistoryEqualsFirstStep) {
    // forecast_next on the fit history is forecast(1): the sliding-window
    // path and the batch path read the same features.
    const auto series = diurnal_series(3, 48, 1.5, 19);
    MlpForecasterOptions options;
    options.seasonal_period = 48;
    options.train.epochs = 5;
    MlpForecaster model(options);
    model.fit(series);
    EXPECT_EQ(model.forecast_next(series), model.forecast(1)[0]);

    SeasonalNaiveForecaster naive(48);
    naive.fit(series);
    EXPECT_EQ(naive.forecast_next(series), naive.forecast(1)[0]);
}

TEST(MlpForecasterTest, RetrainWarmStartsInScaleAndRefitsColdOutOfIt) {
    const auto series = diurnal_series(3, 48, 1.5, 23);
    MlpForecasterOptions options;
    options.seasonal_period = 48;
    options.train.epochs = 5;
    MlpForecaster fresh(options);
    MlpTrainOptions train;
    train.epochs = 2;
    train.seed = 7;
    EXPECT_TRUE(fresh.retrain(series, train));  // unfitted: a cold fit

    // A copy retrains on its own; the original keeps its weights.
    MlpForecaster warm = fresh;
    const double before = fresh.forecast_next(series);
    EXPECT_FALSE(warm.retrain(series, train));
    EXPECT_EQ(fresh.forecast_next(series), before);

    // A window far outside the pinned scaler forces a cold refit.
    std::vector<double> shifted = series;
    for (double& x : shifted) x += 1000.0;
    EXPECT_TRUE(warm.retrain(shifted, train));
}

TEST(MlpForecasterTest, MisuseThrows) {
    MlpForecaster model;
    EXPECT_THROW(model.forecast(1), std::logic_error);
    EXPECT_THROW(model.fit(std::vector<double>{}), std::invalid_argument);
    MlpForecasterOptions bad;
    bad.num_lags = 0;
    EXPECT_THROW(MlpForecaster{bad}, std::invalid_argument);
}

TEST(FactoryTest, CreatesEveryModel) {
    for (TemporalModel m : {TemporalModel::kSeasonalNaive,
                            TemporalModel::kAutoregressive,
                            TemporalModel::kNeuralNetwork}) {
        const auto f = make_forecaster(m, 48);
        ASSERT_NE(f, nullptr);
        EXPECT_EQ(f->name(), to_string(m));
    }
}

TEST(FactoryTest, ModelsBeatNothingOnSeasonalData) {
    // Sanity: every built-in model forecasts a clean diurnal series with
    // bounded error over one day.
    const auto series = diurnal_series(6, 48, 1.0, 19);
    const std::vector<double> history(series.begin(), series.end() - 48);
    const std::vector<double> actual(series.end() - 48, series.end());
    for (TemporalModel m : {TemporalModel::kSeasonalNaive,
                            TemporalModel::kAutoregressive,
                            TemporalModel::kNeuralNetwork}) {
        const auto f = make_forecaster(m, 48);
        f->fit(history);
        const double ape =
            ts::mean_absolute_percentage_error(actual, f->forecast(48));
        EXPECT_LT(ape, 0.2) << to_string(m);
    }
}

}  // namespace
}  // namespace atm::forecast
