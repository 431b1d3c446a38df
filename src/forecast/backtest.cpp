#include "forecast/backtest.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "timeseries/stats.hpp"

namespace atm::forecast {

BacktestResult backtest(
    const std::vector<double>& series,
    const std::function<std::unique_ptr<Forecaster>()>& factory,
    std::size_t min_history, int horizon, std::size_t step) {
    if (horizon < 1 || step < 1 || min_history < 2) {
        throw std::invalid_argument("backtest: bad parameters");
    }
    BacktestResult result;
    for (std::size_t origin = min_history;
         origin + static_cast<std::size_t>(horizon) <= series.size();
         origin += step) {
        const auto model = factory();
        model->fit(std::span<const double>(series.data(), origin));
        const std::vector<double> pred = model->forecast(horizon);
        const std::span<const double> actual(series.data() + origin,
                                             static_cast<std::size_t>(horizon));
        if (result.model.empty()) result.model = model->name();

        BacktestFold fold;
        fold.origin = origin;
        fold.mape = ts::mean_absolute_percentage_error(actual, pred);
        double se = 0.0;
        for (std::size_t t = 0; t < actual.size(); ++t) {
            se += (actual[t] - pred[t]) * (actual[t] - pred[t]);
        }
        fold.rmse = std::sqrt(se / static_cast<double>(actual.size()));

        // Peak APE: top decile of actuals within the fold.
        const double p90 = ts::quantile(actual, 0.9);
        double peak_acc = 0.0;
        std::size_t peak_n = 0;
        for (std::size_t t = 0; t < actual.size(); ++t) {
            if (actual[t] >= p90 && std::abs(actual[t]) > 1e-9) {
                peak_acc += std::abs(actual[t] - pred[t]) / std::abs(actual[t]);
                ++peak_n;
            }
        }
        fold.peak_mape = peak_n > 0 ? peak_acc / static_cast<double>(peak_n) : 0.0;
        result.folds.push_back(fold);
    }
    if (result.folds.empty()) {
        throw std::invalid_argument("backtest: series too short for any fold");
    }
    for (const BacktestFold& f : result.folds) {
        result.mean_mape += f.mape;
        result.mean_rmse += f.rmse;
        result.mean_peak_mape += f.peak_mape;
    }
    const auto n = static_cast<double>(result.folds.size());
    result.mean_mape /= n;
    result.mean_rmse /= n;
    result.mean_peak_mape /= n;
    return result;
}

std::vector<BacktestResult> compare_models(const std::vector<double>& series,
                                           int seasonal_period,
                                           std::size_t min_history,
                                           int horizon, std::size_t step,
                                           unsigned seed) {
    const TemporalModel models[] = {
        TemporalModel::kSeasonalNaive,
        TemporalModel::kAutoregressive,
        TemporalModel::kNeuralNetwork,
    };
    std::vector<BacktestResult> results;
    for (const TemporalModel m : models) {
        results.push_back(backtest(
            series,
            [&] { return make_forecaster(m, seasonal_period, seed); },
            min_history, horizon, step));
    }
    std::sort(results.begin(), results.end(),
              [](const BacktestResult& a, const BacktestResult& b) {
                  return a.mean_mape < b.mean_mape;
              });
    return results;
}

}  // namespace atm::forecast
