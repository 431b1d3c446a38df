#include "forecast/ar.hpp"

#include <algorithm>
#include <stdexcept>

#include "linalg/flat_matrix.hpp"
#include "linalg/ols.hpp"
#include "timeseries/features.hpp"

namespace atm::forecast {

ArForecaster::ArForecaster(int order, int seasonal_period)
    : order_(order), seasonal_period_(seasonal_period) {
    if (order < 1) throw std::invalid_argument("ArForecaster: order must be >= 1");
    if (seasonal_period < 0) {
        throw std::invalid_argument("ArForecaster: negative seasonal period");
    }
}

void ArForecaster::fit(std::span<const double> history) {
    if (history.empty()) throw std::invalid_argument("ArForecaster::fit: empty history");
    history_.assign(history.begin(), history.end());

    const std::vector<ts::LagExample> dataset =
        ts::make_lag_dataset(history, order_, seasonal_period_);
    if (dataset.empty()) {
        // Too little history to estimate: degrade to a constant model
        // (intercept = last value, all lag weights zero).
        const std::size_t width =
            static_cast<std::size_t>(order_) + (seasonal_period_ > 0 ? 1 : 0);
        coefficients_.assign(width + 1, 0.0);
        coefficients_[0] = history.back();
        return;
    }

    const std::size_t width = dataset.front().lags.size();
    la::FlatMatrix predictors(width, dataset.size());  // one lag per row
    std::vector<double> target(dataset.size());
    for (std::size_t i = 0; i < dataset.size(); ++i) {
        for (std::size_t j = 0; j < width; ++j) predictors(j, i) = dataset[i].lags[j];
        target[i] = dataset[i].target;
    }
    coefficients_ = la::ols_fit(target, predictors.row_views()).coefficients;
}

std::vector<double> ArForecaster::forecast(int horizon) const {
    if (coefficients_.empty()) throw std::logic_error("ArForecaster::forecast before fit");

    // Extended series = history followed by the predictions produced so far,
    // so later steps can consume earlier forecasts as lag inputs.
    std::vector<double> extended = history_;
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(std::max(horizon, 0)));

    for (int h = 0; h < horizon; ++h) {
        double acc = coefficients_[0];
        std::size_t coeff = 1;
        for (int k = order_; k >= 1; --k, ++coeff) {
            const auto lag = static_cast<std::size_t>(k);
            const double value = lag <= extended.size()
                                     ? extended[extended.size() - lag]
                                     : extended.front();
            acc += coefficients_[coeff] * value;
        }
        if (seasonal_period_ > 0 && coeff < coefficients_.size()) {
            const auto lag = static_cast<std::size_t>(seasonal_period_);
            const double value = lag <= extended.size()
                                     ? extended[extended.size() - lag]
                                     : extended.front();
            acc += coefficients_[coeff] * value;
        }
        extended.push_back(acc);
        out.push_back(acc);
    }
    return out;
}

}  // namespace atm::forecast
