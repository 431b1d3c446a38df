#include "forecast/seasonal_naive.hpp"

#include <stdexcept>

namespace atm::forecast {

SeasonalNaiveForecaster::SeasonalNaiveForecaster(int period) : period_(period) {
    if (period < 1) {
        throw std::invalid_argument("SeasonalNaiveForecaster: period must be >= 1");
    }
}

void SeasonalNaiveForecaster::fit(std::span<const double> history) {
    if (history.empty()) {
        throw std::invalid_argument("SeasonalNaiveForecaster::fit: empty history");
    }
    history_.assign(history.begin(), history.end());
}

double SeasonalNaiveForecaster::forecast_next(std::span<const double> window) const {
    if (window.empty()) {
        throw std::invalid_argument(
            "SeasonalNaiveForecaster::forecast_next: empty window");
    }
    const auto period = static_cast<std::size_t>(period_);
    return window.size() >= period ? window[window.size() - period]
                                   : window.back();
}

std::vector<double> SeasonalNaiveForecaster::forecast(int horizon) const {
    if (history_.empty()) {
        throw std::logic_error("SeasonalNaiveForecaster::forecast before fit");
    }
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(std::max(horizon, 0)));
    const std::size_t n = history_.size();
    const auto period = static_cast<std::size_t>(period_);
    for (int h = 0; h < horizon; ++h) {
        if (n >= period) {
            // Value one season before the forecast position, wrapping within
            // the last season for horizons beyond one period.
            const std::size_t offset = static_cast<std::size_t>(h) % period;
            out.push_back(history_[n - period + offset]);
        } else {
            out.push_back(history_.back());
        }
    }
    return out;
}

}  // namespace atm::forecast
