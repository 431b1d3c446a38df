#include "forecast/forecaster.hpp"

#include <stdexcept>

#include "forecast/ar.hpp"
#include "forecast/mlp_forecaster.hpp"
#include "forecast/seasonal_naive.hpp"

namespace atm::forecast {

std::unique_ptr<Forecaster> make_forecaster(TemporalModel model,
                                            int seasonal_period, unsigned seed,
                                            obs::MetricsRegistry* metrics) {
    switch (model) {
        case TemporalModel::kSeasonalNaive:
            return std::make_unique<SeasonalNaiveForecaster>(
                seasonal_period > 0 ? seasonal_period : 1);
        case TemporalModel::kAutoregressive:
            return std::make_unique<ArForecaster>(/*order=*/6, seasonal_period);
        case TemporalModel::kNeuralNetwork: {
            MlpForecasterOptions options;
            options.seasonal_period = seasonal_period;
            options.train.seed = seed;
            options.train.metrics = metrics;
            return std::make_unique<MlpForecaster>(options);
        }
    }
    throw std::invalid_argument("make_forecaster: unknown model");
}

std::string to_string(TemporalModel model) {
    switch (model) {
        case TemporalModel::kSeasonalNaive: return "seasonal-naive";
        case TemporalModel::kAutoregressive: return "ar";
        case TemporalModel::kNeuralNetwork: return "mlp";
    }
    return "unknown";
}

}  // namespace atm::forecast
