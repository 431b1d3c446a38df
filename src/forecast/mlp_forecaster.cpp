#include "forecast/mlp_forecaster.hpp"

#include <algorithm>
#include <stdexcept>

namespace atm::forecast {

MlpForecaster::MlpForecaster(MlpForecasterOptions options)
    : options_(std::move(options)) {
    if (options_.num_lags < 1) {
        throw std::invalid_argument("MlpForecaster: num_lags must be >= 1");
    }
    if (options_.seasonal_period < 0) {
        throw std::invalid_argument("MlpForecaster: negative seasonal period");
    }
}

void MlpForecaster::fit(std::span<const double> history) {
    if (history.empty()) throw std::invalid_argument("MlpForecaster::fit: empty history");
    history_.assign(history.begin(), history.end());

    scaler_.fit(history);
    const std::vector<double> scaled = scaler_.transform(history);

    // Flat lag dataset: one contiguous feature block instead of one
    // vector per example (same rows/values as make_lag_dataset).
    la::FlatMatrix features;
    std::vector<double> targets;
    ts::make_lag_dataset_flat(scaled, options_.num_lags,
                              options_.seasonal_period, features, targets);
    // Degenerate cases: constant series or not enough history for even one
    // training example — predict the last value.
    const double lo = *std::min_element(history.begin(), history.end());
    const double hi = *std::max_element(history.begin(), history.end());
    if (features.rows() < 4 || hi - lo < 1e-12) {
        degenerate_ = true;
        constant_value_ = history.back();
        network_.reset();
        return;
    }
    degenerate_ = false;

    const int input_size = static_cast<int>(features.cols());
    std::vector<int> layer_sizes;
    layer_sizes.push_back(input_size);
    for (int h : options_.hidden) layer_sizes.push_back(h);
    layer_sizes.push_back(1);

    network_ = std::make_unique<MlpNetwork>(layer_sizes, options_.activation,
                                            options_.train.seed);
    network_->train(features, targets, options_.train, options_.workspace);
}

std::vector<double> MlpForecaster::forecast(int horizon) const {
    if (history_.empty()) throw std::logic_error("MlpForecaster::forecast before fit");
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(std::max(horizon, 0)));
    if (degenerate_) {
        out.assign(static_cast<std::size_t>(std::max(horizon, 0)), constant_value_);
        return out;
    }

    // Scaled extended series: history then forecasts, so lag/seasonal
    // features for later steps can be looked up uniformly.
    std::vector<double> extended = scaler_.transform(history_);
    extended.reserve(extended.size() + static_cast<std::size_t>(std::max(horizon, 0)));
    const auto lags = static_cast<std::size_t>(options_.num_lags);
    const auto period = static_cast<std::size_t>(options_.seasonal_period);

    // One workspace and feature buffer reused across the horizon: the
    // per-step loop below is allocation-free. A caller-provided
    // workspace (the fleet scheduler's per-worker one) is reused across
    // boxes too.
    MlpWorkspace local_workspace;
    MlpWorkspace& workspace = options_.workspace != nullptr
                                  ? *options_.workspace
                                  : local_workspace;
    std::vector<double> features;
    features.reserve(lags + (period > 0 ? 1 : 0));
    for (int h = 0; h < horizon; ++h) {
        features.clear();
        for (std::size_t k = lags; k >= 1; --k) {
            features.push_back(k <= extended.size() ? extended[extended.size() - k]
                                                    : extended.front());
        }
        if (period > 0) {
            features.push_back(period <= extended.size()
                                   ? extended[extended.size() - period]
                                   : extended.front());
        }
        // Clamp to the scaler's range: utilization-like series cannot run
        // away, and iterated feedback must not compound extrapolation.
        const double scaled_pred =
            std::clamp(network_->predict(features, workspace), -0.25, 1.25);
        extended.push_back(scaled_pred);
        out.push_back(scaler_.inverse(scaled_pred));
    }
    return out;
}

}  // namespace atm::forecast
