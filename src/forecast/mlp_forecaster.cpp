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
    fit_with(history, options_.train);
}

void MlpForecaster::fit_with(std::span<const double> history,
                             const MlpTrainOptions& train) {
    la::FlatMatrix features;
    std::vector<double> targets;
    if (prepare(history, train.seed, features, targets)) {
        network_->train(features, targets, train, options_.workspace);
    }
}

void MlpForecaster::fit_batch(std::span<MlpForecaster* const> models,
                              std::span<const std::span<const double>> histories) {
    if (models.size() != histories.size()) {
        throw std::invalid_argument("MlpForecaster::fit_batch: size mismatch");
    }
    std::vector<la::FlatMatrix> features(models.size());
    std::vector<std::vector<double>> targets(models.size());
    std::vector<MlpTrainJob> jobs;
    for (std::size_t k = 0; k < models.size(); ++k) {
        MlpForecaster& model = *models[k];
        if (model.prepare(histories[k], model.options_.train.seed, features[k],
                          targets[k])) {
            jobs.push_back(MlpTrainJob{&*model.network_, &features[k],
                                       targets[k], model.options_.train});
        }
    }
    if (!jobs.empty()) train(jobs, models.front()->options_.workspace);
}

bool MlpForecaster::prepare(std::span<const double> history, unsigned seed,
                            la::FlatMatrix& features,
                            std::vector<double>& targets) {
    if (history.empty()) throw std::invalid_argument("MlpForecaster::fit: empty history");
    history_.assign(history.begin(), history.end());

    scaler_.fit(history);
    const std::vector<double> scaled = scaler_.transform(history);

    // Flat lag dataset: one contiguous feature block instead of one
    // vector per example (same rows/values as make_lag_dataset).
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
        return false;
    }
    degenerate_ = false;

    const int input_size = static_cast<int>(features.cols());
    std::vector<int> layer_sizes;
    layer_sizes.push_back(input_size);
    for (int h : options_.hidden) layer_sizes.push_back(h);
    layer_sizes.push_back(1);

    network_.emplace(layer_sizes, seed);
    return true;
}

bool MlpForecaster::retrain(std::span<const double> window,
                            const MlpTrainOptions& train) {
    if (window.empty()) {
        throw std::invalid_argument("MlpForecaster::retrain: empty window");
    }
    const auto [lo, hi] = std::minmax_element(window.begin(), window.end());
    const double span = scaler_.max() - scaler_.min();
    if (!network_ || *lo < scaler_.min() - 0.5 * span ||
        *hi > scaler_.max() + 0.5 * span) {
        MlpTrainOptions cold = train;
        cold.epochs = options_.train.epochs;
        fit_with(window, cold);
        return true;
    }
    la::FlatMatrix features;
    std::vector<double> targets;
    ts::make_lag_dataset_flat(scaler_.transform(window), options_.num_lags,
                              options_.seasonal_period, features, targets);
    if (features.rows() >= 4) {
        network_->train(features, targets, train, options_.workspace);
    }
    history_.assign(window.begin(), window.end());
    return false;
}

double MlpForecaster::predict_after(std::span<const double> scaled,
                                    std::vector<double>& features) const {
    const auto lags = static_cast<std::size_t>(options_.num_lags);
    const auto period = static_cast<std::size_t>(options_.seasonal_period);
    features.clear();
    for (std::size_t k = lags; k >= 1; --k) {
        features.push_back(k <= scaled.size() ? scaled[scaled.size() - k]
                                              : scaled.front());
    }
    if (period > 0) {
        features.push_back(period <= scaled.size()
                               ? scaled[scaled.size() - period]
                               : scaled.front());
    }
    // Clamp to the scaler's range: utilization-like series cannot run
    // away, and iterated feedback must not compound extrapolation.
    return std::clamp(options_.workspace != nullptr
                          ? network_->predict(features, *options_.workspace)
                          : network_->predict(features),
                      -0.25, 1.25);
}

double MlpForecaster::forecast_next(std::span<const double> window) const {
    if (window.empty()) {
        throw std::invalid_argument("MlpForecaster::forecast_next: empty window");
    }
    if (!network_) return window.back();
    // Scale only the tail the lag and seasonal features read.
    const auto reach = static_cast<std::size_t>(
        std::max(options_.num_lags, options_.seasonal_period));
    const auto tail = window.last(std::min(window.size(), reach));
    std::vector<double> features;
    return scaler_.inverse(predict_after(scaler_.transform(tail), features));
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
    // features for later steps can be looked up uniformly. One feature
    // buffer is reused across the horizon.
    std::vector<double> extended = scaler_.transform(history_);
    extended.reserve(extended.size() + static_cast<std::size_t>(std::max(horizon, 0)));
    std::vector<double> features;
    features.reserve(static_cast<std::size_t>(options_.num_lags) + 1);
    for (int h = 0; h < horizon; ++h) {
        const double scaled_pred = predict_after(extended, features);
        extended.push_back(scaled_pred);
        out.push_back(scaler_.inverse(scaled_pred));
    }
    return out;
}

}  // namespace atm::forecast
