#pragma once

#include <optional>
#include <vector>

#include "forecast/forecaster.hpp"
#include "forecast/nn.hpp"
#include "timeseries/features.hpp"

namespace atm::forecast {

/// Configuration of the MLP temporal model.
struct MlpForecasterOptions {
    /// Consecutive lags fed to the network.
    int num_lags = 6;
    /// Seasonality in samples; > 0 adds one seasonal-lag input feature
    /// (96 = one day of 15-minute windows).
    int seasonal_period = 96;
    /// Hidden layer widths (empty = linear model trained by SGD).
    std::vector<int> hidden = {12};
    MlpTrainOptions train;
};

/// Neural-network forecaster: the paper's temporal model for signature
/// series (PRACTISE-style), realized as a small MLP over lag + seasonal
/// features with min-max-scaled inputs/targets.
///
/// Multi-step forecasts are produced by iterating one-step predictions and
/// feeding them back into the lag window, while seasonal features read
/// genuine history where available.
/// The same model runs online on a sliding window (serve::ServeEngine)
/// through forecast_next() and retrain(). Copies are deep, so a retrain
/// can be staged on a copy.
class MlpForecaster final : public Forecaster {
  public:
    explicit MlpForecaster(MlpForecasterOptions options = {});

    void fit(std::span<const double> history) override;

    /// fit() for many forecasters at once: models[k] fits histories[k],
    /// and their networks train together (forecast::train), so each model
    /// ends exactly as its own fit() would leave it.
    static void fit_batch(std::span<MlpForecaster* const> models,
                          std::span<const std::span<const double>> histories);
    [[nodiscard]] std::vector<double> forecast(int horizon) const override;
    [[nodiscard]] std::string name() const override { return "mlp"; }

    /// One-step forecast after `window`, a rolling history that may have
    /// moved on since fit(), with the last cold fit's network and scaler;
    /// window.back() when that fit was degenerate.
    [[nodiscard]] double forecast_next(std::span<const double> window) const;

    /// Warm-start retrain on the rolling `window`: `train` (epochs, seed,
    /// metrics, cancel) continues from the current weights in the scaler
    /// pinned at the last cold fit; under 4 lag examples it is a no-op.
    /// An unfitted or degenerate model, or a window reaching more than
    /// half the pinned span outside it, refits cold instead, with
    /// options().train.epochs and `train`'s other fields. Returns true on
    /// a cold refit.
    bool retrain(std::span<const double> window, const MlpTrainOptions& train);

    [[nodiscard]] const MlpForecasterOptions& options() const { return options_; }

  private:
    /// fit() under explicit training options (retrain's cold refit).
    void fit_with(std::span<const double> history, const MlpTrainOptions& train);
    /// fit()'s set-up: stores and scales `history` and builds its lag
    /// examples into `features`/`targets`. Returns false on a degenerate
    /// history (nothing to train); otherwise the network is freshly
    /// initialized from `seed`, ready to train.
    bool prepare(std::span<const double> history, unsigned seed,
                 la::FlatMatrix& features, std::vector<double>& targets);
    /// Scaled prediction for the step after the scaled series `scaled`,
    /// from its last num_lags samples and the one a season back (positions
    /// before the start read the first sample); `features` and
    /// `workspace` are scratch, reused across a forecast's steps.
    double predict_after(std::span<const double> scaled,
                         std::vector<double>& features,
                         MlpWorkspace& workspace) const;

    MlpForecasterOptions options_;
    std::optional<MlpNetwork> network_;
    ts::MinMaxScaler scaler_;
    std::vector<double> history_;
    bool degenerate_ = false;  ///< constant history: skip the network
    double constant_value_ = 0.0;
};

}  // namespace atm::forecast
