#pragma once

#include <memory>
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
    Activation activation = Activation::kTanh;
    MlpTrainOptions train;
    /// Optional caller-owned scratch (not owned) shared by fit() and
    /// forecast() — the fleet scheduler's per-worker workspace, reused
    /// across boxes. Results are identical with or
    /// without it; null keeps per-call local scratch.
    MlpWorkspace* workspace = nullptr;
};

/// Neural-network forecaster: the paper's temporal model for signature
/// series (PRACTISE-style), realized as a small MLP over lag + seasonal
/// features with min-max-scaled inputs/targets.
///
/// Multi-step forecasts are produced by iterating one-step predictions and
/// feeding them back into the lag window, while seasonal features read
/// genuine history where available.
class MlpForecaster final : public Forecaster {
  public:
    explicit MlpForecaster(MlpForecasterOptions options = {});

    void fit(std::span<const double> history) override;
    [[nodiscard]] std::vector<double> forecast(int horizon) const override;
    [[nodiscard]] std::string name() const override { return "mlp"; }

    [[nodiscard]] const MlpForecasterOptions& options() const { return options_; }

  private:
    MlpForecasterOptions options_;
    std::unique_ptr<MlpNetwork> network_;
    ts::MinMaxScaler scaler_;
    std::vector<double> history_;
    bool degenerate_ = false;  ///< constant history: skip the network
    double constant_value_ = 0.0;
};

}  // namespace atm::forecast
