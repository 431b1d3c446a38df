#pragma once

#include <vector>

#include "forecast/forecaster.hpp"

namespace atm::forecast {

/// Seasonal-naive forecaster: the prediction for window t is the observed
/// value one season (period) earlier; histories shorter than one season
/// fall back to repeating the last observation.
///
/// This is the cheapest sane baseline for strongly diurnal data-center
/// series and serves as the floor in the forecaster ablation bench.
class SeasonalNaiveForecaster final : public Forecaster {
  public:
    /// `period` is the season length in samples (e.g. 96 = one day of
    /// 15-minute windows). Must be >= 1.
    explicit SeasonalNaiveForecaster(int period);

    void fit(std::span<const double> history) override;
    [[nodiscard]] std::vector<double> forecast(int horizon) const override;
    [[nodiscard]] std::string name() const override { return "seasonal-naive"; }

    /// One-step forecast after `window`, a rolling history: the sample one
    /// season back, or window.back() when the window is shorter than a
    /// season. Equals fit(window) then forecast(1), without the copy.
    [[nodiscard]] double forecast_next(std::span<const double> window) const;

  private:
    int period_;
    std::vector<double> history_;
};

}  // namespace atm::forecast
