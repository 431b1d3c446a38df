#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace atm::exec {
class CancellationToken;
}
namespace atm::obs {
class MetricsRegistry;
}

namespace atm::forecast {

/// Interface for temporal prediction models of a single demand series.
///
/// ATM predicts only *signature* series with a (potentially expensive)
/// temporal model and derives all dependent series from them via the
/// spatial model. The paper stresses that "any temporal prediction model
/// can be directly plugged into the ATM framework" (Section III); this
/// interface is that plug point.
///
/// Contract: `fit` consumes the historical samples (oldest first);
/// `forecast(h)` returns h samples continuing immediately after the history.
/// Calling forecast before fit, or fit with an empty history, throws
/// std::logic_error / std::invalid_argument respectively.
class Forecaster {
  public:
    virtual ~Forecaster() = default;

    /// Trains the model on the given history (oldest sample first).
    virtual void fit(std::span<const double> history) = 0;

    /// Predicts the next `horizon` samples after the fitted history.
    [[nodiscard]] virtual std::vector<double> forecast(int horizon) const = 0;

    /// Short model name for logs and experiment reports.
    [[nodiscard]] virtual std::string name() const = 0;
};

/// Which temporal model the pipeline instantiates for signature series.
enum class TemporalModel {
    kSeasonalNaive,  ///< repeat the last full season
    kAutoregressive, ///< AR(p) via OLS
    kNeuralNetwork,  ///< MLP on lag + seasonal features (the paper's choice)
    kHoltWinters,    ///< additive triple exponential smoothing
    kEnsemble,       ///< mean of AR, Holt-Winters and the MLP
};

/// Factory for the built-in temporal models.
///
/// `seasonal_period` is the dominant seasonality in samples (96 for
/// 15-minute windows over a day); `seed` feeds stochastic trainers (MLP).
/// `metrics` (optional, not owned) receives trainer counters from models
/// that expose them (the MLP's epoch/example counts). `cancel` (optional,
/// not owned) is a cooperative-cancellation token checked once per
/// training epoch by the iterative trainers (the MLP — directly and as an
/// ensemble member); the closed-form models finish too fast to need it.
/// Every model owns its scratch, so distinct forecasters may run on
/// distinct threads.
std::unique_ptr<Forecaster> make_forecaster(
    TemporalModel model, int seasonal_period, unsigned seed = 42,
    obs::MetricsRegistry* metrics = nullptr,
    const exec::CancellationToken* cancel = nullptr);

std::string to_string(TemporalModel model);

}  // namespace atm::forecast
