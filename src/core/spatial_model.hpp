#pragma once

#include <vector>

#include "linalg/flat_matrix.hpp"
#include "linalg/ols.hpp"

namespace atm::core {

/// The spatial prediction model of Section III-B: every dependent series
/// is an OLS linear combination (Eq. 1) of the signature series.
///
/// Fit on the training window; then any realization of the signature
/// series — actual values (Section III-C evaluation) or temporal-model
/// forecasts (full ATM, Section V) — reconstructs all dependent series.
class SpatialModel {
  public:
    SpatialModel() = default;

    /// Fits one regression per dependent series.
    ///
    /// `series` is the full per-box series set over the training window
    /// (one series per row); `signature_indices` selects the predictors,
    /// which the regressions read as row views. Every non-signature index
    /// becomes a dependent series. Throws std::invalid_argument on an
    /// empty series set or an empty/out-of-range signature set.
    ///
    /// When OLS cannot produce a finite fit for a dependent series (e.g.
    /// fewer training samples than predictors), that series falls back to
    /// ridge with a tiny penalty — gram + lambda I is SPD for any predictor
    /// set — and `ridge_fallbacks()` counts how many dependents degraded
    /// this way. A series that defeats ridge too raises
    /// PipelineError(kSolverSingular).
    void fit(const la::FlatMatrix& series,
             const std::vector<int>& signature_indices);

    /// Number of dependent series whose OLS fit was replaced by ridge in
    /// the last fit() call (0 on the clean path).
    [[nodiscard]] std::size_t ridge_fallbacks() const {
        return ridge_fallbacks_;
    }

    /// Reconstructs the full series set from signature realizations.
    ///
    /// `signature_values(s, t)` is the value of the s-th signature (in
    /// ascending signature_indices() order) at time t. Returns a matrix
    /// with the same series count and index layout as the fit input and
    /// signature_values.cols() samples per row: signature rows are copied
    /// through verbatim, dependent rows come from their regressions.
    [[nodiscard]] la::FlatMatrix reconstruct(
        const la::FlatMatrix& signature_values) const;

    [[nodiscard]] const std::vector<int>& signature_indices() const {
        return signature_indices_;
    }
    [[nodiscard]] const std::vector<int>& dependent_indices() const {
        return dependent_indices_;
    }

    /// Fit (in-sample) of dependent series as fractional mean APE values,
    /// one per dependent series, in dependent_indices() order — the
    /// Section III-C "prediction error" of the spatial model alone.
    [[nodiscard]] const std::vector<double>& dependent_fit_ape() const {
        return dependent_fit_ape_;
    }

    [[nodiscard]] bool fitted() const { return !signature_indices_.empty(); }

  private:
    std::vector<int> signature_indices_;
    std::vector<int> dependent_indices_;
    std::vector<la::OlsFit> fits_;  // one per dependent, same order
    std::vector<double> dependent_fit_ape_;
    std::size_t total_series_ = 0;
    std::size_t ridge_fallbacks_ = 0;
};

}  // namespace atm::core
