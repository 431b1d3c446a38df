#pragma once

#include <span>
#include <vector>

#include "linalg/solve.hpp"

namespace atm::obs {
class MetricsRegistry;
}

namespace atm::la {

/// Result of an ordinary-least-squares fit y ~ intercept + X b.
struct OlsFit {
    /// Intercept followed by one coefficient per predictor, in input order.
    std::vector<double> coefficients;
    /// Fitted values, one per observation.
    std::vector<double> fitted;
    /// Residuals y - fitted.
    std::vector<double> residuals;
    /// Coefficient of determination in [0, 1] (clamped).
    double r_squared = 0.0;
    /// Adjusted R² penalizing predictor count; may be negative.
    double adjusted_r_squared = 0.0;

    /// Predicts a single response from predictor values (same order as the
    /// fit). Sizes must match coefficients.size() - 1.
    [[nodiscard]] double predict(std::span<const double> predictors) const;
};

/// Fits y on the given predictor columns with an intercept, using QR
/// least squares (robust to collinear predictor sets, which the VIF
/// reduction probes deliberately).
///
/// `predictors[j]` is the j-th predictor series, a view into
/// caller-owned storage (typically `FlatMatrix::row_views` over a
/// series set), so no predictor column is copied; all must be the same
/// length as y. Throws std::invalid_argument on shape mismatch.
///
/// This implements the paper's spatial model (Eq. 1): a dependent demand
/// series D_k is expressed as a linear combination f_k of the signature
/// series, with coefficients from "ordinary least square estimates"
/// (Section III-B).
OlsFit ols_fit(std::span<const double> y,
               std::span<const std::span<const double>> predictors);

/// Variance inflation factor for each series in `predictors`: series j is
/// regressed on all the others and VIF_j = 1 / (1 - R²_j). A VIF above 4
/// flags multicollinearity (Section III-A Step 2). A lone predictor has
/// VIF 1. R² of 1 (exact collinearity) maps to a large finite value.
std::vector<double> variance_inflation_factors(
    std::span<const std::span<const double>> predictors);

/// Iteratively removes multicollinear series: while any VIF exceeds
/// `vif_threshold`, drop the series with the largest VIF (it is best
/// explained by the remaining ones; ties go to the lowest index). Returns
/// indices into the original `predictors` that are kept, in ascending
/// order. This is the paper's Step 2 ("stepwise regression to remove the
/// series that can be represented as linear combinations of the other
/// signature series").
///
/// `correlation` is the predictors' Pearson correlation matrix (k x k, in
/// `predictors` order, ρ = 0 against a zero-variance series, as
/// `cluster::correlation_matrix` computes it); throws
/// std::invalid_argument when its shape is not k x k. Each sweep first
/// takes every VIF in closed form, VIF_j = [R⁻¹]_jj, from one Cholesky
/// factor of R, the kept series' submatrix. The closed form only
/// confirms the stop: when its largest VIF is at most
/// vif_threshold·(1 − δ), δ = 1e-6, the sweep ends. Every other sweep
/// runs `variance_inflation_factors` (QR) and its argmax as before: a
/// removal is due, the largest VIF lies within δ of the threshold, a kept
/// series has zero or near-zero variance (mean² > 1e6·variance), or R
/// is not numerically positive definite. δ exceeds both paths' rounding:
/// a confirmed stop has every VIF ≤ 4, hence cond₂(R) ≤ 4k², and the
/// near-constant guard bounds QR's (mean/std)² loss on its uncentered
/// design. So the kept set is the QR-only sweep's.
///
/// When `metrics` is non-null, records `linalg.vif.iterations` (sweeps),
/// `linalg.vif.checks` (VIFs evaluated, k per sweep on either path) and
/// `linalg.vif.removed` counters — all deterministic, and equal to the
/// QR-only sweep's.
std::vector<std::size_t> reduce_multicollinearity(
    std::span<const std::span<const double>> predictors,
    const FlatMatrix& correlation, double vif_threshold = 4.0,
    obs::MetricsRegistry* metrics = nullptr);

}  // namespace atm::la
