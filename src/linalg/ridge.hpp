#pragma once

#include <span>
#include <vector>

#include "linalg/ols.hpp"

namespace atm::la {

/// Ridge (L2-regularized) regression: minimizes
///   ||y − b0 − X b||² + lambda ||b||²
/// (the intercept is not penalized; predictors are internally centered so
/// the penalty is scale-consistent). Shrinks coefficients of correlated
/// predictors — a robust alternative to stepwise elimination when a
/// signature set is still mildly collinear.
///
/// `predictors[j]` is a view of the j-th predictor column (see ols_fit).
/// Columns are centered once into one contiguous block, and the Gram
/// matrix XcᵀXc and Xcᵀyc are accumulated straight from it.
///
/// Returns the same OlsFit structure (coefficients = intercept then one
/// per predictor, fitted values, residuals, R²). lambda = 0 reproduces
/// OLS up to numerical error. Throws std::invalid_argument on shape
/// mismatch or negative lambda.
OlsFit ridge_fit(std::span<const double> y,
                 std::span<const std::span<const double>> predictors,
                 double lambda);

}  // namespace atm::la
