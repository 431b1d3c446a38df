#include "core/spatial_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/errors.hpp"
#include "linalg/ridge.hpp"
#include "timeseries/stats.hpp"

namespace atm::core {
namespace {

bool all_finite(const std::vector<double>& xs) {
    for (const double x : xs) {
        if (!std::isfinite(x)) return false;
    }
    return true;
}

/// Shrinkage small enough to be indistinguishable from OLS on the
/// problems OLS can solve, but it makes gram + lambda I strictly SPD.
constexpr double kFallbackRidgeLambda = 1e-6;

}  // namespace

void SpatialModel::fit(const la::FlatMatrix& series,
                       const std::vector<int>& signature_indices) {
    if (series.empty()) throw std::invalid_argument("SpatialModel::fit: no series");
    if (signature_indices.empty()) {
        throw std::invalid_argument("SpatialModel::fit: empty signature set");
    }
    for (int idx : signature_indices) {
        if (idx < 0 || static_cast<std::size_t>(idx) >= series.size()) {
            throw std::invalid_argument("SpatialModel::fit: signature index out of range");
        }
    }

    total_series_ = series.size();
    signature_indices_ = signature_indices;
    std::sort(signature_indices_.begin(), signature_indices_.end());

    dependent_indices_.clear();
    for (std::size_t i = 0; i < series.size(); ++i) {
        if (!std::binary_search(signature_indices_.begin(), signature_indices_.end(),
                                static_cast<int>(i))) {
            dependent_indices_.push_back(static_cast<int>(i));
        }
    }

    const std::vector<std::span<const double>> predictors =
        series.row_views(signature_indices_);

    fits_.clear();
    dependent_fit_ape_.clear();
    fits_.reserve(dependent_indices_.size());
    dependent_fit_ape_.reserve(dependent_indices_.size());
    ridge_fallbacks_ = 0;
    for (int dep : dependent_indices_) {
        const std::span<const double> y = series[static_cast<std::size_t>(dep)];
        la::OlsFit fit;
        bool ols_ok = true;
        try {
            fit = la::ols_fit(y, predictors);
            ols_ok = all_finite(fit.coefficients);
        } catch (const std::exception&) {
            ols_ok = false;
        }
        if (!ols_ok) {
            // Mirrors ridge.cpp's own solve_spd -> solve ladder: when the
            // least-squares problem is singular or under-determined, a tiny
            // L2 penalty restores a unique finite solution.
            fit = la::ridge_fit(y, predictors, kFallbackRidgeLambda);
            if (!all_finite(fit.coefficients)) {
                throw PipelineError(PipelineErrorCode::kSolverSingular,
                                    "spatial",
                                    "ridge fallback produced non-finite "
                                    "coefficients for dependent series " +
                                        std::to_string(dep));
            }
            ++ridge_fallbacks_;
        }
        dependent_fit_ape_.push_back(
            ts::mean_absolute_percentage_error(y, fit.fitted));
        // Fitted/residual vectors are per-training-window and only needed
        // for the APE above; drop them to keep per-box memory flat.
        fit.fitted.clear();
        fit.fitted.shrink_to_fit();
        fit.residuals.clear();
        fit.residuals.shrink_to_fit();
        fits_.push_back(std::move(fit));
    }
}

la::FlatMatrix SpatialModel::reconstruct(
    const la::FlatMatrix& signature_values) const {
    if (!fitted()) throw std::logic_error("SpatialModel::reconstruct before fit");
    if (signature_values.rows() != signature_indices_.size()) {
        throw std::invalid_argument("SpatialModel::reconstruct: signature count mismatch");
    }
    const std::size_t horizon = signature_values.cols();

    la::FlatMatrix out(total_series_, horizon);
    for (std::size_t s = 0; s < signature_indices_.size(); ++s) {
        const std::span<const double> values = signature_values[s];
        std::copy(values.begin(), values.end(),
                  out[static_cast<std::size_t>(signature_indices_[s])].begin());
    }
    std::vector<double> at_t(signature_indices_.size());
    for (std::size_t d = 0; d < dependent_indices_.size(); ++d) {
        const std::span<double> row =
            out[static_cast<std::size_t>(dependent_indices_[d])];
        for (std::size_t t = 0; t < horizon; ++t) {
            for (std::size_t s = 0; s < signature_values.rows(); ++s) {
                at_t[s] = signature_values(s, t);
            }
            // Demand cannot be negative; clamp the linear extrapolation.
            row[t] = std::max(0.0, fits_[d].predict(at_t));
        }
    }
    return out;
}

}  // namespace atm::core
