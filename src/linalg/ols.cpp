#include "linalg/ols.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace atm::la {
namespace {

/// VIF reported for an exactly collinear predictor (R² of 1).
constexpr double kMaxVif = 1e9;

/// δ: the closed form confirms a stop only when its largest VIF is at
/// most threshold·(1 − δ), so its error must stay far below δ. A
/// confirmed stop has every VIF ≤ 4, hence λ_min(R) ≥ 1/trace(R⁻¹) ≥
/// 1/(4k) and λ_max(R) ≤ trace(R) = k, i.e. cond₂(R) ≤ 4k² (4,096 at
/// k = 32). With ε = 2⁻⁵³, Cholesky and the triangular inverse then move
/// [R⁻¹]_jj by about k·cond₂(R)·ε ≈ 1.5e-11 (relative), and the ρ
/// entries' own rounding (≈T·ε each, T = 480) by at most
/// k·T·ε·cond₂(R) ≈ 7e-9. kNearConstantRatio bounds the QR side.
constexpr double kStopMargin = 1e-6;

/// A predictor with mean² > kNearConstantRatio · variance, or with zero
/// variance, sends the sweep to QR. QR regresses on the raw columns plus
/// an intercept, so a column whose mean dwarfs its spread costs it about
/// (mean/std)²·ε of relative accuracy: ≤ 1e6·ε ≈ 1e-10 here, well inside
/// δ. A zero-variance predictor needs QR outright: QR reports VIF 1e9 for
/// it, while its Pearson ρ (0 by ts::pearson's convention) would read 1.
constexpr double kNearConstantRatio = 1e6;

double mean_of(std::span<const double> xs) {
    if (xs.empty()) return 0.0;
    double acc = 0.0;
    for (double x : xs) acc += x;
    return acc / static_cast<double>(xs.size());
}

/// True when the predictor has a spread the closed form can rely on (see
/// kNearConstantRatio).
bool well_scaled(std::span<const double> xs) {
    const double mean = mean_of(xs);
    double ss = 0.0;
    for (double x : xs) ss += (x - mean) * (x - mean);
    const double variance = xs.empty() ? 0.0 : ss / static_cast<double>(xs.size());
    return variance > 0.0 && mean * mean <= kNearConstantRatio * variance;
}

/// True when every VIF of the `kept` predictors, taken in closed form as
/// [R⁻¹]_jj from one Cholesky factor of their correlation submatrix R, is
/// at most `limit`. False when any is above it (or NaN), or when R is not
/// numerically positive definite.
bool closed_form_vifs_within(const FlatMatrix& correlation,
                             std::span<const std::size_t> kept, double limit) {
    const std::size_t k = kept.size();
    FlatMatrix r(k, k);
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = 0; j < k; ++j) r(i, j) = correlation(kept[i], kept[j]);
    }
    FlatMatrix l;
    try {
        l = cholesky(r);
    } catch (const std::runtime_error&) {
        return false;
    }
    // Column j of L⁻¹ by forward substitution (L x = e_j, x_i = 0 for
    // i < j); R⁻¹ = L⁻ᵀL⁻¹, so [R⁻¹]_jj = ‖x‖².
    std::vector<double> x(k);
    for (std::size_t j = 0; j < k; ++j) {
        x[j] = 1.0 / l(j, j);
        double vif = x[j] * x[j];
        for (std::size_t i = j + 1; i < k; ++i) {
            double acc = 0.0;
            for (std::size_t m = j; m < i; ++m) acc -= l(i, m) * x[m];
            x[i] = acc / l(i, i);
            vif += x[i] * x[i];
        }
        if (!(vif <= limit)) return false;
    }
    return true;
}

}  // namespace

double OlsFit::predict(std::span<const double> predictors) const {
    if (coefficients.empty()) return 0.0;
    if (predictors.size() + 1 != coefficients.size()) {
        throw std::invalid_argument("OlsFit::predict: predictor count mismatch");
    }
    double acc = coefficients[0];
    for (std::size_t j = 0; j < predictors.size(); ++j) {
        acc += coefficients[j + 1] * predictors[j];
    }
    return acc;
}

OlsFit ols_fit(std::span<const double> y,
               std::span<const std::span<const double>> predictors) {
    const std::size_t n = y.size();
    const std::size_t p = predictors.size();
    for (const auto& col : predictors) {
        if (col.size() != n) {
            throw std::invalid_argument("ols_fit: predictor length mismatch");
        }
    }
    if (n == 0) throw std::invalid_argument("ols_fit: empty response");

    FlatMatrix x(n, p + 1);
    for (std::size_t i = 0; i < n; ++i) {
        x(i, 0) = 1.0;
        for (std::size_t j = 0; j < p; ++j) x(i, j + 1) = predictors[j][i];
    }

    OlsFit fit;
    fit.coefficients = solve_least_squares(x, y);
    fit.fitted.resize(n);
    fit.residuals.resize(n);
    double ss_res = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        double acc = fit.coefficients[0];
        for (std::size_t j = 0; j < p; ++j) acc += fit.coefficients[j + 1] * predictors[j][i];
        fit.fitted[i] = acc;
        fit.residuals[i] = y[i] - acc;
        ss_res += fit.residuals[i] * fit.residuals[i];
    }
    const double ybar = mean_of(y);
    double ss_tot = 0.0;
    for (std::size_t i = 0; i < n; ++i) ss_tot += (y[i] - ybar) * (y[i] - ybar);
    if (ss_tot <= 0.0) {
        fit.r_squared = 1.0;  // constant response fit exactly by intercept
    } else {
        fit.r_squared = std::clamp(1.0 - ss_res / ss_tot, 0.0, 1.0);
    }
    if (n > p + 1) {
        fit.adjusted_r_squared =
            1.0 - (1.0 - fit.r_squared) * static_cast<double>(n - 1) /
                      static_cast<double>(n - p - 1);
    } else {
        fit.adjusted_r_squared = fit.r_squared;
    }
    return fit;
}

std::vector<double> variance_inflation_factors(
    std::span<const std::span<const double>> predictors) {
    const std::size_t p = predictors.size();
    std::vector<double> vifs(p, 1.0);
    if (p < 2) return vifs;
    std::vector<std::span<const double>> others;
    others.reserve(p - 1);
    for (std::size_t j = 0; j < p; ++j) {
        others.clear();
        for (std::size_t k = 0; k < p; ++k) {
            if (k != j) others.push_back(predictors[k]);
        }
        const OlsFit fit = ols_fit(predictors[j], others);
        const double denom = 1.0 - fit.r_squared;
        vifs[j] = denom <= 1.0 / kMaxVif ? kMaxVif : 1.0 / denom;
    }
    return vifs;
}

std::vector<std::size_t> reduce_multicollinearity(
    std::span<const std::span<const double>> predictors,
    const FlatMatrix& correlation, double vif_threshold,
    obs::MetricsRegistry* metrics) {
    if (correlation.rows() != predictors.size() ||
        correlation.cols() != predictors.size()) {
        throw std::invalid_argument(
            "reduce_multicollinearity: correlation matrix shape mismatch");
    }
    std::vector<std::size_t> kept(predictors.size());
    for (std::size_t i = 0; i < kept.size(); ++i) kept[i] = i;
    std::vector<bool> scaled(predictors.size());
    for (std::size_t i = 0; i < predictors.size(); ++i) {
        scaled[i] = well_scaled(predictors[i]);
    }
    const double stop_limit = vif_threshold * (1.0 - kStopMargin);

    std::vector<std::span<const double>> current;
    while (kept.size() > 1) {
        if (metrics != nullptr) {
            metrics->add("linalg.vif.iterations");
            metrics->add("linalg.vif.checks", kept.size());
        }
        const bool closed_form_usable = std::all_of(
            kept.begin(), kept.end(), [&](std::size_t idx) { return scaled[idx]; });
        if (closed_form_usable &&
            closed_form_vifs_within(correlation, kept, stop_limit)) {
            break;
        }
        current.clear();
        for (std::size_t idx : kept) current.push_back(predictors[idx]);
        const std::vector<double> vifs = variance_inflation_factors(current);
        const auto worst =
            std::max_element(vifs.begin(), vifs.end()) - vifs.begin();
        if (vifs[static_cast<std::size_t>(worst)] <= vif_threshold) break;
        kept.erase(kept.begin() + worst);
        if (metrics != nullptr) metrics->add("linalg.vif.removed");
    }
    return kept;
}

}  // namespace atm::la
