#include "linalg/ols.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace atm::la {
namespace {

double mean_of(std::span<const double> xs) {
    if (xs.empty()) return 0.0;
    double acc = 0.0;
    for (double x : xs) acc += x;
    return acc / static_cast<double>(xs.size());
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
    constexpr double kMaxVif = 1e9;
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
    double vif_threshold, obs::MetricsRegistry* metrics) {
    std::vector<std::size_t> kept(predictors.size());
    for (std::size_t i = 0; i < kept.size(); ++i) kept[i] = i;

    std::vector<std::span<const double>> current;
    while (kept.size() > 1) {
        current.clear();
        for (std::size_t idx : kept) current.push_back(predictors[idx]);
        const std::vector<double> vifs = variance_inflation_factors(current);
        if (metrics != nullptr) {
            metrics->add("linalg.vif.iterations");
            metrics->add("linalg.vif.checks", vifs.size());
        }
        const auto worst =
            std::max_element(vifs.begin(), vifs.end()) - vifs.begin();
        if (vifs[static_cast<std::size_t>(worst)] <= vif_threshold) break;
        kept.erase(kept.begin() + worst);
        if (metrics != nullptr) metrics->add("linalg.vif.removed");
    }
    return kept;
}

}  // namespace atm::la
