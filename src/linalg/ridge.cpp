#include "linalg/ridge.hpp"

#include <algorithm>
#include <stdexcept>

#include "linalg/flat_matrix.hpp"

namespace atm::la {
namespace {

double mean_of(std::span<const double> xs) {
    if (xs.empty()) return 0.0;
    double acc = 0.0;
    for (double x : xs) acc += x;
    return acc / static_cast<double>(xs.size());
}

}  // namespace

OlsFit ridge_fit(std::span<const double> y,
                 std::span<const std::span<const double>> predictors,
                 double lambda) {
    if (lambda < 0.0) throw std::invalid_argument("ridge_fit: negative lambda");
    const std::size_t n = y.size();
    const std::size_t p = predictors.size();
    if (n == 0) throw std::invalid_argument("ridge_fit: empty response");
    for (const auto& col : predictors) {
        if (col.size() != n) {
            throw std::invalid_argument("ridge_fit: predictor length mismatch");
        }
    }

    // Center y and X; solve (Xc'Xc + lambda I) b = Xc' yc; recover the
    // intercept as ybar - xbar·b.
    const double ybar = mean_of(y);
    std::vector<double> xbar(p, 0.0);
    for (std::size_t j = 0; j < p; ++j) xbar[j] = mean_of(predictors[j]);

    // Center each column once into a contiguous block (and y alongside)
    // instead of recomputing (x - xbar) for every (j, k) pair of the Gram
    // accumulation below — the subtracted values are identical, so the
    // accumulated sums are bit-for-bit the same.
    FlatMatrix xc(p, n);
    std::vector<double> yc(n);
    for (std::size_t i = 0; i < n; ++i) yc[i] = y[i] - ybar;
    for (std::size_t j = 0; j < p; ++j) {
        double* row = xc[j].data();
        const std::span<const double> col = predictors[j];
        const double mu = xbar[j];
        for (std::size_t i = 0; i < n; ++i) row[i] = col[i] - mu;
    }

    FlatMatrix gram(p, p);
    std::vector<double> xty(p, 0.0);
    for (std::size_t j = 0; j < p; ++j) {
        const double* xj = xc[j].data();
        for (std::size_t k = j; k < p; ++k) {
            const double* xk = xc[k].data();
            double acc = 0.0;
            for (std::size_t i = 0; i < n; ++i) acc += xj[i] * xk[i];
            gram(j, k) = acc;
            gram(k, j) = acc;
        }
        gram(j, j) += lambda;
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i) acc += xj[i] * yc[i];
        xty[j] = acc;
    }

    OlsFit fit;
    std::vector<double> beta;
    if (p == 0) {
        beta = {};
    } else {
        // Lambda > 0 guarantees SPD; lambda == 0 may be singular for
        // collinear designs, fall back to generic solve-by-QR.
        try {
            beta = solve_spd(gram, xty);
        } catch (const std::runtime_error&) {
            beta = solve(gram, xty);
        }
    }
    fit.coefficients.resize(p + 1);
    double intercept = ybar;
    for (std::size_t j = 0; j < p; ++j) {
        fit.coefficients[j + 1] = beta[j];
        intercept -= beta[j] * xbar[j];
    }
    fit.coefficients[0] = intercept;

    fit.fitted.resize(n);
    fit.residuals.resize(n);
    double ss_res = 0.0;
    double ss_tot = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        double acc = fit.coefficients[0];
        for (std::size_t j = 0; j < p; ++j) acc += beta[j] * predictors[j][i];
        fit.fitted[i] = acc;
        fit.residuals[i] = y[i] - acc;
        ss_res += fit.residuals[i] * fit.residuals[i];
        ss_tot += (y[i] - ybar) * (y[i] - ybar);
    }
    fit.r_squared = ss_tot <= 0.0 ? 1.0 : std::clamp(1.0 - ss_res / ss_tot, 0.0, 1.0);
    fit.adjusted_r_squared =
        n > p + 1 ? 1.0 - (1.0 - fit.r_squared) * static_cast<double>(n - 1) /
                              static_cast<double>(n - p - 1)
                  : fit.r_squared;
    return fit;
}

}  // namespace atm::la
