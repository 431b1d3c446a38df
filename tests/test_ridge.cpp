#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <random>
#include <span>
#include <vector>

#include "linalg/ridge.hpp"

namespace atm::la {
namespace {

/// Views over caller-owned columns: the regressions read predictors as
/// spans.
std::vector<std::span<const double>> views(
    std::initializer_list<std::span<const double>> columns) {
    return columns;
}

TEST(RidgeTest, ZeroLambdaMatchesOls) {
    std::mt19937 rng(1);
    std::normal_distribution<double> noise(0.0, 1.0);
    FlatMatrix preds(2, 80);
    std::vector<double> y(80);
    for (std::size_t i = 0; i < 80; ++i) {
        preds[0][i] = noise(rng);
        preds[1][i] = noise(rng);
        y[i] = 2.0 + 1.5 * preds[0][i] - 0.5 * preds[1][i] + 0.1 * noise(rng);
    }
    const OlsFit ols = ols_fit(y, preds.row_views());
    const OlsFit ridge = ridge_fit(y, preds.row_views(), 0.0);
    for (std::size_t j = 0; j < 3; ++j) {
        EXPECT_NEAR(ridge.coefficients[j], ols.coefficients[j], 1e-8);
    }
}

TEST(RidgeTest, ShrinksCoefficients) {
    std::mt19937 rng(2);
    std::normal_distribution<double> noise(0.0, 1.0);
    FlatMatrix preds(2, 60);
    std::vector<double> y(60);
    for (std::size_t i = 0; i < 60; ++i) {
        preds[0][i] = noise(rng);
        preds[1][i] = noise(rng);
        y[i] = 3.0 * preds[0][i] + 2.0 * preds[1][i] + noise(rng);
    }
    const OlsFit small = ridge_fit(y, preds.row_views(), 1.0);
    const OlsFit large = ridge_fit(y, preds.row_views(), 1000.0);
    EXPECT_LT(std::abs(large.coefficients[1]), std::abs(small.coefficients[1]));
    EXPECT_LT(std::abs(large.coefficients[2]), std::abs(small.coefficients[2]));
}

TEST(RidgeTest, HandlesExactCollinearity) {
    // Two identical predictors: OLS by QR zeroes one; ridge splits the
    // weight between them and stays finite.
    std::vector<double> a{1, 2, 3, 4, 5, 6};
    std::vector<double> y{2, 4, 6, 8, 10, 12};
    const OlsFit fit = ridge_fit(y, views({a, a}), 0.5);
    EXPECT_TRUE(std::isfinite(fit.coefficients[1]));
    EXPECT_TRUE(std::isfinite(fit.coefficients[2]));
    EXPECT_NEAR(fit.coefficients[1], fit.coefficients[2], 1e-9);
    EXPECT_GT(fit.r_squared, 0.99);
}

TEST(RidgeTest, InterceptNotPenalized) {
    // Response far from zero: huge lambda must not pull predictions to 0.
    const std::vector<double> x{1, 2, 3, 4};
    const std::vector<double> y{101, 102, 103, 104};
    const OlsFit fit = ridge_fit(y, views({x}), 1e9);
    EXPECT_NEAR(fit.coefficients[0], 102.5, 0.5);  // ~mean of y
}

TEST(RidgeTest, ValidationErrors) {
    const std::vector<double> y{1, 2, 3};
    const std::vector<double> short_column{1, 2};
    EXPECT_THROW(ridge_fit(y, views({short_column}), 1.0), std::invalid_argument);
    EXPECT_THROW(ridge_fit(y, views({}), -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace atm::la
