#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include "cluster/cbc.hpp"
#include "linalg/ols.hpp"

namespace atm::la {
namespace {

/// FlatMatrix from literal rows (all the same length).
FlatMatrix mat(std::initializer_list<std::initializer_list<double>> rows) {
    FlatMatrix m(rows.size(), rows.size() == 0 ? 0 : rows.begin()->size());
    std::size_t i = 0;
    for (const auto& row : rows) {
        std::size_t j = 0;
        for (const double v : row) m(i, j++) = v;
        ++i;
    }
    return m;
}

/// Views over caller-owned columns: the regressions read predictors as
/// spans.
std::vector<std::span<const double>> views(
    std::initializer_list<std::span<const double>> columns) {
    return columns;
}

FlatMatrix multiply(const FlatMatrix& a, const FlatMatrix& b) {
    FlatMatrix out(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < b.cols(); ++j) {
            for (std::size_t k = 0; k < a.cols(); ++k) {
                out(i, j) += a(i, k) * b(k, j);
            }
        }
    }
    return out;
}

FlatMatrix transposed(const FlatMatrix& a) {
    FlatMatrix out(a.cols(), a.rows());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < a.cols(); ++j) out(j, i) = a(i, j);
    }
    return out;
}

double max_abs_diff(const FlatMatrix& a, const FlatMatrix& b) {
    double m = 0.0;
    for (std::size_t i = 0; i < a.data().size(); ++i) {
        m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
    }
    return m;
}

TEST(SolveTest, Solves3x3System) {
    const FlatMatrix a = mat({{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}});
    const std::vector<double> b{8, -11, -3};
    const auto x = solve(a, b);
    ASSERT_EQ(x.size(), 3u);
    EXPECT_NEAR(x[0], 2.0, 1e-10);
    EXPECT_NEAR(x[1], 3.0, 1e-10);
    EXPECT_NEAR(x[2], -1.0, 1e-10);
}

TEST(SolveTest, SingularThrows) {
    const FlatMatrix a = mat({{1, 2}, {2, 4}});
    const std::vector<double> b{1, 2};
    EXPECT_THROW(solve(a, b), std::runtime_error);
}

TEST(SolveTest, NeedsPivoting) {
    // Zero on the diagonal forces a row swap.
    const FlatMatrix a = mat({{0, 1}, {1, 0}});
    const std::vector<double> b{3, 7};
    const auto x = solve(a, b);
    EXPECT_NEAR(x[0], 7.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(CholeskyTest, FactorsSpdMatrix) {
    const FlatMatrix a = mat({{4, 2}, {2, 3}});
    const FlatMatrix l = cholesky(a);
    EXPECT_LT(max_abs_diff(multiply(l, transposed(l)), a), 1e-10);
}

TEST(CholeskyTest, RejectsNonSpd) {
    const FlatMatrix a = mat({{1, 2}, {2, 1}});  // indefinite
    EXPECT_THROW(cholesky(a), std::runtime_error);
}

TEST(CholeskyTest, SolveSpdMatchesGaussian) {
    const FlatMatrix a = mat({{6, 2, 1}, {2, 5, 2}, {1, 2, 4}});
    const std::vector<double> b{1, 2, 3};
    const auto x1 = solve(a, b);
    const auto x2 = solve_spd(a, b);
    for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-10);
}

TEST(QrTest, ReconstructsInput) {
    const FlatMatrix a = mat({{1, 2}, {3, 4}, {5, 6}});
    const QrResult qr = qr_decompose(a);
    EXPECT_LT(max_abs_diff(multiply(qr.q, qr.r), a), 1e-10);
}

TEST(QrTest, QHasOrthonormalColumns) {
    const FlatMatrix a = mat({{2, -1}, {1, 3}, {0, 1}, {4, 2}});
    const QrResult qr = qr_decompose(a);
    const FlatMatrix qtq = multiply(transposed(qr.q), qr.q);
    EXPECT_LT(max_abs_diff(qtq, mat({{1, 0}, {0, 1}})), 1e-10);
}

TEST(QrTest, RIsUpperTriangular) {
    const FlatMatrix a = mat({{1, 2, 3}, {4, 5, 6}, {7, 8, 10}, {2, 1, 0}});
    const QrResult qr = qr_decompose(a);
    for (std::size_t i = 1; i < qr.r.rows(); ++i) {
        for (std::size_t j = 0; j < i; ++j) {
            EXPECT_NEAR(qr.r(i, j), 0.0, 1e-12);
        }
    }
}

TEST(LeastSquaresTest, ExactSystemRecovered) {
    // y = 1 + 2 x over exact points.
    FlatMatrix a(4, 2);
    std::vector<double> b(4);
    for (int i = 0; i < 4; ++i) {
        a(static_cast<std::size_t>(i), 0) = 1.0;
        a(static_cast<std::size_t>(i), 1) = i;
        b[static_cast<std::size_t>(i)] = 1.0 + 2.0 * i;
    }
    const auto x = solve_least_squares(a, b);
    EXPECT_NEAR(x[0], 1.0, 1e-10);
    EXPECT_NEAR(x[1], 2.0, 1e-10);
}

TEST(LeastSquaresTest, OverdeterminedMinimizesResidual) {
    // Points off the line; least squares solution is known analytically.
    const FlatMatrix a = mat({{1, 0}, {1, 1}, {1, 2}});
    const std::vector<double> b{0, 1, 3};
    const auto x = solve_least_squares(a, b);
    // Normal equations: slope = 1.5, intercept = -1/6.
    EXPECT_NEAR(x[1], 1.5, 1e-10);
    EXPECT_NEAR(x[0], -1.0 / 6.0, 1e-10);
}

TEST(LeastSquaresTest, RankDeficientGivesZeroCoefficient) {
    // Second column is identical to the first: rank 1 design.
    const FlatMatrix a = mat({{1, 1}, {2, 2}, {3, 3}});
    const std::vector<double> b{2, 4, 6};
    const auto x = solve_least_squares(a, b);
    // Fit must still reproduce b: x[0]*c + x[1]*c = 2c.
    EXPECT_NEAR(x[0] + x[1], 2.0, 1e-9);
}

TEST(OlsTest, RecoversLinearModel) {
    const std::vector<double> x1{1, 2, 3, 4, 5, 6};
    const std::vector<double> x2{2, 1, 4, 3, 6, 5};
    std::vector<double> y(6);
    for (std::size_t i = 0; i < 6; ++i) y[i] = 3.0 + 2.0 * x1[i] - 1.5 * x2[i];
    const OlsFit fit = ols_fit(y, views({x1, x2}));
    ASSERT_EQ(fit.coefficients.size(), 3u);
    EXPECT_NEAR(fit.coefficients[0], 3.0, 1e-9);
    EXPECT_NEAR(fit.coefficients[1], 2.0, 1e-9);
    EXPECT_NEAR(fit.coefficients[2], -1.5, 1e-9);
    EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(OlsTest, InterceptOnlyFitsMean) {
    const std::vector<double> y{1, 2, 3, 4};
    const OlsFit fit = ols_fit(y, views({}));
    EXPECT_NEAR(fit.coefficients[0], 2.5, 1e-12);
    EXPECT_NEAR(fit.r_squared, 0.0, 1e-12);
}

TEST(OlsTest, PredictMatchesFitted) {
    const std::vector<double> x{1, 2, 3, 4};
    const std::vector<double> y{2.1, 3.9, 6.2, 7.8};
    const OlsFit fit = ols_fit(y, views({x}));
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_NEAR(fit.predict(std::vector<double>{x[i]}), fit.fitted[i], 1e-12);
    }
}

TEST(OlsTest, ResidualsSumNearZero) {
    const std::vector<double> x{1, 2, 3, 4, 5};
    const std::vector<double> y{1.2, 1.9, 3.3, 3.8, 5.1};
    const OlsFit fit = ols_fit(y, views({x}));
    double sum = 0.0;
    for (double r : fit.residuals) sum += r;
    EXPECT_NEAR(sum, 0.0, 1e-9);  // property of OLS with intercept
}

TEST(OlsTest, ShapeMismatchThrows) {
    const std::vector<double> y{1, 2, 3};
    const std::vector<double> bad{1, 2};
    EXPECT_THROW(ols_fit(y, views({bad})), std::invalid_argument);
}

TEST(OlsTest, AdjustedR2PenalizesUselessPredictor) {
    std::mt19937 rng(1);
    std::normal_distribution<double> noise(0.0, 1.0);
    std::vector<double> x(50);
    std::vector<double> junk(50);
    std::vector<double> y(50);
    for (std::size_t i = 0; i < 50; ++i) {
        x[i] = static_cast<double>(i);
        junk[i] = noise(rng);
        y[i] = 2.0 * x[i] + noise(rng);
    }
    const OlsFit with = ols_fit(y, views({x, junk}));
    const OlsFit without = ols_fit(y, views({x}));
    EXPECT_GE(with.r_squared, without.r_squared);  // R2 can only grow
    EXPECT_LT(with.adjusted_r_squared - without.adjusted_r_squared, 0.01);
}

TEST(VifTest, IndependentPredictorsNearOne) {
    std::mt19937 rng(7);
    std::normal_distribution<double> noise(0.0, 1.0);
    FlatMatrix preds(3, 200);
    for (double& v : preds.data()) v = noise(rng);
    const auto vifs = variance_inflation_factors(preds.row_views());
    for (double v : vifs) EXPECT_LT(v, 1.3);
}

TEST(VifTest, CollinearPredictorHasHugeVif) {
    std::vector<double> a{1, 2, 3, 4, 5, 6};
    std::vector<double> b{6, 5, 4, 3, 2, 1};
    std::vector<double> c(6);
    for (std::size_t i = 0; i < 6; ++i) c[i] = a[i] + b[i];  // exactly dependent
    const auto vifs = variance_inflation_factors(views({a, b, c}));
    EXPECT_GT(*std::max_element(vifs.begin(), vifs.end()), 1e6);
}

TEST(VifTest, SinglePredictorIsOne) {
    const std::vector<double> only{1, 2, 3};
    const auto vifs = variance_inflation_factors(views({only}));
    ASSERT_EQ(vifs.size(), 1u);
    EXPECT_DOUBLE_EQ(vifs[0], 1.0);
}

TEST(ReduceMulticollinearityTest, DropsLinearCombination) {
    std::mt19937 rng(11);
    std::normal_distribution<double> noise(0.0, 1.0);
    std::vector<double> a(100);
    std::vector<double> b(100);
    std::vector<double> c(100);
    for (std::size_t i = 0; i < 100; ++i) {
        a[i] = noise(rng);
        b[i] = noise(rng);
        c[i] = 2.0 * a[i] - b[i] + 0.01 * noise(rng);  // nearly dependent
    }
    const auto predictors = views({a, b, c});
    const auto kept = reduce_multicollinearity(
        predictors, cluster::correlation_matrix(predictors), 4.0);
    EXPECT_EQ(kept.size(), 2u);
}

TEST(ReduceMulticollinearityTest, KeepsIndependentSet) {
    std::mt19937 rng(13);
    std::normal_distribution<double> noise(0.0, 1.0);
    FlatMatrix preds(4, 100);
    for (double& v : preds.data()) v = noise(rng);
    const auto kept = reduce_multicollinearity(
        preds.row_views(), cluster::correlation_matrix(preds), 4.0);
    EXPECT_EQ(kept.size(), 4u);
}

// Property sweep: OLS through QR equals the normal-equation solution on
// random well-conditioned designs.
class OlsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(OlsPropertyTest, QrMatchesNormalEquations) {
    std::mt19937 rng(static_cast<unsigned>(GetParam()));
    std::normal_distribution<double> noise(0.0, 1.0);
    const std::size_t n = 60;
    const std::size_t p = 3;
    FlatMatrix preds(p, n);
    std::vector<double> y(n);
    for (double& v : preds.data()) v = noise(rng);
    for (std::size_t i = 0; i < n; ++i) y[i] = noise(rng);

    const OlsFit fit = ols_fit(y, preds.row_views());

    // Normal equations via Cholesky on X'X.
    FlatMatrix x(n, p + 1);
    for (std::size_t i = 0; i < n; ++i) {
        x(i, 0) = 1.0;
        for (std::size_t j = 0; j < p; ++j) x(i, j + 1) = preds[j][i];
    }
    const FlatMatrix xtx = multiply(transposed(x), x);
    std::vector<double> xty(p + 1, 0.0);
    for (std::size_t j = 0; j <= p; ++j) {
        for (std::size_t i = 0; i < n; ++i) xty[j] += x(i, j) * y[i];
    }
    const auto beta = solve_spd(xtx, xty);
    for (std::size_t j = 0; j <= p; ++j) {
        EXPECT_NEAR(fit.coefficients[j], beta[j], 1e-8);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomDesigns, OlsPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace atm::la
