#include "linalg/solve.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace atm::la {

std::vector<double> solve(const FlatMatrix& a, std::span<const double> b) {
    const std::size_t n = a.rows();
    if (a.cols() != n || b.size() != n) {
        throw std::invalid_argument("solve: need square A and matching b");
    }
    // Augmented working copy.
    FlatMatrix w(n, n + 1);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) w(i, j) = a(i, j);
        w(i, n) = b[i];
    }
    for (std::size_t col = 0; col < n; ++col) {
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < n; ++r) {
            if (std::abs(w(r, col)) > std::abs(w(pivot, col))) pivot = r;
        }
        if (std::abs(w(pivot, col)) < 1e-12) {
            throw std::runtime_error("solve: singular matrix");
        }
        if (pivot != col) {
            for (std::size_t j = col; j <= n; ++j) std::swap(w(pivot, j), w(col, j));
        }
        for (std::size_t r = col + 1; r < n; ++r) {
            const double factor = w(r, col) / w(col, col);
            if (factor == 0.0) continue;
            for (std::size_t j = col; j <= n; ++j) w(r, j) -= factor * w(col, j);
        }
    }
    std::vector<double> x(n, 0.0);
    for (std::size_t ii = n; ii-- > 0;) {
        double acc = w(ii, n);
        for (std::size_t j = ii + 1; j < n; ++j) acc -= w(ii, j) * x[j];
        x[ii] = acc / w(ii, ii);
    }
    return x;
}

FlatMatrix cholesky(const FlatMatrix& a) {
    const std::size_t n = a.rows();
    if (a.cols() != n) throw std::invalid_argument("cholesky: need square A");
    FlatMatrix l(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double acc = a(i, j);
            for (std::size_t k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
            if (i == j) {
                if (acc <= 0.0) throw std::runtime_error("cholesky: matrix not SPD");
                l(i, j) = std::sqrt(acc);
            } else {
                l(i, j) = acc / l(j, j);
            }
        }
    }
    return l;
}

std::vector<double> solve_spd(const FlatMatrix& a, std::span<const double> b) {
    const std::size_t n = a.rows();
    if (b.size() != n) throw std::invalid_argument("solve_spd: shape mismatch");
    const FlatMatrix l = cholesky(a);
    // Forward: L y = b
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i) {
        double acc = b[i];
        for (std::size_t k = 0; k < i; ++k) acc -= l(i, k) * y[k];
        y[i] = acc / l(i, i);
    }
    // Back: Lᵀ x = y
    std::vector<double> x(n);
    for (std::size_t ii = n; ii-- > 0;) {
        double acc = y[ii];
        for (std::size_t k = ii + 1; k < n; ++k) acc -= l(k, ii) * x[k];
        x[ii] = acc / l(ii, ii);
    }
    return x;
}

QrResult qr_decompose(const FlatMatrix& a) {
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    if (m < n) throw std::invalid_argument("qr_decompose: need m >= n");
    // Householder on a working copy; accumulate Q implicitly then extract.
    FlatMatrix r = a;
    FlatMatrix qt(m, m);  // Qᵀ accumulated, from the identity
    for (std::size_t i = 0; i < m; ++i) qt(i, i) = 1.0;
    for (std::size_t k = 0; k < n; ++k) {
        // Householder vector for column k below the diagonal.
        double norm = 0.0;
        for (std::size_t i = k; i < m; ++i) norm += r(i, k) * r(i, k);
        norm = std::sqrt(norm);
        if (norm < 1e-14) continue;
        const double alpha = r(k, k) >= 0 ? -norm : norm;
        std::vector<double> v(m, 0.0);
        v[k] = r(k, k) - alpha;
        for (std::size_t i = k + 1; i < m; ++i) v[i] = r(i, k);
        double vnorm2 = 0.0;
        for (std::size_t i = k; i < m; ++i) vnorm2 += v[i] * v[i];
        if (vnorm2 < 1e-28) continue;
        // Apply H = I - 2 v vᵀ / (vᵀv) to R and accumulate into Qᵀ.
        for (std::size_t j = 0; j < n; ++j) {
            double s = 0.0;
            for (std::size_t i = k; i < m; ++i) s += v[i] * r(i, j);
            s = 2.0 * s / vnorm2;
            for (std::size_t i = k; i < m; ++i) r(i, j) -= s * v[i];
        }
        for (std::size_t j = 0; j < m; ++j) {
            double s = 0.0;
            for (std::size_t i = k; i < m; ++i) s += v[i] * qt(i, j);
            s = 2.0 * s / vnorm2;
            for (std::size_t i = k; i < m; ++i) qt(i, j) -= s * v[i];
        }
    }
    QrResult out;
    out.r = FlatMatrix(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i; j < n; ++j) out.r(i, j) = r(i, j);
    }
    // Q thin = (Qᵀ)ᵀ restricted to first n columns.
    out.q = FlatMatrix(m, n);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) out.q(i, j) = qt(j, i);
    }
    return out;
}

std::vector<double> solve_least_squares(const FlatMatrix& a,
                                        std::span<const double> b) {
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    if (m != b.size()) {
        throw std::invalid_argument("solve_least_squares: shape mismatch");
    }
    if (m < n) throw std::invalid_argument("solve_least_squares: need m >= n");
    // Fused implicit-Q Householder: each reflector is applied to the
    // working copy of A and to the right-hand side in the same sweep, so
    // the m×m Qᵀ that qr_decompose() accumulates is never materialized.
    // Same upper-triangular R factor and the same degeneracy guards as
    // qr_decompose; O(m·n²) work instead of O(m²·(n+m)).
    FlatMatrix r = a;
    std::vector<double> qtb(b.begin(), b.end());
    std::vector<double> v(m, 0.0);
    for (std::size_t k = 0; k < n; ++k) {
        double norm = 0.0;
        for (std::size_t i = k; i < m; ++i) norm += r(i, k) * r(i, k);
        norm = std::sqrt(norm);
        if (norm < 1e-14) continue;
        const double alpha = r(k, k) >= 0 ? -norm : norm;
        v[k] = r(k, k) - alpha;
        for (std::size_t i = k + 1; i < m; ++i) v[i] = r(i, k);
        double vnorm2 = 0.0;
        for (std::size_t i = k; i < m; ++i) vnorm2 += v[i] * v[i];
        if (vnorm2 < 1e-28) continue;
        // Apply H = I - 2 v vᵀ / (vᵀv) to R: only columns j >= k. Columns
        // left of k are already reduced, H would touch only their
        // sub-diagonal rows, and nothing reads those again ...
        for (std::size_t j = k; j < n; ++j) {
            double s = 0.0;
            for (std::size_t i = k; i < m; ++i) s += v[i] * r(i, j);
            s = 2.0 * s / vnorm2;
            for (std::size_t i = k; i < m; ++i) r(i, j) -= s * v[i];
        }
        // ... and to b, yielding Qᵀb directly.
        double s = 0.0;
        for (std::size_t i = k; i < m; ++i) s += v[i] * qtb[i];
        s = 2.0 * s / vnorm2;
        for (std::size_t i = k; i < m; ++i) qtb[i] -= s * v[i];
    }
    std::vector<double> x(n, 0.0);
    for (std::size_t ii = n; ii-- > 0;) {
        double acc = qtb[ii];
        for (std::size_t j = ii + 1; j < n; ++j) acc -= r(ii, j) * x[j];
        const double diag = r(ii, ii);
        // Rank-deficient columns get coefficient 0 (minimal-norm-ish choice)
        // rather than an exception: the VIF reduction probes such designs.
        x[ii] = std::abs(diag) < 1e-12 ? 0.0 : acc / diag;
    }
    return x;
}

}  // namespace atm::la
