#pragma once

#include <span>
#include <vector>

#include "linalg/flat_matrix.hpp"

/// Dense solvers over FlatMatrix: exactly what the ATM pipeline needs
/// (OLS design matrices, ridge normal equations). Sizes here are small —
/// a box has ~20 series of ~700 samples.
namespace atm::la {

/// Solves the square system A x = b by Gaussian elimination with partial
/// pivoting. Throws std::invalid_argument on shape mismatch and
/// std::runtime_error if A is (numerically) singular.
std::vector<double> solve(const FlatMatrix& a, std::span<const double> b);

/// Cholesky factor L (lower-triangular, A = L Lᵀ) of a symmetric
/// positive-definite matrix. Throws std::runtime_error if not SPD.
FlatMatrix cholesky(const FlatMatrix& a);

/// Solves A x = b for SPD A via Cholesky (forward + back substitution).
std::vector<double> solve_spd(const FlatMatrix& a, std::span<const double> b);

/// Thin QR decomposition by Householder reflections: A (m x n, m >= n)
/// = Q R with Q (m x n) orthonormal columns and R (n x n) upper
/// triangular. Accumulates an explicit m x m Qᵀ, so it is the reference
/// solve_least_squares is tested against, not a production path.
struct QrResult {
    FlatMatrix q;
    FlatMatrix r;
};
QrResult qr_decompose(const FlatMatrix& a);

/// Least-squares solution of min ||A x - b||² via Householder QR (more
/// numerically robust than normal equations for ill-conditioned designs).
/// The reflectors are applied to b in flight — implicit Q, no m×m
/// temporary — so the cost is O(m·n²) time and O(m·n) space.
std::vector<double> solve_least_squares(const FlatMatrix& a,
                                        std::span<const double> b);

}  // namespace atm::la
