#pragma once

#include <span>
#include <vector>

#include "linalg/flat_matrix.hpp"

namespace atm::cluster {

/// One correlation-based cluster: `head` is the rank-selected signature
/// series and `members` its absorbed, strongly-correlated followers
/// (member indices exclude the head; all indices refer to the input set).
struct CbcCluster {
    int head = -1;
    std::vector<int> members;
};

/// Options for correlation-based clustering (CBC, Section III-A).
struct CbcOptions {
    /// Correlation threshold ρ_Th; the paper uses 0.7 ("a common threshold
    /// value used to determine strong correlation").
    double rho_threshold = 0.7;
    /// When true, |ρ| is compared against the threshold so strongly
    /// anti-correlated series also cluster (they fit linearly just as
    /// well). The paper's description uses raw ρ; default follows it.
    bool use_absolute = false;
};

/// The paper's proposed correlation-based clustering.
///
/// Procedure: (1) compute all pairwise Pearson correlations; (2) rank each
/// series first by the number of correlations above ρ_Th, then by the mean
/// of those above-threshold correlations; (3) repeatedly pop the topmost
/// still-unclustered series as a new cluster head and absorb every
/// remaining series correlated with it above ρ_Th; (4) stop when the ranked
/// list is empty. Series with no strong correlations end as singleton
/// clusters (their own signature). `series` holds one series per row.
std::vector<CbcCluster> cbc_cluster(const la::FlatMatrix& series,
                                    const CbcOptions& options = {});

/// Same algorithm over a precomputed correlation matrix (symmetric, unit
/// diagonal). Useful when correlations are reused across analyses.
/// Throws std::invalid_argument for a non-square matrix.
std::vector<CbcCluster> cbc_cluster_from_correlation(
    const la::FlatMatrix& rho, const CbcOptions& options = {});

/// Pairwise Pearson correlation matrix over a series set (one series per
/// row), as one n x n block with a unit diagonal. A zero-variance series
/// has ρ = 0 against every other (ts::pearson's convention). Each series
/// is centred once, and every entry is bit-identical to
/// `ts::pearson` on that pair.
la::FlatMatrix correlation_matrix(const la::FlatMatrix& series);

/// Same over row views of equal-length series (e.g. a subset of a series
/// set's rows, `FlatMatrix::row_views(rows)`), without copying them.
/// Throws std::invalid_argument if the series differ in length.
la::FlatMatrix correlation_matrix(std::span<const std::span<const double>> series);

}  // namespace atm::cluster
