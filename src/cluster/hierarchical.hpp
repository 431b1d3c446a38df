#pragma once

#include <vector>

#include "linalg/flat_matrix.hpp"

namespace atm::cluster {

/// Average-linkage agglomerative hierarchical clustering over a
/// precomputed symmetric distance matrix, cut at exactly `k` clusters:
/// each step merges the two clusters with the lowest mean pairwise
/// distance.
///
/// Returns one cluster label (0..k-1, dense) per item. Throws
/// std::invalid_argument if the matrix is empty/non-square or k is not in
/// [1, n]. O(n³) merge loop — adequate for per-box series counts.
std::vector<int> hierarchical_cluster(const la::FlatMatrix& dist, int k);

/// Mean silhouette value over all items for a given clustering
/// (Section III-A, Eq. 3): s(i) = (b(i) − a(i)) / max{a(i), b(i)} with
/// a(i) the mean within-cluster distance and b(i) the lowest mean distance
/// to another cluster. Items in singleton clusters contribute s(i) = 0
/// (standard convention). Returns 0 for k == 1 or n < 2.
double mean_silhouette(const la::FlatMatrix& dist,
                       const std::vector<int>& labels);

/// Per-item silhouette values (same definition as mean_silhouette).
std::vector<double> silhouette_values(
    const la::FlatMatrix& dist,
    const std::vector<int>& labels);

/// Sweeps k over [k_min, k_max], clusters at each k, and returns the
/// labeling with maximal mean silhouette — the paper's model-selection
/// rule for DTW clustering (k ranges 2..(M·N)/2). Bounds are clamped to
/// [1, n]; if the clamped range collapses to one k, that k is used.
struct BestClustering {
    std::vector<int> labels;
    int num_clusters = 0;
    double silhouette = 0.0;
};
BestClustering cluster_best_k(const la::FlatMatrix& dist,
                              int k_min, int k_max);

/// Index of the medoid of each cluster: the member with the lowest mean
/// distance to its co-members (the paper's signature pick: "the series with
/// the lowest average dissimilarity in each cluster"). Returned in cluster-
/// label order (entry c is the medoid of cluster c).
std::vector<int> cluster_medoids(const la::FlatMatrix& dist,
                                 const std::vector<int>& labels);

}  // namespace atm::cluster
