#pragma once

#include <vector>

#include "cluster/cbc.hpp"
#include "linalg/flat_matrix.hpp"

namespace atm::obs {
class MetricsRegistry;
}

namespace atm::core {

/// Step-1 clustering technique for the signature search (Section III-A).
enum class ClusteringMethod {
    kDtw,  ///< dynamic-time-warping distances + hierarchical clustering
    kCbc,  ///< the paper's correlation-based clustering
};

/// Which series participate in the model (Fig. 7 ablation): the paper's
/// inter-resource model mixes CPU and RAM series of a box; the intra
/// variants treat each resource separately.
enum class ResourceScope {
    kInter,
    kIntraCpu,
    kIntraRam,
};

/// Options for the two-step signature-set search.
struct SignatureSearchOptions {
    ClusteringMethod method = ClusteringMethod::kDtw;
    /// CBC correlation threshold rho_Th.
    double rho_threshold = 0.7;
    /// Step 2 trigger: a VIF above this flags multicollinearity.
    double vif_threshold = 4.0;
    /// Disable to measure the clustering step alone (Fig. 6 ablation).
    bool apply_stepwise = true;
    /// Sakoe–Chiba band for DTW; < 0 = unconstrained (paper recurrence).
    int dtw_band = -1;
    /// Optional stage-metrics sink (not owned). Records search counters
    /// (`search.series`, `search.clusters`, `search.initial_signatures`,
    /// `search.final_signatures`), the clustering silhouette gauge, the
    /// `search.cluster` (Step 1) and `search.vif` (Step 2) timers, and is
    /// forwarded to the DTW matrix and the VIF reduction.
    obs::MetricsRegistry* metrics = nullptr;
};

/// Result of the signature search over a box's series set.
struct SignatureSearchResult {
    /// Indices (into the input series set) of the final signature series.
    std::vector<int> signatures;
    /// Signatures after step 1 only (before multicollinearity removal).
    std::vector<int> initial_signatures;
    /// Number of clusters found by step 1.
    int num_clusters = 0;
    /// Mean silhouette of the chosen DTW clustering (0 for CBC).
    double silhouette = 0.0;

    /// Signature count divided by total series count ("ratio of signature
    /// to original", Figs. 6a/7a), for the final set.
    [[nodiscard]] double signature_ratio(std::size_t total_series) const {
        return total_series == 0
                   ? 0.0
                   : static_cast<double>(signatures.size()) /
                         static_cast<double>(total_series);
    }
};

/// Runs the two-step signature search on a series set, one series per
/// row (typically a box's M x N demand series over the training window).
///
/// Step 1 clusters the series (DTW+hierarchical with silhouette-optimal k
/// in [2, n/2], or CBC) and takes per-cluster representatives (DTW medoid /
/// CBC head). Step 2 computes VIFs over the representative series and,
/// when any exceeds the threshold, removes the most collinear series one
/// at a time until all VIFs pass — the paper's stepwise-regression
/// reduction, over row views of the representatives (no copies), given
/// their correlation matrix (the heads' submatrix of CBC's ρ, or computed
/// over the DTW medoids) for `la::reduce_multicollinearity`'s closed
/// form. Throws std::invalid_argument for no series or zero-length series.
SignatureSearchResult find_signatures(
    const la::FlatMatrix& series, const SignatureSearchOptions& options = {});

/// Restricts a flattened VM-major series set (vm0/CPU, vm0/RAM, vm1/CPU,
/// ...) to a resource scope, returning the selected flat indices.
std::vector<int> scope_indices(std::size_t total_series, ResourceScope scope);

}  // namespace atm::core
