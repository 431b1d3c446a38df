#include "core/signature_search.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "cluster/dtw.hpp"
#include "cluster/hierarchical.hpp"
#include "linalg/ols.hpp"
#include "obs/metrics.hpp"
#include "timeseries/resource.hpp"

namespace atm::core {

SignatureSearchResult find_signatures(const la::FlatMatrix& series,
                                      const SignatureSearchOptions& options) {
    if (series.rows() == 0) {
        throw std::invalid_argument("find_signatures: no series");
    }
    if (series.cols() == 0) {
        throw std::invalid_argument("find_signatures: empty series");
    }
    const int n = static_cast<int>(series.size());

    SignatureSearchResult result;
    obs::MetricsRegistry* metrics = options.metrics;
    // Both returns below funnel through here so the counters always
    // describe the *final* signature set.
    const auto record = [&]() {
        if (metrics == nullptr) return;
        metrics->add("search.series", static_cast<std::uint64_t>(n));
        metrics->add("search.clusters",
                     static_cast<std::uint64_t>(result.num_clusters));
        metrics->add("search.initial_signatures",
                     result.initial_signatures.size());
        metrics->add("search.final_signatures", result.signatures.size());
        metrics->set_gauge("search.silhouette", result.silhouette);
    };

    // ---- Step 1: time-series clustering -------------------------------------
    // CBC's ρ over every series; Step 2 reads the heads' submatrix of it.
    la::FlatMatrix rho;
    obs::ScopedTimer cluster_timer(metrics, "search.cluster");
    if (n == 1) {
        result.initial_signatures = {0};
        result.num_clusters = 1;
    } else if (options.method == ClusteringMethod::kDtw) {
        // The matrix is the expensive part: computed once, it serves the
        // whole cluster sweep and medoid pick.
        const la::FlatMatrix dist =
            cluster::dtw_distance_matrix(series, options.dtw_band, metrics);
        // k in [2, n/2] per the paper ("we aim to reduce the original set to
        // at least its half"); n < 4 degenerates to k = 2.
        const int k_max = std::max(2, n / 2);
        const cluster::BestClustering best =
            cluster::cluster_best_k(dist, 2, k_max);
        result.num_clusters = best.num_clusters;
        result.silhouette = best.silhouette;
        result.initial_signatures = cluster::cluster_medoids(dist, best.labels);
    } else {
        cluster::CbcOptions cbc_options;
        cbc_options.rho_threshold = options.rho_threshold;
        rho = cluster::correlation_matrix(series);
        const std::vector<cluster::CbcCluster> clusters =
            cluster::cbc_cluster_from_correlation(rho, cbc_options);
        result.num_clusters = static_cast<int>(clusters.size());
        result.initial_signatures.reserve(clusters.size());
        for (const cluster::CbcCluster& c : clusters) {
            result.initial_signatures.push_back(c.head);
        }
    }
    std::sort(result.initial_signatures.begin(), result.initial_signatures.end());
    cluster_timer.stop();

    // ---- Step 2: multicollinearity removal ----------------------------------
    const std::vector<int>& initial = result.initial_signatures;
    if (!options.apply_stepwise || initial.size() < 2) {
        result.signatures = initial;
        record();
        return result;
    }
    obs::ScopedTimer vif_timer(metrics, "search.vif");
    const std::vector<std::span<const double>> views = series.row_views(initial);
    // The signatures' correlation matrix, the VIF sweep's closed form:
    // gathered from CBC's ρ, or computed over the DTW medoids.
    la::FlatMatrix signature_rho(initial.size(), initial.size());
    if (rho.empty()) {
        signature_rho = cluster::correlation_matrix(views);
    } else {
        for (std::size_t i = 0; i < initial.size(); ++i) {
            for (std::size_t j = 0; j < initial.size(); ++j) {
                signature_rho(i, j) = rho(static_cast<std::size_t>(initial[i]),
                                          static_cast<std::size_t>(initial[j]));
            }
        }
    }
    const std::vector<std::size_t> kept = la::reduce_multicollinearity(
        views, signature_rho, options.vif_threshold, metrics);
    result.signatures.reserve(kept.size());
    for (std::size_t k : kept) {
        result.signatures.push_back(result.initial_signatures[k]);
    }
    record();
    return result;
}

std::vector<int> scope_indices(std::size_t total_series, ResourceScope scope) {
    std::vector<int> out;
    for (std::size_t i = 0; i < total_series; ++i) {
        const auto kind = static_cast<ts::ResourceKind>(i % ts::kNumResources);
        const bool keep = scope == ResourceScope::kInter ||
                          (scope == ResourceScope::kIntraCpu &&
                           kind == ts::ResourceKind::kCpu) ||
                          (scope == ResourceScope::kIntraRam &&
                           kind == ts::ResourceKind::kRam);
        if (keep) out.push_back(static_cast<int>(i));
    }
    return out;
}

}  // namespace atm::core
