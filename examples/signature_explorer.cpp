// Signature explorer: dissects the signature search on one box — pairwise
// correlations, DTW vs CBC clusterings, VIF values of the
// initial signature set, the final signatures and how well each dependent
// series is explained. Useful to understand *why* ATM picked a set.
//
// Usage: signature_explorer [box_index] [dtw|cbc]

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "cluster/cbc.hpp"
#include "cluster/dtw.hpp"
#include "cluster/hierarchical.hpp"
#include "core/signature_search.hpp"
#include "core/spatial_model.hpp"
#include "linalg/ols.hpp"
#include "timeseries/resource.hpp"
#include "tracegen/generator.hpp"

namespace {

const char* series_name(std::size_t flat) {
    static char buffer[32];
    const auto id = atm::ts::SeriesId::from_flat(static_cast<int>(flat));
    std::snprintf(buffer, sizeof(buffer), "vm%d/%s", id.vm_index,
                  atm::ts::to_string(id.resource).c_str());
    return buffer;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace atm;
    const int box_index = argc > 1 ? std::atoi(argv[1]) : 3;
    const bool use_cbc = argc > 2 && std::strcmp(argv[2], "cbc") == 0;

    trace::TraceGenOptions gen;
    gen.num_days = 2;
    gen.gappy_box_fraction = 0.0;
    const trace::BoxTrace box = trace::generate_box(gen, box_index);
    const auto series = box.demand_matrix();
    const std::size_t n = series.size();
    std::printf("box%d: %zu VMs -> %zu demand series\n\n", box_index,
                box.vms.size(), n);

    // --- pairwise correlations (compact heat rows) -------------------------
    const auto rho = cluster::correlation_matrix(series);
    std::printf("pairwise correlation (x = |rho| >= 0.7, + >= 0.4, . else):\n");
    for (std::size_t i = 0; i < n; ++i) {
        std::printf("  %-10s ", series_name(i));
        for (std::size_t j = 0; j < n; ++j) {
            const double r = std::abs(rho[i][j]);
            std::printf("%c", i == j ? '#' : r >= 0.7 ? 'x' : r >= 0.4 ? '+' : '.');
        }
        std::printf("\n");
    }

    // --- two clusterings side by side ----------------------------------------
    const auto dist = cluster::dtw_distance_matrix(series);
    const auto best = cluster::cluster_best_k(
        dist, 2, std::max(2, static_cast<int>(n) / 2));
    std::printf("\nDTW hierarchical: %d clusters (silhouette %.2f)\n",
                best.num_clusters, best.silhouette);

    const auto cbc = cluster::cbc_cluster(series);
    std::printf("CBC: %zu clusters, heads:", cbc.size());
    for (const auto& c : cbc) {
        std::printf(" %s(%zu)", series_name(static_cast<std::size_t>(c.head)),
                    c.members.size() + 1);
    }
    std::printf("\n");

    // --- the two-step search --------------------------------------------------
    core::SignatureSearchOptions options;
    options.method =
        use_cbc ? core::ClusteringMethod::kCbc : core::ClusteringMethod::kDtw;
    const auto result = core::find_signatures(series, options);

    std::printf("\n%s search: %zu initial -> %zu final signatures\n",
                use_cbc ? "CBC" : "DTW", result.initial_signatures.size(),
                result.signatures.size());

    if (result.initial_signatures.size() >= 2) {
        const auto vifs = la::variance_inflation_factors(
            series.row_views(result.initial_signatures));
        std::printf("VIFs of the initial set (> 4 flags multicollinearity):\n");
        for (std::size_t s = 0; s < vifs.size(); ++s) {
            std::printf("  %-10s %8.2f\n",
                        series_name(static_cast<std::size_t>(
                            result.initial_signatures[s])),
                        vifs[s]);
        }
    }

    core::SpatialModel model;
    model.fit(series, result.signatures);
    std::printf("\ndependent-series fit (in-sample APE):\n");
    for (std::size_t d = 0; d < model.dependent_indices().size(); ++d) {
        std::printf("  %-10s %6.1f%%\n",
                    series_name(static_cast<std::size_t>(
                        model.dependent_indices()[d])),
                    100.0 * model.dependent_fit_ape()[d]);
    }
    return 0;
}
