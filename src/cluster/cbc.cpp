#include "cluster/cbc.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "timeseries/stats.hpp"

namespace atm::cluster {

la::FlatMatrix correlation_matrix(const la::FlatMatrix& series) {
    return correlation_matrix(series.row_views());
}

la::FlatMatrix correlation_matrix(std::span<const std::span<const double>> series) {
    const std::size_t n = series.size();
    la::FlatMatrix rho(n, n, 1.0);
    if (n == 0) return rho;
    // Centre each series once. Each deviation is the very double that
    // ts::covariance computes for every pair, and the dot product below
    // sums them in the same order and divides the same way, so every ρ is
    // bit-identical to ts::pearson's.
    const std::size_t len = series[0].size();
    la::FlatMatrix deviations(n, len);
    std::vector<double> spread(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (series[i].size() != len) {
            throw std::invalid_argument("correlation_matrix: series lengths differ");
        }
        const double mean = ts::mean(series[i]);
        std::span<double> d = deviations[i];
        for (std::size_t t = 0; t < len; ++t) d[t] = series[i][t] - mean;
        spread[i] = ts::stddev(series[i]);
    }
    for (std::size_t i = 0; i < n; ++i) {
        const std::span<const double> di = deviations[i];
        for (std::size_t j = i + 1; j < n; ++j) {
            double r = 0.0;
            if (spread[i] > 0.0 && spread[j] > 0.0) {
                const std::span<const double> dj = deviations[j];
                double acc = 0.0;
                for (std::size_t t = 0; t < len; ++t) acc += di[t] * dj[t];
                r = acc / static_cast<double>(len) / (spread[i] * spread[j]);
            }
            rho(i, j) = r;
            rho(j, i) = r;
        }
    }
    return rho;
}

std::vector<CbcCluster> cbc_cluster_from_correlation(
    const la::FlatMatrix& rho, const CbcOptions& options) {
    const std::size_t n = rho.rows();
    if (rho.cols() != n) {
        throw std::invalid_argument("cbc: non-square correlation matrix");
    }

    auto effective = [&](double r) { return options.use_absolute ? std::abs(r) : r; };

    // Rank key per series: (#strong correlations, mean strong correlation).
    struct Rank {
        int strong_count = 0;
        double strong_mean = 0.0;
    };
    std::vector<Rank> ranks(n);
    for (std::size_t i = 0; i < n; ++i) {
        int count = 0;
        double sum = 0.0;
        for (std::size_t l = 0; l < n; ++l) {
            if (l == i) continue;
            const double r = effective(rho(i, l));
            if (r >= options.rho_threshold) {
                ++count;
                sum += r;
            }
        }
        ranks[i] = Rank{count, count > 0 ? sum / count : 0.0};
    }

    std::vector<bool> clustered(n, false);
    std::vector<CbcCluster> clusters;
    for (;;) {
        // Topmost still-unclustered series by (count, mean); index breaks ties
        // deterministically.
        std::size_t top = n;
        for (std::size_t i = 0; i < n; ++i) {
            if (clustered[i]) continue;
            if (top == n || ranks[i].strong_count > ranks[top].strong_count ||
                (ranks[i].strong_count == ranks[top].strong_count &&
                 ranks[i].strong_mean > ranks[top].strong_mean)) {
                top = i;
            }
        }
        if (top == n) break;

        CbcCluster cluster;
        cluster.head = static_cast<int>(top);
        clustered[top] = true;
        for (std::size_t l = 0; l < n; ++l) {
            if (clustered[l]) continue;
            if (effective(rho(top, l)) >= options.rho_threshold) {
                cluster.members.push_back(static_cast<int>(l));
                clustered[l] = true;
            }
        }
        clusters.push_back(std::move(cluster));
    }
    return clusters;
}

std::vector<CbcCluster> cbc_cluster(const la::FlatMatrix& series,
                                    const CbcOptions& options) {
    return cbc_cluster_from_correlation(correlation_matrix(series), options);
}

}  // namespace atm::cluster
