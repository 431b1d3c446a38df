#include "cluster/hierarchical.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace atm::cluster {
namespace {

void validate_square(const la::FlatMatrix& dist) {
    if (dist.empty()) throw std::invalid_argument("clustering: empty distance matrix");
    if (dist.cols() != dist.rows()) {
        throw std::invalid_argument("clustering: non-square distance matrix");
    }
}

double linkage_distance(const la::FlatMatrix& dist,
                        const std::vector<int>& a, const std::vector<int>& b) {
    double sum = 0.0;
    for (int i : a) {
        for (int j : b) {
            sum += dist[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
        }
    }
    return sum / (static_cast<double>(a.size()) * static_cast<double>(b.size()));
}

}  // namespace

std::vector<int> hierarchical_cluster(const la::FlatMatrix& dist, int k) {
    validate_square(dist);
    const int n = static_cast<int>(dist.size());
    if (k < 1 || k > n) throw std::invalid_argument("hierarchical_cluster: bad k");

    // Active clusters as member lists; merge the closest pair until k remain.
    std::vector<std::vector<int>> clusters(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) clusters[static_cast<std::size_t>(i)] = {i};

    while (static_cast<int>(clusters.size()) > k) {
        std::size_t best_a = 0;
        std::size_t best_b = 1;
        double best_d = std::numeric_limits<double>::infinity();
        for (std::size_t a = 0; a < clusters.size(); ++a) {
            for (std::size_t b = a + 1; b < clusters.size(); ++b) {
                const double d = linkage_distance(dist, clusters[a], clusters[b]);
                if (d < best_d) {
                    best_d = d;
                    best_a = a;
                    best_b = b;
                }
            }
        }
        auto& target = clusters[best_a];
        target.insert(target.end(), clusters[best_b].begin(), clusters[best_b].end());
        clusters.erase(clusters.begin() + static_cast<std::ptrdiff_t>(best_b));
    }

    std::vector<int> labels(static_cast<std::size_t>(n), 0);
    for (std::size_t c = 0; c < clusters.size(); ++c) {
        for (int i : clusters[c]) labels[static_cast<std::size_t>(i)] = static_cast<int>(c);
    }
    return labels;
}

std::vector<double> silhouette_values(
    const la::FlatMatrix& dist,
    const std::vector<int>& labels) {
    validate_square(dist);
    const std::size_t n = dist.size();
    if (labels.size() != n) {
        throw std::invalid_argument("silhouette: label count mismatch");
    }
    const int k = labels.empty() ? 0 : *std::max_element(labels.begin(), labels.end()) + 1;

    std::vector<std::vector<int>> members(static_cast<std::size_t>(std::max(k, 1)));
    for (std::size_t i = 0; i < n; ++i) {
        members[static_cast<std::size_t>(labels[i])].push_back(static_cast<int>(i));
    }

    std::vector<double> s(n, 0.0);
    if (k < 2 || n < 2) return s;

    for (std::size_t i = 0; i < n; ++i) {
        const int own = labels[i];
        const auto& own_members = members[static_cast<std::size_t>(own)];
        if (own_members.size() < 2) {
            s[i] = 0.0;  // singleton convention
            continue;
        }
        double a = 0.0;
        for (int j : own_members) {
            if (static_cast<std::size_t>(j) == i) continue;
            a += dist[i][static_cast<std::size_t>(j)];
        }
        a /= static_cast<double>(own_members.size() - 1);

        double b = std::numeric_limits<double>::infinity();
        for (int c = 0; c < k; ++c) {
            if (c == own || members[static_cast<std::size_t>(c)].empty()) continue;
            double avg = 0.0;
            for (int j : members[static_cast<std::size_t>(c)]) {
                avg += dist[i][static_cast<std::size_t>(j)];
            }
            avg /= static_cast<double>(members[static_cast<std::size_t>(c)].size());
            b = std::min(b, avg);
        }
        const double denom = std::max(a, b);
        s[i] = denom > 0.0 ? (b - a) / denom : 0.0;
    }
    return s;
}

double mean_silhouette(const la::FlatMatrix& dist,
                       const std::vector<int>& labels) {
    const std::vector<double> s = silhouette_values(dist, labels);
    if (s.empty()) return 0.0;
    return std::accumulate(s.begin(), s.end(), 0.0) / static_cast<double>(s.size());
}

BestClustering cluster_best_k(const la::FlatMatrix& dist,
                              int k_min, int k_max) {
    validate_square(dist);
    const int n = static_cast<int>(dist.size());
    k_min = std::clamp(k_min, 1, n);
    k_max = std::clamp(k_max, k_min, n);

    BestClustering best;
    best.silhouette = -std::numeric_limits<double>::infinity();
    for (int k = k_min; k <= k_max; ++k) {
        std::vector<int> labels = hierarchical_cluster(dist, k);
        const double sil = mean_silhouette(dist, labels);
        if (sil > best.silhouette) {
            best.silhouette = sil;
            best.labels = std::move(labels);
            best.num_clusters = k;
        }
    }
    return best;
}

std::vector<int> cluster_medoids(const la::FlatMatrix& dist,
                                 const std::vector<int>& labels) {
    validate_square(dist);
    const int k = labels.empty() ? 0 : *std::max_element(labels.begin(), labels.end()) + 1;
    std::vector<std::vector<int>> members(static_cast<std::size_t>(std::max(k, 1)));
    for (std::size_t i = 0; i < labels.size(); ++i) {
        members[static_cast<std::size_t>(labels[i])].push_back(static_cast<int>(i));
    }
    std::vector<int> medoids;
    medoids.reserve(static_cast<std::size_t>(k));
    for (int c = 0; c < k; ++c) {
        const auto& ms = members[static_cast<std::size_t>(c)];
        int best = ms.empty() ? -1 : ms.front();
        double best_avg = std::numeric_limits<double>::infinity();
        for (int i : ms) {
            double avg = 0.0;
            for (int j : ms) {
                avg += dist[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
            }
            avg /= static_cast<double>(std::max<std::size_t>(ms.size(), 1));
            if (avg < best_avg) {
                best_avg = avg;
                best = i;
            }
        }
        medoids.push_back(best);
    }
    return medoids;
}

}  // namespace atm::cluster
