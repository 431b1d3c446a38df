#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include "cluster/cbc.hpp"
#include "cluster/dtw.hpp"
#include "cluster/hierarchical.hpp"
#include "timeseries/stats.hpp"

namespace atm::cluster {
namespace {

TEST(DtwTest, IdenticalSeriesIsZero) {
    const std::vector<double> p{1, 2, 3, 4};
    EXPECT_DOUBLE_EQ(dtw_distance(p, p), 0.0);
}

TEST(DtwTest, HandComputedSmallExample) {
    // P = {1, 2}, Q = {1, 3}:
    // lambda(1,1) = 0; lambda(1,2) = (1-3)^2 + 0 = 4;
    // lambda(2,1) = (2-1)^2 + 0 = 1; lambda(2,2) = (2-3)^2 + min(0,4,1) = 1.
    const std::vector<double> p{1, 2};
    const std::vector<double> q{1, 3};
    EXPECT_DOUBLE_EQ(dtw_distance(p, q), 1.0);
}

TEST(DtwTest, SymmetricForEqualLengths) {
    const std::vector<double> p{3, 1, 4, 1, 5};
    const std::vector<double> q{2, 7, 1, 8, 3};
    EXPECT_DOUBLE_EQ(dtw_distance(p, q), dtw_distance(q, p));
}

TEST(DtwTest, TimeShiftCostsLessThanEuclidean) {
    // A shifted copy aligns nearly perfectly under warping.
    std::vector<double> p(20);
    std::vector<double> q(20);
    for (int i = 0; i < 20; ++i) {
        p[static_cast<std::size_t>(i)] = std::sin(0.4 * i);
        q[static_cast<std::size_t>(i)] = std::sin(0.4 * (i - 2));
    }
    double euclid = 0.0;
    for (std::size_t i = 0; i < 20; ++i) euclid += (p[i] - q[i]) * (p[i] - q[i]);
    EXPECT_LT(dtw_distance(p, q), euclid);
}

TEST(DtwTest, EmptySeries) {
    const std::vector<double> p{1, 2};
    const std::vector<double> empty;
    EXPECT_DOUBLE_EQ(dtw_distance(empty, empty), 0.0);
    EXPECT_TRUE(std::isinf(dtw_distance(p, empty)));
}

TEST(DtwTest, UnequalLengthsSupported) {
    const std::vector<double> p{1, 2, 3};
    const std::vector<double> q{1, 1, 2, 2, 3, 3};
    // Every element of q matches an equal element of p under warping.
    EXPECT_DOUBLE_EQ(dtw_distance(p, q), 0.0);
}

TEST(DtwTest, BandedEqualsFullOnNearDiagonalPath) {
    const std::vector<double> p{1, 2, 3, 4, 5, 6};
    const std::vector<double> q{1, 2, 4, 4, 5, 7};
    EXPECT_DOUBLE_EQ(dtw_distance(p, q, 3), dtw_distance(p, q));
}

TEST(DtwTest, BandNeverBeatsFullDtw) {
    std::mt19937 rng(3);
    std::uniform_real_distribution<double> dist(0.0, 10.0);
    for (int trial = 0; trial < 10; ++trial) {
        std::vector<double> p(30);
        std::vector<double> q(30);
        for (auto& v : p) v = dist(rng);
        for (auto& v : q) v = dist(rng);
        EXPECT_GE(dtw_distance(p, q, 2) + 1e-12, dtw_distance(p, q));
    }
}

TEST(DtwTest, DistanceMatrixSymmetricZeroDiagonal) {
    const la::FlatMatrix series({{1, 2, 3}, {3, 2, 1}, {2, 2, 2}});
    const auto dist = dtw_distance_matrix(series);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_DOUBLE_EQ(dist[i][i], 0.0);
        for (std::size_t j = 0; j < 3; ++j) {
            EXPECT_DOUBLE_EQ(dist[i][j], dist[j][i]);
        }
    }
}

la::FlatMatrix two_blob_distances() {
    // Items 0-2 mutually close, 3-5 mutually close, blobs far apart.
    const std::size_t n = 6;
    la::FlatMatrix d(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            if (i == j) continue;
            const bool same_blob = (i < 3) == (j < 3);
            d[i][j] = same_blob ? 1.0 : 10.0;
        }
    }
    return d;
}

TEST(HierarchicalTest, SeparatesTwoBlobs) {
    const auto dist = two_blob_distances();
    const auto labels = hierarchical_cluster(dist, 2);
    EXPECT_EQ(labels[0], labels[1]);
    EXPECT_EQ(labels[1], labels[2]);
    EXPECT_EQ(labels[3], labels[4]);
    EXPECT_EQ(labels[4], labels[5]);
    EXPECT_NE(labels[0], labels[3]);
}

TEST(HierarchicalTest, KEqualsNIsAllSingletons) {
    const auto dist = two_blob_distances();
    const auto labels = hierarchical_cluster(dist, 6);
    std::vector<bool> seen(6, false);
    for (int l : labels) {
        EXPECT_FALSE(seen[static_cast<std::size_t>(l)]);
        seen[static_cast<std::size_t>(l)] = true;
    }
}

TEST(HierarchicalTest, KOneIsSingleCluster) {
    const auto dist = two_blob_distances();
    const auto labels = hierarchical_cluster(dist, 1);
    for (int l : labels) EXPECT_EQ(l, 0);
}

TEST(HierarchicalTest, BadKThrows) {
    const auto dist = two_blob_distances();
    EXPECT_THROW(hierarchical_cluster(dist, 0), std::invalid_argument);
    EXPECT_THROW(hierarchical_cluster(dist, 7), std::invalid_argument);
}

TEST(HierarchicalTest, AllLinkagesAgreeOnWellSeparatedBlobs) {
    const auto dist = two_blob_distances();
    const auto labels = hierarchical_cluster(dist, 2);
    EXPECT_EQ(labels[0], labels[2]);
    EXPECT_NE(labels[0], labels[5]);
}

TEST(SilhouetteTest, PerfectSeparationNearOne) {
    const auto dist = two_blob_distances();
    const auto labels = hierarchical_cluster(dist, 2);
    EXPECT_GT(mean_silhouette(dist, labels), 0.85);
}

TEST(SilhouetteTest, BadSplitScoresLower) {
    const auto dist = two_blob_distances();
    const std::vector<int> good{0, 0, 0, 1, 1, 1};
    const std::vector<int> bad{0, 1, 0, 1, 0, 1};
    EXPECT_GT(mean_silhouette(dist, good), mean_silhouette(dist, bad));
}

TEST(SilhouetteTest, SingleClusterIsZero) {
    const auto dist = two_blob_distances();
    const std::vector<int> labels(6, 0);
    EXPECT_DOUBLE_EQ(mean_silhouette(dist, labels), 0.0);
}

TEST(SilhouetteTest, SingletonConvention) {
    const auto dist = two_blob_distances();
    const std::vector<int> labels{0, 1, 1, 1, 1, 1};
    const auto values = silhouette_values(dist, labels);
    EXPECT_DOUBLE_EQ(values[0], 0.0);
}

TEST(SilhouetteTest, ValuesWithinMinusOneOne) {
    const auto dist = two_blob_distances();
    const std::vector<int> labels{0, 1, 0, 1, 0, 1};
    for (double s : silhouette_values(dist, labels)) {
        EXPECT_GE(s, -1.0);
        EXPECT_LE(s, 1.0);
    }
}

TEST(BestKTest, FindsTwoBlobs) {
    const auto dist = two_blob_distances();
    const BestClustering best = cluster_best_k(dist, 2, 3);
    EXPECT_EQ(best.num_clusters, 2);
    EXPECT_GT(best.silhouette, 0.85);
}

TEST(BestKTest, ClampsRange) {
    const auto dist = two_blob_distances();
    const BestClustering best = cluster_best_k(dist, -5, 100);
    EXPECT_GE(best.num_clusters, 1);
    EXPECT_LE(best.num_clusters, 6);
}

TEST(MedoidTest, PicksCentralMember) {
    // Cluster 0 = {0,1,2} where item 1 is closest to both others.
    la::FlatMatrix dist(3, 3);
    dist[0][1] = dist[1][0] = 1.0;
    dist[1][2] = dist[2][1] = 1.0;
    dist[0][2] = dist[2][0] = 3.0;
    const std::vector<int> labels{0, 0, 0};
    const auto medoids = cluster_medoids(dist, labels);
    ASSERT_EQ(medoids.size(), 1u);
    EXPECT_EQ(medoids[0], 1);
}

TEST(MedoidTest, OnePerCluster) {
    const auto dist = two_blob_distances();
    const std::vector<int> labels{0, 0, 0, 1, 1, 1};
    const auto medoids = cluster_medoids(dist, labels);
    ASSERT_EQ(medoids.size(), 2u);
    EXPECT_LT(medoids[0], 3);
    EXPECT_GE(medoids[1], 3);
}

TEST(CorrelationMatrixTest, UnitDiagonalSymmetric) {
    const la::FlatMatrix series({{1, 2, 3, 4}, {2, 4, 6, 8}, {4, 3, 2, 1}});
    const auto rho = correlation_matrix(series);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_DOUBLE_EQ(rho[i][i], 1.0);
        for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(rho[i][j], rho[j][i]);
    }
    EXPECT_NEAR(rho[0][1], 1.0, 1e-12);
    EXPECT_NEAR(rho[0][2], -1.0, 1e-12);
}

TEST(CorrelationMatrixTest, BitIdenticalToPairwisePearson) {
    // Centring each series once must not move a single bit: CBC compares
    // ρ against its threshold, so even a rounding change could flip a tie.
    std::mt19937 rng(17);
    std::normal_distribution<double> noise(50.0, 12.0);
    la::FlatMatrix series(9, 480);
    for (std::size_t i = 0; i < series.rows(); ++i) {
        for (double& x : series[i]) x = i == 4 ? 37.5 : noise(rng);  // 4 is constant
    }
    const auto rho = correlation_matrix(series);
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    for (std::size_t i = 0; i < series.rows(); ++i) {
        EXPECT_EQ(bits(rho[i][i]), bits(1.0));
        for (std::size_t j = 0; j < series.rows(); ++j) {
            if (i == j) continue;
            EXPECT_EQ(bits(rho[i][j]), bits(ts::pearson(series[i], series[j])))
                << "pair " << i << "," << j;
        }
    }
    EXPECT_EQ(rho[4][0], 0.0);  // zero spread: ρ = 0 against every other
}

TEST(CorrelationMatrixTest, RejectsSeriesOfDifferentLengths) {
    const std::vector<double> a{1, 2, 3, 4};
    const std::vector<double> b{1, 2, 3};
    const std::vector<std::span<const double>> views{a, b};
    EXPECT_THROW((void)correlation_matrix(views), std::invalid_argument);
}

TEST(CbcTest, GroupsStronglyCorrelatedSeries) {
    // Series 0,1,2 are linear transforms of one pattern; 3 is independent.
    std::mt19937 rng(5);
    std::normal_distribution<double> noise(0.0, 0.05);
    std::vector<double> base(50);
    for (std::size_t i = 0; i < 50; ++i) base[i] = std::sin(0.3 * static_cast<double>(i));
    la::FlatMatrix series(4, 50);
    for (std::size_t i = 0; i < 50; ++i) {
        series[0][i] = base[i] + noise(rng);
        series[1][i] = 2.0 * base[i] + 1.0 + noise(rng);
        series[2][i] = 0.5 * base[i] - 2.0 + noise(rng);
        series[3][i] = noise(rng) * 20.0;
    }
    const auto clusters = cbc_cluster(series);
    ASSERT_EQ(clusters.size(), 2u);
    // First cluster: head among {0,1,2} with the other two as members.
    EXPECT_LT(clusters[0].head, 3);
    EXPECT_EQ(clusters[0].members.size(), 2u);
    // Second cluster: the independent series, alone.
    EXPECT_EQ(clusters[1].head, 3);
    EXPECT_TRUE(clusters[1].members.empty());
}

TEST(CbcTest, NoStrongCorrelationsAllSingletons) {
    std::mt19937 rng(9);
    std::normal_distribution<double> noise(0.0, 1.0);
    la::FlatMatrix series(5, 100);
    for (double& v : series.data()) v = noise(rng);
    const auto clusters = cbc_cluster(series);
    EXPECT_EQ(clusters.size(), 5u);
    for (const auto& c : clusters) EXPECT_TRUE(c.members.empty());
}

TEST(CbcTest, EverySeriesAssignedExactlyOnce) {
    std::mt19937 rng(10);
    std::normal_distribution<double> noise(0.0, 0.3);
    std::vector<double> base(60);
    for (std::size_t i = 0; i < 60; ++i) base[i] = std::cos(0.2 * static_cast<double>(i));
    la::FlatMatrix series(7, 60);
    for (std::size_t s = 0; s < 7; ++s) {
        for (std::size_t i = 0; i < 60; ++i) {
            series[s][i] = (s % 2 == 0 ? base[i] : -base[i]) + noise(rng);
        }
    }
    const auto clusters = cbc_cluster(series);
    std::vector<int> count(7, 0);
    for (const auto& c : clusters) {
        ++count[static_cast<std::size_t>(c.head)];
        for (int m : c.members) ++count[static_cast<std::size_t>(m)];
    }
    for (int c : count) EXPECT_EQ(c, 1);
}

TEST(CbcTest, AbsoluteModeCapturesAntiCorrelation) {
    std::vector<double> up(40);
    std::vector<double> down(40);
    for (std::size_t i = 0; i < 40; ++i) {
        up[i] = std::sin(0.3 * static_cast<double>(i));
        down[i] = -up[i];
    }
    CbcOptions plain;
    const auto separate = cbc_cluster(la::FlatMatrix({up, down}), plain);
    EXPECT_EQ(separate.size(), 2u);

    CbcOptions absolute;
    absolute.use_absolute = true;
    const auto merged = cbc_cluster(la::FlatMatrix({up, down}), absolute);
    EXPECT_EQ(merged.size(), 1u);
}

TEST(CbcTest, HeadHasMostStrongCorrelations) {
    // Star topology: series 0 correlates with everything, 1..3 correlate
    // (strongly) only with 0 and weakly with each other.
    std::mt19937 rng(12);
    std::normal_distribution<double> noise(0.0, 0.45);
    std::vector<double> hub(200);
    for (std::size_t i = 0; i < 200; ++i) hub[i] = std::sin(0.1 * static_cast<double>(i));
    la::FlatMatrix series(4, 200);
    std::copy(hub.begin(), hub.end(), series[0].begin());
    for (std::size_t s = 1; s < 4; ++s) {
        for (std::size_t i = 0; i < 200; ++i) series[s][i] = hub[i] + noise(rng);
    }
    CbcOptions options;
    options.rho_threshold = 0.75;
    const auto clusters = cbc_cluster(series, options);
    ASSERT_FALSE(clusters.empty());
    EXPECT_EQ(clusters[0].head, 0);
}

TEST(CbcTest, NonSquareCorrelationThrows) {
    const la::FlatMatrix bad(2, 3, 0.5);
    EXPECT_THROW(cbc_cluster_from_correlation(bad), std::invalid_argument);
}

// Property: for any rho threshold, cluster heads are pairwise *not*
// strongly correlated (each head was not absorbed by an earlier one).
class CbcPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(CbcPropertyTest, HeadsPairwiseBelowThreshold) {
    std::mt19937 rng(21);
    std::normal_distribution<double> noise(0.0, 0.5);
    std::vector<double> base(120);
    for (std::size_t i = 0; i < 120; ++i) base[i] = std::sin(0.25 * static_cast<double>(i));
    la::FlatMatrix series(8, 120);
    for (std::size_t s = 0; s < 8; ++s) {
        const double w = static_cast<double>(s) / 8.0;
        for (std::size_t i = 0; i < 120; ++i) {
            series[s][i] = w * base[i] + (1.0 - w) * noise(rng);
        }
    }
    CbcOptions options;
    options.rho_threshold = GetParam();
    const auto clusters = cbc_cluster(series, options);
    const auto rho = correlation_matrix(series);
    for (std::size_t a = 0; a < clusters.size(); ++a) {
        for (std::size_t b = a + 1; b < clusters.size(); ++b) {
            EXPECT_LT(rho[static_cast<std::size_t>(clusters[a].head)]
                         [static_cast<std::size_t>(clusters[b].head)],
                      options.rho_threshold);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, CbcPropertyTest,
                         ::testing::Values(0.5, 0.6, 0.7, 0.8, 0.9));

}  // namespace
}  // namespace atm::cluster
