// Differential/property suite for the SIMD kernel layer (ctest -L simd):
// every compiled-and-supported path is compared against the scalar
// reference under the tolerance policy documented in linalg/simd/simd.hpp
// — DTW bit-identical; MLP forward dot products within kMlpForwardMaxUlps;
// lane-batched MLP training bit-identical, per path, to training each
// network alone and to the per-network loop it replaced. Shapes are
// chosen to hit every tail/remainder case of every lane width (2, 4, 8),
// and DTW inputs include NaN-gap series run through the pipeline's
// repair step.
//
// The whole binary also runs correctly with ATM_SIMD forced (CI does
// scalar + each runner ISA): differential tests compare explicit paths
// via simd::kernels_for and never depend on the ambient dispatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "cluster/dtw.hpp"
#include "exec/journal.hpp"
#include "forecast/nn.hpp"
#include "linalg/simd/simd.hpp"
#include "obs/metrics.hpp"
#include "timeseries/features.hpp"
#include "timeseries/repair.hpp"

namespace atm::simd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Restores the ambient dispatch on scope exit, so tests that call
/// set_path cannot leak a forced path into later tests.
class PathGuard {
  public:
    PathGuard() : saved_(active_path()) {}
    PathGuard(const PathGuard&) = delete;
    PathGuard& operator=(const PathGuard&) = delete;
    ~PathGuard() { set_path(saved_); }

  private:
    Path saved_;
};

const KernelTable& scalar_table() { return kernels_for(Path::kScalar); }

std::vector<Path> vector_paths() {
    std::vector<Path> paths;
    for (Path p : supported_paths()) {
        if (p != Path::kScalar) paths.push_back(p);
    }
    return paths;
}

std::vector<double> random_series(std::mt19937& rng, std::size_t len,
                                  double lo = 0.0, double hi = 100.0) {
    std::uniform_real_distribution<double> dist(lo, hi);
    std::vector<double> xs(len);
    for (double& x : xs) x = dist(rng);
    return xs;
}

/// `count` random series of `len` samples as a series set, drawn in row
/// order.
la::FlatMatrix random_set(std::mt19937& rng, std::size_t count,
                          std::size_t len) {
    la::FlatMatrix set(count, len);
    for (std::size_t s = 0; s < count; ++s) {
        const std::vector<double> xs = random_series(rng, len);
        std::copy(xs.begin(), xs.end(), set[s].begin());
    }
    return set;
}

// ---------------------------------------------------------------------
// Dispatch plumbing

TEST(SimdDispatchTest, PathNamesRoundTrip) {
    for (Path p : {Path::kScalar, Path::kAvx2, Path::kAvx512}) {
        EXPECT_EQ(parse_path(to_string(p)), p);
    }
    EXPECT_THROW(parse_path("sse2"), std::invalid_argument);
    EXPECT_THROW(parse_path(""), std::invalid_argument);
    EXPECT_THROW(parse_path("AVX2"), std::invalid_argument);
}

TEST(SimdDispatchTest, ScalarIsAlwaysCompiledAndSupported) {
    const std::vector<Path> compiled = compiled_paths();
    ASSERT_FALSE(compiled.empty());
    EXPECT_EQ(compiled.front(), Path::kScalar);
    const std::vector<Path> supported = supported_paths();
    ASSERT_FALSE(supported.empty());
    EXPECT_EQ(supported.front(), Path::kScalar);
    // Supported is a subset of compiled.
    for (Path p : supported) {
        EXPECT_NE(std::find(compiled.begin(), compiled.end(), p),
                  compiled.end());
    }
}

TEST(SimdDispatchTest, ActivePathIsSupportedAndTableMatches) {
    const Path active = active_path();
    const std::vector<Path> supported = supported_paths();
    EXPECT_NE(std::find(supported.begin(), supported.end(), active),
              supported.end());
    EXPECT_EQ(active_kernels().path, active);
    EXPECT_EQ(kernels_for(active).path, active);
}

TEST(SimdDispatchTest, SetPathForcesEveryCompiledSupportedPath) {
    const PathGuard guard;
    for (Path p : supported_paths()) {
        set_path(p);
        EXPECT_EQ(active_path(), p);
        EXPECT_EQ(active_kernels().path, p);
    }
}

TEST(SimdDispatchTest, UncompiledOrUnsupportedPathThrows) {
    // No NEON kernels exist, so "neon" is not a path name at all.
    EXPECT_THROW(parse_path("neon"), std::invalid_argument);
    // A named path this binary cannot run is rejected, never downgraded.
    const std::vector<Path> supported = supported_paths();
    for (Path p : {Path::kAvx2, Path::kAvx512}) {
        if (std::find(supported.begin(), supported.end(), p) !=
            supported.end()) {
            continue;
        }
        EXPECT_THROW(kernels_for(p), std::invalid_argument);
        EXPECT_THROW(set_path(p), std::invalid_argument);
    }
}

TEST(SimdDispatchTest, UlpDistance) {
    EXPECT_EQ(ulp_distance(1.0, 1.0), 0u);
    EXPECT_EQ(ulp_distance(0.0, -0.0), 0u);
    EXPECT_EQ(ulp_distance(1.0, std::nextafter(1.0, 2.0)), 1u);
    EXPECT_EQ(ulp_distance(1.0, std::nextafter(1.0, 0.0)), 1u);
    EXPECT_EQ(ulp_distance(kInf, kInf), 0u);
    EXPECT_EQ(ulp_distance(std::nan(""), 1.0), ~std::uint64_t{0});
    // Sign crossings are huge, never "close".
    EXPECT_GT(ulp_distance(-1.0, 1.0), std::uint64_t{1} << 60);
}

// ---------------------------------------------------------------------
// DTW: every vector path bit-identical to scalar

/// One pair through `kernels`' batch entry (count = 1, the path
/// cluster::dtw_distance takes).
double batch_of_one(const KernelTable& kernels, const double* p,
                    std::size_t n, const double* q, std::size_t m, int band,
                    DtwScratch& scratch) {
    double out = -1.0;
    kernels.dtw_distance_batch(&p, &q, 1, n, m, band, scratch, &out);
    return out;
}

/// The scalar reference distance for one pair.
double scalar_dtw(const double* p, std::size_t n, const double* q,
                  std::size_t m, int band) {
    DtwScratch scratch;
    return batch_of_one(scalar_table(), p, n, q, m, band, scratch);
}

/// Runs one (p, q, band) case through the scalar kernel and every vector
/// path and requires exact equality (infinity included: narrow bands on
/// skewed lengths legitimately produce +inf).
void expect_dtw_bitwise(const std::vector<double>& p,
                        const std::vector<double>& q, int band) {
    const double expected =
        scalar_dtw(p.data(), p.size(), q.data(), q.size(), band);
    for (Path path : vector_paths()) {
        DtwScratch scratch;
        const double actual = batch_of_one(kernels_for(path), p.data(),
                                           p.size(), q.data(), q.size(), band,
                                           scratch);
        // EXPECT_EQ on doubles is bitwise here: values are either finite
        // (never -0.0: sums of squares) or +inf.
        EXPECT_EQ(expected, actual)
            << to_string(path) << " diverged at n=" << p.size()
            << " m=" << q.size() << " band=" << band;
    }
}

TEST(SimdDtwTest, EqualLengthsAllBandsBitwise) {
    std::mt19937 rng(20160621);
    // Lengths straddle every vector width's tail cases (multiples of 2,
    // 4, 8 plus off-by-one on both sides) up to the fleet's 480.
    for (const std::size_t len : {std::size_t{1}, std::size_t{2},
                                  std::size_t{3}, std::size_t{4},
                                  std::size_t{5}, std::size_t{7},
                                  std::size_t{8}, std::size_t{9},
                                  std::size_t{15}, std::size_t{16},
                                  std::size_t{17}, std::size_t{31},
                                  std::size_t{33}, std::size_t{96},
                                  std::size_t{100}, std::size_t{480}}) {
        const std::vector<double> p = random_series(rng, len);
        const std::vector<double> q = random_series(rng, len);
        for (const int band : {-1, 0, 1, 2, 3, 8, 17, 64, 1000}) {
            expect_dtw_bitwise(p, q, band);
        }
    }
}

TEST(SimdDtwTest, UnequalLengthsBitwise) {
    std::mt19937 rng(7);
    std::uniform_int_distribution<std::size_t> len_dist(1, 130);
    std::uniform_int_distribution<int> band_dist(-1, 20);
    for (int it = 0; it < 60; ++it) {
        const std::vector<double> p = random_series(rng, len_dist(rng));
        const std::vector<double> q = random_series(rng, len_dist(rng));
        expect_dtw_bitwise(p, q, band_dist(rng));
    }
}

TEST(SimdDtwTest, ExtremeSlopeEmptyDiagonalsBitwise) {
    // Narrow bands on very skewed lengths leave strips whose rows are
    // never all in-window at once, so every step takes the masked path;
    // several of these are +inf end to end.
    std::mt19937 rng(99);
    for (const auto& [n, m] : std::vector<std::pair<std::size_t, std::size_t>>{
             {3, 100}, {100, 3}, {1, 5}, {5, 1}, {1, 1}, {2, 97}, {97, 2}}) {
        const std::vector<double> p = random_series(rng, n);
        const std::vector<double> q = random_series(rng, m);
        for (const int band : {0, 1, 2, 5}) {
            expect_dtw_bitwise(p, q, band);
        }
    }
}

TEST(SimdDtwTest, RepairedGapSeriesBitwise) {
    // The pipeline's DTW inputs are repaired monitoring series: inject
    // zero-run gaps (how outages appear in traces), repair them, and
    // check the kernels on the result — values with flat interpolated
    // runs and exact repeats, adjacent to what were NaN-like gaps.
    std::mt19937 rng(4242);
    for (const std::size_t len :
         {std::size_t{96}, std::size_t{97}, std::size_t{192}}) {
        std::vector<double> p = random_series(rng, len, 1.0, 100.0);
        std::vector<double> q = random_series(rng, len, 1.0, 100.0);
        // Gaps at the front, middle, and back; min_run for find_gaps is 2.
        for (std::vector<double>* s : {&p, &q}) {
            (*s)[0] = 0.0;
            (*s)[1] = 0.0;
            const std::size_t mid = len / 2;
            (*s)[mid] = 0.0;
            (*s)[mid + 1] = 0.0;
            (*s)[len - 2] = 0.0;
            (*s)[len - 1] = 0.0;
        }
        const std::vector<double> pr =
            ts::repair_series(p, ts::RepairMethod::kSeasonal, 96);
        const std::vector<double> qr =
            ts::repair_series(q, ts::RepairMethod::kLinear, 96);
        for (const int band : {-1, 8}) {
            expect_dtw_bitwise(pr, qr, band);
        }
    }
}

TEST(SimdDtwTest, WorkspaceReuseAcrossSizesAndPaths) {
    // One scratch reused across wildly varying sizes and bands must give
    // the same answers as a fresh scratch per call, on every path.
    std::mt19937 rng(11);
    std::vector<std::pair<std::vector<double>, std::vector<double>>> cases;
    for (const std::size_t len : {std::size_t{63}, std::size_t{5},
                                  std::size_t{128}, std::size_t{1},
                                  std::size_t{31}}) {
        cases.emplace_back(random_series(rng, len), random_series(rng, len));
    }
    for (Path path : supported_paths()) {
        const KernelTable& kernels = kernels_for(path);
        DtwScratch reused;
        for (const auto& [p, q] : cases) {
            for (const int band : {-1, 3}) {
                DtwScratch fresh;
                const double expected = batch_of_one(
                    kernels, p.data(), p.size(), q.data(), q.size(), band,
                    fresh);
                const double actual = batch_of_one(
                    kernels, p.data(), p.size(), q.data(), q.size(), band,
                    reused);
                EXPECT_EQ(expected, actual) << to_string(path);
            }
        }
    }
}

TEST(SimdDtwTest, BatchKernelMatchesScalarPerPairBitwise) {
    // The lane-batched strip kernel must reproduce the scalar per-pair
    // result bit-for-bit in every lane, for every occupancy count up to
    // the path's width. Row counts straddle the strip heights (4, 8): the
    // n mod R remainder runs the smaller strips, and 479/481 are the
    // fleet's 480 off by one. Bands cover unconstrained, the narrowest
    // windows (masked ramps only), the paper's ±8, and a band wider than
    // some series. Lanes where p = q and constant series make the
    // three-way min tie.
    std::mt19937 rng(31415);
    std::vector<std::pair<std::size_t, std::size_t>> shapes;
    for (const std::size_t n : {2, 3, 7, 8, 9, 15, 17, 479, 481}) {
        shapes.emplace_back(n, n);
        shapes.emplace_back(n, n + 5);
        shapes.emplace_back(n, n / 2 + 1);
    }
    shapes.emplace_back(1, 1);
    shapes.emplace_back(3, 100);
    shapes.emplace_back(97, 2);
    const std::vector<int> bands{-1, 0, 1, 2, 8, 300};
    std::size_t lanes = 1;
    for (Path path : supported_paths()) {
        lanes = std::max(lanes, kernels_for(path).dtw_batch_width);
    }
    DtwScratch batch_scratch;  // reused across every call below
    for (const auto& [n, m] : shapes) {
        std::vector<std::vector<double>> p_data;
        std::vector<std::vector<double>> q_data;
        for (std::size_t b = 0; b < lanes; ++b) {
            p_data.push_back(random_series(rng, n));
            if (b % 3 == 1 && n == m) {
                q_data.push_back(p_data.back());  // p = q: distance 0
            } else if (b % 3 == 2) {
                q_data.emplace_back(m, 50.0);  // constant: ties
            } else {
                q_data.push_back(random_series(rng, m));
            }
        }
        p_data[lanes - 1].assign(n, 50.0);
        // Scalar references per band and lane, for each lane's own p and
        // for p shared from lane 0 (as pairs from one matrix row are).
        std::vector<std::vector<double>> own(bands.size());
        std::vector<std::vector<double>> shared(bands.size());
        for (std::size_t k = 0; k < bands.size(); ++k) {
            for (std::size_t b = 0; b < lanes; ++b) {
                own[k].push_back(scalar_dtw(p_data[b].data(), n,
                                            q_data[b].data(), m, bands[k]));
                shared[k].push_back(scalar_dtw(p_data[0].data(), n,
                                               q_data[b].data(), m, bands[k]));
            }
        }
        for (Path path : supported_paths()) {
            const KernelTable& kernels = kernels_for(path);
            for (std::size_t count = 1; count <= kernels.dtw_batch_width;
                 ++count) {
                const bool share_p = count % 2 == 0;
                std::vector<const double*> ps;
                std::vector<const double*> qs;
                for (std::size_t b = 0; b < count; ++b) {
                    ps.push_back(p_data[share_p ? 0 : b].data());
                    qs.push_back(q_data[b].data());
                }
                for (std::size_t k = 0; k < bands.size(); ++k) {
                    std::vector<double> out(count, -1.0);
                    kernels.dtw_distance_batch(ps.data(), qs.data(), count, n,
                                               m, bands[k], batch_scratch,
                                               out.data());
                    for (std::size_t b = 0; b < count; ++b) {
                        EXPECT_EQ(share_p ? shared[k][b] : own[k][b], out[b])
                            << to_string(path) << " n=" << n << " m=" << m
                            << " band=" << bands[k] << " count=" << count
                            << " lane=" << b;
                    }
                }
            }
        }
    }
}

TEST(SimdDtwTest, DistanceMatrixAndCellCountersIdenticalAcrossPaths) {
    // End-to-end through cluster::dtw_distance_matrix: forcing each path
    // must leave every matrix entry and the cluster.dtw.* counters
    // bit-identical (the acceptance criterion for cluster.dtw.cells).
    std::mt19937 rng(2016);
    const la::FlatMatrix series = random_set(rng, 6, 96);

    const PathGuard guard;
    set_path(Path::kScalar);
    obs::MetricsRegistry scalar_metrics;
    const la::FlatMatrix expected =
        cluster::dtw_distance_matrix(series, 8, &scalar_metrics);
    const auto scalar_counters = scalar_metrics.snapshot().counters;
    ASSERT_NE(scalar_counters.find("cluster.dtw.cells"),
              scalar_counters.end());

    for (Path path : vector_paths()) {
        set_path(path);
        obs::MetricsRegistry metrics;
        const la::FlatMatrix actual =
            cluster::dtw_distance_matrix(series, 8, &metrics);
        for (std::size_t i = 0; i < series.size(); ++i) {
            for (std::size_t j = 0; j < series.size(); ++j) {
                EXPECT_EQ(expected(i, j), actual(i, j)) << to_string(path);
            }
        }
        EXPECT_EQ(scalar_counters, metrics.snapshot().counters)
            << to_string(path);
    }
}

TEST(SimdDtwTest, DistanceMatrixAtFleetShapeIdenticalAcrossPaths) {
    // The shape the fleet's DTW search runs: a box of 24 series of five
    // days at 96 samples per day, unconstrained. Full strips, lane
    // groups that share p and partial groups at chunk ends are all
    // exercised. A banded 7-series set (n not a multiple of any lane
    // width; 21 pairs, so the last batch is partial) covers the rest of
    // the matrix loop's batching. Matrix and counters must match the
    // scalar run.
    std::mt19937 rng(480);
    struct Case {
        la::FlatMatrix series;
        int band;
    };
    const Case cases[] = {{random_set(rng, 24, 480), -1},
                          {random_set(rng, 7, 96), 8}};

    const PathGuard guard;
    for (const Case& c : cases) {
        const std::size_t n = c.series.rows();
        const std::size_t len = c.series.cols();
        set_path(Path::kScalar);
        obs::MetricsRegistry scalar_metrics;
        const la::FlatMatrix expected =
            cluster::dtw_distance_matrix(c.series, c.band, &scalar_metrics);
        const auto scalar_counters = scalar_metrics.snapshot().counters;
        const std::uint64_t pairs = n * (n - 1) / 2;
        EXPECT_EQ(scalar_counters.at("cluster.dtw.pairs"), pairs);
        EXPECT_EQ(scalar_counters.at("cluster.dtw.cells"),
                  pairs * cluster::dtw_cell_count(len, len, c.band));
        if (c.band < 0) {
            EXPECT_EQ(scalar_counters.at("cluster.dtw.cells"), pairs * len * len);
        }

        for (Path path : vector_paths()) {
            set_path(path);
            obs::MetricsRegistry metrics;
            const la::FlatMatrix actual =
                cluster::dtw_distance_matrix(c.series, c.band, &metrics);
            EXPECT_EQ(expected, actual) << to_string(path) << ", n " << n;
            EXPECT_EQ(scalar_counters, metrics.snapshot().counters)
                << to_string(path) << ", n " << n;
        }
    }
}

// ---------------------------------------------------------------------
// MLP kernels

/// Shapes covering full vectors, tails, and sub-width layers for every
/// compiled lane width (2, 4, 8).
const std::vector<std::pair<std::size_t, std::size_t>>& mlp_shapes() {
    static const std::vector<std::pair<std::size_t, std::size_t>> shapes{
        {1, 1},  {2, 3},  {3, 2},  {4, 4},  {5, 7},  {7, 5},
        {8, 8},  {8, 12}, {12, 8}, {9, 16}, {16, 9}, {17, 31},
        {31, 17}, {33, 33},
    };
    return shapes;
}

TEST(SimdMlpTest, ForwardLayerWithinUlpBound) {
    std::mt19937 rng(123);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (const auto& [fan_in, fan_out] : mlp_shapes()) {
        std::vector<double> weights(fan_in * fan_out);
        std::vector<double> biases(fan_out);
        std::vector<double> in(fan_in);
        for (double& w : weights) w = dist(rng);
        for (double& b : biases) b = dist(rng);
        for (double& x : in) x = dist(rng);

        std::vector<double> expected(fan_out);
        scalar_table().mlp_forward_layer(
            weights.data(), biases.data(), in.data(), fan_in, fan_out,
            expected.data());
        for (Path path : vector_paths()) {
            std::vector<double> actual(fan_out, -1.0);
            kernels_for(path).mlp_forward_layer(weights.data(), biases.data(),
                                                in.data(), fan_in, fan_out,
                                                actual.data());
            for (std::size_t j = 0; j < fan_out; ++j) {
                EXPECT_LE(ulp_distance(expected[j], actual[j]),
                          kMlpForwardMaxUlps)
                    << to_string(path) << " at j=" << j << " shape ("
                    << fan_in << ", " << fan_out << "): " << expected[j]
                    << " vs " << actual[j];
            }
        }
    }
}

TEST(SimdMlpTest, ForwardLayerTailLanesAreScalarExact) {
    // The remainder loop must evaluate the identical expression as the
    // scalar kernel: with fan_in < every vector width, all paths are
    // forced into the tail and must be bit-identical, not just ULP-close.
    std::mt19937 rng(321);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    const std::size_t fan_in = 1;  // below every lane width
    const std::size_t fan_out = 5;
    std::vector<double> weights(fan_in * fan_out);
    std::vector<double> biases(fan_out);
    std::vector<double> in(fan_in);
    for (double& w : weights) w = dist(rng);
    for (double& b : biases) b = dist(rng);
    for (double& x : in) x = dist(rng);
    std::vector<double> expected(fan_out);
    scalar_table().mlp_forward_layer(weights.data(), biases.data(),
                                            in.data(), fan_in, fan_out,
                                            expected.data());
    for (Path path : vector_paths()) {
        std::vector<double> actual(fan_out);
        kernels_for(path).mlp_forward_layer(weights.data(), biases.data(),
                                            in.data(), fan_in, fan_out,
                                            actual.data());
        for (std::size_t j = 0; j < fan_out; ++j) {
            EXPECT_EQ(expected[j], actual[j]) << to_string(path);
        }
    }
}

// ---------------------------------------------------------------------
// Lane-batched MLP training

/// A multiple of neither 4 nor 8, so refills leave lanes idle at the end.
constexpr std::size_t kLaneNets = 19;

/// One network of the lane-training scenario: its examples (6 lags plus
/// one seasonal lag, the forecaster's 7-input shape) and the options of
/// a cold call and of a warm call that continues its weights and
/// velocities.
struct LaneNet {
    la::FlatMatrix inputs;
    std::vector<double> targets;
    forecast::MlpTrainOptions cold;
    forecast::MlpTrainOptions warm;
};

/// What one network's two train calls produced.
struct LaneOutcome {
    double cold_loss = 0.0;
    double warm_loss = 0.0;
    std::uint64_t cold_epochs = 0;
    std::uint64_t warm_epochs = 0;
    std::vector<double> cold_predictions;  ///< on every example
    std::vector<double> warm_predictions;
};

/// 19 networks, each on its own noisy daily wave with its own seeds, so
/// they stop at different epochs. Network 18 never runs out of patience
/// and stops at the 80-epoch cap; networks 5 and 11 carry their own
/// momentum and weight decay.
std::vector<LaneNet> lane_nets() {
    constexpr double kTwoPi = 6.283185307179586;
    std::vector<LaneNet> nets(kLaneNets);
    for (std::size_t n = 0; n < kLaneNets; ++n) {
        std::mt19937 rng(static_cast<unsigned>(1000 + n));
        std::normal_distribution<double> noise(
            0.0, 0.02 * static_cast<double>(n % 5));
        std::vector<double> xs(200);
        for (std::size_t t = 0; t < xs.size(); ++t) {
            const auto tt = static_cast<double>(t);
            xs[t] = 0.5 + 0.3 * std::sin(kTwoPi * tt / 24.0 + 0.3 * static_cast<double>(n)) +
                    0.1 * std::sin(kTwoPi * tt / static_cast<double>(7 + n)) +
                    noise(rng);
        }
        ts::make_lag_dataset_flat(xs, 6, 24, nets[n].inputs, nets[n].targets);
        nets[n].cold.seed = static_cast<unsigned>(200 + n);
        nets[n].warm.seed = static_cast<unsigned>(300 + n);
        nets[n].warm.epochs = 12;
        nets[n].warm.learning_rate = 0.01;
    }
    nets[5].cold.momentum = 0.8;
    nets[11].cold.weight_decay = 1e-4;
    nets[18].cold.patience = 1000;
    return nets;
}

/// Scenario network `n` with `layer_sizes` ({7, hidden..., 1}).
forecast::MlpNetwork lane_network(std::size_t n, const std::vector<int>& layer_sizes) {
    return forecast::MlpNetwork(layer_sizes, static_cast<unsigned>(100 + n));
}

std::vector<double> predict_all(const forecast::MlpNetwork& net,
                                const la::FlatMatrix& inputs) {
    std::vector<double> out;
    for (std::size_t r = 0; r < inputs.rows(); ++r) {
        out.push_back(net.predict(inputs[r]));
    }
    return out;
}

/// Trains every scenario network on its own, one train() call at a time.
std::vector<LaneOutcome> train_lane_nets_alone(std::vector<LaneNet> nets,
                                               const std::vector<int>& layer_sizes) {
    std::vector<LaneOutcome> outcomes(nets.size());
    for (std::size_t n = 0; n < nets.size(); ++n) {
        obs::MetricsRegistry metrics;
        nets[n].cold.metrics = &metrics;
        nets[n].warm.metrics = &metrics;
        forecast::MlpNetwork net = lane_network(n, layer_sizes);
        LaneOutcome& o = outcomes[n];
        o.cold_loss = net.train(nets[n].inputs, nets[n].targets, nets[n].cold);
        o.cold_epochs = metrics.snapshot().counter("forecast.mlp.epochs");
        o.cold_predictions = predict_all(net, nets[n].inputs);
        o.warm_loss = net.train(nets[n].inputs, nets[n].targets, nets[n].warm);
        o.warm_epochs = metrics.snapshot().counter("forecast.mlp.epochs");
        o.warm_predictions = predict_all(net, nets[n].inputs);
    }
    return outcomes;
}

std::string lane_digest(const std::vector<LaneOutcome>& outcomes) {
    std::uint64_t hash = exec::kFnv1a64Offset;
    for (const LaneOutcome& o : outcomes) {
        exec::mix_double(hash, o.cold_loss);
        exec::mix_double(hash, o.warm_loss);
        exec::mix_u64(hash, o.cold_epochs);
        exec::mix_u64(hash, o.warm_epochs);
        for (const double p : o.cold_predictions) exec::mix_double(hash, p);
        for (const double p : o.warm_predictions) exec::mix_double(hash, p);
    }
    return exec::hex16(hash);
}

/// Trains the scenario networks together: one batch train() call for
/// the cold round and one for the warm round.
std::vector<LaneOutcome> train_lane_nets_batched(std::vector<LaneNet> nets,
                                                 const std::vector<int>& layer_sizes) {
    std::vector<obs::MetricsRegistry> metrics(nets.size());
    std::vector<forecast::MlpNetwork> networks;
    for (std::size_t n = 0; n < nets.size(); ++n) {
        networks.push_back(lane_network(n, layer_sizes));
        nets[n].cold.metrics = &metrics[n];
        nets[n].warm.metrics = &metrics[n];
    }
    std::vector<LaneOutcome> outcomes(nets.size());
    for (const bool warm : {false, true}) {
        std::vector<forecast::MlpTrainJob> jobs;
        for (std::size_t n = 0; n < nets.size(); ++n) {
            jobs.push_back(forecast::MlpTrainJob{
                &networks[n], &nets[n].inputs, nets[n].targets,
                warm ? nets[n].warm : nets[n].cold});
        }
        forecast::train(jobs);
        for (std::size_t n = 0; n < nets.size(); ++n) {
            LaneOutcome& o = outcomes[n];
            (warm ? o.warm_loss : o.cold_loss) = jobs[n].loss;
            (warm ? o.warm_epochs : o.cold_epochs) =
                metrics[n].snapshot().counter("forecast.mlp.epochs");
            (warm ? o.warm_predictions : o.cold_predictions) =
                predict_all(networks[n], nets[n].inputs);
        }
    }
    return outcomes;
}

TEST(SimdMlpTest, LaneBatchedTrainingMatchesOneAtATime) {
    // Digests of the 7→12→1 tanh scenario trained one network at a time
    // by the per-network SGD loop that lane-batched training replaced,
    // per path: the batched kernel must reproduce that loop's arithmetic
    // exactly. The two-hidden-layer 7→11→6→1 networks backpropagate
    // through a hidden layer with unit counts off every vector width;
    // batched must equal alone for them too.
    const std::map<Path, std::string> pinned{
        {Path::kScalar, "e587f9563359fe4d"},
        {Path::kAvx2, "aa2ace014f8a390f"},
        {Path::kAvx512, "79bb17195d63ad8a"},
    };
    const PathGuard guard;
    const std::vector<LaneNet> nets = lane_nets();
    const std::vector<int> shallow{7, 12, 1};
    const std::vector<int> deep{7, 11, 6, 1};
    for (Path path : supported_paths()) {
        set_path(path);
        for (const std::vector<int>& sizes : {shallow, deep}) {
            const auto where = [&](std::size_t n) {
                return std::string(to_string(path)) + " layers " +
                       std::to_string(sizes.size()) + " net " + std::to_string(n);
            };
            const std::vector<LaneOutcome> alone = train_lane_nets_alone(nets, sizes);
            const std::vector<LaneOutcome> batched =
                train_lane_nets_batched(nets, sizes);
            ASSERT_EQ(alone.size(), batched.size());
            std::set<std::uint64_t> stop_epochs;
            for (std::size_t n = 0; n < alone.size(); ++n) {
                const LaneOutcome& a = alone[n];
                const LaneOutcome& b = batched[n];
                EXPECT_EQ(ulp_distance(a.cold_loss, b.cold_loss), 0u) << where(n);
                EXPECT_EQ(ulp_distance(a.warm_loss, b.warm_loss), 0u) << where(n);
                EXPECT_EQ(a.cold_epochs, b.cold_epochs) << where(n);
                EXPECT_EQ(a.warm_epochs, b.warm_epochs) << where(n);
                EXPECT_EQ(a.cold_predictions, b.cold_predictions) << where(n);
                EXPECT_EQ(a.warm_predictions, b.warm_predictions) << where(n);
                stop_epochs.insert(a.cold_epochs);
            }
            // The scenario exercises refills: networks stop at many
            // different epochs, and the patient one runs to the cap.
            EXPECT_GT(stop_epochs.size(), 4u) << where(0);
            EXPECT_EQ(alone[18].cold_epochs, 80u) << where(18);
            if (sizes == shallow) {
                EXPECT_EQ(lane_digest(alone), pinned.at(path)) << to_string(path);
                EXPECT_EQ(lane_digest(batched), pinned.at(path)) << to_string(path);
            }
        }
    }
}

TEST(SimdMlpTest, NetworkPredictAndTrainCloseAcrossPaths) {
    // End-to-end through forecast::MlpNetwork: an identical seed trained
    // under each path. Training chaotically amplifies the forward pass's
    // ULP-level reassociation, so only loose relative agreement is
    // required here (the golden suite pins the full-pipeline outcome).
    std::mt19937 rng(31415);
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    const std::size_t examples = 24;
    la::FlatMatrix inputs(examples, 8);
    std::vector<double> targets;
    for (std::size_t e = 0; e < examples; ++e) {
        const std::span<double> x = inputs[e];
        for (double& v : x) v = dist(rng);
        targets.push_back(0.3 * x[0] + 0.5 * x[7] + 0.05 * dist(rng));
    }
    forecast::MlpTrainOptions options;
    options.epochs = 5;
    options.validation_fraction = 0.0;
    options.seed = 97;

    const PathGuard guard;
    set_path(Path::kScalar);
    forecast::MlpNetwork scalar_net({8, 12, 1}, 7);
    scalar_net.train(inputs, targets, options);
    const double scalar_pred = scalar_net.predict(inputs[0]);

    for (Path path : vector_paths()) {
        set_path(path);
        forecast::MlpNetwork net({8, 12, 1}, 7);
        net.train(inputs, targets, options);
        const double pred = net.predict(inputs[0]);
        EXPECT_NEAR(scalar_pred, pred,
                    1e-6 * std::max(1.0, std::fabs(scalar_pred)))
            << to_string(path);
    }
}

}  // namespace
}  // namespace atm::simd
