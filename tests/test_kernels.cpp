// Kernel regression suite for the contiguous, allocation-free numeric
// kernels (ctest label `kernels`): every rewritten hot loop — banded DTW
// with workspace reuse, the lane-batched distance matrix, the flattened
// MLP, the fused OLS/ridge solvers — is pinned against a straightforward
// reference implementation, bit-identical where the refactor reorders no
// arithmetic, and the zero-allocation steady-state contract is enforced
// with a counting global operator new.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <new>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "cluster/cbc.hpp"
#include "cluster/dtw.hpp"
#include "core/signature_search.hpp"
#include "forecast/mlp_forecaster.hpp"
#include "forecast/nn.hpp"
#include "linalg/flat_matrix.hpp"
#include "linalg/ols.hpp"
#include "linalg/ridge.hpp"
#include "linalg/simd/simd.hpp"
#include "linalg/solve.hpp"
#include "obs/metrics.hpp"
#include "tracegen/generator.hpp"

// ---- Counting allocator -----------------------------------------------------
// Global operator new override counting every heap allocation in the
// binary. Tests measure the count across a region that must be
// allocation-free in the steady state (see DESIGN.md "Verifying the
// allocation-free claim"). The counter is atomic, so it stays
// well-defined whatever thread allocates.

namespace {
std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocation_count() {
    return g_allocations.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace atm;

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> wave(std::size_t n, unsigned seed, double phase) {
    std::mt19937 rng(seed);
    std::normal_distribution<double> noise(0.0, 0.05);
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = 0.5 + 0.4 * std::sin(0.13 * static_cast<double>(i) + phase) +
                 noise(rng);
    }
    return out;
}

/// `count` waves of `n` samples as a series set: row s is
/// wave(n, seed + s, phase_step * s).
la::FlatMatrix waves(std::size_t count, std::size_t n, unsigned seed,
                     double phase_step) {
    la::FlatMatrix out(count, n);
    for (std::size_t s = 0; s < count; ++s) {
        const std::vector<double> w =
            wave(n, seed + static_cast<unsigned>(s), phase_step * static_cast<double>(s));
        std::copy(w.begin(), w.end(), out[s].begin());
    }
    return out;
}

// Textbook full-table DTW — the recurrence straight from the paper, no
// rolling rows, no band. Arithmetic per cell matches the kernel exactly.
double reference_dtw_full(std::span<const double> p, std::span<const double> q) {
    const std::size_t n = p.size();
    const std::size_t m = q.size();
    if (n == 0 && m == 0) return 0.0;
    if (n == 0 || m == 0) return kInf;
    std::vector<std::vector<double>> table(n + 1, std::vector<double>(m + 1, kInf));
    table[0][0] = 0.0;
    for (std::size_t i = 1; i <= n; ++i) {
        for (std::size_t j = 1; j <= m; ++j) {
            const double diff = p[i - 1] - q[j - 1];
            const double d = diff * diff;
            const double best =
                std::min({table[i - 1][j - 1], table[i - 1][j], table[i][j - 1]});
            table[i][j] = best == kInf ? kInf : d + best;
        }
    }
    return table[n][m];
}

// The pre-refactor banded kernel: per-call DP-row allocations and a full
// O(m) row reset per DP row (instead of the band window only). Same band
// bounds, same cell arithmetic.
double reference_dtw_banded(std::span<const double> p, std::span<const double> q,
                            int band) {
    const std::size_t n = p.size();
    const std::size_t m = q.size();
    if (n == 0 && m == 0) return 0.0;
    if (n == 0 || m == 0) return kInf;
    std::vector<double> prev(m + 1, kInf);
    std::vector<double> curr(m + 1, kInf);
    prev[0] = 0.0;
    const double slope =
        n > 1 ? static_cast<double>(m) / static_cast<double>(n) : 1.0;
    for (std::size_t i = 1; i <= n; ++i) {
        std::fill(curr.begin(), curr.end(), kInf);
        std::size_t j_lo = 1;
        std::size_t j_hi = m;
        if (band >= 0) {
            const double center = slope * static_cast<double>(i);
            const auto lo = static_cast<long long>(std::floor(center)) - band;
            const auto hi = static_cast<long long>(std::ceil(center)) + band;
            j_lo = static_cast<std::size_t>(std::max(1LL, lo));
            j_hi = static_cast<std::size_t>(std::min(static_cast<long long>(m), hi));
        }
        for (std::size_t j = j_lo; j <= j_hi; ++j) {
            const double diff = p[i - 1] - q[j - 1];
            const double d = diff * diff;
            const double best = std::min({prev[j - 1], prev[j], curr[j - 1]});
            curr[j] = best == kInf ? kInf : d + best;
        }
        std::swap(prev, curr);
    }
    return prev[m];
}

// ---- DTW -------------------------------------------------------------------

TEST(KernelsDtwTest, UnbandedMatchesFullTableReferenceBitExactly) {
    for (const auto& [np, nq] : {std::pair<std::size_t, std::size_t>{96, 96},
                                 {96, 131},
                                 {1, 96},
                                 {17, 3}}) {
        const std::vector<double> p = wave(np, 1, 0.0);
        const std::vector<double> q = wave(nq, 2, 0.9);
        EXPECT_EQ(cluster::dtw_distance(p, q), reference_dtw_full(p, q))
            << np << "x" << nq;
    }
}

TEST(KernelsDtwTest, BandedMatchesFullRowResetReferenceBitExactly) {
    // The band-window-only row reset must be invisible in the result: the
    // window is monotone in i, so cells outside it still hold the +inf
    // the call wrote initially, exactly like the full per-row reset.
    for (const int band : {0, 1, 4, 8, 50}) {
        for (const auto& [np, nq] : {std::pair<std::size_t, std::size_t>{96, 96},
                                     {96, 131},
                                     {131, 96},
                                     {7, 96}}) {
            const std::vector<double> p = wave(np, 3, 0.2);
            const std::vector<double> q = wave(nq, 4, 1.3);
            EXPECT_EQ(cluster::dtw_distance(p, q, band),
                      reference_dtw_banded(p, q, band))
                << "band=" << band << " " << np << "x" << nq;
        }
    }
}

TEST(KernelsDtwTest, WorkspaceReuseAcrossSizesMatchesFreshWorkspaces) {
    // One workspace carried through pairs of different lengths and bands
    // must give the same answers as a fresh workspace per call — each
    // call owns every cell it reads.
    cluster::DtwWorkspace shared;
    const std::vector<std::size_t> sizes{96, 33, 131, 5, 96};
    for (std::size_t a = 0; a < sizes.size(); ++a) {
        for (const int band : {-1, 3, 8}) {
            const std::vector<double> p = wave(sizes[a], 10 + static_cast<unsigned>(a), 0.1);
            const std::vector<double> q =
                wave(sizes[(a + 1) % sizes.size()], 20 + static_cast<unsigned>(a), 0.7);
            cluster::DtwWorkspace fresh;
            EXPECT_EQ(cluster::dtw_distance(p, q, band, shared),
                      cluster::dtw_distance(p, q, band, fresh))
                << "pair " << a << " band " << band;
        }
    }
}

TEST(KernelsDtwTest, SteadyStatePairLoopDoesNotAllocate) {
    const std::vector<double> p = wave(96, 5, 0.0);
    const std::vector<double> q = wave(96, 6, 0.5);
    cluster::DtwWorkspace workspace;
    // Warm-up sizes the rows; everything after must be allocation-free.
    (void)cluster::dtw_distance(p, q, 8, workspace);
    (void)cluster::dtw_distance(p, q, -1, workspace);
    const std::uint64_t before = allocation_count();
    double acc = 0.0;
    for (int rep = 0; rep < 25; ++rep) {
        acc += cluster::dtw_distance(p, q, 8, workspace);
        acc += cluster::dtw_distance(p, q, -1, workspace);
    }
    EXPECT_EQ(allocation_count() - before, 0u);
    EXPECT_GT(acc, 0.0);
}

TEST(KernelsDtwTest, DistanceMatrixIsContiguousSymmetricAndPairExact) {
    const la::FlatMatrix series = waves(7, 96, 0, 0.3);
    const la::FlatMatrix dist = cluster::dtw_distance_matrix(series, 8);
    ASSERT_EQ(dist.rows(), series.size());
    ASSERT_EQ(dist.cols(), series.size());
    // One contiguous block, row-major.
    EXPECT_EQ(&dist[1][0], dist.data().data() + series.size());
    for (std::size_t i = 0; i < series.size(); ++i) {
        EXPECT_EQ(dist(i, i), 0.0);
        for (std::size_t j = i + 1; j < series.size(); ++j) {
            EXPECT_EQ(dist(i, j), dist(j, i));
            EXPECT_EQ(dist(i, j), reference_dtw_banded(series[i], series[j], 8));
        }
    }
}

TEST(KernelsDtwTest, MatrixCountsEveryPairOnceWithItsCells) {
    const la::FlatMatrix series = waves(9, 80, 40, 0.2);
    const std::size_t n = series.rows();
    const std::uint64_t pairs = n * (n - 1) / 2;
    obs::MetricsRegistry metrics;
    const la::FlatMatrix dist = cluster::dtw_distance_matrix(series, 6, &metrics);
    const obs::MetricsSnapshot snapshot = metrics.snapshot();
    EXPECT_EQ(snapshot.counter("cluster.dtw.pairs"), pairs);
    EXPECT_EQ(snapshot.counter("cluster.dtw.cells"),
              pairs * cluster::dtw_cell_count(80, 80, 6));
    EXPECT_EQ(dist, cluster::dtw_distance_matrix(series, 6));
}

TEST(KernelsDtwTest, MatrixAllocationsDoNotGrowWithSeriesCount) {
    // The matrix's pairs share one workspace owned by the call: 66 pairs
    // allocate no more than 6 (the result block plus the DP rows, once).
    const la::FlatMatrix few = waves(4, 96, 50, 0.3);
    const la::FlatMatrix many = waves(12, 96, 50, 0.3);
    const auto allocations_for = [](const la::FlatMatrix& series) {
        const std::uint64_t before = allocation_count();
        const la::FlatMatrix dist = cluster::dtw_distance_matrix(series, 8);
        const std::uint64_t used = allocation_count() - before;
        EXPECT_GT(dist(0, 1), 0.0);
        return used;
    };
    (void)allocations_for(few);  // resolves the SIMD dispatch
    EXPECT_EQ(allocations_for(few), allocations_for(many));
}

// ---- FlatMatrix ------------------------------------------------------------

TEST(KernelsFlatMatrixTest, ConvertsFromNestedVectorsAndRejectsRagged) {
    // The conversion copies, so no call site may do it silently.
    static_assert(!std::is_convertible_v<std::vector<std::vector<double>>,
                                         la::FlatMatrix>);
    const std::vector<std::vector<double>> nested{{1.0, 2.0}, {3.0, 4.0}};
    const la::FlatMatrix m(nested);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m(1, 0), 3.0);
    EXPECT_EQ(m[0][1], 2.0);
    const std::vector<std::vector<double>> ragged{{1.0, 2.0}, {3.0}};
    EXPECT_THROW(la::FlatMatrix{ragged}, std::invalid_argument);
}

// ---- MLP -------------------------------------------------------------------

// Nested-vector reference network replicating the historical layout:
// weights[l][j][i] drawn row-by-row from mt19937(seed), tanh hidden
// units, linear output. The flattened MlpNetwork must reproduce its
// forward pass bit-for-bit for the same seed.
struct ReferenceMlp {
    std::vector<std::vector<std::vector<double>>> weights;
    std::vector<std::vector<double>> biases;

    ReferenceMlp(const std::vector<int>& layer_sizes, unsigned seed) {
        std::mt19937 rng(seed);
        for (std::size_t l = 0; l + 1 < layer_sizes.size(); ++l) {
            const int fan_in = layer_sizes[l];
            const int fan_out = layer_sizes[l + 1];
            const double limit =
                std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
            std::uniform_real_distribution<double> dist(-limit, limit);
            std::vector<std::vector<double>> w(static_cast<std::size_t>(fan_out));
            for (auto& row : w) {
                row.resize(static_cast<std::size_t>(fan_in));
                for (double& x : row) x = dist(rng);
            }
            weights.push_back(std::move(w));
            biases.emplace_back(static_cast<std::size_t>(fan_out), 0.0);
        }
    }

    double predict(std::span<const double> inputs) const {
        std::vector<double> acts(inputs.begin(), inputs.end());
        for (std::size_t l = 0; l < weights.size(); ++l) {
            std::vector<double> next(weights[l].size());
            for (std::size_t j = 0; j < weights[l].size(); ++j) {
                double acc = biases[l][j];
                for (std::size_t i = 0; i < weights[l][j].size(); ++i) {
                    acc += weights[l][j][i] * acts[i];
                }
                next[j] = l + 1 == weights.size() ? acc : std::tanh(acc);
            }
            acts = std::move(next);
        }
        return acts.front();
    }
};

TEST(KernelsMlpTest, FlattenedForwardMatchesNestedReferenceBitExactly) {
    // Bit-exactness vs the nested reference holds on the scalar kernel
    // path only — vectorized forward layers reassociate their dot
    // products (linalg/simd/simd.hpp tolerance policy), so this test
    // pins the scalar path explicitly (and restores the dispatch after).
    const simd::Path ambient = simd::active_path();
    simd::set_path(simd::Path::kScalar);
    const std::vector<int> layer_sizes{8, 6, 4, 1};
    const forecast::MlpNetwork net(layer_sizes, 42);
    const ReferenceMlp reference(layer_sizes, 42);
    for (unsigned s = 0; s < 5; ++s) {
        const std::vector<double> x = wave(8, 100 + s, 0.3 * s);
        EXPECT_EQ(net.predict(x), reference.predict(x)) << "input " << s;
    }
    simd::set_path(ambient);
}

TEST(KernelsMlpTest, TrainAllocationCountIndependentOfEpochs) {
    const std::vector<double> s = wave(140, 13, 0.4);
    la::FlatMatrix inputs(s.size() - 6, 6);
    std::vector<double> targets;
    for (std::size_t i = 6; i < s.size(); ++i) {
        std::copy(s.begin() + static_cast<std::ptrdiff_t>(i - 6),
                  s.begin() + static_cast<std::ptrdiff_t>(i), inputs[i - 6].begin());
        targets.push_back(s[i]);
    }
    // Per-sample SGD must be allocation-free: the only allocations a
    // train() call may make are per-call setup (its lane buffers, the
    // shuffle order vector), never per-epoch or per-sample.
    const auto allocations_for = [&](int epochs) {
        forecast::MlpNetwork net({6, 5, 1}, 3);
        forecast::MlpTrainOptions options;
        options.epochs = 1;
        net.train(inputs, targets, options);  // resolves the SIMD dispatch
        options.epochs = epochs;
        const std::uint64_t before = allocation_count();
        net.train(inputs, targets, options);
        return allocation_count() - before;
    };
    const std::uint64_t few = allocations_for(3);
    const std::uint64_t many = allocations_for(24);
    EXPECT_EQ(few, many) << "per-epoch allocations detected";
}

TEST(KernelsMlpTest, ForecastAllocationsDoNotGrowWithHorizon) {
    // forecast() reuses one feature buffer and one forward workspace over
    // its horizon: 96 steps allocate no more than 4.
    forecast::MlpForecasterOptions options;
    options.train.epochs = 3;
    forecast::MlpForecaster model(options);
    model.fit(wave(480, 17, 0.2));
    const auto allocations_for = [&model](int horizon) {
        const std::uint64_t before = allocation_count();
        const std::vector<double> out = model.forecast(horizon);
        const std::uint64_t used = allocation_count() - before;
        EXPECT_EQ(out.size(), static_cast<std::size_t>(horizon));
        return used;
    };
    EXPECT_EQ(allocations_for(4), allocations_for(96));
}

// ---- OLS / ridge -----------------------------------------------------------

TEST(KernelsOlsTest, ImplicitQMatchesExplicitQrReference) {
    // The fused solver applies Householder reflectors to b in flight; the
    // pre-refactor path multiplied by an explicitly accumulated Qᵀ. Both
    // compute the same projection through differently-ordered sums, so
    // the results agree to rounding (~1e-12 here), not bit-for-bit —
    // which is why the golden fleet suite (1e-9 tolerance on doubles,
    // exact on counters) gates this refactor end-to-end.
    std::mt19937 rng(99);
    std::normal_distribution<double> noise(0.0, 0.1);
    const std::size_t n = 120;
    la::FlatMatrix a(n, 4);
    std::vector<double> b(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double t = static_cast<double>(i) / 10.0;
        a(i, 0) = 1.0;
        a(i, 1) = std::sin(t);
        a(i, 2) = std::cos(0.7 * t);
        a(i, 3) = t;
        b[i] = 2.0 - 0.5 * a(i, 1) + 0.25 * a(i, 2) + 0.1 * t + noise(rng);
    }
    const std::vector<double> fused = la::solve_least_squares(a, b);

    const la::QrResult qr = la::qr_decompose(a);
    std::vector<double> qtb(4, 0.0);
    for (std::size_t j = 0; j < 4; ++j) {
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i) acc += qr.q(i, j) * b[i];
        qtb[j] = acc;
    }
    std::vector<double> reference(4, 0.0);
    for (std::size_t ii = 4; ii-- > 0;) {
        double acc = qtb[ii];
        for (std::size_t j = ii + 1; j < 4; ++j) acc -= qr.r(ii, j) * reference[j];
        const double diag = qr.r(ii, ii);
        reference[ii] = std::abs(diag) < 1e-12 ? 0.0 : acc / diag;
    }
    ASSERT_EQ(fused.size(), reference.size());
    for (std::size_t j = 0; j < 4; ++j) {
        EXPECT_NEAR(fused[j], reference[j], 1e-10) << "coefficient " << j;
    }
}

TEST(KernelsRidgeTest, CenteredColumnFusionIsBitIdenticalToPairwiseReference) {
    const std::vector<double> y = wave(100, 50, 0.2);
    const la::FlatMatrix predictors = waves(3, 100, 51, 0.5);
    const double lambda = 0.75;
    const la::OlsFit fused = la::ridge_fit(y, predictors.row_views(), lambda);

    // Pre-refactor accumulation: re-subtract the means inside every
    // (j, k) product. The fused path centers once; the subtracted values
    // are identical, so every accumulated sum — and hence the solve and
    // the coefficients — must match bit-for-bit.
    const std::size_t n = y.size();
    const std::size_t p = predictors.size();
    const auto mean_of = [](std::span<const double> xs) {
        double acc = 0.0;
        for (double x : xs) acc += x;
        return acc / static_cast<double>(xs.size());
    };
    const double ybar = mean_of(y);
    std::vector<double> xbar(p, 0.0);
    for (std::size_t j = 0; j < p; ++j) xbar[j] = mean_of(predictors[j]);
    la::FlatMatrix gram(p, p);
    std::vector<double> xty(p, 0.0);
    for (std::size_t j = 0; j < p; ++j) {
        for (std::size_t k = j; k < p; ++k) {
            double acc = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                acc += (predictors[j][i] - xbar[j]) * (predictors[k][i] - xbar[k]);
            }
            gram(j, k) = acc;
            gram(k, j) = acc;
        }
        gram(j, j) += lambda;
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            acc += (predictors[j][i] - xbar[j]) * (y[i] - ybar);
        }
        xty[j] = acc;
    }
    const std::vector<double> beta = la::solve_spd(gram, xty);
    std::vector<double> reference(p + 1, 0.0);
    double intercept = ybar;
    for (std::size_t j = 0; j < p; ++j) {
        reference[j + 1] = beta[j];
        intercept -= beta[j] * xbar[j];
    }
    reference[0] = intercept;
    EXPECT_EQ(fused.coefficients, reference);
}

// ---- VIF sweep: closed-form stop vs the QR-only reference ------------------

/// The QR-only multicollinearity sweep: every sweep takes all VIFs through
/// variance_inflation_factors and drops the first largest one above the
/// threshold. reduce_multicollinearity must keep the same set and count
/// the same iterations, checks and removals.
std::vector<std::size_t> reference_reduce(
    std::span<const std::span<const double>> predictors, double threshold,
    obs::MetricsRegistry& metrics) {
    std::vector<std::size_t> kept(predictors.size());
    for (std::size_t i = 0; i < kept.size(); ++i) kept[i] = i;
    while (kept.size() > 1) {
        std::vector<std::span<const double>> current;
        for (std::size_t idx : kept) current.push_back(predictors[idx]);
        const std::vector<double> vifs = la::variance_inflation_factors(current);
        metrics.add("linalg.vif.iterations");
        metrics.add("linalg.vif.checks", vifs.size());
        const auto worst = std::max_element(vifs.begin(), vifs.end()) - vifs.begin();
        if (vifs[static_cast<std::size_t>(worst)] <= threshold) break;
        kept.erase(kept.begin() + worst);
        metrics.add("linalg.vif.removed");
    }
    return kept;
}

/// The `linalg.vif.*` counters a registry holds.
std::map<std::string, std::uint64_t> vif_counters(const obs::MetricsRegistry& m) {
    std::map<std::string, std::uint64_t> out;
    for (const auto& [name, value] : m.snapshot().counters) {
        if (name.starts_with("linalg.vif.")) out[name] = value;
    }
    return out;
}

/// Runs both sweeps on `predictors` (R from cluster::correlation_matrix)
/// and expects the same kept set and counters; returns the removals.
std::uint64_t expect_same_sweep(const la::FlatMatrix& predictors) {
    obs::MetricsRegistry reference_metrics;
    obs::MetricsRegistry metrics;
    const std::vector<std::size_t> reference =
        reference_reduce(predictors.row_views(), 4.0, reference_metrics);
    const std::vector<std::size_t> kept = la::reduce_multicollinearity(
        predictors.row_views(), cluster::correlation_matrix(predictors), 4.0,
        &metrics);
    EXPECT_EQ(kept, reference);
    EXPECT_EQ(vif_counters(metrics), vif_counters(reference_metrics));
    return vif_counters(reference_metrics)["linalg.vif.removed"];
}

/// `count` independent N(0, 1) series of `n` samples.
la::FlatMatrix noise_series(std::size_t count, std::size_t n, unsigned seed) {
    std::mt19937 rng(seed);
    std::normal_distribution<double> noise(0.0, 1.0);
    la::FlatMatrix out(count, n);
    for (double& x : out.data()) x = noise(rng);
    return out;
}

la::FlatMatrix generator_box(std::uint64_t seed, int index) {
    trace::TraceGenOptions options;
    options.seed = seed;
    options.num_days = 5;  // the pipeline's training window: 480 samples
    options.gappy_box_fraction = 0.0;
    options.mean_vms_per_box = 10.0;
    options.min_vms_per_box = 10;
    options.max_vms_per_box = 10;
    return trace::generate_box(options, index).demand_matrix();
}

TEST(KernelsVifTest, SignatureSearchKeepsTheQrSweepsSetOnGeneratorBoxes) {
    // find_signatures end to end, under CBC (R gathered from its ρ) and
    // DTW (R over the medoids): the final signatures and the VIF counters
    // equal the QR-only sweep over the same initial signatures.
    std::uint64_t removed = 0;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        for (int index = 0; index < 12; ++index) {
            const la::FlatMatrix series = generator_box(seed, index);
            for (const core::ClusteringMethod method :
                 {core::ClusteringMethod::kCbc, core::ClusteringMethod::kDtw}) {
                obs::MetricsRegistry metrics;
                core::SignatureSearchOptions options;
                options.method = method;
                options.dtw_band = 8;
                options.metrics = &metrics;
                const core::SignatureSearchResult result =
                    core::find_signatures(series, options);

                obs::MetricsRegistry reference_metrics;
                const std::vector<std::size_t> kept = reference_reduce(
                    series.row_views(result.initial_signatures), 4.0,
                    reference_metrics);
                std::vector<int> expected;
                for (const std::size_t k : kept) {
                    expected.push_back(result.initial_signatures[k]);
                }
                EXPECT_EQ(result.signatures, expected)
                    << "seed " << seed << " box " << index;
                auto reference_counters = vif_counters(reference_metrics);
                EXPECT_EQ(vif_counters(metrics), reference_counters)
                    << "seed " << seed << " box " << index;
                removed += reference_counters["linalg.vif.removed"];
            }
        }
    }
    EXPECT_GT(removed, 0u) << "no box exercised a removal sweep";
}

TEST(KernelsVifTest, ConstantPredictorIsRemovedFirstAsUnderQr) {
    // QR gives a constant series VIF 1e9; its Pearson ρ is 0, so only the
    // zero-variance guard keeps the closed form from keeping it.
    la::FlatMatrix predictors = noise_series(4, 200, 31);
    std::fill(predictors[2].begin(), predictors[2].end(), 3.5);
    EXPECT_EQ(expect_same_sweep(predictors), 1u);
    EXPECT_EQ(la::reduce_multicollinearity(predictors.row_views(),
                                           cluster::correlation_matrix(predictors)),
              (std::vector<std::size_t>{0, 1, 3}));
}

TEST(KernelsVifTest, ExactCollinearTripleRemovesTheLowestIndexTie) {
    // a, b, a + b: every VIF of the triple hits the 1e9 cap, the first is
    // dropped, and R is singular (Cholesky fails or reads > 4).
    la::FlatMatrix predictors = noise_series(4, 200, 41);
    for (std::size_t i = 0; i < 200; ++i) {
        predictors(3, i) = predictors(0, i) + predictors(1, i);
    }
    const std::vector<double> vifs =
        la::variance_inflation_factors(predictors.row_views());
    EXPECT_EQ(vifs[0], 1e9);
    EXPECT_EQ(expect_same_sweep(predictors), 1u);
}

TEST(KernelsVifTest, NearConstantHighMeanSeriesTakesTheQrPath) {
    // Mean 1e4, standard deviation 1e-3: QR's uncentered design loses
    // (mean/std)² of precision here, so the sweep must not trust R.
    la::FlatMatrix predictors = noise_series(4, 480, 51);
    std::mt19937 rng(52);
    std::normal_distribution<double> noise(0.0, 1e-3);
    for (double& x : predictors[1]) x = 1e4 + noise(rng);
    expect_same_sweep(predictors);
}

TEST(KernelsVifTest, MaxVifWithinRoundingOfTheThresholdTakesTheQrPath) {
    // x0 = u, x1 = ρu + √(1−ρ²)w with u, w centered, orthogonal and of
    // equal norm, and ρ² = 3/4: VIF(x0) = VIF(x1) = 1/(1−ρ²) = 4 up to
    // rounding. The closed form cannot confirm such a stop; QR decides.
    const std::size_t n = 480;
    const double pi = std::acos(-1.0);
    const double rho = std::sqrt(0.75);
    la::FlatMatrix predictors(3, n);
    for (std::size_t t = 0; t < n; ++t) {
        const double phase = 2.0 * pi * static_cast<double>(t) / static_cast<double>(n);
        const double u = std::cos(3.0 * phase);
        const double w = std::sin(5.0 * phase);
        predictors(0, t) = u;
        predictors(1, t) = rho * u + std::sqrt(1.0 - rho * rho) * w;
        predictors(2, t) = std::sin(7.0 * phase);
    }
    const std::vector<double> vifs =
        la::variance_inflation_factors(predictors.row_views());
    const double max_vif = *std::max_element(vifs.begin(), vifs.end());
    ASSERT_LT(std::abs(max_vif - 4.0), 1e-12) << max_vif;
    expect_same_sweep(predictors);
}

TEST(KernelsVifTest, RejectsAMisshapenCorrelationMatrix) {
    const la::FlatMatrix predictors = noise_series(3, 50, 61);
    EXPECT_THROW(la::reduce_multicollinearity(predictors.row_views(),
                                              la::FlatMatrix(2, 2)),
                 std::invalid_argument);
}

}  // namespace
