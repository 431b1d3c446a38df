#include "cluster/dtw.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/simd/simd.hpp"
#include "obs/metrics.hpp"

namespace atm::cluster {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

double dtw_distance(std::span<const double> p, std::span<const double> q,
                    int band, DtwWorkspace& workspace) {
    const std::size_t n = p.size();
    const std::size_t m = q.size();
    if (n == 0 && m == 0) return 0.0;
    if (n == 0 || m == 0) return kInf;

    // The recurrence itself lives in the SIMD kernel layer; a single pair
    // is a batch of one. All paths are bit-identical for finite inputs
    // (simd.hpp).
    const double* ps[1] = {p.data()};
    const double* qs[1] = {q.data()};
    double out = 0.0;
    simd::active_kernels().dtw_distance_batch(ps, qs, 1, n, m, band,
                                              workspace.scratch, &out);
    return out;
}

double dtw_distance(std::span<const double> p, std::span<const double> q, int band) {
    DtwWorkspace workspace;
    return dtw_distance(p, q, band, workspace);
}

std::uint64_t dtw_cell_count(std::size_t n, std::size_t m, int band) {
    if (n == 0 || m == 0) return 0;
    if (band < 0) return static_cast<std::uint64_t>(n) * m;
    const double slope =
        n > 1 ? static_cast<double>(m) / static_cast<double>(n) : 1.0;
    std::uint64_t total = 0;
    for (std::size_t i = 1; i <= n; ++i) {
        const double center = slope * static_cast<double>(i);
        const auto lo = static_cast<long long>(std::floor(center)) - band;
        const auto hi = static_cast<long long>(std::ceil(center)) + band;
        const auto j_lo = std::max(1LL, lo);
        const auto j_hi = std::min(static_cast<long long>(m), hi);
        if (j_hi >= j_lo) total += static_cast<std::uint64_t>(j_hi - j_lo + 1);
    }
    return total;
}

la::FlatMatrix dtw_distance_matrix(const la::FlatMatrix& series, int band,
                                   obs::MetricsRegistry* metrics) {
    const std::size_t n = series.rows();
    const std::size_t len = series.cols();
    la::FlatMatrix dist(n, n, 0.0);
    if (n < 2 || len == 0) return dist;

    // Reused across the matrix's pairs: after the first batch sizes its
    // rows, the pair loop allocates nothing.
    DtwWorkspace workspace;
    // Every pair has the same len x len shape, so pairs flush through the
    // lane-batched kernel (one pair per SIMD lane, scalar-bitwise per lane
    // — simd.hpp) in full batches; results are identical to the per-pair
    // loop for any grouping or path.
    const simd::KernelTable& kernels = simd::active_kernels();
    constexpr std::size_t kMaxBatch = 16;
    const std::size_t width = std::min(kernels.dtw_batch_width, kMaxBatch);
    const double* batch_p[kMaxBatch];
    const double* batch_q[kMaxBatch];
    std::size_t batch_i[kMaxBatch];
    std::size_t batch_j[kMaxBatch];
    std::size_t pending = 0;
    const auto flush = [&] {
        if (pending == 0) return;
        double out[kMaxBatch];
        kernels.dtw_distance_batch(batch_p, batch_q, pending, len, len, band,
                                   workspace.scratch, out);
        for (std::size_t b = 0; b < pending; ++b) {
            dist(batch_i[b], batch_j[b]) = out[b];
            dist(batch_j[b], batch_i[b]) = out[b];
        }
        pending = 0;
    };

    for (std::size_t i = 0; i + 1 < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            if (pending == width) flush();
            batch_p[pending] = series[i].data();
            batch_q[pending] = series[j].data();
            batch_i[pending] = i;
            batch_j[pending] = j;
            ++pending;
        }
    }
    flush();
    if (metrics != nullptr) {
        const std::uint64_t pairs = static_cast<std::uint64_t>(n) * (n - 1) / 2;
        metrics->add("cluster.dtw.pairs", pairs);
        metrics->add("cluster.dtw.cells", pairs * dtw_cell_count(len, len, band));
    }
    return dist;
}

}  // namespace atm::cluster
