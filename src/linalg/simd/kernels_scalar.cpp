// Scalar reference kernels: the historical row-DP DTW loop and MLP
// forward loop (moved here verbatim from cluster/dtw.cpp and
// forecast/nn.cpp — the golden suite pins that the move changed nothing),
// and the lane-training kernel instantiated one lane wide. Every vector
// path is differentially tested against this table.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "linalg/simd/kernels_mlp.hpp"
#include "linalg/simd/simd.hpp"

namespace atm::simd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Grows `row` to at least `size` elements and fills the used prefix with
/// +inf. Capacity is never released, so a reused scratch stops
/// allocating once it has seen its largest series.
void reset_row(std::vector<double>& row, std::size_t size) {
    if (row.size() < size) row.resize(size);
    std::fill(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(size), kInf);
}

double dtw_distance_scalar(const double* p, std::size_t n, const double* q,
                           std::size_t m, int band, DtwScratch& scratch) {
    // Two-row rolling DP over λ(i, j); index 0 is the virtual λ(0, ·) row.
    // Both rows start all-infinite; per DP row only the band window
    // [j_lo − 1, j_hi] is re-reset. That is sound because the window is
    // monotone in i (its center slope·i only moves right), so any cell a
    // later row reads outside an earlier row's window still holds the
    // +inf written here, never a stale value from two rows back.
    reset_row(scratch.prev, m + 1);
    reset_row(scratch.curr, m + 1);
    scratch.prev[0] = 0.0;

    // Effective band half-width scaled for unequal lengths.
    const double slope = n > 1 ? static_cast<double>(m) / static_cast<double>(n) : 1.0;

    for (std::size_t i = 1; i <= n; ++i) {
        std::size_t j_lo = 1;
        std::size_t j_hi = m;
        if (band >= 0) {
            const double center = slope * static_cast<double>(i);
            const auto lo = static_cast<long long>(std::floor(center)) - band;
            const auto hi = static_cast<long long>(std::ceil(center)) + band;
            j_lo = static_cast<std::size_t>(std::max(1LL, lo));
            j_hi = static_cast<std::size_t>(std::min(static_cast<long long>(m), hi));
        }
        double* prev = scratch.prev.data();
        double* curr = scratch.curr.data();
        std::fill(curr + (j_lo - 1), curr + j_hi + 1, kInf);
        for (std::size_t j = j_lo; j <= j_hi; ++j) {
            const double diff = p[i - 1] - q[j - 1];
            const double d = diff * diff;
            const double best =
                std::min({prev[j - 1], prev[j], curr[j - 1]});
            curr[j] = best == kInf ? kInf : d + best;
        }
        std::swap(scratch.prev, scratch.curr);
    }
    return scratch.prev[m];
}

void dtw_distance_batch_scalar(const double* const* ps,
                               const double* const* qs, std::size_t count,
                               std::size_t n, std::size_t m, int band,
                               DtwScratch& scratch, double* out) {
    for (std::size_t b = 0; b < count; ++b) {
        out[b] = dtw_distance_scalar(ps[b], n, qs[b], m, band, scratch);
    }
}

void mlp_forward_layer_scalar(const double* weights, const double* biases,
                              const double* in, std::size_t fan_in,
                              std::size_t fan_out, double* pre) {
    for (std::size_t j = 0; j < fan_out; ++j) {
        double acc = biases[j];
        const double* row = weights + j * fan_in;
        for (std::size_t i = 0; i < fan_in; ++i) acc += row[i] * in[i];
        pre[j] = acc;
    }
}

/// One network at a time, dot products summed sequentially from the
/// bias exactly as mlp_forward_layer_scalar does.
void mlp_train_epoch_scalar(const MlpLaneEpoch& epoch) {
    mlp_train_epoch_vec<OneLane<0>>(epoch);
}

}  // namespace

const KernelTable& scalar_kernel_table() {
    static const KernelTable table{
        Path::kScalar,
        /*dtw_batch_width=*/1,
        dtw_distance_batch_scalar,
        mlp_forward_layer_scalar,
        /*mlp_lanes=*/1,
        mlp_train_epoch_scalar,
        mlp_train_epoch_scalar,
    };
    return table;
}

}  // namespace atm::simd
