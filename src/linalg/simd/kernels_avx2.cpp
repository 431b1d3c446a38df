// AVX2 instantiation of the generic DTW/MLP kernels. Compiled with
// -mavx2 -ffp-contract=off (and deliberately NOT -mfma: contraction of
// mul+add into FMA would change results and break the DTW bit-identity
// contract). Only dispatched after __builtin_cpu_supports("avx2").

#include <immintrin.h>

#include "linalg/simd/kernels_mlp.hpp"
#include "linalg/simd/kernels_wavefront.hpp"
#include "linalg/simd/simd.hpp"

namespace atm::simd {
namespace {

struct VecAvx2 {
    static constexpr std::size_t kWidth = 4;
    // DTW rows per strip: 4 rows' left/up-left/p registers fit the
    // 16-register file alongside the row-0 load and temporaries.
    static constexpr std::size_t kStripRows = 4;
    // A network's dot products sum 4-wide lane partials (hsum below).
    static constexpr std::size_t kDotBlock = 4;
    using Reg = __m256d;
    static Reg zero() { return _mm256_setzero_pd(); }
    static Reg set1(double x) { return _mm256_set1_pd(x); }
    static Reg loadu(const double* p) { return _mm256_loadu_pd(p); }
    static void storeu(double* p, Reg r) { _mm256_storeu_pd(p, r); }
    static Reg add(Reg a, Reg b) { return _mm256_add_pd(a, b); }
    static Reg sub(Reg a, Reg b) { return _mm256_sub_pd(a, b); }
    static Reg mul(Reg a, Reg b) { return _mm256_mul_pd(a, b); }
    static Reg min(Reg a, Reg b) { return _mm256_min_pd(a, b); }
    static double hsum(Reg r) {
        const __m128d lo = _mm256_castpd256_pd128(r);
        const __m128d hi = _mm256_extractf128_pd(r, 1);
        const __m128d pair = _mm_add_pd(lo, hi);
        const __m128d swapped = _mm_unpackhi_pd(pair, pair);
        return _mm_cvtsd_f64(_mm_add_sd(pair, swapped));
    }
};

void dtw_distance_batch_avx2(const double* const* ps, const double* const* qs,
                             std::size_t count, std::size_t n, std::size_t m,
                             int band, DtwScratch& scratch, double* out) {
    dtw_distance_batch_vec<VecAvx2>(ps, qs, count, n, m, band, scratch, out);
}

void mlp_forward_layer_avx2(const double* weights, const double* biases,
                            const double* in, std::size_t fan_in,
                            std::size_t fan_out, double* pre) {
    mlp_forward_layer_vec<VecAvx2>(weights, biases, in, fan_in, fan_out, pre);
}

// libm per value, as on the scalar path (simd.hpp's tolerance policy).
void mlp_activate_n_avx2(const double* in, double* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = mlp_activate(in[i]);
}

void mlp_train_epoch_avx2(const MlpLaneEpoch& epoch) {
    mlp_train_epoch_vec<VecAvx2>(epoch);
}

void mlp_train_one_avx2(const MlpLaneEpoch& epoch) {
    mlp_train_epoch_vec<OneLane<VecAvx2::kDotBlock, VecAvx2>>(epoch);
}

}  // namespace

const KernelTable& avx2_kernel_table() {
    static const KernelTable table{
        Path::kAvx2,
        /*dtw_batch_width=*/VecAvx2::kWidth,
        dtw_distance_batch_avx2,
        mlp_forward_layer_avx2,
        mlp_activate_n_avx2,
        /*mlp_lanes=*/VecAvx2::kWidth,
        mlp_train_epoch_avx2,
        mlp_train_one_avx2,
    };
    return table;
}

}  // namespace atm::simd
