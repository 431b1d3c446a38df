// AVX-512 instantiation of the generic DTW/MLP kernels. Compiled
// with -mavx512f -ffp-contract=off (no -mfma — see kernels_avx2.cpp).
// Only dispatched after __builtin_cpu_supports("avx512f").

#include <immintrin.h>

#include "linalg/simd/kernels_mlp.hpp"
#include "linalg/simd/kernels_wavefront.hpp"
#include "linalg/simd/simd.hpp"

namespace atm::simd {
namespace {

struct VecAvx512 {
    static constexpr std::size_t kWidth = 8;
    // DTW rows per strip: 8 rows' left/up-left/p registers fit the
    // 32-register file alongside the row-0 load and temporaries.
    static constexpr std::size_t kStripRows = 8;
    // A network's dot products sum 8-wide lane partials (hsum below).
    static constexpr std::size_t kDotBlock = 8;
    using Reg = __m512d;
    static Reg zero() { return _mm512_setzero_pd(); }
    static Reg set1(double x) { return _mm512_set1_pd(x); }
    static Reg loadu(const double* p) { return _mm512_loadu_pd(p); }
    static void storeu(double* p, Reg r) { _mm512_storeu_pd(p, r); }
    static Reg add(Reg a, Reg b) { return _mm512_add_pd(a, b); }
    static Reg sub(Reg a, Reg b) { return _mm512_sub_pd(a, b); }
    static Reg mul(Reg a, Reg b) { return _mm512_mul_pd(a, b); }
    // The plain _mm512_min_pd and _mm512_extractf64x4_pd pass an
    // _mm512_undefined_pd() register through their all-lanes mask, which
    // g++ reports as -Wmaybe-uninitialized wherever they inline. The
    // masked forms below select every lane, so they compute the same
    // values with a defined passthrough.
    static Reg min(Reg a, Reg b) { return _mm512_mask_min_pd(a, 0xFF, a, b); }
    // _mm512_reduce_add_pd's exact pairing: upper + lower 256-bit halves,
    // then upper + lower 128-bit halves, then the last pair.
    static double hsum(Reg r) {
        const __m256d hi = _mm512_maskz_extractf64x4_pd(0xF, r, 1);
        const __m256d lo = _mm512_maskz_extractf64x4_pd(0xF, r, 0);
        const __m256d quad = _mm256_add_pd(hi, lo);
        const __m128d pair = _mm_add_pd(_mm256_extractf128_pd(quad, 1),
                                        _mm256_extractf128_pd(quad, 0));
        return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
    }
};

void dtw_distance_batch_avx512(const double* const* ps,
                               const double* const* qs, std::size_t count,
                               std::size_t n, std::size_t m, int band,
                               DtwScratch& scratch, double* out) {
    dtw_distance_batch_vec<VecAvx512>(ps, qs, count, n, m, band, scratch, out);
}

void mlp_forward_layer_avx512(const double* weights, const double* biases,
                              const double* in, std::size_t fan_in,
                              std::size_t fan_out, double* pre) {
    mlp_forward_layer_vec<VecAvx512>(weights, biases, in, fan_in, fan_out,
                                     pre);
}

void mlp_train_epoch_avx512(const MlpLaneEpoch& epoch) {
    mlp_train_epoch_vec<VecAvx512>(epoch);
}

// A lone network's backprop and SGD stay scalar here: 8-wide blocks
// across its units and weights measured slower than scalar at the
// forecaster's 7→12→1 shape (BENCH_kernels.json).
void mlp_train_one_avx512(const MlpLaneEpoch& epoch) {
    mlp_train_epoch_vec<OneLane<VecAvx512::kDotBlock>>(epoch);
}

}  // namespace

const KernelTable& avx512_kernel_table() {
    static const KernelTable table{
        Path::kAvx512,
        /*dtw_batch_width=*/VecAvx512::kWidth,
        dtw_distance_batch_avx512,
        mlp_forward_layer_avx512,
        /*mlp_lanes=*/VecAvx512::kWidth,
        mlp_train_epoch_avx512,
        mlp_train_one_avx512,
    };
    return table;
}

}  // namespace atm::simd
