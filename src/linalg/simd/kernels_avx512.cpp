// AVX-512 instantiation of the generic DTW/MLP kernels. Compiled with
// -mavx512f -ffp-contract=off, so the compiler fuses nothing: the only
// fused multiply-adds are the explicit intrinsics of VecAvx512::tanh,
// which mirror the ones glibc's FMA build of expm1 runs. Only dispatched
// after __builtin_cpu_supports("avx512f"); the 512-bit fused
// multiply-adds are AVX-512F instructions, so no separate FMA check is
// needed.

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "linalg/simd/kernels_mlp.hpp"
#include "linalg/simd/kernels_wavefront.hpp"
#include "linalg/simd/simd.hpp"

namespace atm::simd {
namespace {

// Bit-level helpers of tanh. Shifts and conversions use their
// zero-masked forms with every lane selected: the plain ones pass an
// _mm512_undefined_epi32() register through, which g++ reports as
// -Wmaybe-uninitialized.
using Bits = __m512i;
constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

Bits bits_of(__m512d x) { return _mm512_castpd_si512(x); }
__m512d from_bits(Bits b) { return _mm512_castsi512_pd(b); }
Bits splat(std::uint64_t b) {
    return _mm512_set1_epi64(static_cast<long long>(b));
}
/// `magnitude` (non-negative) carrying the sign bits `sign`.
__m512d with_sign(double magnitude, Bits sign) {
    return from_bits(_mm512_or_epi64(bits_of(_mm512_set1_pd(magnitude)), sign));
}
/// Lanes whose high word of |x| (glibc's `hx`) is at least `high`, or
/// below it, from |x|'s bits.
__mmask8 high_word_at_least(Bits abs_bits, std::uint32_t high) {
    return _mm512_cmpge_epu64_mask(abs_bits, splat(std::uint64_t{high} << 32));
}
__mmask8 high_word_below(Bits abs_bits, std::uint32_t high) {
    return _mm512_cmplt_epu64_mask(abs_bits, splat(std::uint64_t{high} << 32));
}
/// Adds k to the binary exponent of y (glibc's SET_HIGH_WORD(y, high +
/// (k << 20))): k << 52 has a zero low word, so the 64-bit add changes
/// the high word exactly as the 32-bit one does.
__m512d add_to_exponent(__m512d y, Bits k) {
    return from_bits(
        _mm512_add_epi64(bits_of(y), _mm512_maskz_slli_epi64(0xFF, k, 52)));
}

/// glibc 2.36's expm1 (sysdeps/ieee754/dbl-64/s_expm1.c as the x86_64
/// multiarch FMA build compiles it, which libm's IFUNC picks on FMA
/// hardware), every lane, for finite |y| ≥ 2^-54 with −56·ln2 < y <
/// 709: each lane evaluates every branch and keeps its own. Every fused
/// step is one of the built code's: hi, R1, R2, R3, r1, 3 − r1·hfx,
/// 6 − r·t, r·e − hxs, (e − c)·r − c and the k = ±1 returns.
__m512d expm1_lanes(__m512d y) {
    constexpr double kLn2Hi = 0x1.62e42feep-1;
    constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
    constexpr double kInvLn2 = 0x1.71547652b82fep+0;
    constexpr double kQ1 = -0x1.11111111110f4p-5;
    constexpr double kQ2 = 0x1.a01a019fe5585p-10;
    constexpr double kQ3 = -0x1.4ce199eaadbb7p-14;
    constexpr double kQ4 = 0x1.0cfca86e65239p-18;
    constexpr double kQ5 = -0x1.afdb76e09c32dp-23;
    const auto set1 = [](double v) { return _mm512_set1_pd(v); };

    const Bits sign = _mm512_and_epi64(bits_of(y), splat(kSignBit));
    const Bits abs_bits = _mm512_and_epi64(bits_of(y), splat(~kSignBit));

    // Argument reduction y = k·ln2 + r with r = hi − lo and correction c,
    // from t = k as a double: 0 when |y| ≤ 0.5·ln2, ±1 below 1.5·ln2,
    // else trunc(invln2·y ± 0.5), a separate multiply and add. glibc's
    // k = ±1 branch (hi = y ∓ ln2_hi, lo = ±ln2_lo) is the general one
    // at t = ±1 bit for bit, and t = +0 leaves r = y and c = 0 as its
    // k = 0 branch does.
    const __m512d k_general = _mm512_maskz_roundscale_pd(
        0xFF,
        _mm512_add_pd(_mm512_mul_pd(set1(kInvLn2), y), with_sign(0.5, sign)),
        _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    __m512d t = _mm512_maskz_mov_pd(high_word_at_least(abs_bits, 0x3fd62e43),
                                    with_sign(1.0, sign));
    t = _mm512_mask_mov_pd(t, high_word_at_least(abs_bits, 0x3ff0a2b2),
                           k_general);
    const Bits k = _mm512_maskz_cvtepi32_epi64(
        0xFF, _mm512_maskz_cvttpd_epi32(0xFF, t));
    const __m512d hi = _mm512_fnmadd_pd(t, set1(kLn2Hi), y);
    const __m512d lo = _mm512_mul_pd(t, set1(kLn2Lo));
    const __m512d r = _mm512_sub_pd(hi, lo);
    const __m512d c = _mm512_sub_pd(_mm512_sub_pd(hi, r), lo);

    // The rational approximation on the reduced argument (Estrin form).
    const __m512d hfx = _mm512_mul_pd(r, set1(0.5));
    const __m512d hxs = _mm512_mul_pd(r, hfx);
    const __m512d r1a = _mm512_fmadd_pd(hxs, set1(kQ1), set1(1.0));
    const __m512d r2 = _mm512_fmadd_pd(hxs, set1(kQ3), set1(kQ2));
    const __m512d r3 = _mm512_fmadd_pd(hxs, set1(kQ5), set1(kQ4));
    const __m512d h2 = _mm512_mul_pd(hxs, hxs);
    const __m512d h4 = _mm512_mul_pd(h2, h2);
    const __m512d r1 =
        _mm512_fmadd_pd(h4, r3, _mm512_fmadd_pd(h2, r2, r1a));
    const __m512d tt = _mm512_fnmadd_pd(r1, hfx, set1(3.0));
    const __m512d e = _mm512_mul_pd(
        _mm512_div_pd(_mm512_sub_pd(r1, tt), _mm512_fnmadd_pd(r, tt, set1(6.0))),
        hxs);

    // Reconstruction, one candidate per glibc branch.
    const __m512d at_0 = _mm512_sub_pd(r, _mm512_fmsub_pd(e, r, hxs));
    const __m512d ek = _mm512_sub_pd(
        _mm512_fmsub_pd(_mm512_sub_pd(e, c), r, c), hxs);
    const __m512d at_minus_1 =
        _mm512_fmadd_pd(set1(0.5), _mm512_sub_pd(r, ek), set1(-0.5));
    // k = 1 (0.5·ln2 < y < 1.5·ln2) is glibc's only branch on r itself.
    const __m512d at_1 = _mm512_mask_mov_pd(
        _mm512_fmadd_pd(_mm512_sub_pd(r, ek), set1(2.0), set1(1.0)),
        _mm512_cmp_pd_mask(r, set1(-0.25), _CMP_LT_OQ),
        _mm512_mul_pd(_mm512_sub_pd(ek, _mm512_add_pd(r, set1(0.5))),
                      set1(-2.0)));
    const __m512d far = _mm512_sub_pd(
        add_to_exponent(_mm512_sub_pd(set1(1.0), _mm512_sub_pd(ek, r)), k),
        set1(1.0));
    // k < 20: t = 1 − 2^-k; 20 ≤ k ≤ 56: t = 2^-k.
    const __m512d one_minus = from_bits(_mm512_maskz_slli_epi64(
        0xFF,
        _mm512_sub_epi64(splat(0x3ff00000),
                         _mm512_maskz_srlv_epi64(0xFF, splat(0x200000), k)),
        32));
    const __m512d near = add_to_exponent(
        _mm512_sub_pd(one_minus, _mm512_sub_pd(ek, r)), k);
    const __m512d pow_minus =
        from_bits(_mm512_maskz_slli_epi64(0xFF, _mm512_sub_epi64(splat(0x3ff), k), 52));
    const __m512d mid = add_to_exponent(
        _mm512_add_pd(_mm512_sub_pd(r, _mm512_add_pd(ek, pow_minus)), set1(1.0)),
        k);

    const auto k_is = [&](std::int64_t v) {
        return _mm512_cmpeq_epi64_mask(k, _mm512_set1_epi64(v));
    };
    __m512d out = _mm512_mask_mov_pd(
        mid, _mm512_cmplt_epi64_mask(k, _mm512_set1_epi64(20)), near);
    out = _mm512_mask_mov_pd(
        out,
        _mm512_cmple_epi64_mask(k, _mm512_set1_epi64(-2)) |
            _mm512_cmpgt_epi64_mask(k, _mm512_set1_epi64(56)),
        far);
    out = _mm512_mask_mov_pd(out, k_is(1), at_1);
    out = _mm512_mask_mov_pd(out, k_is(-1), at_minus_1);
    return _mm512_mask_mov_pd(out, k_is(0), at_0);
}

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

    /// glibc 2.36's tanh (fdlibm's s_tanh.c) over expm1_lanes, bit for
    /// bit, on every input: |x| < 2^-55 (±0 and subnormals included)
    /// gives x·(1 + x); |x| ≥ 1 gives 1 − 2/(expm1(2|x|) + 2), smaller
    /// |x| gives −t/(t + 2) with t = expm1(−2|x|); |x| ≥ 22 gives
    /// 1 − tiny, which rounds to 1; the sign is x's; ±inf and NaN give
    /// 1/x ± 1. The doublings are exact, so they may be products.
    static Reg tanh(Reg x) {
        const Bits sign = _mm512_and_epi64(bits_of(x), splat(kSignBit));
        const Bits abs_bits = _mm512_and_epi64(bits_of(x), splat(~kSignBit));
        const __mmask8 at_least_one = high_word_at_least(abs_bits, 0x3ff00000);
        const Reg t = expm1_lanes(_mm512_mul_pd(
            from_bits(abs_bits),
            _mm512_mask_mov_pd(set1(-2.0), at_least_one, set1(2.0))));
        const Reg d = add(t, set1(2.0));
        Reg z = _mm512_mask_mov_pd(
            _mm512_div_pd(from_bits(_mm512_xor_epi64(bits_of(t), splat(kSignBit))), d),
            at_least_one, sub(set1(1.0), _mm512_div_pd(set1(2.0), d)));
        z = _mm512_mask_mov_pd(z, high_word_at_least(abs_bits, 0x40360000),
                               set1(1.0));
        z = from_bits(_mm512_xor_epi64(bits_of(z), sign));
        z = _mm512_mask_mov_pd(z, high_word_below(abs_bits, 0x3c800000),
                               mul(add(set1(1.0), x), x));
        return _mm512_mask_mov_pd(
            z, high_word_at_least(abs_bits, 0x7ff00000),
            add(_mm512_div_pd(set1(1.0), x), with_sign(1.0, sign)));
    }

    /// out[i] = tanh(in[i]) for i < n: 8-wide blocks, then one masked
    /// block for the tail (its unloaded lanes compute tanh(+0)).
    static void activate_n(const double* in, double* out, std::size_t n) {
        std::size_t i = 0;
        for (; i + kWidth <= n; i += kWidth) storeu(out + i, tanh(loadu(in + i)));
        if (i < n) {
            const auto tail = static_cast<__mmask8>((1u << (n - i)) - 1u);
            _mm512_mask_storeu_pd(out + i, tail,
                                  tanh(_mm512_maskz_loadu_pd(tail, in + i)));
        }
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

void mlp_activate_n_avx512(const double* in, double* out, std::size_t n) {
    VecAvx512::activate_n(in, out, n);
}

void mlp_train_epoch_avx512(const MlpLaneEpoch& epoch) {
    mlp_train_epoch_vec<VecAvx512>(epoch);
}

// A lone network's backprop and SGD stay scalar here: 8-wide blocks
// across its units and weights measured slower than scalar at the
// forecaster's 7→12→1 shape (BENCH_kernels.json). Its hidden units go
// through the vector tanh (12 units: one block and a masked tail).
struct OneLaneAvx512 : OneLane<VecAvx512::kDotBlock> {
    static void activate_n(const double* in, double* out, std::size_t n) {
        VecAvx512::activate_n(in, out, n);
    }
};

void mlp_train_one_avx512(const MlpLaneEpoch& epoch) {
    mlp_train_epoch_vec<OneLaneAvx512>(epoch);
}

}  // namespace

const KernelTable& avx512_kernel_table() {
    static const KernelTable table{
        Path::kAvx512,
        /*dtw_batch_width=*/VecAvx512::kWidth,
        dtw_distance_batch_avx512,
        mlp_forward_layer_avx512,
        mlp_activate_n_avx512,
        /*mlp_lanes=*/VecAvx512::kWidth,
        mlp_train_epoch_avx512,
        mlp_train_one_avx512,
    };
    return table;
}

}  // namespace atm::simd
