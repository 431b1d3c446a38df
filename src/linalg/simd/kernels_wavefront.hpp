#pragma once

// Generic vectorized DTW kernel bodies, parameterized over a vector-traits
// type V (shared with the MLP kernels of kernels_mlp.hpp) supplying:
//   V::kWidth                      lanes per register (doubles)
//   V::kStripRows                  DTW rows advanced per strip (a power
//                                  of two sized to the register file)
//   V::Reg                         register type
//   V::zero() / V::set1(x)         broadcast constructors
//   V::loadu(p) / V::storeu(p, r)  unaligned load/store
//   V::add / V::sub / V::mul / V::min   lane-wise arithmetic
//   V::hsum(r)                     horizontal sum (MLP prediction only)
// Each ISA translation unit (kernels_avx2.cpp, …) defines its traits and
// instantiates these templates under the matching target flags; this
// header itself must stay ISA-agnostic. All remainder lanes fall back to
// scalar tails that evaluate the identical per-element expressions.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <type_traits>
#include <utility>

#include "linalg/simd/simd.hpp"

namespace atm::simd {

inline constexpr double kDtwInf = std::numeric_limits<double>::infinity();

/// Per-row band windows [jlo[i], jhi[i]], i in [1, n] — the same
/// floor/ceil expressions as the scalar kernel, evaluated once. Windows
/// are always non-empty and both endpoints are nondecreasing in i.
inline void compute_band_windows(std::size_t n, std::size_t m, int band,
                                 std::vector<std::size_t>& jlo,
                                 std::vector<std::size_t>& jhi) {
    if (jlo.size() < n + 1) jlo.resize(n + 1);
    if (jhi.size() < n + 1) jhi.resize(n + 1);
    const double slope =
        n > 1 ? static_cast<double>(m) / static_cast<double>(n) : 1.0;
    for (std::size_t i = 1; i <= n; ++i) {
        std::size_t lo = 1;
        std::size_t hi = m;
        if (band >= 0) {
            const double center = slope * static_cast<double>(i);
            const auto l = static_cast<long long>(std::floor(center)) - band;
            const auto h = static_cast<long long>(std::ceil(center)) + band;
            lo = static_cast<std::size_t>(std::max(1LL, l));
            hi = static_cast<std::size_t>(
                std::min(static_cast<long long>(m), h));
        }
        jlo[i] = lo;
        jhi[i] = hi;
    }
}

/// Calls f(std::integral_constant<std::size_t, r>) for r = R−1 down to 0.
/// The constant index lets the strip's per-row arrays live in registers.
template <std::size_t R, typename F>
[[gnu::always_inline]] inline void for_each_row_desc(F&& f) {
    [&]<std::size_t... k>(std::index_sequence<k...>)
        __attribute__((always_inline)) {
        (f(std::integral_constant<std::size_t, R - 1 - k>{}), ...);
    }(std::make_index_sequence<R>{});
}

/// One strip of R consecutive DP rows i0+1 .. i0+R of a lane group.
///
/// The strip is swept in skewed order: at step s, strip row r computes
/// column j = s − r, so every row's up and up-left neighbours are what
/// row r−1 computed at steps s−1 and s−2 — still in registers (`cur`,
/// `old`). Only row 0 reads the previous strip's last row from `row`
/// (λ(i0, ·), one load per step; its up-left is the previous step's
/// load) and only row R−1 writes the strip's result back into the same
/// buffer, R−1 columns behind row 0's reads. That puts R independent
/// min+add chains in flight per step instead of one.
///
/// A row whose column lies outside its band window [jlo[r], jhi[r]]
/// yields +inf, exactly the value the scalar kernel's reset/never-written
/// cells hold there; in-window cells see the same three neighbours and
/// evaluate the same sub, mul, min(min(up-left, up), left), add. `row`
/// and `ql` are padded by ≥ R columns on both sides, so out-of-window
/// steps read and write padding instead of branching. On exit `row`
/// holds λ(i0+R, ·) over every column the next strip reads. `pl`, `jlo`
/// and `jhi` point at the strip's first row.
template <typename V, std::size_t R>
void dtw_strip(const double* pl, const double* ql, double* row,
               const std::size_t* jlo, const std::size_t* jhi) {
    using Reg = typename V::Reg;
    constexpr auto kW = static_cast<std::ptrdiff_t>(V::kWidth);
    constexpr auto kR = static_cast<std::ptrdiff_t>(R);
    const Reg inf = V::set1(kDtwInf);
    Reg pv[R];   // row r's p, one per lane
    Reg cur[R];  // row r's latest value: its own left neighbour
    Reg old[R];  // the value before that: row r+1's up-left
    for_each_row_desc<R>([&](auto r) {
        pv[r] = V::loadu(pl + r * kW);
        cur[r] = inf;
        old[r] = inf;
    });
    const auto s_begin = static_cast<std::ptrdiff_t>(jlo[0]);
    Reg up_left = V::loadu(row + (s_begin - 1) * kW);

    const auto step = [&](std::ptrdiff_t s, auto masked)
                          __attribute__((always_inline)) {
        // Descending r: row r reads row r−1's registers before row r−1
        // advances them to step s.
        for_each_row_desc<R>([&](auto rc) __attribute__((always_inline)) {
            constexpr std::size_t r = decltype(rc)::value;
            const std::ptrdiff_t j = s - static_cast<std::ptrdiff_t>(r);
            Reg up;
            Reg ul;
            if constexpr (r == 0) {
                up = V::loadu(row + j * kW);
                ul = up_left;
                up_left = up;
            } else {
                up = cur[r - 1];
                ul = old[r - 1];
            }
            const Reg diff = V::sub(pv[r], V::loadu(ql + (j - 1) * kW));
            const Reg cost = V::mul(diff, diff);
            Reg value = V::add(cost, V::min(V::min(ul, up), cur[r]));
            if (decltype(masked)::value &&
                (j < static_cast<std::ptrdiff_t>(jlo[r]) ||
                 j > static_cast<std::ptrdiff_t>(jhi[r]))) {
                value = inf;
            }
            old[r] = cur[r];
            cur[r] = value;
            if constexpr (r == R - 1) V::storeu(row + j * kW, value);
        });
    };

    // Every row is in its window on [full_begin, full_end] (both ends are
    // monotone in r, so the last row bounds the start and row 0 the end);
    // only the ramps around it pay for the window test.
    const auto full_begin = static_cast<std::ptrdiff_t>(jlo[R - 1]) + kR - 1;
    const auto full_end = static_cast<std::ptrdiff_t>(jhi[0]);
    const auto s_end = static_cast<std::ptrdiff_t>(jhi[R - 1]) + kR - 1;
    std::ptrdiff_t s = s_begin;
    if (full_begin <= full_end) {
        for (; s < full_begin; ++s) step(s, std::true_type{});
        for (; s <= full_end; ++s) step(s, std::false_type{});
    }
    // Row R−1 has now written columns [s_begin − R + 1, jhi[R−1]]; the
    // next strip reads from its own jlo − 1 ≥ s_begin − 1, inside that
    // range when R ≥ 2 (an R = 1 strip is always the last one).
    for (; s <= s_end; ++s) step(s, std::true_type{});
}

/// Runs as many R-row strips as fit from row i0 + 1, then hands the
/// remainder to the R/2 strip, so n mod R rows cost log2(R) templates.
template <typename V, std::size_t R>
void dtw_strips(std::size_t i0, std::size_t n, const double* pl,
                const double* ql, double* row, const std::size_t* jlo,
                const std::size_t* jhi) {
    for (; i0 + R <= n; i0 += R) {
        dtw_strip<V, R>(pl + i0 * V::kWidth, ql, row, jlo + i0 + 1,
                        jhi + i0 + 1);
    }
    if constexpr (R > 1) dtw_strips<V, R / 2>(i0, n, pl, ql, row, jlo, jhi);
}

/// Batched DTW: one pair per SIMD lane, rows advanced in register-blocked
/// strips of V::kStripRows (see dtw_strip).
///
/// All `count` pairs share (n, m, band), so every lane has the same band
/// windows and visits the same (i, j) cells — each scalar value widened
/// to a register of per-pair values. Inputs and the DP row are
/// lane-interleaved (`buf[index * kWidth + lane]`) so every access is one
/// contiguous unaligned load/store. Per-cell arithmetic matches the
/// scalar sequence exactly (the scalar `best == inf ? inf : d + best`
/// guard is the plain IEEE add for finite d), so each lane's distance is
/// bit-identical to a per-pair scalar call. Unused lanes replay the last
/// pair; their results are discarded.
template <typename V>
void dtw_distance_batch_vec(const double* const* ps, const double* const* qs,
                            std::size_t count, std::size_t n, std::size_t m,
                            int band, DtwScratch& scratch, double* out) {
    constexpr std::size_t kW = V::kWidth;
    constexpr std::size_t kPad = V::kStripRows;  // columns per side
    // Grows `buf` to `columns` + padding and fills it with `fill`;
    // returns column 0. Padding is touched only by out-of-window steps.
    const auto padded = [](std::vector<double>& buf, std::size_t columns,
                           double fill) {
        const std::size_t size = (columns + 2 * kPad) * kW;
        if (buf.size() < size) buf.resize(size);
        std::fill(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(size),
                  fill);
        return buf.data() + kPad * kW;
    };
    const auto stage = [count](double* lanes, const double* const* series,
                               std::size_t len) {
        for (std::size_t lane = 0; lane < kW; ++lane) {
            const double* x = series[lane < count ? lane : count - 1];
            for (std::size_t k = 0; k < len; ++k) lanes[k * kW + lane] = x[k];
        }
    };
    double* pl = padded(scratch.lanes_p, n, 0.0);
    double* ql = padded(scratch.lanes_q, m, 0.0);
    stage(pl, ps, n);
    stage(ql, qs, m);
    // One DP row, updated in place strip by strip: starts as the virtual
    // row λ(0, ·) = (0, +inf, +inf, …) in every lane.
    double* row = padded(scratch.prev, m + 1, kDtwInf);
    std::fill(row, row + kW, 0.0);

    compute_band_windows(n, m, band, scratch.jlo, scratch.jhi);
    dtw_strips<V, V::kStripRows>(0, n, pl, ql, row, scratch.jlo.data(),
                                 scratch.jhi.data());
    for (std::size_t b = 0; b < count; ++b) out[b] = row[m * kW + b];
}

}  // namespace atm::simd
