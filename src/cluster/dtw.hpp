#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/flat_matrix.hpp"
#include "linalg/simd/simd.hpp"

namespace atm::exec {
class CancellationToken;
}
namespace atm::obs {
class MetricsRegistry;
}

namespace atm::cluster {

/// Reusable scratch for the DTW kernels: the rolling DP rows of
/// `dtw_distance` (owned by the SIMD kernel layer — the scalar path uses
/// two rolling rows, the vector paths one lane-interleaved row), grown on
/// demand and never shrunk. One workspace serves any sequence of calls of
/// any sizes (each call re-initializes the cells it uses), so the steady
/// state of a pair loop — same-length series, one workspace — performs
/// zero heap allocations per call. Not thread-safe: one workspace per
/// thread/task.
struct DtwWorkspace {
    simd::DtwScratch scratch;
};

/// Dynamic-time-warping dissimilarity between two series (Section III-A).
///
/// Implements the paper's recurrence exactly:
///   λ(i,j) = d(p_i, q_j) + min{λ(i−1,j−1), λ(i−1,j), λ(i,j−1)}
/// with squared pointwise distance d(p_i, q_j) = (p_i − q_j)².
/// Returns λ(n, m), the cumulative cost of the optimal warping path.
/// An empty series yields +infinity against a non-empty one and 0 against
/// another empty one.
///
/// `band` restricts the warp to a Sakoe–Chiba band of half-width `band`
/// around the diagonal (after length normalization); band < 0 (default)
/// means unconstrained. Banding is an optimization the paper does not
/// discuss; with band < 0 the result is the textbook DTW value.
///
/// The workspace overload reuses `workspace`'s DP state instead of
/// allocating fresh storage; the banded kernel touches only the band
/// window, so it is O(band) per row instead of O(m). Both overloads
/// return bit-identical values. The recurrence runs as a batch of one on
/// the active simd::KernelTable path (scalar row DP or the vectorized
/// strip kernel); all paths are bit-identical for finite inputs
/// (simd.hpp's tolerance policy), so the choice is pure performance.
double dtw_distance(std::span<const double> p, std::span<const double> q,
                    int band, DtwWorkspace& workspace);
double dtw_distance(std::span<const double> p, std::span<const double> q,
                    int band = -1);

/// Number of DP cells `dtw_distance` evaluates for series lengths (n, m)
/// at the given band — the unit of DTW work the metrics report counts.
/// Mirrors the banded loop bounds exactly, so instrumented cell counters
/// are exact, deterministic, and O(n) to compute (vs O(n·m) to run).
std::uint64_t dtw_cell_count(std::size_t n, std::size_t m, int band = -1);

/// Pairwise DTW distance matrix over a series set (one series per row of
/// `series`, so every pair has the same len x len shape), as one
/// contiguous n x n block. Symmetric with a zero diagonal; only the upper
/// triangle is computed, serially on the calling thread — the fleet's
/// box loop is the program's one level of parallelism. O(n² · len²), the
/// dominant cost of the DTW signature search. Zero-length rows give the
/// all-zero matrix. When `metrics` is non-null the call records the
/// `cluster.dtw.pairs` (n(n−1)/2) and `cluster.dtw.cells`
/// (pairs × dtw_cell_count) counters. When `cancel` is non-null it is
/// checked once per pair ("search.dtw") so a cancelled box abandons the
/// loop promptly. The pairs share one DtwWorkspace owned by the call, so
/// its allocations do not grow with the number of series.
la::FlatMatrix dtw_distance_matrix(
    const la::FlatMatrix& series, int band = -1,
    obs::MetricsRegistry* metrics = nullptr,
    const exec::CancellationToken* cancel = nullptr);

/// Full DTW alignment: the optimal warping path as (i, j) index pairs
/// (0-based, monotone, from (0, 0) to (n-1, m-1)) plus the cumulative
/// cost λ(n, m). Uses O(n·m) memory — one contiguous DP block — for
/// backtracking; intended for inspection/diagnostics, not the inner
/// clustering loop. An empty input series yields an empty path with
/// infinite (or zero, if both empty) distance.
struct DtwAlignment {
    std::vector<std::pair<std::size_t, std::size_t>> path;
    double distance = 0.0;
};
DtwAlignment dtw_align(std::span<const double> p, std::span<const double> q);

}  // namespace atm::cluster
