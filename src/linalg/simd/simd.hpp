#pragma once

#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

/// Runtime-dispatched SIMD kernels for the two pipeline hot loops: the
/// banded DTW recurrence and the MLP forward/backward/update passes
/// (DESIGN.md §7.13).
///
/// Dispatch model: every binary carries the scalar reference kernels plus
/// whichever vector translation units the target architecture compiles
/// (AVX2/AVX-512 on x86-64; other targets run scalar). The active path is
/// chosen once — CPUID probe for the best supported ISA, overridable with
/// the ATM_SIMD environment variable or the CLI `--simd` flag — and every
/// kernel call goes through one function-pointer table, so any path can
/// be forced for testing, reproduction, and differential comparison.
///
/// FP tolerance policy (the contract tests/test_simd.cpp and the golden
/// suite enforce):
///   * DTW is **bit-identical on every path**. The vector kernel runs one
///     pair per lane and sweeps each strip of kStripRows DP rows in
///     skewed order (row r of the strip computes column s − r at step
///     s), so cells are visited in a different order than the scalar
///     kernel's row by row. Per-cell arithmetic is unchanged: every cell
///     evaluates (p − q)², min(min(up-left, up), left) and one add —
///     never fused (-ffp-contract=off) — on the same three neighbours,
///     and out-of-band neighbours are +inf exactly as in the scalar
///     rows. A cell's value depends only on its operands, never on when
///     it is computed, so the visiting order cannot change any bit.
///   * MLP backprop deltas and SGD/momentum updates are **bit-identical**:
///     they vectorize across units/weights while keeping each element's
///     accumulation order unchanged.
///   * MLP forward dot-products **reassociate** (lane-partial sums +
///     horizontal reduce): each layer's pre-activation may differ from
///     scalar by a few ULP (kMlpForwardMaxUlps bounds one call on
///     well-scaled inputs). Training then amplifies that seed difference
///     chaotically across epochs, so end-to-end forecasts on vectorized
///     paths are pinned by the tolerance-checked golden variant
///     (kGoldenMaxUlps + exact ticket counts) rather than byte identity;
///     the scalar path stays byte-identical to the checked-in golden.
namespace atm::simd {

/// Instruction-set paths a build may carry. kScalar is always compiled
/// and is the reference every other path is differentially tested
/// against; the vector paths exist only on their architecture. kNeon is
/// a name only: no NEON kernels are built, so forcing it fails as "not
/// compiled into this binary".
enum class Path : int {
    kScalar = 0,
    kAvx2,
    kAvx512,
    kNeon,
};

/// Reusable scratch for the DTW kernels, grown on demand and never
/// shrunk (steady-state calls allocate nothing). The scalar path uses
/// `prev`/`curr` as the two rolling DP *rows*. The vector path keeps one
/// lane-interleaved DP row in `prev`, updated in place strip by strip,
/// stages the input series lane-interleaved in `lanes_p`/`lanes_q`, and
/// keeps the per-row band windows in `jlo`/`jhi`. Not thread-safe: one
/// scratch per thread/task.
struct DtwScratch {
    std::vector<double> prev;
    std::vector<double> curr;
    std::vector<double> lanes_p;
    std::vector<double> lanes_q;
    std::vector<std::size_t> jlo;
    std::vector<std::size_t> jhi;
};

/// The per-path kernel table. All pointers are non-null in every
/// registered table.
struct KernelTable {
    Path path;

    /// Pairs the batched DTW kernel folds into one pass (1 on the scalar
    /// path, the register lane count on vector paths). Callers size their
    /// flush groups with this.
    std::size_t dtw_batch_width;

    /// Batched banded DTW over `count` ≤ dtw_batch_width non-empty pairs
    /// that all share the same lengths (n, m) and band (band < 0 =
    /// unconstrained): writes out[b] = DTW(ps[b], qs[b]) for b < count.
    /// The scalar path runs the reference row recurrence pair by pair.
    /// Vector paths run one pair per lane in register-blocked strips of
    /// rows — identical band windows across lanes, per-cell arithmetic
    /// exactly the scalar sequence — so every lane's result is
    /// bit-identical to the scalar kernel's for finite inputs (NaN
    /// propagation is unspecified — the pipeline repairs series before
    /// DTW). This is the one DTW entry point: single pairs pass count = 1.
    void (*dtw_distance_batch)(const double* const* ps,
                               const double* const* qs, std::size_t count,
                               std::size_t n, std::size_t m, int band,
                               DtwScratch& scratch, double* out);

    /// One MLP layer's pre-activations: pre[j] = biases[j] +
    /// dot(weights[j*fan_in ..], in) for j in [0, fan_out). The dot
    /// product may reassociate (see tolerance policy above); the caller
    /// applies the activation.
    void (*mlp_forward_layer)(const double* weights, const double* biases,
                              const double* in, std::size_t fan_in,
                              std::size_t fan_out, double* pre);

    /// Raw backprop sums: delta[j] = sum_k next_weights[k*width + j] *
    /// next_delta[k], k ascending — bit-identical to scalar (the k-order
    /// per element is preserved; vectorization is across j). The caller
    /// multiplies by the activation gradient.
    void (*mlp_backprop_delta)(const double* next_weights,
                               const double* next_delta, std::size_t width,
                               std::size_t next_fan_out, double* delta);

    /// One layer's SGD + momentum weight update (biases stay with the
    /// caller): for each unit j and input i,
    ///   grad = deltas[j]*in[i] + weight_decay*w[j*fan_in+i]
    ///   vel  = momentum*vel - lr*grad;  w += vel
    /// Element-wise with unchanged per-element order: bit-identical.
    void (*mlp_sgd_layer)(double* weights, double* velocity, const double* in,
                          const double* deltas, std::size_t fan_in,
                          std::size_t fan_out, double lr, double momentum,
                          double weight_decay);
};

/// Documented differential bounds (see tolerance policy above).
/// One forward-layer call on well-scaled inputs (|weights| ≲ 1, |acts|
/// ≲ a few): lane-partitioned summation of L terms perturbs the dot
/// product by at most ~L·eps relative to the term magnitudes, far below
/// this bound; the slack covers cancellation-heavy draws.
inline constexpr std::uint64_t kMlpForwardMaxUlps = 4096;
/// End-to-end golden bound for vectorized paths: APE aggregates after
/// full MLP training runs. Training chaotically amplifies the per-call
/// reassociation seed, so this is an empirical envelope (measured ≲1e-9
/// relative on the golden scenario) — ticket counts, signatures, and DTW
/// counters must still match *exactly*.
inline constexpr std::uint64_t kGoldenMaxUlps = std::uint64_t{1} << 32;

/// ULP distance between two finite doubles (0 when bit-equal, including
/// across ±0.0); max() when either is NaN or they differ in sign.
std::uint64_t ulp_distance(double a, double b);

const char* to_string(Path path);

/// Parses "scalar" | "avx2" | "avx512" | "neon". Throws
/// std::invalid_argument on anything else.
Path parse_path(const std::string& name);

/// Paths whose kernels are compiled into this binary (always includes
/// kScalar), in ascending preference order.
std::vector<Path> compiled_paths();

/// Compiled paths this machine's CPU can actually execute.
std::vector<Path> supported_paths();

/// The most-preferred supported path (what auto-dispatch picks).
Path best_supported_path();

/// The active path. First use resolves it: the ATM_SIMD environment
/// variable if set (throwing std::invalid_argument on unknown or
/// unsupported values), otherwise best_supported_path().
Path active_path();

/// The active path's kernel table (same resolution as active_path()).
const KernelTable& active_kernels();

/// Forces the active path; throws std::invalid_argument if `path` is not
/// compiled in or not supported by this CPU. Takes effect for subsequent
/// kernel calls process-wide (the fleet driver records the path in its
/// metrics report, and the checkpoint journal header binds it, so a
/// resumed run never mixes paths).
void set_path(Path path);

/// Kernel table for an explicitly chosen path (throws like set_path).
/// Lets tests and benchmarks compare paths without mutating the global.
const KernelTable& kernels_for(Path path);

}  // namespace atm::simd
