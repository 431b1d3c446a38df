#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

/// Runtime-dispatched SIMD kernels for the two pipeline hot loops: the
/// banded DTW recurrence and MLP training (DESIGN.md §7.13).
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
///   * MLP training is **laned across networks**: up to mlp_lanes
///     same-topology networks train together, one per SIMD lane, and
///     each lane runs exactly the per-network arithmetic of its path.
///     Backprop sums and SGD/momentum updates keep the scalar element
///     order, so they are the same on every path.
///   * The hidden activation is **libm's tanh, bit for bit, on every
///     path** (mlp_activate_n). Scalar and AVX2 call std::tanh per value.
///     AVX-512 runs one 8-lane tanh that reproduces glibc 2.36's
///     (fdlibm's tanh over the FMA build of expm1, which x86-64 glibc
///     dispatches to on any FMA CPU, so on every AVX-512 CPU): the same
///     operations, with exactly that build's fused multiply-adds as
///     explicit intrinsics — no approximation and no tolerance.
///     SimdMlpTest.ActivationEqualsLibmBitForBit pins it against the
///     host libm. AVX2 stays on libm: its translation unit is built
///     without FMA, dispatch does not check for FMA, and without FMA
///     glibc runs a different expm1.
///   * MLP forward dot products **reassociate on vector paths**: a
///     W-wide path (W = 4 on AVX2, 8 on AVX-512) sums lane partials over
///     full W-blocks, folds them with that path's horizontal-sum pairing,
///     adds the fold to the bias and then the tail terms in order; the
///     scalar path sums sequentially from the bias. The lane-training
///     kernel and mlp_forward_layer (prediction) share that per-path
///     order, so a network trained in a batch is bit-identical to one
///     trained alone on the same path. Across paths, each pre-activation
///     may differ by a few ULP (kMlpForwardMaxUlps bounds one call on
///     well-scaled inputs). Training then amplifies that seed difference
///     chaotically across epochs, so end-to-end forecasts on vectorized
///     paths are pinned by the tolerance-checked golden variant
///     (kGoldenMaxUlps + exact ticket counts) rather than byte identity;
///     the scalar path stays byte-identical to the checked-in golden.
namespace atm::simd {

/// Instruction-set paths a build may carry. kScalar is always compiled
/// and is the reference every other path is differentially tested
/// against; the vector paths exist only on their architecture.
enum class Path : int {
    kScalar = 0,
    kAvx2,
    kAvx512,
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

/// The hidden-unit activation of the scalar and AVX2 kernels, one value
/// at a time: libm's std::tanh (the output unit is linear). The AVX-512
/// kernels run a vector tanh that equals it bit for bit (tolerance
/// policy above; KernelTable::mlp_activate_n).
inline double mlp_activate(double x) { return std::tanh(x); }

/// Weights and biases of an MLP with `layer_sizes` = {in, hidden..., out}.
/// Lane-interleaved parameter blocks hold them layer by layer — the
/// fan_out × fan_in weights row-major (unit j's row), then the fan_out
/// biases — with element e of lane b at [e * lanes + b].
inline std::size_t mlp_param_count(std::span<const int> layer_sizes) {
    std::size_t count = 0;
    for (std::size_t l = 0; l + 1 < layer_sizes.size(); ++l) {
        const auto fan_out = static_cast<std::size_t>(layer_sizes[l + 1]);
        count += fan_out * static_cast<std::size_t>(layer_sizes[l]) + fan_out;
    }
    return count;
}

/// One lane of a lane-training epoch: one network's examples and
/// per-network hyper-parameters. A lane with null `inputs` is idle: its
/// parameter lanes must be all zero (they then stay zero) and it makes
/// no activation call.
struct MlpLane {
    const double* inputs = nullptr;  ///< examples, row-major, fan_in each
    const double* targets = nullptr;  ///< one per example
    /// The training examples' indices in this epoch's visiting order.
    const std::size_t* order = nullptr;
    double learning_rate = 0.0;
    double momentum = 0.0;
    double weight_decay = 0.0;
    /// Out: Σ err² over the training pass, summed in visiting order.
    double train_loss = 0.0;
    /// Out: Σ err² over examples [train_count, count) after the pass,
    /// summed in order (0 when there are none).
    double val_loss = 0.0;
};

/// Reusable scratch of the lane-training kernel (lane-interleaved
/// activations, pre-activations and deltas plus their layer offsets),
/// grown on demand. One scratch per thread/task.
struct MlpLaneScratch {
    std::vector<double> values;
    std::vector<std::size_t> offsets;
};

/// One epoch of networks that share a topology and an example split,
/// one per lane of the kernel it is passed to (mlp_lanes lanes for
/// mlp_train_epoch, one for mlp_train_one): every active lane's SGD pass
/// over its `order`, then its validation loss.
struct MlpLaneEpoch {
    std::span<const int> layer_sizes;  ///< {in, hidden..., 1}
    std::size_t train_count = 0;  ///< examples visited by the SGD pass
    std::size_t count = 0;        ///< [train_count, count) validate
    MlpLane* lanes = nullptr;     ///< one entry per lane
    /// Lane-interleaved weights/biases and their momentum buffers
    /// (mlp_param_count(layer_sizes) × lanes doubles each), updated in
    /// place.
    double* params = nullptr;
    double* velocity = nullptr;
    MlpLaneScratch* scratch = nullptr;
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
    /// propagation is unspecified — the pipeline rejects a box with a
    /// non-finite sample before DTW). This is the one DTW entry point:
    /// single pairs pass count = 1.
    void (*dtw_distance_batch)(const double* const* ps,
                               const double* const* qs, std::size_t count,
                               std::size_t n, std::size_t m, int band,
                               DtwScratch& scratch, double* out);

    /// One MLP layer's pre-activations for one network (prediction):
    /// pre[j] = biases[j] + dot(weights[j*fan_in ..], in) for j in
    /// [0, fan_out), in the path's forward order (tolerance policy
    /// above); the caller applies the activation.
    void (*mlp_forward_layer)(const double* weights, const double* biases,
                              const double* in, std::size_t fan_in,
                              std::size_t fan_out, double* pre);

    /// out[i] = tanh(in[i]) for i < n, bit-identical to std::tanh on
    /// every path: mlp_activate per value on scalar and AVX2, 8 values
    /// per vector tanh (and one masked tail block) on AVX-512.
    /// Prediction activates its hidden units through this; the training
    /// kernels run the same tanh.
    void (*mlp_activate_n)(const double* in, double* out, std::size_t n);

    /// Networks one mlp_train_epoch call trains side by side (1 on the
    /// scalar path, the register lane count on vector paths).
    std::size_t mlp_lanes;

    /// One lane-training epoch (see MlpLaneEpoch). Per example, each
    /// active lane runs the forward pass in the order mlp_forward_layer
    /// uses, backprop sums over k ascending from 0.0 times the activation
    /// gradient, and grad = δ·in + weight_decay·w; vel = momentum·vel −
    /// lr·grad; w += vel (biases without the decay term), layer by layer
    /// after the whole backward pass — so each lane is bit-identical to
    /// its network trained alone on this path.
    void (*mlp_train_epoch)(const MlpLaneEpoch& epoch);

    /// The same epoch for a lone network (one lane, no idle lanes to
    /// carry), with this path's per-network arithmetic: the kernel over
    /// plain doubles with the path's dot-product blocking, and on AVX2
    /// backprop sums and SGD updates 4-wide across the network's own
    /// units and weights. It trains one network faster than
    /// mlp_train_epoch with every other lane idle (BENCH_kernels.json).
    void (*mlp_train_one)(const MlpLaneEpoch& epoch);
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

/// Parses "scalar" | "avx2" | "avx512". Throws
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
