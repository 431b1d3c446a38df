#pragma once

// Generic MLP kernel bodies, parameterized over the vector-traits type V
// of kernels_wavefront.hpp (kWidth, Reg, zero, set1, loadu, storeu, add,
// sub, mul, hsum) plus:
//   V::kDotBlock   how one network's dot products are summed: 0 runs
//                  them sequentially from the bias (the scalar path); W
//                  sums lane partials over full W-blocks, folds them with
//                  the W-wide hsum pairing (fold_partials), adds the fold
//                  to the bias, then the tail terms in order
//   V::activate_n  optional: tanh over n contiguous values, bit-identical
//                  to std::tanh (AVX-512's vector tanh). The training
//                  kernel then activates a hidden layer's units of every
//                  lane in one call and zeroes the idle lanes; without
//                  it, each active lane calls mlp_activate (libm) per
//                  unit. Both give std::tanh's bits.
// Each path's translation unit instantiates these under its own target
// flags: the lane-training kernel once over its vector registers and
// once over OneLane for a lone network. Every instantiation
// evaluates a network's forward pass in the same order as
// mlp_forward_layer_vec, which is what makes batched training
// bit-identical to training one network at a time.

#include <cstddef>
#include <type_traits>

#include "linalg/simd/simd.hpp"

namespace atm::simd {

/// One network's layer pre-activations (prediction): lane partials over
/// full kWidth-blocks, the hsum fold, the bias, then the tail in order.
template <typename V>
void mlp_forward_layer_vec(const double* weights, const double* biases,
                           const double* in, std::size_t fan_in,
                           std::size_t fan_out, double* pre) {
    for (std::size_t j = 0; j < fan_out; ++j) {
        const double* row = weights + j * fan_in;
        auto accv = V::zero();
        std::size_t i = 0;
        for (; i + V::kWidth <= fan_in; i += V::kWidth) {
            accv = V::add(accv, V::mul(V::loadu(row + i), V::loadu(in + i)));
        }
        // Lane partials + horizontal sum reassociate the dot product —
        // the one place the tolerance policy allows ULP drift.
        double acc = biases[j] + V::hsum(accv);
        for (; i < fan_in; ++i) acc += row[i] * in[i];
        pre[j] = acc;
    }
}

/// The vector paths' hsum pairing applied across kB partial registers,
/// lane by lane: the upper half is added onto the lower half until one
/// register is left — (p0 + p2) + (p1 + p3) for AVX2, ((p0 + p4) +
/// (p2 + p6)) + ((p1 + p5) + (p3 + p7)) for AVX-512's
/// _mm512_reduce_add_pd order.
template <typename V, std::size_t kB>
typename V::Reg fold_partials(typename V::Reg (&part)[kB]) {
    for (std::size_t half = kB / 2; half > 0; half /= 2) {
        for (std::size_t k = 0; k < half; ++k) {
            part[k] = V::add(part[k], part[k + half]);
        }
    }
    return part[0];
}

/// One-lane traits: the lane-training kernel over plain doubles, for a
/// single network, with a path's per-network dot-product order
/// (kBlock: 0 on the scalar path, else the path's register width).
/// With vector traits R, the backprop sums and the SGD/momentum update
/// run R across the network's own units and weights in full R-blocks
/// (each element's arithmetic unchanged); void leaves them scalar.
template <std::size_t kBlock, typename R = void>
struct OneLane {
    static constexpr std::size_t kWidth = 1;
    static constexpr std::size_t kDotBlock = kBlock;
    using Reg = double;
    static Reg zero() { return 0.0; }
    static Reg set1(double x) { return x; }
    static Reg loadu(const double* p) { return *p; }
    static void storeu(double* p, Reg r) { *p = r; }
    static Reg add(Reg a, Reg b) { return a + b; }
    static Reg sub(Reg a, Reg b) { return a - b; }
    static Reg mul(Reg a, Reg b) { return a * b; }

    /// Backprop sums of units [0, n) of a hidden layer, `width` units
    /// wide, into `delta` (before the activation gradient): Σ_k
    /// next_weights[k * width + j] · next_delta[k], k ascending from 0.0.
    /// Returns n, a multiple of R's width (0 without R).
    static std::size_t backprop_blocks(const double* next_weights,
                                       const double* next_delta,
                                       std::size_t width,
                                       std::size_t next_fan_out, double* delta) {
        std::size_t j = 0;
        if constexpr (!std::is_void_v<R>) {
            for (; j + R::kWidth <= width; j += R::kWidth) {
                auto acc = R::zero();
                for (std::size_t k = 0; k < next_fan_out; ++k) {
                    acc = R::add(acc, R::mul(R::loadu(next_weights + k * width + j),
                                             R::set1(next_delta[k])));
                }
                R::storeu(delta + j, acc);
            }
        }
        return j;
    }

    /// SGD/momentum update of weights [0, n) of one unit's row (delta
    /// `d`): grad = d·in + weight_decay·w; vel = momentum·vel − lr·grad;
    /// w += vel. Returns n, a multiple of R's width (0 without R).
    static std::size_t sgd_blocks(double* row, double* row_vel, const double* in,
                                  std::size_t fan_in, double d, double lr,
                                  double momentum, double weight_decay) {
        std::size_t i = 0;
        if constexpr (!std::is_void_v<R>) {
            const auto dv = R::set1(d);
            const auto lrv = R::set1(lr);
            const auto mov = R::set1(momentum);
            const auto wdv = R::set1(weight_decay);
            for (; i + R::kWidth <= fan_in; i += R::kWidth) {
                const auto w = R::loadu(row + i);
                const auto grad =
                    R::add(R::mul(dv, R::loadu(in + i)), R::mul(wdv, w));
                const auto v =
                    R::sub(R::mul(mov, R::loadu(row_vel + i)), R::mul(lrv, grad));
                R::storeu(row_vel + i, v);
                R::storeu(row + i, R::add(w, v));
            }
        }
        return i;
    }
};

/// One lane-training epoch (KernelTable::mlp_train_epoch, or
/// mlp_train_one over OneLane) across V::kWidth lanes. Every buffer is
/// lane-interleaved (value of lane b at [index * kWidth + b]), so each
/// per-network scalar operation becomes one vector operation on all
/// lanes, in the same order.
template <typename V>
void mlp_train_epoch_vec(const MlpLaneEpoch& epoch) {
    using Reg = typename V::Reg;
    constexpr std::size_t kW = V::kWidth;
    const std::span<const int> sizes = epoch.layer_sizes;
    const std::size_t layers = sizes.size() - 1;
    const auto size_of = [&](std::size_t l) {
        return static_cast<std::size_t>(sizes[l]);
    };

    // Offsets (in values, lanes included): act_off[l] for the activations
    // of layer l (0 = input), unit_off[l] for the pre-activations and
    // deltas of weight layer l, param_off[l] for its weights (its biases
    // follow them).
    MlpLaneScratch& scratch = *epoch.scratch;
    scratch.offsets.resize(3 * layers + 1);
    std::size_t* act_off = scratch.offsets.data();
    std::size_t* unit_off = act_off + layers + 1;
    std::size_t* param_off = unit_off + layers;
    std::size_t acts_total = 0;
    std::size_t units_total = 0;
    std::size_t params_total = 0;
    for (std::size_t l = 0; l <= layers; ++l) {
        act_off[l] = acts_total;
        acts_total += size_of(l) * kW;
        if (l == layers) break;
        unit_off[l] = units_total;
        units_total += size_of(l + 1) * kW;
        param_off[l] = params_total;
        params_total += (size_of(l + 1) * size_of(l) + size_of(l + 1)) * kW;
    }
    scratch.values.resize(acts_total + 2 * units_total + kW);
    double* acts = scratch.values.data();
    double* pres = acts + acts_total;
    double* deltas = pres + units_total;
    double* targets = deltas + units_total;
    double* params = epoch.params;
    double* velocity = epoch.velocity;

    const MlpLane* lanes = epoch.lanes;
    bool active[kW];
    double lr[kW];
    double momentum[kW];
    double decay[kW];
    for (std::size_t b = 0; b < kW; ++b) {
        active[b] = lanes[b].inputs != nullptr;
        lr[b] = lanes[b].learning_rate;
        momentum[b] = lanes[b].momentum;
        decay[b] = lanes[b].weight_decay;
    }
    const Reg lrv = V::loadu(lr);
    const Reg mov = V::loadu(momentum);
    const Reg wdv = V::loadu(decay);
    const std::size_t fan_in0 = size_of(0);

    // Example `row(b)` of every active lane into the input activations
    // and targets; idle lanes read zeros.
    const auto gather = [&](auto row) {
        for (std::size_t b = 0; b < kW; ++b) {
            if (!active[b]) {
                for (std::size_t i = 0; i < fan_in0; ++i) acts[i * kW + b] = 0.0;
                targets[b] = 0.0;
                continue;
            }
            const std::size_t r = row(b);
            const double* x = lanes[b].inputs + r * fan_in0;
            for (std::size_t i = 0; i < fan_in0; ++i) acts[i * kW + b] = x[i];
            targets[b] = lanes[b].targets[r];
        }
    };

    // Forward pass; returns the output minus the target per lane.
    const auto forward = [&]() -> Reg {
        for (std::size_t l = 0; l < layers; ++l) {
            const std::size_t fan_in = size_of(l);
            const std::size_t fan_out = size_of(l + 1);
            const double* weights = params + param_off[l];
            const double* biases = weights + fan_out * fan_in * kW;
            const double* in = acts + act_off[l];
            double* pre = pres + unit_off[l];
            double* out = acts + act_off[l + 1];
            for (std::size_t j = 0; j < fan_out; ++j) {
                const double* row = weights + j * fan_in * kW;
                Reg acc;
                std::size_t i = 0;
                if constexpr (V::kDotBlock > 0) {
                    constexpr std::size_t kB = V::kDotBlock;
                    if (fan_in < kB) {
                        // No full block: the fold of all-zero partials
                        // is +0.0.
                        acc = V::add(V::loadu(biases + j * kW), V::zero());
                    } else {
                        Reg part[kB];
                        for (std::size_t k = 0; k < kB; ++k) part[k] = V::zero();
                        for (; i + kB <= fan_in; i += kB) {
                            for (std::size_t k = 0; k < kB; ++k) {
                                part[k] = V::add(
                                    part[k], V::mul(V::loadu(row + (i + k) * kW),
                                                    V::loadu(in + (i + k) * kW)));
                            }
                        }
                        acc = V::add(V::loadu(biases + j * kW),
                                     fold_partials<V>(part));
                    }
                } else {
                    acc = V::loadu(biases + j * kW);
                }
                for (; i < fan_in; ++i) {
                    acc = V::add(acc, V::mul(V::loadu(row + i * kW),
                                             V::loadu(in + i * kW)));
                }
                V::storeu(pre + j * kW, acc);
            }
            if (l + 1 == layers) {
                // Linear output unit.
                for (std::size_t v = 0; v < fan_out * kW; ++v) out[v] = pre[v];
                continue;
            }
            if constexpr (requires { V::activate_n(pre, out, fan_out); }) {
                V::activate_n(pre, out, fan_out * kW);
                for (std::size_t b = 0; b < kW; ++b) {
                    if (active[b]) continue;
                    for (std::size_t j = 0; j < fan_out; ++j) out[j * kW + b] = 0.0;
                }
            } else {
                for (std::size_t j = 0; j < fan_out; ++j) {
                    for (std::size_t b = 0; b < kW; ++b) {
                        out[j * kW + b] =
                            active[b] ? mlp_activate(pre[j * kW + b]) : 0.0;
                    }
                }
            }
        }
        return V::sub(V::loadu(acts + act_off[layers]), V::loadu(targets));
    };

    // tanh's derivative at activated unit values: 1 − a².
    const auto activation_grad = [&](const double* activated) -> Reg {
        const Reg a = V::loadu(activated);
        return V::sub(V::set1(1.0), V::mul(a, a));
    };

    Reg train_loss = V::zero();
    for (std::size_t t = 0; t < epoch.train_count; ++t) {
        gather([&](std::size_t b) { return lanes[b].order[t]; });
        const Reg err = forward();
        train_loss = V::add(train_loss, V::mul(err, err));

        // Backprop: the output delta is the plain error (linear output,
        // MSE); hidden deltas sum over the next layer's units, k
        // ascending from 0.0, times the activation gradient.
        V::storeu(deltas + unit_off[layers - 1], err);
        for (std::size_t l = layers - 1; l > 0; --l) {
            const std::size_t width = size_of(l);
            const std::size_t next_fan_out = size_of(l + 1);
            const double* next_weights = params + param_off[l];
            const double* next_delta = deltas + unit_off[l];
            double* delta = deltas + unit_off[l - 1];
            const double* activated = acts + act_off[l];
            std::size_t j = 0;
            if constexpr (kW == 1) {
                j = V::backprop_blocks(next_weights, next_delta, width,
                                       next_fan_out, delta);
                for (std::size_t q = 0; q < j; ++q) {
                    delta[q] *= activation_grad(activated + q);
                }
            }
            for (; j < width; ++j) {
                Reg acc = V::zero();
                for (std::size_t k = 0; k < next_fan_out; ++k) {
                    acc = V::add(acc,
                                 V::mul(V::loadu(next_weights + (k * width + j) * kW),
                                        V::loadu(next_delta + k * kW)));
                }
                V::storeu(delta + j * kW,
                          V::mul(acc, activation_grad(activated + j * kW)));
            }
        }

        // SGD + momentum, layer by layer.
        for (std::size_t l = 0; l < layers; ++l) {
            const std::size_t fan_in = size_of(l);
            const std::size_t fan_out = size_of(l + 1);
            double* weights = params + param_off[l];
            double* vel = velocity + param_off[l];
            double* biases = weights + fan_out * fan_in * kW;
            double* bias_vel = vel + fan_out * fan_in * kW;
            const double* in = acts + act_off[l];
            const double* delta = deltas + unit_off[l];
            for (std::size_t j = 0; j < fan_out; ++j) {
                const Reg d = V::loadu(delta + j * kW);
                double* row = weights + j * fan_in * kW;
                double* row_vel = vel + j * fan_in * kW;
                std::size_t i = 0;
                if constexpr (kW == 1) {
                    i = V::sgd_blocks(row, row_vel, in, fan_in, d, lrv, mov, wdv);
                }
                for (; i < fan_in; ++i) {
                    const Reg w = V::loadu(row + i * kW);
                    const Reg grad = V::add(V::mul(d, V::loadu(in + i * kW)),
                                            V::mul(wdv, w));
                    const Reg v = V::sub(V::mul(mov, V::loadu(row_vel + i * kW)),
                                         V::mul(lrv, grad));
                    V::storeu(row_vel + i * kW, v);
                    V::storeu(row + i * kW, V::add(w, v));
                }
                const Reg bv = V::sub(V::mul(mov, V::loadu(bias_vel + j * kW)),
                                      V::mul(lrv, d));
                V::storeu(bias_vel + j * kW, bv);
                V::storeu(biases + j * kW, V::add(V::loadu(biases + j * kW), bv));
            }
        }
    }

    Reg val_loss = V::zero();
    for (std::size_t r = epoch.train_count; r < epoch.count; ++r) {
        gather([r](std::size_t) { return r; });
        const Reg err = forward();
        val_loss = V::add(val_loss, V::mul(err, err));
    }

    double train_out[kW];
    double val_out[kW];
    V::storeu(train_out, train_loss);
    V::storeu(val_out, val_loss);
    for (std::size_t b = 0; b < kW; ++b) {
        epoch.lanes[b].train_loss = train_out[b];
        epoch.lanes[b].val_loss = val_out[b];
    }
}

}  // namespace atm::simd
