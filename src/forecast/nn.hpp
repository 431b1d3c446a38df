#pragma once

#include <cstddef>
#include <random>
#include <span>
#include <vector>

#include "linalg/flat_matrix.hpp"

namespace atm::exec {
class CancellationToken;
}
namespace atm::obs {
class MetricsRegistry;
}

namespace atm::forecast {

/// Activation function for hidden layers of the MLP.
enum class Activation {
    kTanh,
    kRelu,
    kSigmoid,
};

/// Training hyper-parameters for MlpNetwork::train.
struct MlpTrainOptions {
    int epochs = 80;
    double learning_rate = 0.05;
    double momentum = 0.9;
    /// Multiplicative learning-rate decay applied each epoch.
    double lr_decay = 0.98;
    /// Fraction of examples held out (from the end, before shuffling) for
    /// early stopping. 0 disables early stopping.
    double validation_fraction = 0.15;
    /// Stop if validation loss has not improved for this many epochs.
    int patience = 10;
    /// L2 weight penalty.
    double weight_decay = 1e-5;
    unsigned seed = 42;
    /// Optional stage-metrics sink (not owned): train() records
    /// `forecast.mlp.epochs` / `forecast.mlp.examples` counters. Early
    /// stopping is seed-deterministic, so both counters are too.
    obs::MetricsRegistry* metrics = nullptr;
    /// Optional cooperative-cancellation token (not owned): train()
    /// checks it at the top of every epoch ("forecast.mlp.epoch") and
    /// aborts with exec::OperationCancelled when tripped. Null disables
    /// the check.
    const exec::CancellationToken* cancel = nullptr;
};

/// Reusable forward/backprop scratch for MlpNetwork: per-layer
/// activations, pre-activations, and deltas, flattened into three
/// contiguous buffers with per-layer offsets. Sized lazily for whichever
/// topology uses it and re-sized (grown) when a differently-shaped
/// network does — results never depend on what the workspace held
/// before. One workspace per thread/task; sharing one instance across
/// concurrent predict/train calls is a race.
class MlpWorkspace {
  public:
    /// Sizes the buffers for `layer_sizes` ({in, hidden..., out}) if not
    /// already sized for exactly that topology. Idempotent and cheap when
    /// the shape is unchanged — the steady state allocates nothing.
    void ensure(const std::vector<int>& layer_sizes);

  private:
    friend class MlpNetwork;

    std::vector<double> acts;    ///< activations, all layers incl. input
    std::vector<double> pres;    ///< pre-activations, layers 1..L
    std::vector<double> deltas;  ///< backprop deltas, layers 1..L
    /// acts offset of layer l (0-based over layer_sizes).
    std::vector<std::size_t> act_off;
    /// pres/deltas offset of layer l+1 (0-based over weight layers).
    std::vector<std::size_t> unit_off;
    std::vector<int> sized_for;  ///< topology the offsets were built for
};

/// A small fully-connected feed-forward network with one output unit,
/// trained with stochastic gradient descent + momentum and MSE loss.
///
/// This is the from-scratch stand-in for the neural-network temporal model
/// the paper plugs in for signature series (PRACTISE, reference [7]).
/// Hidden layers use the configured activation; the output is linear so
/// the network regresses unbounded targets.
///
/// Weights, velocities, and scratch are stored as contiguous per-layer
/// arrays (weights[j*fan_in + i] is the weight from input i to unit j);
/// with a reused MlpWorkspace the per-sample SGD loop and predict() are
/// allocation-free.
class MlpNetwork {
  public:
    /// `layer_sizes` = {inputs, hidden..., 1}. At least {in, 1}. The final
    /// size must be 1 (scalar regression). Weights are initialized with
    /// Xavier/Glorot uniform scaling from `seed`.
    MlpNetwork(std::vector<int> layer_sizes, Activation activation, unsigned seed);

    /// Forward pass; `inputs` length must equal the input layer size.
    /// The workspace overload is allocation-free once `workspace` has
    /// been sized (first call does that); the plain overload allocates a
    /// fresh local workspace and stays safe for concurrent callers.
    [[nodiscard]] double predict(std::span<const double> inputs) const;
    double predict(std::span<const double> inputs, MlpWorkspace& workspace) const;

    /// Trains on (inputs, target) pairs, one example per row of `inputs`
    /// (ts::make_lag_dataset_flat's output); returns the best
    /// (early-stopped) validation loss, or the final training loss if
    /// validation is off. `workspace` (optional, caller-owned) carries the
    /// forward/backprop scratch; passing one reused across fits makes the
    /// per-sample SGD loop allocation-free. Results are identical with or
    /// without it.
    double train(const la::FlatMatrix& inputs, std::span<const double> targets,
                 const MlpTrainOptions& options,
                 MlpWorkspace* workspace = nullptr);

    [[nodiscard]] int input_size() const { return layer_sizes_.front(); }

    /// Total trainable parameter count (weights + biases).
    [[nodiscard]] std::size_t parameter_count() const;

  private:
    struct Layer {
        int fan_in = 0;
        int fan_out = 0;
        /// weights[j * fan_in + i]: weight from input i to unit j.
        std::vector<double> weights;
        std::vector<double> biases;  ///< biases[j] per unit
        /// Momentum buffers, same shapes.
        std::vector<double> weight_velocity;
        std::vector<double> bias_velocity;
    };

    [[nodiscard]] double activate(double x) const;
    [[nodiscard]] double activate_grad(double activated, double pre) const;

    /// Forward pass into the workspace's activation/pre-activation
    /// buffers (for backprop and prediction).
    void forward(std::span<const double> inputs, MlpWorkspace& workspace) const;

    std::vector<int> layer_sizes_;
    Activation activation_;
    std::vector<Layer> layers_;
    std::mt19937 rng_;
};

}  // namespace atm::forecast
