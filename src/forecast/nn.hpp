#pragma once

#include <cstddef>
#include <random>
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

namespace atm::forecast {

/// Training hyper-parameters of one network (MlpNetwork::train, or one
/// MlpTrainJob of a batch).
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
    /// checks it ("forecast.mlp.epoch") at the top of every epoch of its
    /// lane group, while this job holds a lane, and aborts the whole
    /// batch with exec::OperationCancelled when tripped. Null disables
    /// the check.
    const exec::CancellationToken* cancel = nullptr;
};

struct MlpTrainJob;

/// Reusable MLP scratch: the per-network forward buffers of predict()
/// (activations and pre-activations flattened into two buffers with
/// per-layer offsets) and the lane-interleaved parameters, velocities and
/// kernel scratch of a train() lane group. Sized lazily for whichever
/// topology uses it and grown when a larger one does — results never
/// depend on what the workspace held before. One workspace per
/// thread/task; sharing one instance across concurrent predict/train
/// calls is a race.
class MlpWorkspace {
  public:
    /// Sizes the forward buffers for `layer_sizes` ({in, hidden..., out})
    /// if not already sized for exactly that topology. Idempotent and
    /// cheap when the shape is unchanged — the steady state allocates
    /// nothing.
    void ensure(const std::vector<int>& layer_sizes);

  private:
    friend class MlpNetwork;
    friend void train(std::span<MlpTrainJob> jobs);

    std::vector<double> acts;    ///< activations, all layers incl. input
    std::vector<double> pres;    ///< pre-activations, layers 1..L
    /// acts offset of layer l (0-based over layer_sizes).
    std::vector<std::size_t> act_off;
    /// pres offset of layer l+1 (0-based over weight layers).
    std::vector<std::size_t> unit_off;
    std::vector<int> sized_for;  ///< topology the offsets were built for

    std::vector<double> lane_params;    ///< lane-interleaved weights/biases
    std::vector<double> lane_velocity;  ///< their momentum buffers
    simd::MlpLaneScratch lane_scratch;
};

/// A small fully-connected feed-forward network with one output unit,
/// trained with stochastic gradient descent + momentum and MSE loss.
///
/// This is the from-scratch stand-in for the neural-network temporal model
/// the paper plugs in for signature series (PRACTISE, reference [7]).
/// Hidden layers use tanh; the output is linear so the network regresses
/// unbounded targets.
///
/// Weights, velocities, and scratch are stored as contiguous per-layer
/// arrays (weights[j*fan_in + i] is the weight from input i to unit j);
/// with a reused MlpWorkspace the per-sample SGD loop and predict() are
/// allocation-free. Training runs through the batch train() below; a
/// network trained in a batch ends bit-identical to one trained alone.
class MlpNetwork {
  public:
    /// `layer_sizes` = {inputs, hidden..., 1}. At least {in, 1}. The final
    /// size must be 1 (scalar regression). Weights are initialized with
    /// Xavier/Glorot uniform scaling from `seed`.
    MlpNetwork(std::vector<int> layer_sizes, unsigned seed);

    /// Forward pass; `inputs` length must equal the input layer size.
    /// The workspace overload is allocation-free once `workspace` has
    /// been sized (first call does that); the plain overload allocates a
    /// fresh local workspace and stays safe for concurrent callers.
    [[nodiscard]] double predict(std::span<const double> inputs) const;
    double predict(std::span<const double> inputs, MlpWorkspace& workspace) const;

    /// Trains on (inputs, target) pairs, one example per row of `inputs`
    /// (ts::make_lag_dataset_flat's output), continuing from the current
    /// weights and velocities; returns the best (early-stopped) validation
    /// loss, or the final training loss if validation is off. A batch of
    /// one of the free train() below.
    double train(const la::FlatMatrix& inputs, std::span<const double> targets,
                 const MlpTrainOptions& options);

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

    friend void train(std::span<MlpTrainJob> jobs);

    /// Forward pass into the workspace's activation/pre-activation
    /// buffers (for backprop and prediction).
    void forward(std::span<const double> inputs, MlpWorkspace& workspace) const;

    std::vector<int> layer_sizes_;
    std::vector<Layer> layers_;
    std::mt19937 rng_;
};

/// One network's share of a batch train() call.
struct MlpTrainJob {
    MlpNetwork* network = nullptr;         ///< trained in place (not owned)
    const la::FlatMatrix* inputs = nullptr;  ///< one example per row
    std::span<const double> targets;
    MlpTrainOptions options;
    /// Out: what MlpNetwork::train returns for this network.
    double loss = 0.0;
};

/// Trains several networks together, one per SIMD lane
/// (simd::KernelTable::mlp_lanes: 8 on AVX-512, 4 on AVX2, 1 on scalar).
/// Jobs that share a topology, example count and validation split form
/// one lane group; when a lane's network stops (patience or its epoch
/// cap) the next job of the group takes the lane at the epoch boundary;
/// once none is pending, the group's last networks finish in their
/// lanes beside idle ones. A group of one (MlpNetwork::train, so serve's
/// warm retrain) trains in one lane (mlp_train_one), which runs a lone
/// network faster than the vector kernel with idle lanes
/// (BENCH_kernels.json). Each network keeps its own shuffle stream
/// (mt19937(options.seed)), learning-rate decay, early stopping and
/// `forecast.mlp.*` counters, and every lane runs its path's per-network
/// arithmetic, so each job ends exactly as if trained alone. Throws
/// std::invalid_argument (before training anything) on a job whose
/// examples do not fit its network; cancellation aborts the whole batch.
/// The call owns one set of lane buffers (an MlpWorkspace), sized once
/// per lane group, so the per-sample and per-epoch loops allocate
/// nothing.
void train(std::span<MlpTrainJob> jobs);

}  // namespace atm::forecast
