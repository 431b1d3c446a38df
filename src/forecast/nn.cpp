#include "forecast/nn.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "exec/cancel.hpp"
#include "linalg/simd/simd.hpp"
#include "obs/metrics.hpp"

namespace atm::forecast {

void MlpWorkspace::ensure(const std::vector<int>& layer_sizes) {
    if (sized_for == layer_sizes) return;
    sized_for = layer_sizes;
    act_off.assign(layer_sizes.size(), 0);
    unit_off.assign(layer_sizes.size() - 1, 0);
    std::size_t acts_total = 0;
    std::size_t units_total = 0;
    for (std::size_t l = 0; l < layer_sizes.size(); ++l) {
        act_off[l] = acts_total;
        acts_total += static_cast<std::size_t>(layer_sizes[l]);
        if (l > 0) {
            unit_off[l - 1] = units_total;
            units_total += static_cast<std::size_t>(layer_sizes[l]);
        }
    }
    // resize (not assign): keep capacity, values are always written by
    // forward/backprop before being read.
    acts.resize(acts_total);
    pres.resize(units_total);
    deltas.resize(units_total);
}

MlpNetwork::MlpNetwork(std::vector<int> layer_sizes, Activation activation,
                       unsigned seed)
    : layer_sizes_(std::move(layer_sizes)), activation_(activation), rng_(seed) {
    if (layer_sizes_.size() < 2) {
        throw std::invalid_argument("MlpNetwork: need at least input and output layer");
    }
    if (layer_sizes_.back() != 1) {
        throw std::invalid_argument("MlpNetwork: output layer must have size 1");
    }
    for (int s : layer_sizes_) {
        if (s < 1) throw std::invalid_argument("MlpNetwork: layer size must be >= 1");
    }
    layers_.resize(layer_sizes_.size() - 1);
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        const int fan_in = layer_sizes_[l];
        const int fan_out = layer_sizes_[l + 1];
        const double limit = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
        std::uniform_real_distribution<double> dist(-limit, limit);
        Layer& layer = layers_[l];
        layer.fan_in = fan_in;
        layer.fan_out = fan_out;
        const auto weight_count =
            static_cast<std::size_t>(fan_out) * static_cast<std::size_t>(fan_in);
        layer.weights.resize(weight_count);
        layer.biases.assign(static_cast<std::size_t>(fan_out), 0.0);
        layer.weight_velocity.assign(weight_count, 0.0);
        layer.bias_velocity.assign(static_cast<std::size_t>(fan_out), 0.0);
        // Row-major draw order matches the historical nested-vector
        // layout (unit j's row, then input i), so a given seed produces
        // the exact same initial network.
        for (double& w : layer.weights) w = dist(rng_);
    }
}

double MlpNetwork::activate(double x) const {
    switch (activation_) {
        case Activation::kTanh: return std::tanh(x);
        case Activation::kRelu: return x > 0.0 ? x : 0.0;
        case Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-x));
    }
    return x;
}

double MlpNetwork::activate_grad(double activated, double pre) const {
    switch (activation_) {
        case Activation::kTanh: return 1.0 - activated * activated;
        case Activation::kRelu: return pre > 0.0 ? 1.0 : 0.0;
        case Activation::kSigmoid: return activated * (1.0 - activated);
    }
    return 1.0;
}

void MlpNetwork::forward(std::span<const double> inputs,
                         MlpWorkspace& ws) const {
    ws.ensure(layer_sizes_);
    std::copy(inputs.begin(), inputs.end(), ws.acts.begin());

    // Dot products run on the active SIMD path; this is the one kernel
    // whose vectorization reassociates FP sums (simd.hpp's tolerance
    // policy), so forecasts on vector paths may drift by ULPs from scalar.
    const simd::KernelTable& kernels = simd::active_kernels();
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        const Layer& layer = layers_[l];
        const double* in = ws.acts.data() + ws.act_off[l];
        const bool is_output = l + 1 == layers_.size();
        double* pre = ws.pres.data() + ws.unit_off[l];
        double* out = ws.acts.data() + ws.act_off[l + 1];
        const auto fan_in = static_cast<std::size_t>(layer.fan_in);
        const auto fan_out = static_cast<std::size_t>(layer.fan_out);
        kernels.mlp_forward_layer(layer.weights.data(), layer.biases.data(),
                                  in, fan_in, fan_out, pre);
        for (std::size_t j = 0; j < fan_out; ++j) {
            out[j] = is_output ? pre[j] : activate(pre[j]);  // linear output unit
        }
    }
}

double MlpNetwork::predict(std::span<const double> inputs,
                           MlpWorkspace& workspace) const {
    if (inputs.size() != static_cast<std::size_t>(layer_sizes_.front())) {
        throw std::invalid_argument("MlpNetwork::predict: input size mismatch");
    }
    forward(inputs, workspace);
    return workspace.acts.back();
}

double MlpNetwork::predict(std::span<const double> inputs) const {
    MlpWorkspace workspace;
    return predict(inputs, workspace);
}

std::size_t MlpNetwork::parameter_count() const {
    std::size_t count = 0;
    for (const Layer& layer : layers_) {
        count += layer.weights.size() + layer.biases.size();
    }
    return count;
}

double MlpNetwork::train(const la::FlatMatrix& inputs,
                         std::span<const double> targets,
                         const MlpTrainOptions& options,
                         MlpWorkspace* workspace) {
    if (inputs.rows() != targets.size()) {
        throw std::invalid_argument("MlpNetwork::train: example count mismatch");
    }
    if (inputs.rows() == 0) {
        throw std::invalid_argument("MlpNetwork::train: no examples");
    }
    if (inputs.cols() != static_cast<std::size_t>(layer_sizes_.front())) {
        throw std::invalid_argument("MlpNetwork::train: input size mismatch");
    }
    const std::size_t count = inputs.rows();
    // Hold out the chronologically last fraction as validation (time-series
    // aware: never validate on data older than training samples).
    std::size_t val_count = 0;
    if (options.validation_fraction > 0.0 && count >= 10) {
        val_count = static_cast<std::size_t>(
            options.validation_fraction * static_cast<double>(count));
        val_count = std::min(val_count, count - 1);
    }
    const std::size_t train_count = count - val_count;

    std::vector<std::size_t> order(train_count);
    std::iota(order.begin(), order.end(), 0);
    std::mt19937 shuffle_rng(options.seed);

    MlpWorkspace local_ws;
    MlpWorkspace& ws = workspace != nullptr ? *workspace : local_ws;
    ws.ensure(layer_sizes_);

    double lr = options.learning_rate;
    double best_val = std::numeric_limits<double>::infinity();
    double last_train_loss = 0.0;
    int since_best = 0;

    auto validation_loss = [&]() {
        if (val_count == 0) return 0.0;
        double acc = 0.0;
        for (std::size_t i = train_count; i < count; ++i) {
            const double err = predict(inputs[i], ws) - targets[i];
            acc += err * err;
        }
        return acc / static_cast<double>(val_count);
    };

    int epochs_run = 0;
    const simd::KernelTable& kernels = simd::active_kernels();
    for (int epoch = 0; epoch < options.epochs; ++epoch) {
        // Cancellation point: one atomic load per epoch, so a box past its
        // deadline stops mid-training instead of finishing all epochs.
        exec::checkpoint(options.cancel, "forecast.mlp.epoch");
        ++epochs_run;
        std::shuffle(order.begin(), order.end(), shuffle_rng);
        double train_loss = 0.0;
        for (std::size_t idx : order) {
            forward(inputs[idx], ws);
            const double out = ws.acts.back();
            const double err = out - targets[idx];
            train_loss += err * err;

            // Backprop: output delta is plain error (linear output, MSE).
            // The kernel computes the raw weighted sums (bit-identical to
            // the historical loop on every path); the activation gradient
            // is applied here.
            ws.deltas[ws.unit_off.back()] = err;
            for (std::size_t l = layers_.size() - 1; l-- > 0;) {
                const Layer& next = layers_[l + 1];
                double* delta = ws.deltas.data() + ws.unit_off[l];
                const double* next_delta = ws.deltas.data() + ws.unit_off[l + 1];
                const double* act = ws.acts.data() + ws.act_off[l + 1];
                const double* pre = ws.pres.data() + ws.unit_off[l];
                const auto width = static_cast<std::size_t>(next.fan_in);
                kernels.mlp_backprop_delta(
                    next.weights.data(), next_delta, width,
                    static_cast<std::size_t>(next.fan_out), delta);
                for (std::size_t j = 0; j < width; ++j) {
                    delta[j] = delta[j] * activate_grad(act[j], pre[j]);
                }
            }
            // SGD + momentum update: weights via the (bit-identical,
            // element-wise) kernel, biases inline.
            for (std::size_t l = 0; l < layers_.size(); ++l) {
                Layer& layer = layers_[l];
                const double* in = ws.acts.data() + ws.act_off[l];
                const double* delta = ws.deltas.data() + ws.unit_off[l];
                const auto fan_in = static_cast<std::size_t>(layer.fan_in);
                const auto fan_out = static_cast<std::size_t>(layer.fan_out);
                kernels.mlp_sgd_layer(layer.weights.data(),
                                      layer.weight_velocity.data(), in, delta,
                                      fan_in, fan_out, lr, options.momentum,
                                      options.weight_decay);
                for (std::size_t j = 0; j < fan_out; ++j) {
                    layer.bias_velocity[j] =
                        options.momentum * layer.bias_velocity[j] -
                        lr * delta[j];
                    layer.biases[j] += layer.bias_velocity[j];
                }
            }
        }
        last_train_loss = train_loss / static_cast<double>(train_count);
        lr *= options.lr_decay;

        if (val_count > 0) {
            const double val = validation_loss();
            if (val < best_val - 1e-12) {
                best_val = val;
                since_best = 0;
            } else if (++since_best >= options.patience) {
                break;
            }
        }
    }
    if (options.metrics != nullptr) {
        options.metrics->add("forecast.mlp.fits");
        options.metrics->add("forecast.mlp.epochs",
                             static_cast<std::uint64_t>(epochs_run));
        options.metrics->add("forecast.mlp.examples", count);
    }
    return val_count > 0 ? best_val : last_train_loss;
}

}  // namespace atm::forecast
