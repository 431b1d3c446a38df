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
    // forward before being read.
    acts.resize(acts_total);
    pres.resize(units_total);
}

MlpNetwork::MlpNetwork(std::vector<int> layer_sizes, unsigned seed)
    : layer_sizes_(std::move(layer_sizes)), rng_(seed) {
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

void MlpNetwork::forward(std::span<const double> inputs,
                         MlpWorkspace& ws) const {
    ws.ensure(layer_sizes_);
    std::copy(inputs.begin(), inputs.end(), ws.acts.begin());

    // Dot products run on the active SIMD path in the same order as the
    // lane-training kernel; vector paths reassociate them (simd.hpp's
    // tolerance policy), so forecasts there may drift by ULPs from scalar.
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
            // Linear output unit.
            out[j] = is_output ? pre[j] : simd::mlp_activate(pre[j]);
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
                         const MlpTrainOptions& options) {
    MlpTrainJob job{this, &inputs, targets, options};
    forecast::train(std::span(&job, 1));
    return job.loss;
}

namespace {

/// Examples held out for validation: the chronologically last fraction
/// (time-series aware: never validate on data older than training
/// samples), none under 10 examples.
std::size_t validation_count(const MlpTrainJob& job) {
    const std::size_t count = job.inputs->rows();
    if (job.options.validation_fraction <= 0.0 || count < 10) return 0;
    const auto held = static_cast<std::size_t>(
        job.options.validation_fraction * static_cast<double>(count));
    return std::min(held, count - 1);
}

/// A lane's network and its per-network training state.
struct LaneState {
    MlpTrainJob* job = nullptr;
    std::vector<std::size_t> order;
    std::mt19937 shuffle_rng;
    double lr = 0.0;
    double best_val = 0.0;
    double last_train_loss = 0.0;
    int since_best = 0;
    int epochs_run = 0;
};

void record_fit(const MlpTrainJob& job, int epochs_run) {
    if (job.options.metrics == nullptr) return;
    job.options.metrics->add("forecast.mlp.fits");
    job.options.metrics->add("forecast.mlp.epochs",
                             static_cast<std::uint64_t>(epochs_run));
    job.options.metrics->add("forecast.mlp.examples", job.inputs->rows());
}

}  // namespace

void train(std::span<MlpTrainJob> jobs) {
    for (const MlpTrainJob& job : jobs) {
        const MlpNetwork& net = *job.network;
        if (job.inputs->rows() != job.targets.size()) {
            throw std::invalid_argument("MlpNetwork::train: example count mismatch");
        }
        if (job.inputs->rows() == 0) {
            throw std::invalid_argument("MlpNetwork::train: no examples");
        }
        if (job.inputs->cols() != static_cast<std::size_t>(net.input_size())) {
            throw std::invalid_argument("MlpNetwork::train: input size mismatch");
        }
    }
    MlpWorkspace ws;
    const simd::KernelTable& kernels = simd::active_kernels();
    std::vector<LaneState> lanes(kernels.mlp_lanes);
    std::vector<simd::MlpLane> lane_args(kernels.mlp_lanes);
    std::vector<bool> grouped(jobs.size(), false);

    for (std::size_t first = 0; first < jobs.size(); ++first) {
        if (grouped[first]) continue;
        // The lane group: every remaining job whose network and examples
        // share `first`'s shape, in job order.
        const MlpNetwork& proto = *jobs[first].network;
        const std::size_t count = jobs[first].inputs->rows();
        const std::size_t val_count = validation_count(jobs[first]);
        const std::size_t train_count = count - val_count;
        std::vector<MlpTrainJob*> queue;
        for (std::size_t k = first; k < jobs.size(); ++k) {
            const MlpNetwork& net = *jobs[k].network;
            if (grouped[k] || net.layer_sizes_ != proto.layer_sizes_ ||
                jobs[k].inputs->rows() != count ||
                validation_count(jobs[k]) != val_count) {
                continue;
            }
            grouped[k] = true;
            queue.push_back(&jobs[k]);
        }

        // The path's lanes for a batch; one lane (the same per-network
        // arithmetic without idle lanes to carry) for a lone network.
        const std::size_t lane_count = queue.size() == 1 ? 1 : kernels.mlp_lanes;
        const std::size_t params = simd::mlp_param_count(proto.layer_sizes_);
        ws.lane_params.assign(params * lane_count, 0.0);
        ws.lane_velocity.assign(params * lane_count, 0.0);
        // Copies lane b's parameters between its network and the
        // lane-interleaved blocks (layer by layer: weights, then biases).
        const auto transfer = [&](std::size_t b, MlpNetwork& net, bool load) {
            std::size_t e = 0;
            const auto copy = [&](std::vector<double>& values,
                                  std::vector<double>& lane_block) {
                for (double& v : values) {
                    double& slot = lane_block[e++ * lane_count + b];
                    if (load) {
                        slot = v;
                    } else {
                        v = slot;
                        slot = 0.0;  // an idle lane's parameters stay zero
                    }
                }
            };
            for (MlpNetwork::Layer& layer : net.layers_) {
                const std::size_t start = e;
                copy(layer.weights, ws.lane_params);
                copy(layer.biases, ws.lane_params);
                e = start;
                copy(layer.weight_velocity, ws.lane_velocity);
                copy(layer.bias_velocity, ws.lane_velocity);
            }
        };

        std::size_t next = 0;
        std::size_t active = 0;
        // Gives lane b the group's next job that trains at all (a job
        // with no epochs finishes on the spot), or leaves it idle.
        const auto refill = [&](std::size_t b) {
            LaneState& lane = lanes[b];
            lane_args[b] = simd::MlpLane{};
            lane.job = nullptr;
            while (next < queue.size()) {
                MlpTrainJob& job = *queue[next++];
                if (job.options.epochs <= 0) {
                    job.loss = val_count > 0
                                   ? std::numeric_limits<double>::infinity()
                                   : 0.0;
                    record_fit(job, 0);
                    continue;
                }
                lane.job = &job;
                lane.order.resize(train_count);
                std::iota(lane.order.begin(), lane.order.end(), 0);
                lane.shuffle_rng.seed(job.options.seed);
                lane.lr = job.options.learning_rate;
                lane.best_val = std::numeric_limits<double>::infinity();
                lane.last_train_loss = 0.0;
                lane.since_best = 0;
                lane.epochs_run = 0;
                transfer(b, *job.network, /*load=*/true);
                lane_args[b].inputs = job.inputs->data().data();
                lane_args[b].targets = job.targets.data();
                lane_args[b].order = lane.order.data();
                lane_args[b].momentum = job.options.momentum;
                lane_args[b].weight_decay = job.options.weight_decay;
                ++active;
                return;
            }
        };
        for (std::size_t b = 0; b < lane_count; ++b) refill(b);

        while (active > 0) {
            for (std::size_t b = 0; b < lane_count; ++b) {
                LaneState& lane = lanes[b];
                if (lane.job == nullptr) continue;
                // Cancellation point: one atomic load per lane and group
                // epoch, so a box past its deadline stops mid-training.
                exec::checkpoint(lane.job->options.cancel, "forecast.mlp.epoch");
                ++lane.epochs_run;
                std::shuffle(lane.order.begin(), lane.order.end(),
                             lane.shuffle_rng);
                lane_args[b].learning_rate = lane.lr;
            }
            const simd::MlpLaneEpoch epoch{
                proto.layer_sizes_,      train_count,      count,
                lane_args.data(),        ws.lane_params.data(),
                ws.lane_velocity.data(), &ws.lane_scratch};
            (lane_count == 1 ? kernels.mlp_train_one
                             : kernels.mlp_train_epoch)(epoch);
            for (std::size_t b = 0; b < lane_count; ++b) {
                LaneState& lane = lanes[b];
                if (lane.job == nullptr) continue;
                const MlpTrainOptions& options = lane.job->options;
                lane.last_train_loss =
                    lane_args[b].train_loss / static_cast<double>(train_count);
                lane.lr *= options.lr_decay;
                bool stop = lane.epochs_run >= options.epochs;
                if (val_count > 0) {
                    const double val =
                        lane_args[b].val_loss / static_cast<double>(val_count);
                    if (val < lane.best_val - 1e-12) {
                        lane.best_val = val;
                        lane.since_best = 0;
                    } else if (++lane.since_best >= options.patience) {
                        stop = true;
                    }
                }
                if (!stop) continue;
                transfer(b, *lane.job->network, /*load=*/false);
                lane.job->loss =
                    val_count > 0 ? lane.best_val : lane.last_train_loss;
                record_fit(*lane.job, lane.epochs_run);
                --active;
                refill(b);
            }
        }
    }
}

}  // namespace atm::forecast
