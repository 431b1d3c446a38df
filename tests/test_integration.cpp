// Cross-module integration tests: full flows through generator ->
// characterization -> signature search -> spatial model ->
// forecasting -> resizing, plus end-to-end determinism and conservation
// properties that only hold when the modules agree on conventions.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/pipeline.hpp"
#include "mediawiki/simulator.hpp"
#include "ticketing/characterization.hpp"
#include "tracegen/generator.hpp"

namespace atm {
namespace {

trace::TraceGenOptions base_options() {
    trace::TraceGenOptions options;
    options.num_boxes = 8;
    options.num_days = 6;
    options.gappy_box_fraction = 0.0;
    options.seed = 77;
    return options;
}

TEST(IntegrationTest, EndToEndDeterminism) {
    // The identical pipeline on identical inputs produces identical
    // predictions and allocations — across every stochastic component
    // (generator, MLP init/shuffle).
    const trace::BoxTrace box = trace::generate_box(base_options(), 2);
    core::PipelineConfig config;
    config.temporal = forecast::TemporalModel::kNeuralNetwork;
    const auto a = core::run_pipeline_on_box(box, 96, config,
                                             {resize::ResizePolicy::kAtmGreedy});
    const auto b = core::run_pipeline_on_box(box, 96, config,
                                             {resize::ResizePolicy::kAtmGreedy});
    EXPECT_EQ(a.search.signatures, b.search.signatures);
    EXPECT_DOUBLE_EQ(a.ape_all, b.ape_all);
    EXPECT_EQ(a.policies[0].cpu_after, b.policies[0].cpu_after);
    EXPECT_EQ(a.predicted_demands, b.predicted_demands);
}

TEST(IntegrationTest, PipelineCapacityConservation) {
    // Whatever the policy, allocated capacity never exceeds the box's.
    const trace::BoxTrace box = trace::generate_box(base_options(), 3);
    const auto demands = box.demand_matrix();
    for (auto policy : {resize::ResizePolicy::kAtmGreedy,
                        resize::ResizePolicy::kAtmGreedyNoDiscretization,
                        resize::ResizePolicy::kMaxMinFairness}) {
        resize::ResizeInput input;
        input.alpha = 0.6;
        input.total_capacity = box.cpu_capacity_ghz;
        for (std::size_t i = 0; i < box.vms.size(); ++i) {
            const auto& row = demands[i * 2];
            input.demands.emplace_back(row.end() - 96, row.end());
            input.current_capacities.push_back(box.vms[i].cpu_capacity_ghz);
        }
        const auto result = resize::apply_policy(policy, input);
        const double used = std::accumulate(result.capacities.begin(),
                                            result.capacities.end(), 0.0);
        EXPECT_LE(used, box.cpu_capacity_ghz + 1e-6) << resize::to_string(policy);
    }
}

TEST(IntegrationTest, WikiDemandsDriveGenericResizeLayer) {
    // The MediaWiki simulator's demand output plugs into the generic
    // resize API (not only resize_with_atm).
    const wiki::TestbedSpec spec = wiki::make_mediawiki_testbed();
    const wiki::SimResult sim = wiki::simulate(spec);
    resize::ResizeInput input;
    input.alpha = 0.6;
    input.total_capacity = 8.0;
    for (std::size_t i = 0; i < spec.vms.size(); ++i) {
        if (spec.vms[i].node == 4) input.demands.push_back(sim.vm_cpu_demand_cores[i]);
    }
    ASSERT_FALSE(input.demands.empty());
    const auto result = resize::atm_resize(input);
    EXPECT_TRUE(result.feasible);
    EXPECT_EQ(result.tickets, 0);  // node 4 fits within 8 cores at 60%
}

TEST(IntegrationTest, CharacterizationScalesWithPopulation) {
    // Per-box statistics are population-size invariant (same seed, boxes
    // are generated independently): a 30-box prefix of a 60-box trace
    // gives identical per-box numbers.
    trace::TraceGenOptions options = base_options();
    options.num_days = 1;
    options.gappy_box_fraction = 0.3;
    options.num_boxes = 60;
    const trace::Trace big = trace::generate_trace(options);
    options.num_boxes = 30;
    const trace::Trace small = trace::generate_trace(options);
    const auto big_stats = ticketing::count_box_tickets(big.boxes[12], 60.0);
    const auto small_stats = ticketing::count_box_tickets(small.boxes[12], 60.0);
    EXPECT_EQ(big_stats.cpu_tickets_per_vm, small_stats.cpu_tickets_per_vm);
}

}  // namespace
}  // namespace atm
