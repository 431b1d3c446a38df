#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "ticketing/characterization.hpp"
#include "timeseries/stats.hpp"
#include "tracegen/generator.hpp"

namespace atm::trace {
namespace {

TraceGenOptions small_options() {
    TraceGenOptions options;
    options.num_boxes = 40;
    options.num_days = 2;
    return options;
}

TEST(GeneratorTest, ShapesAreConsistent) {
    const Trace trace = generate_trace(small_options());
    ASSERT_EQ(trace.boxes.size(), 40u);
    for (const BoxTrace& box : trace.boxes) {
        EXPECT_GE(box.vms.size(), 2u);
        EXPECT_LE(box.vms.size(), 32u);
        for (const VmTrace& vm : box.vms) {
            EXPECT_EQ(vm.cpu_usage_pct.size(), 2u * 96u);
            EXPECT_EQ(vm.ram_usage_pct.size(), 2u * 96u);
        }
    }
}

TEST(GeneratorTest, UsageWithinBounds) {
    const Trace trace = generate_trace(small_options());
    for (const BoxTrace& box : trace.boxes) {
        for (const VmTrace& vm : box.vms) {
            for (double u : vm.cpu_usage_pct) {
                EXPECT_GE(u, 0.0);
                EXPECT_LE(u, 100.0);
            }
            for (double u : vm.ram_usage_pct) {
                EXPECT_GE(u, 0.0);
                EXPECT_LE(u, 100.0);
            }
        }
    }
}

TEST(GeneratorTest, DeterministicPerSeed) {
    const Trace a = generate_trace(small_options());
    const Trace b = generate_trace(small_options());
    ASSERT_EQ(a.boxes.size(), b.boxes.size());
    for (std::size_t i = 0; i < a.boxes.size(); ++i) {
        ASSERT_EQ(a.boxes[i].vms.size(), b.boxes[i].vms.size());
        for (std::size_t v = 0; v < a.boxes[i].vms.size(); ++v) {
            EXPECT_EQ(a.boxes[i].vms[v].cpu_usage_pct.values(),
                      b.boxes[i].vms[v].cpu_usage_pct.values());
        }
    }
}

TEST(GeneratorTest, BoxIndependentOfPopulationSize) {
    // Box 7 must be identical whether 10 or 40 boxes are generated.
    TraceGenOptions options = small_options();
    const BoxTrace direct = generate_box(options, 7);
    options.num_boxes = 10;
    const Trace small = generate_trace(options);
    EXPECT_EQ(small.boxes[7].vms.size(), direct.vms.size());
    EXPECT_EQ(small.boxes[7].vms[0].cpu_usage_pct.values(),
              direct.vms[0].cpu_usage_pct.values());
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
    TraceGenOptions a = small_options();
    TraceGenOptions b = small_options();
    b.seed = a.seed + 1;
    const BoxTrace box_a = generate_box(a, 0);
    const BoxTrace box_b = generate_box(b, 0);
    // Either layout or samples must differ.
    const bool same_layout = box_a.vms.size() == box_b.vms.size();
    if (same_layout) {
        EXPECT_NE(box_a.vms[0].cpu_usage_pct.values(),
                  box_b.vms[0].cpu_usage_pct.values());
    }
}

TEST(GeneratorTest, MeanConsolidationNearTen) {
    TraceGenOptions options = small_options();
    options.num_boxes = 200;
    options.num_days = 1;
    const Trace trace = generate_trace(options);
    const double mean_vms = static_cast<double>(trace.total_vms()) /
                            static_cast<double>(trace.boxes.size());
    EXPECT_GT(mean_vms, 8.0);
    EXPECT_LT(mean_vms, 12.0);
}

TEST(GeneratorTest, BoxCapacityNearAllocationSum) {
    // Consolidated production boxes overcommit: the backed capacity is
    // within the configured headroom band around the allocation sum.
    const TraceGenOptions options = small_options();
    const Trace trace = generate_trace(options);
    for (const BoxTrace& box : trace.boxes) {
        double cpu = 0.0;
        double ram = 0.0;
        for (const VmTrace& vm : box.vms) {
            cpu += vm.cpu_capacity_ghz;
            ram += vm.ram_capacity_gb;
        }
        EXPECT_GE(box.cpu_capacity_ghz, options.capacity_headroom_min * cpu - 1e-9);
        EXPECT_LE(box.cpu_capacity_ghz, options.capacity_headroom_max * cpu + 1e-9);
        EXPECT_GE(box.ram_capacity_gb, options.capacity_headroom_min * ram - 1e-9);
        EXPECT_LE(box.ram_capacity_gb, options.capacity_headroom_max * ram + 1e-9);
    }
}

TEST(GeneratorTest, GapFlagMatchesZeroRuns) {
    TraceGenOptions options = small_options();
    options.num_boxes = 120;
    options.gappy_box_fraction = 0.5;
    const Trace trace = generate_trace(options);
    int gappy = 0;
    for (const BoxTrace& box : trace.boxes) {
        if (box.has_gaps) ++gappy;
    }
    EXPECT_GT(gappy, 30);
    EXPECT_LT(gappy, 90);
}

TEST(GeneratorTest, GapFreeFractionAvailable) {
    TraceGenOptions options = small_options();
    options.num_boxes = 100;
    const Trace trace = generate_trace(options);
    int clean = 0;
    for (const BoxTrace& box : trace.boxes) {
        if (!box.has_gaps) ++clean;
    }
    // Default gappy fraction is 0.3 -> ~70 clean boxes.
    EXPECT_GT(clean, 50);
}

TEST(GeneratorTest, DemandMatrixLayout) {
    const BoxTrace box = generate_box(small_options(), 3);
    const auto demands = box.demand_matrix();
    ASSERT_EQ(demands.size(), box.vms.size() * 2);
    // Row 0 = vm0 CPU demand. Demand equals usage/100 * capacity below
    // saturation and exceeds it (latent demand) when usage pegs at 100%.
    const VmTrace& vm0 = box.vms[0];
    for (std::size_t t = 0; t < vm0.cpu_usage_pct.size(); ++t) {
        const double from_usage =
            vm0.cpu_usage_pct[t] / 100.0 * vm0.cpu_capacity_ghz;
        if (vm0.cpu_usage_pct[t] < 100.0) {
            EXPECT_NEAR(demands[0][t], from_usage, 1e-12);
        } else {
            EXPECT_GE(demands[0][t], from_usage - 1e-12);
        }
    }
}

TEST(GeneratorTest, LatentDemandExceedsCapacitySomewhere) {
    // Deep violators are under-provisioned: somewhere in a reasonable
    // population a VM's demand exceeds its allocation (usage pegged 100%).
    TraceGenOptions options = small_options();
    options.num_boxes = 60;
    const Trace trace = generate_trace(options);
    bool found = false;
    for (const BoxTrace& box : trace.boxes) {
        for (const VmTrace& vm : box.vms) {
            for (double d : vm.cpu_demand_ghz) {
                if (d > vm.cpu_capacity_ghz * 1.05) {
                    found = true;
                    break;
                }
            }
        }
    }
    EXPECT_TRUE(found);
}

TEST(GeneratorTest, InvalidTimeGridThrows) {
    TraceGenOptions options = small_options();
    options.windows_per_day = 0;
    EXPECT_THROW(generate_box(options, 0), std::invalid_argument);
}

TEST(GeneratorTest, OutOfRangeSizesAreRejectedNamingTheField) {
    // Each case would otherwise reach an allocation (a negative count is a
    // huge reserve()) or the per-box grid check; the message names the
    // offending field.
    const std::pair<const char*, void (*)(TraceGenOptions&)> cases[] = {
        {"num_boxes", [](TraceGenOptions& o) { o.num_boxes = -1; }},
        {"num_days", [](TraceGenOptions& o) { o.num_days = 0; }},
        {"num_days", [](TraceGenOptions& o) { o.num_days = -3; }},
        {"windows_per_day", [](TraceGenOptions& o) { o.windows_per_day = 0; }},
    };
    for (const auto& [field, mutate] : cases) {
        TraceGenOptions options = small_options();
        mutate(options);
        try {
            (void)generate_trace(options);
            ADD_FAILURE() << field << ": expected std::invalid_argument";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
                << e.what();
        }
    }
    // Zero boxes is a valid (empty) trace.
    TraceGenOptions empty = small_options();
    empty.num_boxes = 0;
    EXPECT_TRUE(generate_trace(empty).boxes.empty());
}

// --- statistical targets from Section II (coarse tolerance bands) --------

class CharacterizationTest : public ::testing::Test {
  protected:
    static const Trace& trace() {
        static const Trace t = [] {
            TraceGenOptions options;
            options.num_boxes = 250;
            options.num_days = 1;
            return generate_trace(options);
        }();
        return t;
    }
};

TEST_F(CharacterizationTest, TicketPercentagesDecreaseWithThreshold) {
    const auto c60 = ticketing::characterize_tickets(trace(), 60.0);
    const auto c70 = ticketing::characterize_tickets(trace(), 70.0);
    const auto c80 = ticketing::characterize_tickets(trace(), 80.0);
    EXPECT_GT(c60.boxes_with_cpu_tickets, c70.boxes_with_cpu_tickets);
    EXPECT_GT(c70.boxes_with_cpu_tickets, c80.boxes_with_cpu_tickets);
    EXPECT_GT(c60.boxes_with_ram_tickets, c70.boxes_with_ram_tickets);
    EXPECT_GT(c70.boxes_with_ram_tickets, c80.boxes_with_ram_tickets);
}

TEST_F(CharacterizationTest, CpuTicketsDominateRam) {
    for (double th : {60.0, 70.0, 80.0}) {
        const auto c = ticketing::characterize_tickets(trace(), th);
        EXPECT_GT(c.boxes_with_cpu_tickets, c.boxes_with_ram_tickets);
        EXPECT_GT(c.mean_cpu_tickets_per_box, c.mean_ram_tickets_per_box);
    }
}

TEST_F(CharacterizationTest, Fig2aBands) {
    const auto c60 = ticketing::characterize_tickets(trace(), 60.0);
    EXPECT_NEAR(c60.boxes_with_cpu_tickets, 0.57, 0.10);
    EXPECT_NEAR(c60.boxes_with_ram_tickets, 0.38, 0.10);
    const auto c80 = ticketing::characterize_tickets(trace(), 80.0);
    EXPECT_NEAR(c80.boxes_with_cpu_tickets, 0.40, 0.10);
    EXPECT_NEAR(c80.boxes_with_ram_tickets, 0.10, 0.08);
}

TEST_F(CharacterizationTest, Fig2bBands) {
    const auto c60 = ticketing::characterize_tickets(trace(), 60.0);
    EXPECT_NEAR(c60.mean_cpu_tickets_per_box, 39.0, 15.0);
    EXPECT_NEAR(c60.mean_ram_tickets_per_box, 15.0, 10.0);
}

TEST_F(CharacterizationTest, Fig2cCulpritsAreOneToTwo) {
    for (double th : {60.0, 70.0, 80.0}) {
        const auto c = ticketing::characterize_tickets(trace(), th);
        EXPECT_GE(c.mean_cpu_culprits, 1.0);
        EXPECT_LE(c.mean_cpu_culprits, 2.0);
        EXPECT_GE(c.mean_ram_culprits, 1.0);
        EXPECT_LE(c.mean_ram_culprits, 2.0);
    }
}

TEST_F(CharacterizationTest, Fig3CorrelationOrdering) {
    const auto corr = ticketing::characterize_correlations(trace());
    const double intra_cpu = ts::mean(corr.intra_cpu);
    const double intra_ram = ts::mean(corr.intra_ram);
    const double inter_all = ts::mean(corr.inter_all);
    const double inter_pair = ts::mean(corr.inter_pair);
    // Paper: inter-pair (0.62) >> inter-all (0.30) > intra (0.26 / 0.24).
    EXPECT_GT(inter_pair, 0.45);
    EXPECT_GT(inter_all, intra_cpu - 0.02);
    EXPECT_NEAR(intra_cpu, 0.26, 0.08);
    EXPECT_NEAR(intra_ram, 0.24, 0.08);
    EXPECT_NEAR(inter_pair, 0.62, 0.12);
}

TEST_F(CharacterizationTest, CorrelationVectorsPerBox) {
    const auto corr = ticketing::characterize_correlations(trace());
    EXPECT_EQ(corr.intra_cpu.size(), trace().boxes.size());
    EXPECT_EQ(corr.inter_pair.size(), trace().boxes.size());
}

}  // namespace
}  // namespace atm::trace
