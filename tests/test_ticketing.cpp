#include <gtest/gtest.h>

#include "ticketing/characterization.hpp"
#include "ticketing/tickets.hpp"
#include "tracegen/generator.hpp"

namespace atm::ticketing {
namespace {

TEST(TicketCountTest, UsageStrictlyAboveThreshold) {
    const std::vector<double> usage{59.9, 60.0, 60.1, 80.0, 10.0};
    EXPECT_EQ(count_usage_tickets(usage, 60.0), 2);  // 60.0 itself: no ticket
    EXPECT_EQ(count_usage_tickets(usage, 0.0), 5);
    EXPECT_EQ(count_usage_tickets(usage, 100.0), 0);
}

TEST(TicketCountTest, EmptySeriesNoTickets) {
    EXPECT_EQ(count_usage_tickets({}, 60.0), 0);
}

TEST(TicketCountTest, DemandAgainstAlphaCapacity) {
    // capacity 10, alpha 0.6 -> limit 6.
    const std::vector<double> demand{5.9, 6.0, 6.1, 9.0};
    EXPECT_EQ(count_demand_tickets(demand, 10.0, 0.6), 2);
}

trace::BoxTrace make_test_box() {
    trace::BoxTrace box;
    box.name = "test";
    box.cpu_capacity_ghz = 20.0;
    box.ram_capacity_gb = 40.0;

    trace::VmTrace hot;
    hot.name = "hot";
    hot.cpu_capacity_ghz = 4.0;
    hot.ram_capacity_gb = 8.0;
    hot.cpu_usage_pct = ts::Series("hot/CPU", {90, 90, 90, 90, 30, 30, 30, 30});
    hot.ram_usage_pct = ts::Series("hot/RAM", {70, 70, 20, 20, 20, 20, 20, 20});
    box.vms.push_back(hot);

    trace::VmTrace cold;
    cold.name = "cold";
    cold.cpu_capacity_ghz = 4.0;
    cold.ram_capacity_gb = 8.0;
    cold.cpu_usage_pct = ts::Series("cold/CPU", {10, 10, 10, 65, 10, 10, 10, 10});
    cold.ram_usage_pct = ts::Series("cold/RAM", {20, 20, 20, 20, 20, 20, 20, 20});
    box.vms.push_back(cold);
    return box;
}

TEST(BoxTicketsTest, CountsPerVmAndTotals) {
    const auto stats = count_box_tickets(make_test_box(), 60.0);
    EXPECT_EQ(stats.cpu_tickets_per_vm, (std::vector<int>{4, 1}));
    EXPECT_EQ(stats.ram_tickets_per_vm, (std::vector<int>{2, 0}));
    EXPECT_EQ(stats.total_cpu, 5);
    EXPECT_EQ(stats.total_ram, 2);
    EXPECT_EQ(stats.total(ts::ResourceKind::kCpu), 5);
    EXPECT_EQ(stats.total(ts::ResourceKind::kRam), 2);
}

TEST(BoxTicketsTest, WindowRangeRestriction) {
    const auto stats = count_box_tickets(make_test_box(), 60.0, 4, 4);
    EXPECT_EQ(stats.total_cpu, 0);  // hot VM is cool in the second half
    const auto first_half = count_box_tickets(make_test_box(), 60.0, 0, 4);
    EXPECT_EQ(first_half.total_cpu, 5);
}

TEST(BoxTicketsTest, RangeClampsBeyondEnd) {
    const auto stats = count_box_tickets(make_test_box(), 60.0, 6, 100);
    EXPECT_EQ(stats.total_cpu, 0);
    const auto past = count_box_tickets(make_test_box(), 60.0, 100, 4);
    EXPECT_EQ(past.total_cpu, 0);
}

TEST(CulpritTest, HotVmIsSingleCulprit) {
    const auto stats = count_box_tickets(make_test_box(), 60.0);
    // CPU: hot has 4 of 5 tickets = 80% -> 1 culprit.
    EXPECT_EQ(culprit_vm_count(stats, ts::ResourceKind::kCpu), 1);
    EXPECT_EQ(culprit_vm_count(stats, ts::ResourceKind::kRam), 1);
}

TEST(CulpritTest, EvenSplitNeedsMoreCulprits) {
    BoxTicketStats stats;
    stats.cpu_tickets_per_vm = {10, 10, 10, 10};
    stats.total_cpu = 40;
    // 80% of 40 = 32 -> needs 4 VMs (3 cover only 30).
    EXPECT_EQ(culprit_vm_count(stats, ts::ResourceKind::kCpu), 4);
}

TEST(CulpritTest, NoTicketsZeroCulprits) {
    BoxTicketStats stats;
    stats.cpu_tickets_per_vm = {0, 0};
    EXPECT_EQ(culprit_vm_count(stats, ts::ResourceKind::kCpu), 0);
}

TEST(CulpritTest, MajorityFractionRespected) {
    BoxTicketStats stats;
    stats.cpu_tickets_per_vm = {60, 30, 10};
    stats.total_cpu = 100;
    EXPECT_EQ(culprit_vm_count(stats, ts::ResourceKind::kCpu, 0.5), 1);
    EXPECT_EQ(culprit_vm_count(stats, ts::ResourceKind::kCpu, 0.8), 2);
    EXPECT_EQ(culprit_vm_count(stats, ts::ResourceKind::kCpu, 0.95), 3);
}

TEST(CharacterizeTest, DayParameterSelectsWindow) {
    // Handcrafted trace: day 0 hot, day 1 idle — the day parameter must
    // select the right window.
    trace::Trace t;
    t.windows_per_day = 4;
    trace::BoxTrace box;
    trace::VmTrace vm;
    vm.cpu_capacity_ghz = 4.0;
    vm.ram_capacity_gb = 8.0;
    vm.cpu_usage_pct = ts::Series("cpu", {90, 90, 90, 90, 10, 10, 10, 10});
    vm.ram_usage_pct = ts::Series("ram", {10, 10, 10, 10, 10, 10, 10, 10});
    box.vms.push_back(vm);
    t.boxes.push_back(box);

    const auto day0 = characterize_tickets(t, 60.0, 0);
    const auto day1 = characterize_tickets(t, 60.0, 1);
    EXPECT_DOUBLE_EQ(day0.mean_cpu_tickets_per_box, 4.0);
    EXPECT_DOUBLE_EQ(day1.mean_cpu_tickets_per_box, 0.0);
    EXPECT_DOUBLE_EQ(day0.boxes_with_cpu_tickets, 1.0);
    EXPECT_DOUBLE_EQ(day1.boxes_with_cpu_tickets, 0.0);
}

TEST(CharacterizeTest, EmptyTraceIsZero) {
    trace::Trace empty;
    const auto c = characterize_tickets(empty, 60.0);
    EXPECT_DOUBLE_EQ(c.boxes_with_cpu_tickets, 0.0);
    EXPECT_DOUBLE_EQ(c.mean_cpu_tickets_per_box, 0.0);
    const auto corr = characterize_correlations(empty);
    EXPECT_TRUE(corr.intra_cpu.empty());
}

TEST(CharacterizeTest, CorrelationsWithinBounds) {
    trace::TraceGenOptions options;
    options.num_boxes = 50;
    options.num_days = 1;
    const trace::Trace t = trace::generate_trace(options);
    const auto corr = characterize_correlations(t);
    for (const auto* vec :
         {&corr.intra_cpu, &corr.intra_ram, &corr.inter_all, &corr.inter_pair}) {
        for (double r : *vec) {
            EXPECT_GE(r, -1.0);
            EXPECT_LE(r, 1.0);
        }
    }
}

}  // namespace
}  // namespace atm::ticketing
