#pragma once

#include <span>
#include <vector>

#include "timeseries/resource.hpp"
#include "tracegen/trace.hpp"

namespace atm::ticketing {

/// Counts usage tickets in a utilization series (percent, 0..100): one
/// ticket per ticketing window whose utilization strictly exceeds
/// `threshold_pct` (the paper's monitoring rule, Section II-A: "usage
/// tickets are generated when utilization values exceed target
/// thresholds").
int count_usage_tickets(std::span<const double> usage_pct, double threshold_pct);

/// Counts tickets for a *demand* series (GHz/GB) against an allocated
/// capacity: a window tickets when demand > alpha * capacity, i.e. when
/// utilization of the allocation exceeds alpha (Section IV constraint 6).
int count_demand_tickets(std::span<const double> demand, double capacity,
                         double alpha);

/// Per-VM ticket counts of one box at one threshold.
struct BoxTicketStats {
    std::vector<int> cpu_tickets_per_vm;
    std::vector<int> ram_tickets_per_vm;
    int total_cpu = 0;
    int total_ram = 0;

    [[nodiscard]] int total(ts::ResourceKind kind) const {
        return kind == ts::ResourceKind::kCpu ? total_cpu : total_ram;
    }
};

/// Counts tickets for every VM of a box over a window range
/// [first_window, first_window + num_windows); num_windows < 0 means "to
/// the end of the trace".
BoxTicketStats count_box_tickets(const trace::BoxTrace& box, double threshold_pct,
                                 std::size_t first_window = 0,
                                 long num_windows = -1);

/// Smallest number of VMs that together account for at least
/// `majority_fraction` of a box's tickets for the given resource — the
/// paper's "culprit VM" metric (Fig. 2c, majority = 80%). Zero when the
/// box has no tickets.
int culprit_vm_count(const BoxTicketStats& stats, ts::ResourceKind kind,
                     double majority_fraction = 0.8);

}  // namespace atm::ticketing
