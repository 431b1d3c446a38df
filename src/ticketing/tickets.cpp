#include "ticketing/tickets.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace atm::ticketing {

int count_usage_tickets(std::span<const double> usage_pct, double threshold_pct) {
    int count = 0;
    for (double u : usage_pct) {
        if (u > threshold_pct) ++count;
    }
    return count;
}

int count_demand_tickets(std::span<const double> demand, double capacity,
                         double alpha) {
    const double limit = alpha * capacity;
    int count = 0;
    for (double d : demand) {
        if (d > limit) ++count;
    }
    return count;
}

BoxTicketStats count_box_tickets(const trace::BoxTrace& box, double threshold_pct,
                                 std::size_t first_window, long num_windows) {
    BoxTicketStats stats;
    stats.cpu_tickets_per_vm.reserve(box.vms.size());
    stats.ram_tickets_per_vm.reserve(box.vms.size());
    for (const trace::VmTrace& vm : box.vms) {
        const std::size_t len = vm.cpu_usage_pct.size();
        const std::size_t first = std::min(first_window, len);
        const std::size_t count =
            num_windows < 0 ? len - first
                            : std::min(static_cast<std::size_t>(num_windows), len - first);
        const int cpu = count_usage_tickets(
            vm.cpu_usage_pct.view().subspan(first, count), threshold_pct);
        const int ram = count_usage_tickets(
            vm.ram_usage_pct.view().subspan(first, count), threshold_pct);
        stats.cpu_tickets_per_vm.push_back(cpu);
        stats.ram_tickets_per_vm.push_back(ram);
        stats.total_cpu += cpu;
        stats.total_ram += ram;
    }
    return stats;
}

int culprit_vm_count(const BoxTicketStats& stats, ts::ResourceKind kind,
                     double majority_fraction) {
    const std::vector<int>& per_vm = kind == ts::ResourceKind::kCpu
                                         ? stats.cpu_tickets_per_vm
                                         : stats.ram_tickets_per_vm;
    const int total = stats.total(kind);
    if (total == 0) return 0;
    std::vector<int> sorted = per_vm;
    std::sort(sorted.begin(), sorted.end(), std::greater<>());
    const double target = majority_fraction * total;
    int covered = 0;
    int culprits = 0;
    for (int t : sorted) {
        if (static_cast<double>(covered) >= target) break;
        covered += t;
        ++culprits;
    }
    return culprits;
}

}  // namespace atm::ticketing
