#include "tracegen/trace.hpp"

#include <algorithm>
#include <stdexcept>

namespace atm::trace {

bool BoxTrace::equal_lengths() const {
    const std::size_t len = length();
    for (const VmTrace& vm : vms) {
        if (vm.cpu_usage_pct.size() != len || vm.ram_usage_pct.size() != len ||
            vm.cpu_demand_ghz.size() != len || vm.ram_demand_gb.size() != len) {
            return false;
        }
    }
    return true;
}

la::FlatMatrix BoxTrace::demand_matrix() const {
    if (!equal_lengths()) {
        throw std::invalid_argument("BoxTrace::demand_matrix: ragged series lengths");
    }
    la::FlatMatrix out(vms.size() * ts::kNumResources, length());
    std::size_t row = 0;
    for (const VmTrace& vm : vms) {
        for (const ts::Series* series : {&vm.cpu_demand_ghz, &vm.ram_demand_gb}) {
            std::copy(series->values().begin(), series->values().end(),
                      out[row++].begin());
        }
    }
    return out;
}

std::size_t Trace::total_vms() const {
    std::size_t count = 0;
    for (const BoxTrace& box : boxes) count += box.vms.size();
    return count;
}

std::size_t Trace::total_series() const {
    return total_vms() * ts::kNumResources;
}

}  // namespace atm::trace
