#pragma once

#include <string>
#include <vector>

#include "linalg/flat_matrix.hpp"
#include "timeseries/resource.hpp"
#include "timeseries/series.hpp"

namespace atm::trace {

/// One virtual machine's week of monitoring data.
///
/// Usage series are utilization percentages in [0, 100] sampled once per
/// ticketing window (15 minutes in the paper). Demand series (paper
/// footnote 2: usage x allocated capacity) are in GHz (CPU) / GB (RAM) and
/// follow VMware's *demand* semantics: for a starved VM the demand metric
/// reports the resources the VM would consume, which can exceed its
/// current allocation, while the usage metric saturates at 100%. This
/// latent-demand headroom is what makes resizing able to *help* the
/// under-provisioned culprit VMs (Section II intro: "persistent
/// insufficient provisioning").
struct VmTrace {
    std::string name;
    double cpu_capacity_ghz = 0.0;
    double ram_capacity_gb = 0.0;
    ts::Series cpu_usage_pct;
    ts::Series ram_usage_pct;
    /// Demand series; equals usage/100 x capacity while the VM is below
    /// saturation, exceeds the capacity while it is starved.
    ts::Series cpu_demand_ghz;
    ts::Series ram_demand_gb;

    /// Usage series for a resource kind.
    [[nodiscard]] const ts::Series& usage(ts::ResourceKind kind) const {
        return kind == ts::ResourceKind::kCpu ? cpu_usage_pct : ram_usage_pct;
    }

    /// Allocated virtual capacity for a resource kind.
    [[nodiscard]] double capacity(ts::ResourceKind kind) const {
        return kind == ts::ResourceKind::kCpu ? cpu_capacity_ghz : ram_capacity_gb;
    }

    /// Demand series for a resource kind.
    [[nodiscard]] const ts::Series& demand(ts::ResourceKind kind) const {
        return kind == ts::ResourceKind::kCpu ? cpu_demand_ghz : ram_demand_gb;
    }
};

/// One physical box and its co-located VMs.
struct BoxTrace {
    std::string name;
    /// Total virtual capacity available at the box ("C" in Section IV);
    /// the resizing constraint is sum of VM allocations <= this.
    double cpu_capacity_ghz = 0.0;
    double ram_capacity_gb = 0.0;
    /// True if the monitoring data contains gaps (runs of missing samples,
    /// stored as zeros). The paper's Section V evaluation keeps only the
    /// 400 gap-free boxes; filters use this flag.
    bool has_gaps = false;
    std::vector<VmTrace> vms;

    [[nodiscard]] double capacity(ts::ResourceKind kind) const {
        return kind == ts::ResourceKind::kCpu ? cpu_capacity_ghz : ram_capacity_gb;
    }

    /// Number of samples per series, read from VM 0 (see equal_lengths).
    [[nodiscard]] std::size_t length() const {
        return vms.empty() ? 0 : vms.front().cpu_usage_pct.size();
    }

    /// True when every usage and demand series of every VM has length()
    /// samples. Loaders do not enforce this; the pipeline entry points
    /// reject a box that breaks it.
    [[nodiscard]] bool equal_lengths() const;

    /// All M x N demand series (what the prediction pipeline models and
    /// the resizing algorithm consumes), one row per series in SeriesId
    /// order (VM-major: vm0/CPU, vm0/RAM, vm1/CPU, ...), length() samples
    /// each. Throws std::invalid_argument when !equal_lengths().
    [[nodiscard]] la::FlatMatrix demand_matrix() const;
};

/// A whole data-center monitoring trace.
struct Trace {
    std::vector<BoxTrace> boxes;
    /// Ticketing windows per day (96 = 15-minute windows).
    int windows_per_day = 96;

    [[nodiscard]] std::size_t total_vms() const;
    [[nodiscard]] std::size_t total_series() const;
};

}  // namespace atm::trace
