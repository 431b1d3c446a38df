#pragma once

#include <string>
#include <vector>

#include "resize/mckp.hpp"

namespace atm::obs {
class MetricsRegistry;
}

namespace atm::resize {

/// Input to a per-box, per-resource resizing decision: the (predicted)
/// demand series of every co-located VM over the resizing window, the
/// box's total virtual capacity, and the ticket threshold.
struct ResizeInput {
    /// demands[i] = demand series of VM i over the resizing window (T
    /// ticketing windows), in capacity units (GHz or GB).
    std::vector<std::vector<double>> demands;
    /// Total virtual capacity C at the box (constraint 5).
    double total_capacity = 0.0;
    /// Ticket threshold as a fraction (paper default 0.6).
    double alpha = 0.6;
    /// Discretization factor epsilon; <= 0 disables (paper evaluates 5).
    double epsilon = 0.0;
    /// Optional per-VM epsilon overrides (e.g. a percentage of each VM's
    /// current capacity); empty = use the scalar `epsilon` for every VM.
    std::vector<double> epsilons;
    /// Optional per-VM capacity lower bounds (pre-resize peak usage);
    /// empty = no lower bounds. If the bounds alone exceed the budget they
    /// are dropped (the practical fallback documented in DESIGN.md).
    std::vector<double> lower_bounds;
    /// Optional per-VM current allocations; when set, each VM's current
    /// size becomes an extra MCKP candidate so over-provisioned VMs keep
    /// their slack unless the budget needs it (robustness to prediction
    /// error at zero predicted cost; see build_reduced_demand_set).
    std::vector<double> current_capacities;
    /// Optional stage-metrics sink (not owned): the ATM policies record
    /// `resize.mckp.candidates` and the greedy solver's iteration
    /// counters into it. Null disables instrumentation.
    obs::MetricsRegistry* metrics = nullptr;
};

/// Per-VM capacity allocations chosen by a policy.
struct ResizeResult {
    std::vector<double> capacities;
    /// Tickets the allocation incurs on the *input* demand series.
    int tickets = 0;
    bool feasible = true;
};

/// The ATM resizing algorithm (Section IV): reduce each VM's demands via
/// Lemma 4.1 + epsilon discretization, then solve the MCKP greedily by
/// marginal ticket reduction values.
ResizeResult atm_resize(const ResizeInput& input);

/// Same, but solving the MCKP exactly (DP oracle) — ablation/testing.
ResizeResult atm_resize_exact(const ResizeInput& input, int grid_steps = 4096);

/// Max-min fairness baseline (Section IV-B): every VM requests the
/// capacity that would keep it ticket-free (max demand / alpha,
/// "considering its ticket threshold"); requests are satisfied by
/// water-filling in increasing order of request, splitting remaining
/// capacity equally among still-unsatisfied VMs — small VMs are protected,
/// large VMs absorb the shortage.
ResizeResult max_min_fairness_resize(const ResizeInput& input);

/// Stingy baseline (Section IV-B): allocate exactly the lower bound — the
/// maximum observed demand — "regardless of the ticket threshold".
ResizeResult stingy_resize(const ResizeInput& input);

/// Tickets incurred by an arbitrary allocation on the given demands
/// (sum over VMs of windows with demand > alpha * capacity).
int tickets_for_allocation(const std::vector<std::vector<double>>& demands,
                           const std::vector<double>& capacities, double alpha);

/// Policy selector used by benches and examples.
enum class ResizePolicy {
    kAtmGreedy,
    kAtmGreedyNoDiscretization,
    kMaxMinFairness,
    kStingy,
};
std::string to_string(ResizePolicy policy);
ResizeResult apply_policy(ResizePolicy policy, const ResizeInput& input);

}  // namespace atm::resize
