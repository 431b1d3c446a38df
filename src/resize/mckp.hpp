#pragma once

#include <vector>

#include "resize/reduced_demand.hpp"

namespace atm::obs {
class MetricsRegistry;
}

namespace atm::resize {

/// A multi-choice knapsack instance: one candidate group per VM; exactly
/// one candidate must be chosen per group; the sum of chosen capacities
/// must not exceed `total_capacity`; minimize the sum of chosen ticket
/// counts (problem R' of Section IV-A1).
struct MckpInstance {
    std::vector<ReducedDemandSet> groups;
    double total_capacity = 0.0;
};

/// Solution: `choice[i]` indexes groups[i].candidates; `capacities[i]` is
/// the chosen allocation; `total_tickets` the objective value.
struct MckpSolution {
    std::vector<int> choice;
    std::vector<double> capacities;
    int total_tickets = 0;
    double used_capacity = 0.0;
    bool feasible = true;
};

/// Greedy MTRV solver in the spirit of Pisinger's "minimal algorithm" as
/// the paper applies it (Section IV-A1): start every VM at its maximal
/// candidate (fewest tickets); while the capacity constraint is violated,
/// downgrade the VM with the lowest marginal ticket reduction value
///   MTRV = (P_{i,o} − P_{i,o−1}) / (D'_{i,o−1} − D'_{i,o})
/// i.e. the fewest extra tickets per unit of capacity released, one
/// candidate step at a time, until the allocations fit.
///
/// If the instance is infeasible even with every VM at its minimal
/// candidate (possible with lower bounds), the minimal choice is returned
/// with `feasible = false`.
///
/// When `metrics` is non-null, records deterministic counters:
/// `resize.mckp.groups`, `resize.mckp.greedy_iterations` (downgrade
/// steps taken) and `resize.mckp.infeasible`.
MckpSolution solve_mckp_greedy(const MckpInstance& instance,
                               obs::MetricsRegistry* metrics = nullptr);

/// Exact MCKP solver via dynamic programming over a discretized capacity
/// grid of `grid_steps` cells (capacities are scaled down — conservatively
/// floored — so the solution never exceeds the true budget). Exponential
/// memory is avoided but the grid makes it approximate within one cell;
/// with grid_steps large relative to candidate count it is exact for
/// integral-capacity instances. Intended as a test/ablation oracle on
/// small boxes, not for production use.
MckpSolution solve_mckp_exact(const MckpInstance& instance, int grid_steps = 4096);

}  // namespace atm::resize
