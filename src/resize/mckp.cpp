#include "resize/mckp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace atm::resize {
namespace {

constexpr int kInfTickets = std::numeric_limits<int>::max() / 4;

void validate(const MckpInstance& instance) {
    if (instance.total_capacity < 0.0) {
        throw std::invalid_argument("mckp: negative capacity budget");
    }
    for (const ReducedDemandSet& g : instance.groups) {
        if (g.candidates.empty()) {
            throw std::invalid_argument("mckp: empty candidate group");
        }
        for (std::size_t v = 1; v < g.candidates.size(); ++v) {
            if (g.candidates[v].capacity >= g.candidates[v - 1].capacity) {
                throw std::invalid_argument("mckp: candidates not strictly decreasing");
            }
        }
    }
}

MckpSolution assemble(const MckpInstance& instance, std::vector<int> choice,
                      bool feasible) {
    MckpSolution sol;
    sol.choice = std::move(choice);
    sol.feasible = feasible;
    sol.capacities.resize(instance.groups.size());
    for (std::size_t i = 0; i < instance.groups.size(); ++i) {
        const CapacityCandidate& c =
            instance.groups[i].candidates[static_cast<std::size_t>(sol.choice[i])];
        sol.capacities[i] = c.capacity;
        sol.total_tickets += c.tickets;
        sol.used_capacity += c.capacity;
    }
    return sol;
}

}  // namespace

MckpSolution solve_mckp_greedy(const MckpInstance& instance,
                               obs::MetricsRegistry* metrics) {
    validate(instance);
    const std::size_t n = instance.groups.size();
    std::vector<int> choice(n, 0);  // start: max capacity = fewest tickets
    double used = 0.0;
    for (const ReducedDemandSet& g : instance.groups) {
        used += g.candidates.front().capacity;
    }
    if (metrics != nullptr) metrics->add("resize.mckp.groups", n);

    std::uint64_t iterations = 0;
    while (used > instance.total_capacity + 1e-9) {
        double best_mtrv = std::numeric_limits<double>::infinity();
        std::size_t best_i = n;
        double best_current_cap = -1.0;
        for (std::size_t i = 0; i < n; ++i) {
            const auto& cands = instance.groups[i].candidates;
            const auto cur = static_cast<std::size_t>(choice[i]);
            if (cur + 1 >= cands.size()) continue;  // already minimal
            const double released = cands[cur].capacity - cands[cur + 1].capacity;
            const double extra =
                static_cast<double>(cands[cur + 1].tickets - cands[cur].tickets);
            const double mtrv = extra / released;
            // Ties broken toward the VM holding the most capacity: the
            // objective is indifferent, but spreading downgrades across
            // equal VMs avoids starving one of them (which would wreck its
            // throughput without reducing tickets any further).
            if (mtrv < best_mtrv - 1e-12 ||
                (mtrv < best_mtrv + 1e-12 && cands[cur].capacity > best_current_cap)) {
                best_mtrv = std::min(mtrv, best_mtrv);
                best_i = i;
                best_current_cap = cands[cur].capacity;
            }
        }
        if (best_i == n) {
            // Every VM already at its minimal candidate: infeasible budget.
            if (metrics != nullptr) {
                metrics->add("resize.mckp.greedy_iterations", iterations);
                metrics->add("resize.mckp.infeasible");
            }
            return assemble(instance, std::move(choice), /*feasible=*/false);
        }
        const auto& cands = instance.groups[best_i].candidates;
        const auto cur = static_cast<std::size_t>(choice[best_i]);
        used -= cands[cur].capacity - cands[cur + 1].capacity;
        ++choice[best_i];
        ++iterations;
    }
    if (metrics != nullptr) {
        metrics->add("resize.mckp.greedy_iterations", iterations);
    }
    return assemble(instance, std::move(choice), /*feasible=*/true);
}

MckpSolution solve_mckp_exact(const MckpInstance& instance, int grid_steps) {
    validate(instance);
    if (grid_steps < 1) throw std::invalid_argument("solve_mckp_exact: bad grid");
    const std::size_t n = instance.groups.size();
    if (n == 0) return MckpSolution{};

    const double unit =
        instance.total_capacity > 0.0
            ? instance.total_capacity / static_cast<double>(grid_steps)
            : 1.0;
    auto weight_of = [&](double capacity) {
        // Round capacity *up* to grid cells so any DP-feasible selection
        // also fits the real (continuous) budget.
        return static_cast<int>(std::ceil(capacity / unit - 1e-9));
    };

    const auto width = static_cast<std::size_t>(grid_steps) + 1;
    std::vector<int> dp(width, kInfTickets);
    std::vector<std::vector<int>> parent(
        n, std::vector<int>(width, -1));  // chosen candidate per (group, w)

    // Group 0 seeds the table.
    {
        const auto& cands = instance.groups[0].candidates;
        for (std::size_t v = 0; v < cands.size(); ++v) {
            const int w = weight_of(cands[v].capacity);
            if (w > grid_steps) continue;
            for (std::size_t budget = static_cast<std::size_t>(w); budget < width; ++budget) {
                if (cands[v].tickets < dp[budget]) {
                    dp[budget] = cands[v].tickets;
                    parent[0][budget] = static_cast<int>(v);
                }
            }
        }
    }
    for (std::size_t g = 1; g < n; ++g) {
        std::vector<int> next(width, kInfTickets);
        const auto& cands = instance.groups[g].candidates;
        for (std::size_t budget = 0; budget < width; ++budget) {
            for (std::size_t v = 0; v < cands.size(); ++v) {
                const int w = weight_of(cands[v].capacity);
                if (static_cast<std::size_t>(w) > budget) continue;
                const int prev = dp[budget - static_cast<std::size_t>(w)];
                if (prev >= kInfTickets) continue;
                const int total = prev + cands[v].tickets;
                if (total < next[budget]) {
                    next[budget] = total;
                    parent[g][budget] = static_cast<int>(v);
                }
            }
        }
        dp = std::move(next);
    }

    if (dp[width - 1] >= kInfTickets) {
        // Infeasible on the grid: report the all-minimal choice.
        std::vector<int> choice(n);
        for (std::size_t i = 0; i < n; ++i) {
            choice[i] = static_cast<int>(instance.groups[i].candidates.size()) - 1;
        }
        return assemble(instance, std::move(choice), /*feasible=*/false);
    }

    // Reconstruct choices backwards. The parent table stores, for each
    // (group, residual budget), the candidate achieving dp; walk it down.
    std::vector<int> choice(n, 0);
    std::size_t budget = width - 1;
    for (std::size_t g = n; g-- > 0;) {
        const int v = parent[g][budget];
        choice[g] = v;
        const int w = weight_of(
            instance.groups[g].candidates[static_cast<std::size_t>(v)].capacity);
        budget -= static_cast<std::size_t>(w);
    }
    return assemble(instance, std::move(choice), /*feasible=*/true);
}

}  // namespace atm::resize
