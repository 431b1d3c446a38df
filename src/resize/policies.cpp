#include "resize/policies.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace atm::resize {
namespace {

void validate(const ResizeInput& input) {
    if (input.demands.empty()) {
        throw std::invalid_argument("resize: no VMs");
    }
    if (input.alpha <= 0.0 || input.alpha > 1.0) {
        throw std::invalid_argument("resize: alpha must be in (0, 1]");
    }
    if (input.total_capacity < 0.0) {
        throw std::invalid_argument("resize: negative capacity");
    }
    if (!input.lower_bounds.empty() &&
        input.lower_bounds.size() != input.demands.size()) {
        throw std::invalid_argument("resize: lower bound count mismatch");
    }
    if (!input.epsilons.empty() &&
        input.epsilons.size() != input.demands.size()) {
        throw std::invalid_argument("resize: epsilon count mismatch");
    }
    if (!input.current_capacities.empty() &&
        input.current_capacities.size() != input.demands.size()) {
        throw std::invalid_argument("resize: current capacity count mismatch");
    }
}

/// Lower bounds, dropped wholesale if they alone exceed the budget.
std::vector<double> effective_lower_bounds(const ResizeInput& input) {
    if (input.lower_bounds.empty()) {
        return std::vector<double>(input.demands.size(), 0.0);
    }
    const double sum = std::accumulate(input.lower_bounds.begin(),
                                       input.lower_bounds.end(), 0.0);
    if (sum > input.total_capacity + 1e-9) {
        return std::vector<double>(input.demands.size(), 0.0);
    }
    return input.lower_bounds;
}

MckpInstance build_instance(const ResizeInput& input, bool discretize) {
    MckpInstance instance;
    instance.total_capacity = input.total_capacity;
    const std::vector<double> lbs = effective_lower_bounds(input);
    instance.groups.reserve(input.demands.size());
    for (std::size_t i = 0; i < input.demands.size(); ++i) {
        const double eps =
            !discretize ? 0.0
            : input.epsilons.empty() ? input.epsilon
                                     : input.epsilons[i];
        const double keep = input.current_capacities.empty()
                                ? -1.0
                                : input.current_capacities[i];
        instance.groups.push_back(build_reduced_demand_set(
            input.demands[i], input.alpha, eps, lbs[i],
            /*upper_bound=*/input.total_capacity, keep));
    }
    if (input.metrics != nullptr) {
        std::uint64_t candidates = 0;
        for (const ReducedDemandSet& g : instance.groups) {
            candidates += g.candidates.size();
        }
        input.metrics->add("resize.mckp.candidates", candidates);
    }
    return instance;
}

ResizeResult from_solution(const ResizeInput& input, const MckpSolution& sol) {
    ResizeResult result;
    result.capacities = sol.capacities;
    result.feasible = sol.feasible;
    // Recount tickets on the *raw* demands: the MCKP objective counts
    // tickets on discretized demands, which upper-bounds the real count.
    result.tickets =
        tickets_for_allocation(input.demands, result.capacities, input.alpha);
    return result;
}

}  // namespace

int tickets_for_allocation(const std::vector<std::vector<double>>& demands,
                           const std::vector<double>& capacities, double alpha) {
    if (demands.size() != capacities.size()) {
        throw std::invalid_argument("tickets_for_allocation: size mismatch");
    }
    int total = 0;
    for (std::size_t i = 0; i < demands.size(); ++i) {
        const double limit = alpha * capacities[i];
        for (double d : demands[i]) {
            if (d > limit + 1e-12) ++total;
        }
    }
    return total;
}

ResizeResult atm_resize(const ResizeInput& input) {
    validate(input);
    return from_solution(
        input, solve_mckp_greedy(build_instance(input, /*discretize=*/true),
                                 input.metrics));
}

ResizeResult atm_resize_exact(const ResizeInput& input, int grid_steps) {
    validate(input);
    return from_solution(
        input,
        solve_mckp_exact(build_instance(input, /*discretize=*/true), grid_steps));
}

ResizeResult max_min_fairness_resize(const ResizeInput& input) {
    validate(input);
    const std::size_t n = input.demands.size();

    // Threshold-aware request: the smallest allocation keeping VM i
    // ticket-free the whole window.
    std::vector<double> request(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const double peak = input.demands[i].empty()
                                ? 0.0
                                : *std::max_element(input.demands[i].begin(),
                                                    input.demands[i].end());
        request[i] = peak / input.alpha;
    }

    // Water-filling: serve requests in increasing order; each unsatisfied
    // VM gets at most an equal share of what remains.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return request[a] < request[b]; });

    ResizeResult result;
    result.capacities.assign(n, 0.0);
    double remaining = input.total_capacity;
    std::size_t unsatisfied = n;
    for (std::size_t idx : order) {
        const double fair_share = remaining / static_cast<double>(unsatisfied);
        const double grant = std::min(request[idx], fair_share);
        result.capacities[idx] = grant;
        remaining -= grant;
        --unsatisfied;
    }
    result.tickets =
        tickets_for_allocation(input.demands, result.capacities, input.alpha);
    result.feasible = true;
    return result;
}

ResizeResult stingy_resize(const ResizeInput& input) {
    validate(input);
    ResizeResult result;
    result.capacities.reserve(input.demands.size());
    double used = 0.0;
    for (const auto& d : input.demands) {
        const double peak = d.empty() ? 0.0 : *std::max_element(d.begin(), d.end());
        result.capacities.push_back(peak);
        used += peak;
    }
    result.feasible = used <= input.total_capacity + 1e-9;
    result.tickets =
        tickets_for_allocation(input.demands, result.capacities, input.alpha);
    return result;
}

std::string to_string(ResizePolicy policy) {
    switch (policy) {
        case ResizePolicy::kAtmGreedy: return "atm";
        case ResizePolicy::kAtmGreedyNoDiscretization: return "atm-no-eps";
        case ResizePolicy::kMaxMinFairness: return "max-min";
        case ResizePolicy::kStingy: return "stingy";
    }
    return "unknown";
}

ResizeResult apply_policy(ResizePolicy policy, const ResizeInput& input) {
    switch (policy) {
        case ResizePolicy::kAtmGreedy:
            return atm_resize(input);
        case ResizePolicy::kAtmGreedyNoDiscretization: {
            ResizeInput no_eps = input;
            no_eps.epsilon = 0.0;
            no_eps.epsilons.clear();
            return atm_resize(no_eps);
        }
        case ResizePolicy::kMaxMinFairness:
            return max_min_fairness_resize(input);
        case ResizePolicy::kStingy:
            return stingy_resize(input);
    }
    throw std::invalid_argument("apply_policy: unknown policy");
}

}  // namespace atm::resize
