#include "exec/fault.hpp"

#include <charconv>
#include <cmath>
#include <limits>

#include "exec/seed.hpp"

namespace atm::exec {

namespace {

/// FNV-1a so a site name folds into the seed chain deterministically
/// (independent of pointer identity or locale).
std::uint64_t hash_site(const std::string& site) {
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const char c : site) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ull;
    }
    return h;
}

/// Uniform draw in [0, 1) from a fully-mixed 64-bit key: top 53 bits
/// scaled by 2^-53 (the standard double mantissa construction).
double uniform01(std::uint64_t key) {
    return static_cast<double>(splitmix64(key) >> 11) * 0x1.0p-53;
}

constexpr std::uint64_t kTruncateStream = 0x7472756E63617465ull;  // "truncate"
constexpr std::size_t kZeroRunLength = 8;

bool is_sample_action(FaultAction action) {
    return action == FaultAction::kNan || action == FaultAction::kInf ||
           action == FaultAction::kNegative || action == FaultAction::kZeroRun;
}

FaultAction parse_action(const std::string& text, const std::string& rule) {
    if (text == "nan") return FaultAction::kNan;
    if (text == "inf") return FaultAction::kInf;
    if (text == "negative") return FaultAction::kNegative;
    if (text == "zero-run") return FaultAction::kZeroRun;
    if (text == "truncate") return FaultAction::kTruncate;
    if (text == "throw") return FaultAction::kThrow;
    throw std::invalid_argument("fault spec: unknown action '" + text +
                                "' in rule '" + rule + "'");
}

FaultRule parse_rule(const std::string& rule) {
    const std::size_t eq = rule.find('=');
    if (eq == std::string::npos || eq == 0) {
        throw std::invalid_argument(
            "fault spec: expected 'site=action[@rate]', got '" + rule + "'");
    }
    FaultRule out;
    out.site = rule.substr(0, eq);
    std::string action_text = rule.substr(eq + 1);
    const std::size_t at = action_text.find('@');
    if (at != std::string::npos) {
        const std::string rate_text = action_text.substr(at + 1);
        action_text.resize(at);
        const char* begin = rate_text.data();
        const char* end = begin + rate_text.size();
        const auto [ptr, ec] = std::from_chars(begin, end, out.rate);
        if (ec != std::errc{} || ptr != end) {
            throw std::invalid_argument("fault spec: bad rate '" + rate_text +
                                        "' in rule '" + rule + "'");
        }
    }
    out.action = parse_action(action_text, rule);
    if (!(out.rate > 0.0) || out.rate > 1.0) {
        throw std::invalid_argument("fault spec: rate must be in (0, 1] in rule '" +
                                    rule + "'");
    }
    const bool sample_site = out.site == "samples";
    const bool series_site = out.site == "series";
    if (is_sample_action(out.action) && !sample_site) {
        throw std::invalid_argument("fault spec: action '" +
                                    std::string(to_string(out.action)) +
                                    "' requires site 'samples' in rule '" + rule +
                                    "'");
    }
    if (out.action == FaultAction::kTruncate && !series_site) {
        throw std::invalid_argument(
            "fault spec: action 'truncate' requires site 'series' in rule '" +
            rule + "'");
    }
    if (out.action == FaultAction::kThrow && (sample_site || series_site)) {
        throw std::invalid_argument(
            "fault spec: action 'throw' needs a code site, not '" + out.site +
            "' in rule '" + rule + "'");
    }
    return out;
}

}  // namespace

const char* to_string(FaultAction action) {
    switch (action) {
        case FaultAction::kNan: return "nan";
        case FaultAction::kInf: return "inf";
        case FaultAction::kNegative: return "negative";
        case FaultAction::kZeroRun: return "zero-run";
        case FaultAction::kTruncate: return "truncate";
        case FaultAction::kThrow: return "throw";
    }
    return "unknown";
}

bool FaultPlan::has_data_faults() const {
    for (const FaultRule& rule : rules) {
        if (is_sample_action(rule.action) || rule.action == FaultAction::kTruncate) {
            return true;
        }
    }
    return false;
}

FaultPlan FaultPlan::parse(const std::string& spec, std::uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t comma = spec.find(',', start);
        if (comma == std::string::npos) comma = spec.size();
        const std::string rule = spec.substr(start, comma - start);
        if (!rule.empty()) plan.rules.push_back(parse_rule(rule));
        start = comma + 1;
    }
    if (plan.rules.empty() && !spec.empty()) {
        throw std::invalid_argument("fault spec: no rules in '" + spec + "'");
    }
    return plan;
}

void FaultContext::check_site(const char* site) const {
    if (plan == nullptr) return;
    const std::string name(site);
    for (const FaultRule& rule : plan->rules) {
        if (rule.action != FaultAction::kThrow || rule.site != name) continue;
        std::uint64_t key =
            derive_seed(derive_seed(plan->seed, entity), hash_site(name));
        // Epoch 0 / attempt 0 keep the historical key chain so existing
        // plans (and the golden chaos runs) are unchanged; each streaming
        // window and each re-delivery of it re-rolls independently.
        if (epoch != 0) key = derive_seed(key, epoch);
        if (attempt != 0) key = derive_seed(key, attempt);
        if (uniform01(key) < rule.rate) throw InjectedFault(name);
    }
}

std::uint64_t FaultContext::corrupt_samples(std::span<double> xs,
                                            std::uint64_t stream) const {
    if (plan == nullptr || xs.empty()) return 0;
    std::uint64_t corrupted = 0;
    std::size_t rule_index = 0;
    for (const FaultRule& rule : plan->rules) {
        ++rule_index;
        if (!is_sample_action(rule.action) || rule.site != "samples") continue;
        // Key chain: seed -> entity -> (stream, rule) -> sample index. Each
        // sample decision is independent of evaluation order, so the same
        // plan corrupts the same samples regardless of --jobs.
        std::uint64_t base = derive_seed(
            derive_seed(plan->seed, entity),
            derive_seed(stream, rule_index + hash_site(rule.site)));
        if (epoch != 0) base = derive_seed(base, epoch);
        for (std::size_t t = 0; t < xs.size(); ++t) {
            if (uniform01(derive_seed(base, t)) >= rule.rate) continue;
            switch (rule.action) {
                case FaultAction::kNan:
                    xs[t] = std::numeric_limits<double>::quiet_NaN();
                    ++corrupted;
                    break;
                case FaultAction::kInf:
                    xs[t] = std::numeric_limits<double>::infinity();
                    ++corrupted;
                    break;
                case FaultAction::kNegative:
                    xs[t] = -(std::fabs(xs[t]) + 1.0);
                    ++corrupted;
                    break;
                case FaultAction::kZeroRun: {
                    const std::size_t stop =
                        std::min(xs.size(), t + kZeroRunLength);
                    for (std::size_t u = t; u < stop; ++u) xs[u] = 0.0;
                    corrupted += stop - t;
                    t = stop - 1;  // loop increment moves past the run
                    break;
                }
                default:
                    break;
            }
        }
    }
    return corrupted;
}

std::size_t FaultContext::truncated_length(std::size_t length) const {
    if (plan == nullptr || length == 0) return length;
    for (const FaultRule& rule : plan->rules) {
        if (rule.action != FaultAction::kTruncate || rule.site != "series") {
            continue;
        }
        std::uint64_t key =
            derive_seed(derive_seed(plan->seed, entity), kTruncateStream);
        if (epoch != 0) key = derive_seed(key, epoch);
        if (uniform01(key) < rule.rate) return length - length / 4;
    }
    return length;
}

}  // namespace atm::exec
