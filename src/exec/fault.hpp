#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace atm::exec {

/// What an injected fault does when its rule fires.
enum class FaultAction {
    kNan,      ///< overwrite a sample with quiet NaN        (site "samples")
    kInf,      ///< overwrite a sample with +infinity        (site "samples")
    kNegative, ///< overwrite a sample with a negative value (site "samples")
    kZeroRun,  ///< zero a short run of samples              (site "samples")
    kTruncate, ///< drop the trailing quarter of every series (site "series")
    kThrow,    ///< throw InjectedFault at a named code site
};

const char* to_string(FaultAction action);

/// One rule of a fault plan: `site=action[@rate]`. Data rules target the
/// pseudo-sites "samples" (per-sample corruption) and "series" (per-box
/// truncation); throw rules name an ATM_FAULT_SITE instrumentation point
/// ("fleet.box", "pipeline.search", "forecast.fit", ...).
struct FaultRule {
    std::string site;
    FaultAction action = FaultAction::kThrow;
    double rate = 1.0;  ///< firing probability in (0, 1]
};

/// Exception thrown by a firing kThrow rule. Deliberately NOT a
/// core::PipelineError (exec cannot depend on core); the fleet driver maps
/// it to PipelineErrorCode::kFaultInjected and records the site as stage.
class InjectedFault : public std::runtime_error {
  public:
    explicit InjectedFault(std::string site)
        : std::runtime_error("injected fault at site '" + site + "'"),
          site_(std::move(site)) {}

    [[nodiscard]] const std::string& site() const { return site_; }

  private:
    std::string site_;
};

/// A reproducible chaos-testing plan: a seed plus a list of rules. All
/// randomness is derived with splitmix64 chains from
/// (seed, entity, site/stream, index) — never from shared RNG state — so a
/// fleet run under faults is bit-identical for jobs=1 vs jobs=N and across
/// repeat runs.
///
/// Spec grammar (see DESIGN.md §7.11):
///   spec  := rule (',' rule)*
///   rule  := site '=' action ('@' rate)?
///   action:= nan | inf | negative | zero-run | truncate | throw
///   rate  := decimal in (0, 1], default 1
/// Sample-corruption actions require site "samples"; truncate requires
/// site "series"; throw requires any other (code) site name.
struct FaultPlan {
    std::uint64_t seed = 0;
    std::vector<FaultRule> rules;

    [[nodiscard]] bool empty() const { return rules.empty(); }
    /// True when any rule corrupts or truncates data (as opposed to
    /// throwing at a code site) — the fleet driver only copies a box's
    /// trace when this is set.
    [[nodiscard]] bool has_data_faults() const;

    /// Parses the spec grammar above; throws std::invalid_argument with a
    /// pointer to the offending rule on malformed input.
    static FaultPlan parse(const std::string& spec, std::uint64_t seed);
};

/// Per-entity view of a plan, carried through the pipeline by value. A
/// default-constructed context (null plan) is inert: ATM_FAULT_SITE
/// reduces to a single pointer test.
struct FaultContext {
    const FaultPlan* plan = nullptr;
    std::uint64_t entity = 0;  ///< box index within the trace
    /// Delivery attempt (0 = first). Mixed into the throw-site draw key
    /// *only* when non-zero, so attempt-0 draws are bit-identical to a
    /// context without the field. Only the daemon's "serve.ingest" site
    /// sets it, to the delivery count of a window, so a client re-send
    /// after "busy" gets a fresh draw. Deterministic in (seed, entity,
    /// attempt, site).
    std::uint64_t attempt = 0;
    /// Streaming window number for daemon sites ("serve.ingest",
    /// "serve.apply"). Mixed into draw keys only when non-zero — batch
    /// contexts (which never set it) keep their historical key chains —
    /// so each (seed, epoch, box) gets an independent Bernoulli and a
    /// chaos plan fires on different windows for different boxes.
    std::uint64_t epoch = 0;

    /// Throws InjectedFault if a kThrow rule for `site` fires for this
    /// entity. Deterministic in (plan->seed, entity, site).
    void check_site(const char* site) const;

    /// Applies every "samples" rule to `xs`, drawing an independent
    /// Bernoulli per (entity, stream, index, rule). Returns the number of
    /// samples overwritten. `stream` distinguishes series within a box.
    std::uint64_t corrupt_samples(std::span<double> xs,
                                  std::uint64_t stream) const;

    /// Resolves the post-truncation length for a series of `length`
    /// samples: length - length/4 when a "series" truncate rule fires for
    /// this entity, unchanged otherwise.
    [[nodiscard]] std::size_t truncated_length(std::size_t length) const;
};

/// Stage-boundary instrumentation point. Zero-cost when no plan is armed
/// (one pointer test); named sites are listed in DESIGN.md §7.11.
#define ATM_FAULT_SITE(ctx, site)                          \
    do {                                                   \
        if ((ctx).plan != nullptr) (ctx).check_site(site); \
    } while (0)

}  // namespace atm::exec
