#pragma once

#include <stdexcept>
#include <string>

namespace atm::core {

/// Structured failure taxonomy of the per-box pipeline. Every way a box
/// can fail (or degrade) maps to exactly one code, so fleet runs over
/// malformed production exports report *what* went wrong per box instead
/// of one opaque exception string, and chaos tests can assert that an
/// injected fault surfaced as the code it should.
///
/// The names are stable: `to_string` values are used as metric suffixes
/// (`robust.error.<code>`, see DESIGN.md §7.11) and in reports.
enum class PipelineErrorCode {
    kNone = 0,          ///< no error (default for successful boxes)
    kTraceInvalid,      ///< input rejected: empty/short/too-corrupt trace
    kRepairFailed,      ///< a series had no valid sample to repair from
    kSearchDegenerate,  ///< clustering collapsed / silhouette undefined
    kModelFitFailed,    ///< temporal model non-finite or failed to fit
    kSolverSingular,    ///< OLS solve failed; ridge fallback engaged
    kResizeInfeasible,  ///< MCKP infeasible even at minimal candidates
    // Ordinals are fixed (7 is unused) because digests of fleet results
    // mix them.
    kCancelled = 8,     ///< operator stop drained the run before this box
    kFaultInjected,     ///< thrown by an exec::FaultPlan site
    kInternal,          ///< anything not classified above (catch-all)
};

/// Stable kebab-case name ("trace-invalid", ...); "none" / "internal" at
/// the ends. Suitable as a metric-name suffix.
const char* to_string(PipelineErrorCode code);

/// Inverse of `to_string`, for decoding journaled box records. Throws
/// std::invalid_argument on an unknown name (a journal from a different
/// schema version must not decode silently).
PipelineErrorCode error_code_from_string(const std::string& name);

/// Counter name under which fleet aggregation records one increment per
/// failed box: "robust.error." + to_string(code).
std::string error_counter_name(PipelineErrorCode code);

/// Exception carrying the taxonomy: the code, the pipeline stage that
/// raised it ("sanitize", "search", "forecast", ...), and a human-readable
/// message. The fleet driver catches these and fills the structured
/// FleetBoxResult fields instead of flattening everything into a string.
class PipelineError : public std::runtime_error {
  public:
    PipelineError(PipelineErrorCode code, std::string stage,
                  const std::string& message)
        : std::runtime_error(stage + ": " + message),
          code_(code),
          stage_(std::move(stage)) {}

    [[nodiscard]] PipelineErrorCode code() const { return code_; }
    [[nodiscard]] const std::string& stage() const { return stage_; }

  private:
    PipelineErrorCode code_;
    std::string stage_;
};

/// One rung of the graceful-degradation ladder that fired for a box: the
/// condition (code), the stage it fired in, and what the fallback was.
/// Degraded boxes stay in the fleet aggregates; this records how they got
/// there. Counted under `robust.fallback.<stage>`.
struct Degradation {
    PipelineErrorCode code = PipelineErrorCode::kNone;
    std::string stage;
    std::string detail;
};

}  // namespace atm::core
