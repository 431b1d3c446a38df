#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/errors.hpp"
#include "core/signature_search.hpp"
#include "core/spatial_model.hpp"
#include "exec/fault.hpp"
#include "forecast/forecaster.hpp"
#include "obs/metrics.hpp"
#include "resize/policies.hpp"
#include "ticketing/tickets.hpp"
#include "tracegen/trace.hpp"

namespace atm::core {

/// Configuration of the full ATM pipeline (Section V-A): train the
/// spatial + temporal models on `train_days` of history, predict the next
/// day, and resize every box's VMs for that day.
struct PipelineConfig {
    SignatureSearchOptions search;
    forecast::TemporalModel temporal = forecast::TemporalModel::kNeuralNetwork;
    /// Days of history used for signature search / model training.
    int train_days = 5;
    /// Ticket threshold as a fraction (usage tickets at 60%).
    double alpha = 0.6;
    /// Discretization factor epsilon, in *percent of each VM's current
    /// capacity*: predicted demands are rounded up to multiples of
    /// (epsilon_pct/100) x capacity before resizing. The paper's eps = 5
    /// on percent-scaled demands corresponds to epsilon_pct = 5. <= 0
    /// disables discretization.
    double epsilon_pct = 5.0;
    /// Enforce per-VM capacity lower bounds = peak demand over the last
    /// training day (Section IV-A1: no spillover of unfinished demand).
    bool use_lower_bounds = true;
    /// Restrict the model to a resource subset (Fig. 7 ablation).
    ResourceScope scope = ResourceScope::kInter;
    unsigned seed = 42;
    /// Sanitization threshold: a box whose scoped demand matrix contains
    /// more than this fraction of bad samples (non-finite or negative) is
    /// rejected with PipelineErrorCode::kTraceInvalid; at or below it, bad
    /// samples are repaired in place (ts::repair_gaps) and the box
    /// continues with a `degradations` entry. Must be in [0, 1].
    double max_bad_sample_fraction = 0.5;
    /// Chaos-testing context (see exec/fault.hpp). Default (null plan) is
    /// inert: every ATM_FAULT_SITE reduces to one pointer test.
    exec::FaultContext fault;
    /// Optional stage-metrics sink (not owned). When set, the pipeline
    /// records per-stage timers (`stage.search`, `stage.spatial_fit`,
    /// `stage.forecast`, `stage.reconstruct`, `stage.accuracy`,
    /// `stage.resize`), the search's two sub-timers inside `stage.search`
    /// (`search.cluster`: Step 1 clustering; `search.vif`: Step 2
    /// multicollinearity removal; no `stage.` prefix, so a sum over
    /// `stage.*` counts them once), per-model fit/predict timers, the
    /// `predict.ape` histogram and all sub-stage counters, and the final
    /// snapshot is copied into BoxPipelineResult::metrics. Also forwarded
    /// into the signature search (overriding `search.metrics` for the
    /// run). Null disables all instrumentation at near-zero cost.
    obs::MetricsRegistry* metrics = nullptr;

    /// Range-checks alpha, train_days, epsilon_pct,
    /// max_bad_sample_fraction, search.vif_threshold (finite, >= 1) and
    /// search.rho_threshold ([-1, 1]); NaN fails. "" when valid, else
    /// every violation joined with "; ". Fleet and serve validation start
    /// here.
    [[nodiscard]] std::string validate() const;
};

/// Ticket outcome of one policy on one box for one resource.
struct PolicyTickets {
    resize::ResizePolicy policy = resize::ResizePolicy::kAtmGreedy;
    int cpu_before = 0;
    int cpu_after = 0;
    int ram_before = 0;
    int ram_after = 0;

    /// Signed reduction percentage; 0 when there were no tickets before.
    [[nodiscard]] double cpu_reduction_pct() const {
        return cpu_before == 0
                   ? 0.0
                   : 100.0 * static_cast<double>(cpu_before - cpu_after) / cpu_before;
    }
    [[nodiscard]] double ram_reduction_pct() const {
        return ram_before == 0
                   ? 0.0
                   : 100.0 * static_cast<double>(ram_before - ram_after) / ram_before;
    }
};

/// Full per-box pipeline outcome.
struct BoxPipelineResult {
    SignatureSearchResult search;
    /// Mean fractional APE of the predicted demand of every series on the
    /// evaluation day (Fig. 9 "All").
    double ape_all = 0.0;
    /// Mean fractional APE restricted to windows whose *actual* usage
    /// exceeds the ticket threshold (Fig. 9 "Peak"); 0 if no such window.
    double ape_peak = 0.0;
    /// Predicted demand matrix for the evaluation day (flattened VM-major
    /// layout, same as BoxTrace::demand_matrix).
    std::vector<std::vector<double>> predicted_demands;
    /// One entry per evaluated policy.
    std::vector<PolicyTickets> policies;
    /// Graceful-degradation ladder rungs that fired for this box, in stage
    /// order (empty on the clean path). A box with degradations still
    /// counts in fleet aggregates; each entry is also counted under the
    /// `robust.fallback.<stage>` metric.
    std::vector<Degradation> degradations;
    /// Snapshot of PipelineConfig::metrics taken when the pipeline ends;
    /// empty when no registry was attached.
    obs::MetricsSnapshot metrics;
};

/// The signature model of one series set: the signature search's result
/// and the spatial model fitted on its final signatures.
struct SignatureModel {
    SignatureSearchResult search;
    SpatialModel spatial;
};

/// The search and spatial rungs of the degradation ladder (DESIGN.md
/// §7.11), shared by run_pipeline_on_box and serve::ServeEngine: signature
/// search on `series`, then the spatial OLS fit. A degenerate search
/// (throws, empty set, undefined silhouette) or a fit that fails even with
/// ridge falls back to the all-signature set. Each fired rung lands in
/// `degradations` and as `robust.fallback.<stage>` in config.metrics, next
/// to the `stage.search` / `stage.spatial_fit` timers.
SignatureModel fit_signature_model(const la::FlatMatrix& series,
                                   const PipelineConfig& config,
                                   std::vector<Degradation>& degradations);

/// The resize input of one resource kind on `box`, shared by the batch
/// pipeline and serve: per-VM `demands` and current capacities, epsilon
/// steps of `epsilon_pct` % of each capacity (none when <= 0), and with a
/// non-empty `last_day` each VM's peak over last_day[i] as its lower bound
/// (Section IV-A1). `metrics` is left for the caller.
resize::ResizeInput make_resize_input(
    const trace::BoxTrace& box, ts::ResourceKind kind,
    std::vector<std::vector<double>> demands, double alpha, double epsilon_pct,
    const std::vector<std::span<const double>>& last_day);

/// The policy set evaluated when a caller does not name one: the paper's
/// ATM greedy alone. Shared by every pipeline entry point so the default
/// is declared exactly once.
const std::vector<resize::ResizePolicy>& default_policies();

/// Runs the full ATM pipeline on one box: signature search + spatial model
/// on the training window, temporal forecasts for signatures, spatial
/// reconstruction for dependents, then VM resizing for the evaluation day
/// under each of `policies`. Prediction-driven policies decide capacities
/// from the *predicted* demands; tickets before/after are both counted on
/// the *actual* evaluation-day demands.
///
/// Failure behavior (DESIGN.md §7.11): a box that is empty, too short,
/// or whose VMs' series differ in length is rejected with
/// PipelineError(kTraceInvalid, "input"); malformed samples are sanitized
/// or the box is rejected with PipelineError(kTraceInvalid); recoverable stage
/// failures (degenerate clustering, singular OLS, diverging temporal
/// model, infeasible MCKP) engage per-stage fallbacks recorded in
/// BoxPipelineResult::degradations; anything unrecoverable throws
/// PipelineError carrying the taxonomy code and stage.
///
/// Fleet-scale callers should prefer `run_pipeline_on_fleet` (core/fleet.hpp),
/// which runs this for every box on its parallel loop with per-box seeds.
/// Each call allocates its own DTW and MLP scratch, so concurrent calls
/// share nothing but their read-only inputs.
BoxPipelineResult run_pipeline_on_box(
    const trace::BoxTrace& box, int windows_per_day, const PipelineConfig& config,
    const std::vector<resize::ResizePolicy>& policies = default_policies());

/// Fig. 8 study: resizing with *perfect* demand knowledge — policies see
/// the actual demands of evaluation day `day` (no prediction). Returns
/// one PolicyTickets per policy.
std::vector<PolicyTickets> evaluate_resize_policies_on_actuals(
    const trace::BoxTrace& box, int windows_per_day, int day, double alpha,
    double epsilon_pct,
    const std::vector<resize::ResizePolicy>& policies = default_policies(),
    bool use_lower_bounds = true, obs::MetricsRegistry* metrics = nullptr);

}  // namespace atm::core
