#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "forecast/mlp_forecaster.hpp"
#include "timeseries/stats.hpp"

namespace atm::core {
namespace {

/// Capacity of the VM+resource owning flat series index `flat`.
double series_capacity(const trace::BoxTrace& box, std::size_t flat) {
    const ts::SeriesId id = ts::SeriesId::from_flat(static_cast<int>(flat));
    return box.vms[static_cast<std::size_t>(id.vm_index)].capacity(id.resource);
}

/// Records one fired rung of the degradation ladder: an entry in
/// `degradations` plus a `robust.fallback.<stage>` counter. Nothing here
/// runs on the clean path, so the golden run's counter set is untouched.
void note_degradation(std::vector<Degradation>& degradations,
                      obs::MetricsRegistry* metrics, PipelineErrorCode code,
                      std::string stage, std::string detail) {
    if (metrics != nullptr) metrics->add("robust.fallback." + stage, 1);
    degradations.push_back(
        Degradation{code, std::move(stage), std::move(detail)});
}

/// Classifies an in-flight exception for degradation bookkeeping:
/// PipelineErrors keep their own code; anything else gets the rung's
/// default code.
PipelineErrorCode classify_current(const std::exception& e,
                                   PipelineErrorCode fallback_code) {
    if (const auto* pe = dynamic_cast<const PipelineError*>(&e)) {
        return pe->code();
    }
    return fallback_code;
}

/// Input checks shared by the box entry points: `who` names the entry
/// point, `need` is the sample count the call reads, and `short_detail`
/// explains a box shorter than that. Every series must hold
/// box.length() samples, the shape demand_matrix() copies, and every
/// demand sample must be finite and non-negative: the rule both trace
/// readers apply at load, so a box built in memory gets the verdict a
/// trace file would.
void check_box_input(const trace::BoxTrace& box, std::size_t need,
                     const std::string& who, const std::string& short_detail) {
    if (box.vms.empty()) {
        throw PipelineError(PipelineErrorCode::kTraceInvalid, "input",
                            who + ": empty box");
    }
    if (!box.equal_lengths()) {
        throw PipelineError(PipelineErrorCode::kTraceInvalid, "input",
                            who + ": VM series lengths differ within the box");
    }
    if (box.length() < need) {
        throw PipelineError(PipelineErrorCode::kTraceInvalid, "input",
                            who + ": " + short_detail);
    }
    for (const trace::VmTrace& vm : box.vms) {
        for (const auto& [resource, series] :
             {std::pair{"cpu", &vm.cpu_demand_ghz}, {"ram", &vm.ram_demand_gb}}) {
            const std::vector<double>& xs = series->values();
            for (std::size_t t = 0; t < xs.size(); ++t) {
                if (std::isfinite(xs[t]) && xs[t] >= 0.0) continue;
                throw PipelineError(PipelineErrorCode::kTraceInvalid, "input",
                                    who + ": VM " + vm.name + " has a non-finite "
                                    "or negative " + resource +
                                    " demand at window " + std::to_string(t));
            }
        }
    }
}

/// Resize policies evaluated for one resource kind on `input` (built by
/// make_resize_input from the demand series the policy *sees*, predicted
/// or actual), with tickets counted on the actual demands.
void run_policies_for_kind(
    const trace::BoxTrace& box, ts::ResourceKind kind,
    const resize::ResizeInput& input,
    const std::vector<std::vector<double>>& actual_demands,
    const std::vector<resize::ResizePolicy>& policies,
    std::vector<PolicyTickets>& results,
    std::vector<Degradation>& degradations) {
    const std::size_t m = box.vms.size();
    const double alpha = input.alpha;
    obs::MetricsRegistry* metrics = input.metrics;

    // Tickets before resizing: actual demands against current allocations.
    int before = 0;
    for (std::size_t i = 0; i < m; ++i) {
        before += ticketing::count_demand_tickets(actual_demands[i],
                                                  box.vms[i].capacity(kind), alpha);
    }

    for (std::size_t p = 0; p < policies.size(); ++p) {
        obs::ScopedTimer policy_timer(
            metrics, "resize.policy." + resize::to_string(policies[p]));
        // The ATM policies optimize against a capacity budget and can come
        // back infeasible: effective_lower_bounds keeps only bound sets that
        // fit it, but a VM's smallest candidate may sit up to the 1e-9
        // dedup tolerance above its bound (a current capacity that close
        // stands in for the bound), so a box whose bounds sum to its budget
        // can overshoot it. That degrades to the always-feasible max-min
        // water-filling. The baselines have no budget to violate, so their
        // (informational) feasible flag is passed through untouched.
        const bool is_atm =
            policies[p] == resize::ResizePolicy::kAtmGreedy ||
            policies[p] == resize::ResizePolicy::kAtmGreedyNoDiscretization;
        resize::ResizeResult r = resize::apply_policy(policies[p], input);
        if (is_atm && !r.feasible) {
            r = resize::max_min_fairness_resize(input);
            note_degradation(degradations, metrics,
                             PipelineErrorCode::kResizeInfeasible, "resize",
                             resize::to_string(policies[p]) +
                                 " infeasible under capacity budget; fell "
                                 "back to max-min fairness");
        }
        policy_timer.stop();
        const int after =
            resize::tickets_for_allocation(actual_demands, r.capacities, alpha);
        if (kind == ts::ResourceKind::kCpu) {
            results[p].cpu_before = before;
            results[p].cpu_after = after;
        } else {
            results[p].ram_before = before;
            results[p].ram_after = after;
        }
    }
}

}  // namespace

SignatureModel fit_signature_model(const la::FlatMatrix& series,
                                   const PipelineConfig& config,
                                   std::vector<Degradation>& degradations) {
    obs::MetricsRegistry* metrics = config.metrics;
    // All-signature fallback shared by the search and spatial rungs: with
    // every series a signature there are no dependents, so neither
    // clustering nor regression can fail.
    const auto all_signatures = [&series] {
        std::vector<int> all(series.size());
        std::iota(all.begin(), all.end(), 0);
        return all;
    };
    SignatureModel model;
    {
        obs::ScopedTimer timer(metrics, "stage.search");
        SignatureSearchOptions search = config.search;
        search.metrics = metrics;
        try {
            model.search = find_signatures(series, search);
            if (model.search.signatures.empty()) {
                throw PipelineError(PipelineErrorCode::kSearchDegenerate,
                                    "search", "empty signature set");
            }
            if (!std::isfinite(model.search.silhouette)) {
                throw PipelineError(PipelineErrorCode::kSearchDegenerate,
                                    "search", "silhouette undefined");
            }
        } catch (const std::exception& e) {
            const PipelineErrorCode code =
                classify_current(e, PipelineErrorCode::kSearchDegenerate);
            model.search = SignatureSearchResult{};
            model.search.signatures = all_signatures();
            model.search.initial_signatures = model.search.signatures;
            model.search.num_clusters =
                static_cast<int>(model.search.signatures.size());
            note_degradation(degradations, metrics, code, "search",
                             std::string(e.what()) +
                                 "; fell back to the all-signature set");
        }
    }
    {
        obs::ScopedTimer timer(metrics, "stage.spatial_fit");
        try {
            model.spatial.fit(series, model.search.signatures);
            if (model.spatial.ridge_fallbacks() > 0) {
                note_degradation(degradations, metrics,
                                 PipelineErrorCode::kSolverSingular, "spatial",
                                 std::to_string(model.spatial.ridge_fallbacks()) +
                                     " dependent series refit with ridge");
            }
        } catch (const std::exception& e) {
            // Even ridge failed: collapse to the all-signature set, which
            // has no regressions left to solve.
            const PipelineErrorCode code =
                classify_current(e, PipelineErrorCode::kSolverSingular);
            model.search.signatures = all_signatures();
            model.spatial.fit(series, model.search.signatures);
            note_degradation(degradations, metrics, code, "spatial",
                             std::string(e.what()) +
                                 "; fell back to the all-signature set");
        }
    }
    return model;
}

resize::ResizeInput make_resize_input(
    const trace::BoxTrace& box, ts::ResourceKind kind,
    std::vector<std::vector<double>> demands, double alpha, double epsilon_pct,
    const std::vector<std::span<const double>>& last_day) {
    resize::ResizeInput input;
    input.demands = std::move(demands);
    input.total_capacity = box.capacity(kind);
    input.alpha = alpha;
    for (std::size_t i = 0; i < box.vms.size(); ++i) {
        const double capacity = box.vms[i].capacity(kind);
        input.current_capacities.push_back(capacity);
        if (epsilon_pct > 0.0) {
            input.epsilons.push_back(epsilon_pct / 100.0 * capacity);
        }
        if (!last_day.empty()) {
            input.lower_bounds.push_back(
                *std::max_element(last_day[i].begin(), last_day[i].end()));
        }
    }
    return input;
}

std::string PipelineConfig::validate() const {
    std::string problems;
    const auto add = [&problems](const std::string& p) {
        if (!problems.empty()) problems += "; ";
        problems += p;
    };
    // Written as !(in range) so NaN fails too.
    if (!(alpha > 0.0 && alpha <= 1.0)) {
        add("alpha must be in (0, 1], got " + std::to_string(alpha));
    }
    if (train_days < 1) {
        add("train_days must be >= 1, got " + std::to_string(train_days));
    }
    if (!(epsilon_pct >= 0.0 && epsilon_pct < 100.0)) {
        add("epsilon_pct must be in [0, 100) (0 disables discretization), got " +
            std::to_string(epsilon_pct));
    }
    // A VIF is never below 1, so a threshold under 1 (or NaN) would strip
    // every box to a single signature.
    if (!(search.vif_threshold >= 1.0 && std::isfinite(search.vif_threshold))) {
        add("search.vif_threshold must be finite and >= 1, got " +
            std::to_string(search.vif_threshold));
    }
    if (!(search.rho_threshold >= -1.0 && search.rho_threshold <= 1.0)) {
        add("search.rho_threshold must be in [-1, 1], got " +
            std::to_string(search.rho_threshold));
    }
    return problems;
}

const std::vector<resize::ResizePolicy>& default_policies() {
    static const std::vector<resize::ResizePolicy> kDefault{
        resize::ResizePolicy::kAtmGreedy};
    return kDefault;
}

BoxPipelineResult run_pipeline_on_box(
    const trace::BoxTrace& box, int windows_per_day, const PipelineConfig& config,
    const std::vector<resize::ResizePolicy>& policies) {
    const auto wpd = static_cast<std::size_t>(windows_per_day);
    const std::size_t train_len = static_cast<std::size_t>(config.train_days) * wpd;
    check_box_input(box, train_len + wpd, "run_pipeline_on_box",
                    "trace too short for config");

    const la::FlatMatrix demands = box.demand_matrix();
    const std::vector<int> scope = scope_indices(demands.size(), config.scope);

    BoxPipelineResult result;
    obs::MetricsRegistry* metrics = config.metrics;

    la::FlatMatrix scoped_train(scope.size(), train_len);
    for (std::size_t k = 0; k < scope.size(); ++k) {
        const std::span<const double> row =
            demands[static_cast<std::size_t>(scope[k])].first(train_len);
        std::copy(row.begin(), row.end(), scoped_train[k].begin());
    }

    // --- signature search + spatial model on the training window -----------
    SignatureModel model =
        fit_signature_model(scoped_train, config, result.degradations);
    result.search = std::move(model.search);
    const SpatialModel& spatial = model.spatial;

    // --- temporal forecasts for the signature series -------------------------
    la::FlatMatrix signature_forecasts(spatial.signature_indices().size(), wpd);
    {
        obs::ScopedTimer timer(metrics, "stage.forecast");
        const auto make = [&](forecast::TemporalModel model, int s) {
            return forecast::make_forecaster(
                model, windows_per_day, config.seed + static_cast<unsigned>(s),
                metrics);
        };
        const auto checked_forecast =
            [&](const forecast::Forecaster& forecaster,
                const std::string& model_name) -> std::vector<double> {
            obs::ScopedTimer predict_timer(metrics,
                                           "forecast.predict." + model_name);
            std::vector<double> values = forecaster.forecast(windows_per_day);
            for (const double v : values) {
                if (!std::isfinite(v)) {
                    throw PipelineError(PipelineErrorCode::kModelFitFailed,
                                        "forecast",
                                        "non-finite forecast from " + model_name);
                }
            }
            return values;
        };
        const std::vector<int>& signatures = spatial.signature_indices();
        // A failed primary attempt's error, for its fallback note.
        std::vector<PipelineErrorCode> fail_code(signatures.size(),
                                                 PipelineErrorCode::kNone);
        std::vector<std::string> fail_error(signatures.size());
        std::vector<std::unique_ptr<forecast::Forecaster>> primary(
            signatures.size());
        const auto fail_primary = [&](std::size_t k, const std::exception& e) {
            fail_code[k] =
                classify_current(e, PipelineErrorCode::kModelFitFailed);
            fail_error[k] = e.what();
            primary[k].reset();
        };

        // Primary attempts: the configured model for every signature. The
        // MLP networks train together (MlpForecaster::fit_batch) under one
        // forecast.fit.mlp timer; other models fit one by one.
        const std::string primary_name = forecast::to_string(config.temporal);
        std::vector<forecast::MlpForecaster*> mlps;
        std::vector<std::span<const double>> mlp_histories;
        std::vector<std::size_t> mlp_signatures;
        for (std::size_t k = 0; k < signatures.size(); ++k) {
            const std::span<const double> history =
                scoped_train[static_cast<std::size_t>(signatures[k])];
            try {
                primary[k] = make(config.temporal, signatures[k]);
                if (auto* mlp = dynamic_cast<forecast::MlpForecaster*>(
                        primary[k].get())) {
                    mlps.push_back(mlp);
                    mlp_histories.push_back(history);
                    mlp_signatures.push_back(k);
                    continue;
                }
                obs::ScopedTimer fit_timer(metrics,
                                           "forecast.fit." + primary_name);
                primary[k]->fit(history);
            } catch (const std::exception& e) {
                fail_primary(k, e);
            }
        }
        if (!mlps.empty()) {
            try {
                obs::ScopedTimer fit_timer(metrics, "forecast.fit.mlp");
                forecast::MlpForecaster::fit_batch(mlps, mlp_histories);
            } catch (const std::exception& e) {
                for (const std::size_t k : mlp_signatures) fail_primary(k, e);
            }
        }

        // Per-signature fallback: a primary model that failed to fit or
        // forecast a finite day gives way to seasonal-naive, which repeats
        // the last training day and so cannot fail on the finite history
        // the input check guarantees.
        for (std::size_t k = 0; k < signatures.size(); ++k) {
            const int s = signatures[k];
            std::vector<double> values;
            if (primary[k] != nullptr) {
                try {
                    values = checked_forecast(*primary[k], primary_name);
                } catch (const std::exception& e) {
                    fail_primary(k, e);
                }
            }
            if (primary[k] == nullptr) {
                const forecast::TemporalModel fallback =
                    forecast::TemporalModel::kSeasonalNaive;
                const std::string fallback_name = forecast::to_string(fallback);
                const auto forecaster = make(fallback, s);
                {
                    obs::ScopedTimer fit_timer(metrics,
                                               "forecast.fit." + fallback_name);
                    forecaster->fit(scoped_train[static_cast<std::size_t>(s)]);
                }
                values = checked_forecast(*forecaster, fallback_name);
                note_degradation(result.degradations, metrics, fail_code[k],
                                 "forecast",
                                 "signature " + std::to_string(s) + ": " +
                                     fail_error[k] + "; fell back to " +
                                     fallback_name);
            }
            std::copy(values.begin(), values.end(),
                      signature_forecasts[k].begin());
        }
    }

    // --- spatial reconstruction of every scoped series -----------------------
    obs::ScopedTimer reconstruct_timer(metrics, "stage.reconstruct");
    const la::FlatMatrix scoped_pred = spatial.reconstruct(signature_forecasts);

    // Predicted demands in the full flattened layout (unscoped rows empty).
    result.predicted_demands.assign(demands.size(), {});
    for (std::size_t k = 0; k < scope.size(); ++k) {
        result.predicted_demands[static_cast<std::size_t>(scope[k])].assign(
            scoped_pred[k].begin(), scoped_pred[k].end());
    }
    reconstruct_timer.stop();

    // --- prediction accuracy on the evaluation day ---------------------------
    obs::ScopedTimer accuracy_timer(metrics, "stage.accuracy");
    double ape_sum = 0.0;
    std::size_t ape_count = 0;
    double peak_sum = 0.0;
    std::size_t peak_count = 0;
    for (std::size_t k = 0; k < scope.size(); ++k) {
        const auto flat = static_cast<std::size_t>(scope[k]);
        const std::span<const double> actual_row = demands[flat];
        const double cap = series_capacity(box, flat);
        const double peak_level = config.alpha * cap;
        const std::span<const double> pred = scoped_pred[k];
        double series_sum = 0.0;
        std::size_t series_n = 0;
        for (std::size_t t = 0; t < wpd; ++t) {
            const double actual = actual_row[train_len + t];
            if (std::abs(actual) < 1e-9) continue;
            const double err = std::abs(actual - pred[t]) / std::abs(actual);
            if (!std::isfinite(err)) continue;  // belt-and-braces post-ladder
            series_sum += err;
            ++series_n;
            if (actual > peak_level) {
                peak_sum += err;
                ++peak_count;
            }
        }
        if (series_n > 0) {
            const double series_ape = series_sum / static_cast<double>(series_n);
            ape_sum += series_ape;
            ++ape_count;
            if (metrics != nullptr) metrics->observe("predict.ape", series_ape);
        }
    }
    result.ape_all = ape_count > 0 ? ape_sum / static_cast<double>(ape_count) : 0.0;
    result.ape_peak = peak_count > 0 ? peak_sum / static_cast<double>(peak_count) : 0.0;
    accuracy_timer.stop();

    // --- resizing for the evaluation day -------------------------------------
    if (policies.empty()) {
        if (metrics != nullptr) result.metrics = metrics->snapshot();
        return result;
    }
    result.policies.resize(policies.size());
    for (std::size_t p = 0; p < policies.size(); ++p) {
        result.policies[p].policy = policies[p];
    }

    obs::ScopedTimer resize_timer(metrics, "stage.resize");
    const std::size_t m = box.vms.size();
    for (ts::ResourceKind kind : {ts::ResourceKind::kCpu, ts::ResourceKind::kRam}) {
        // Skip resources excluded from the model scope.
        const bool in_scope =
            config.scope == ResourceScope::kInter ||
            (config.scope == ResourceScope::kIntraCpu && kind == ts::ResourceKind::kCpu) ||
            (config.scope == ResourceScope::kIntraRam && kind == ts::ResourceKind::kRam);
        if (!in_scope) continue;

        std::vector<std::vector<double>> policy_demands(m);
        std::vector<std::vector<double>> actual_eval(m);
        std::vector<std::span<const double>> last_day;
        for (std::size_t i = 0; i < m; ++i) {
            const auto flat = static_cast<std::size_t>(
                ts::SeriesId{static_cast<int>(i), kind}.flat_index());
            policy_demands[i] = result.predicted_demands[flat];
            const std::span<const double> row = demands[flat];
            actual_eval[i].assign(
                row.begin() + static_cast<std::ptrdiff_t>(train_len),
                row.begin() + static_cast<std::ptrdiff_t>(train_len + wpd));
            if (config.use_lower_bounds) {
                last_day.emplace_back(row.data() + (train_len - wpd), wpd);
            }
        }
        resize::ResizeInput input =
            make_resize_input(box, kind, std::move(policy_demands), config.alpha,
                              config.epsilon_pct, last_day);
        input.metrics = metrics;
        run_policies_for_kind(box, kind, input, actual_eval, policies,
                              result.policies, result.degradations);
    }
    resize_timer.stop();
    if (metrics != nullptr) result.metrics = metrics->snapshot();
    return result;
}

std::vector<PolicyTickets> evaluate_resize_policies_on_actuals(
    const trace::BoxTrace& box, int windows_per_day, int day, double alpha,
    double epsilon_pct, const std::vector<resize::ResizePolicy>& policies,
    bool use_lower_bounds, obs::MetricsRegistry* metrics) {
    const auto wpd = static_cast<std::size_t>(windows_per_day);
    const std::size_t first = static_cast<std::size_t>(day) * wpd;
    check_box_input(box, first + wpd, "evaluate_resize_policies_on_actuals",
                    "day out of range");

    const la::FlatMatrix demands = box.demand_matrix();
    std::vector<PolicyTickets> results(policies.size());
    for (std::size_t p = 0; p < policies.size(); ++p) results[p].policy = policies[p];

    const std::size_t m = box.vms.size();
    // Fired resize rungs still count under robust.fallback.resize; the
    // notes themselves have no result to land in.
    std::vector<Degradation> degradations;
    for (ts::ResourceKind kind : {ts::ResourceKind::kCpu, ts::ResourceKind::kRam}) {
        std::vector<std::vector<double>> day_demands(m);
        std::vector<std::span<const double>> last_day;
        for (std::size_t i = 0; i < m; ++i) {
            const auto flat = static_cast<std::size_t>(
                ts::SeriesId{static_cast<int>(i), kind}.flat_index());
            const std::span<const double> row = demands[flat];
            day_demands[i].assign(row.begin() + static_cast<std::ptrdiff_t>(first),
                                  row.begin() + static_cast<std::ptrdiff_t>(first + wpd));
            if (use_lower_bounds && day > 0) {
                last_day.emplace_back(row.data() + (first - wpd), wpd);
            }
        }
        resize::ResizeInput input = make_resize_input(
            box, kind, day_demands, alpha, epsilon_pct, last_day);
        input.metrics = metrics;
        run_policies_for_kind(box, kind, input, day_demands, policies, results,
                              degradations);
    }
    return results;
}

}  // namespace atm::core
