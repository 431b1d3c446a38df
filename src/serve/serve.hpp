#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fleet_journal.hpp"
#include "core/pipeline.hpp"
#include "exec/journal.hpp"
#include "forecast/nn.hpp"
#include "obs/metrics.hpp"
#include "resize/policies.hpp"
#include "tracegen/trace.hpp"

namespace atm::serve {

/// Configuration of the streaming serve engine (DESIGN.md §7.15). The
/// embedded PipelineConfig supplies the modelling knobs the batch
/// pipeline already defines (search options, temporal model, train_days
/// as the rolling-window length in days, alpha/epsilon/lower-bound
/// resizing knobs, seed); serve adds streaming lifecycle knobs on top. Result-affecting knobs
/// are bound into the journal header; the execution-only queue depth is
/// not.
struct ServeConfig {
    core::PipelineConfig pipeline;
    /// Resize policy run per window (the paper's greedy by default).
    resize::ResizePolicy policy = resize::ResizePolicy::kAtmGreedy;
    /// Bounded ingest-queue depth enforced by the daemon (updates beyond
    /// it are rejected with retry-after). Validated here so every serve
    /// knob has one range-check site; the engine itself ignores it.
    int queue_depth = 256;
    /// Mean-absolute-correlation drift that re-triggers signature search
    /// (clustering + VIF + spatial refit + cold model fits).
    double drift_threshold = 0.25;
    /// Warm-retrain cadence in windows (every Nth window per box).
    int retrain_every = 4;
    /// SGD epochs for a warm retrain continuing from previous weights.
    int retrain_epochs = 8;
    /// SGD epochs for a cold fit (after search or a rescale refit).
    int train_epochs = 40;
    /// Epoch journal path; empty disables journaling (and warm restart).
    std::string journal_path;
    /// Resume from an existing journal whose header matches; on mismatch
    /// (or no file) the daemon starts fresh.
    bool resume = false;

    /// Validates every serve knob: PipelineConfig::validate's range
    /// checks plus serve's own rules (train_days >= 2, inter scope, MLP or
    /// seasonal-naive). Returns "" when valid, else every violation
    /// joined with "; " — same contract as FleetConfig::validate.
    [[nodiscard]] std::string validate() const;
};

/// Digest of every result-affecting serve knob (includes the embedded
/// pipeline digest), bound into the journal header.
[[nodiscard]] std::uint64_t serve_config_digest(const ServeConfig& config);

/// One per-window fleet update: the newest demand sample of every VM on
/// one box. `epoch` numbers a box's windows from 0; the engine applies
/// them strictly in order.
struct WindowUpdate {
    int box_index = 0;
    std::uint64_t epoch = 0;
    std::vector<double> cpu;  ///< per-VM CPU demand sample (GHz)
    std::vector<double> ram;  ///< per-VM RAM demand sample (GB)
};

enum class ApplyStatus {
    kApplied,   ///< window applied; outcome carries the recommendation
    kWarming,   ///< applied, but history is still too short for models
    kStale,     ///< epoch below the box's next epoch; no state change
    kGap,       ///< epoch above the box's next epoch; rejected
    kBadShape,  ///< sample counts disagree with the box's VM count
};
const char* to_string(ApplyStatus status);

/// Outcome of ServeEngine::apply for one update.
struct ApplyOutcome {
    ApplyStatus status = ApplyStatus::kApplied;
    std::uint64_t epoch = 0;   ///< epoch this outcome refers to
    std::vector<double> cpu;   ///< per-VM recommended CPU allocation
    std::vector<double> ram;   ///< per-VM recommended RAM allocation
    std::string error;         ///< reason for kGap / kBadShape
};

/// The streaming prediction/resizing engine behind `atm serve`: per-box
/// rolling demand windows, drift-gated signature search, warm-started MLP
/// retraining, per-window forecasts + resize recommendations (the batch
/// pipeline's ladder, forecasters and resize input on a sliding window),
/// and a crash-safe epoch journal enabling bit-identical warm restart
/// (clients re-send from epoch 0; each journaled window is re-applied by
/// the same live code and checked against its record). Every window runs
/// search, retrain, forecast and resize to completion.
///
/// apply() is single-threaded by contract — the daemon funnels all
/// updates through one worker. Metrics in `metrics()` are deterministic
/// (identical for a killed+resumed run and an uninterrupted one) except
/// for timers, which are wall-clock and excluded from that contract.
class ServeEngine {
  public:
    /// Copies box metadata (names, VM capacities) from `trace`; samples
    /// arrive only via apply(). Throws std::invalid_argument when
    /// config.validate() fails, std::runtime_error on journal I/O errors.
    ServeEngine(const trace::Trace& trace, ServeConfig config);
    ~ServeEngine();

    ApplyOutcome apply(const WindowUpdate& update);

    [[nodiscard]] int num_boxes() const;
    /// Box index by trace name; -1 when unknown.
    [[nodiscard]] int find_box(const std::string& name) const;
    /// Next epoch the box will accept (== applied-window count).
    [[nodiscard]] std::uint64_t next_epoch(int box_index) const;
    /// Journaled windows not yet replayed (resume progress; 0 when live).
    [[nodiscard]] std::uint64_t replay_remaining() const;
    /// True when a matching journal was loaded for warm restart.
    [[nodiscard]] bool resumed() const { return resumed_; }
    /// The box's current signatures (flat series indices, ascending);
    /// empty before its first search.
    [[nodiscard]] const std::vector<int>& signatures(int box_index) const;
    /// The box's latest one-step forecast per flat series (VM-major
    /// CPU,RAM); empty before its first forecast.
    [[nodiscard]] const std::vector<double>& last_forecast(int box_index) const;

    /// Deterministic engine metrics accumulated so far (counters, the
    /// serve.ape histogram, serve.drift gauge, model-stage counters).
    [[nodiscard]] const obs::MetricsSnapshot& metrics() const {
        return metrics_;
    }

    /// Flushes and closes the journal (destructor also does). Idempotent.
    void close();

  private:
    struct BoxState;

    ApplyOutcome apply_window(int box_index, const WindowUpdate& update,
                              core::ServeEpochRecord& record);
    void ingest_samples(int box_index, const WindowUpdate& update);
    /// Search (when drift calls for it), retrain (on its cadence),
    /// forecast and resize for one window.
    void model_work(int box_index, std::uint64_t epoch);
    [[nodiscard]] double mean_abs_correlation(const BoxState& box) const;
    void run_search(int box_index);
    void run_retrain(int box_index, std::uint64_t epoch);
    void forecast_next(int box_index);
    void resize_window(int box_index);
    void counter(const std::string& name, std::uint64_t delta = 1);

    ServeConfig config_;
    int windows_per_day_ = 96;
    std::size_t train_len_ = 0;   ///< rolling-window cap in samples
    std::size_t warmup_len_ = 0;  ///< samples required before model work
    /// Per-box names and capacities (no samples).
    std::vector<trace::BoxTrace> meta_;
    std::vector<std::unique_ptr<BoxState>> boxes_;
    obs::MetricsSnapshot metrics_;
    std::optional<exec::JournalWriter> journal_;
    bool resumed_ = false;
};

}  // namespace atm::serve
