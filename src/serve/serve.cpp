#include "serve/serve.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <utility>
#include <variant>

#include "exec/cancel.hpp"
#include "exec/seed.hpp"
#include "forecast/mlp_forecaster.hpp"
#include "forecast/seasonal_naive.hpp"
#include "timeseries/resource.hpp"

namespace atm::serve {

namespace {

/// One signature's temporal model: the batch forecaster, run on the
/// box's rolling window (forecast_next, and MlpForecaster::retrain).
using SignatureForecaster =
    std::variant<forecast::SeasonalNaiveForecaster, forecast::MlpForecaster>;

/// Flat series index of (vm, kind) in the VM-major CPU,RAM layout.
std::size_t flat_index(std::size_t vm, ts::ResourceKind kind) {
    return static_cast<std::size_t>(
        ts::SeriesId{static_cast<int>(vm), kind}.flat_index());
}

/// MLP options of a retrain: `epochs` of warm SGD (a cold refit keeps
/// train_epochs from the model's own options), staged into `scratch`.
forecast::MlpTrainOptions retrain_options(int epochs, std::uint64_t seed,
                                          obs::MetricsRegistry* scratch,
                                          const exec::CancellationToken* slo) {
    forecast::MlpTrainOptions train;
    train.epochs = epochs;
    train.seed = static_cast<unsigned>(seed);
    train.metrics = scratch;
    train.cancel = slo;
    return train;
}

/// ServeEpochRecord::ladder bits.
constexpr int kShedRefresh = 1;     ///< search or retrain skipped
constexpr int kShedForecast = 2;    ///< last forecast reused
constexpr int kShedResize = 4;      ///< max-min fallback resize
constexpr int kShedIngestOnly = 8;  ///< no model output this window

}  // namespace

// ---------------------------------------------------------------------------
// Engine-internal state

struct ServeEngine::BoxState {
    /// Rolling demand history per flat series (VM-major CPU,RAM), capped
    /// at train_len_ samples. All rows stay equal length by construction.
    std::vector<std::vector<double>> history;
    std::uint64_t next_epoch = 0;

    /// Spatial model of the last committed search; fitted() means the box
    /// has a model, and its signature_indices() are the signatures.
    core::SpatialModel spatial;
    std::vector<SignatureForecaster> models;  ///< parallel to the signatures
    double corr_at_search = 0.0;

    std::vector<double> last_forecast;  ///< per flat series, next window
    std::vector<double> rec_cpu;  ///< per-VM recommended allocations
    std::vector<double> rec_ram;

    /// Journaled windows awaiting replay after a warm restart.
    std::deque<core::ServeEpochRecord> replay;
};

// ---------------------------------------------------------------------------
// Config validation, digest, header

std::string ServeConfig::validate() const {
    std::string problems = pipeline.validate();
    const auto add = [&problems](const std::string& p) {
        if (!problems.empty()) problems += "; ";
        problems += p;
    };
    if (pipeline.train_days < 2) {
        add("train_days must be >= 2 (serve keeps a rolling window and "
            "needs at least warmup + one day), got " +
            std::to_string(pipeline.train_days));
    }
    if (pipeline.temporal != forecast::TemporalModel::kNeuralNetwork &&
        pipeline.temporal != forecast::TemporalModel::kSeasonalNaive) {
        add("temporal model must be neural-network or seasonal-naive for "
            "serve (warm restart requires warm-startable models), got " +
            forecast::to_string(pipeline.temporal));
    }
    if (pipeline.scope != core::ResourceScope::kInter) {
        add("scope must be inter for serve");
    }
    if (queue_depth < 1 || queue_depth > (1 << 20)) {
        add("queue_depth must be in [1, 1048576], got " +
            std::to_string(queue_depth));
    }
    if (!(slo_ms >= 0.0) || !std::isfinite(slo_ms)) {
        add("slo_ms must be >= 0 and finite, got " + std::to_string(slo_ms));
    }
    if (!(drift_threshold >= 0.0) || !std::isfinite(drift_threshold)) {
        add("drift_threshold must be >= 0 and finite, got " +
            std::to_string(drift_threshold));
    }
    if (retrain_every < 1) {
        add("retrain_every must be >= 1, got " + std::to_string(retrain_every));
    }
    if (retrain_epochs < 1) {
        add("retrain_epochs must be >= 1, got " +
            std::to_string(retrain_epochs));
    }
    if (train_epochs < 1) {
        add("train_epochs must be >= 1, got " + std::to_string(train_epochs));
    }
    if (max_retries < 0) {
        add("max_retries must be >= 0, got " + std::to_string(max_retries));
    }
    if (!(backoff_ms >= 0.0) || !std::isfinite(backoff_ms)) {
        add("backoff_ms must be >= 0 and finite, got " +
            std::to_string(backoff_ms));
    }
    if (!(backoff_max_ms >= backoff_ms) || !std::isfinite(backoff_max_ms)) {
        add("backoff_max_ms must be >= backoff_ms and finite, got " +
            std::to_string(backoff_max_ms));
    }
    if (resume && journal_path.empty()) {
        add("resume requires a journal path");
    }
    return problems;
}

std::uint64_t serve_config_digest(const ServeConfig& config) {
    std::uint64_t hash = exec::kFnv1a64Offset;
    exec::mix_u64(hash, core::pipeline_config_digest(config.pipeline));
    exec::mix_u64(hash, static_cast<std::uint64_t>(config.policy));
    exec::mix_double(hash, config.drift_threshold);
    exec::mix_u64(hash, static_cast<std::uint64_t>(config.retrain_every));
    exec::mix_u64(hash, static_cast<std::uint64_t>(config.retrain_epochs));
    exec::mix_u64(hash, static_cast<std::uint64_t>(config.train_epochs));
    // Retry/fault knobs are result-affecting through the journaled
    // attempt counts and the per-(epoch, attempt) fault draws.
    exec::mix_u64(hash, static_cast<std::uint64_t>(config.max_retries));
    core::mix_fault_plan(hash, config.faults);
    // Deliberately excluded: queue_depth, slo_ms, backoff timings — their
    // *effects* (shed masks, attempt counts) are journaled per window, so
    // changing them across a restart only affects windows not yet applied.
    return hash;
}

const char* to_string(ApplyStatus status) {
    switch (status) {
        case ApplyStatus::kApplied: return "applied";
        case ApplyStatus::kWarming: return "warming";
        case ApplyStatus::kStale: return "stale";
        case ApplyStatus::kGap: return "gap";
        case ApplyStatus::kBadShape: return "bad-shape";
    }
    return "unknown";
}

// ---------------------------------------------------------------------------
// Construction / resume

ServeEngine::ServeEngine(const trace::Trace& trace, ServeConfig config)
    : config_(std::move(config)) {
    const std::string problems = config_.validate();
    if (!problems.empty()) {
        throw std::invalid_argument("ServeConfig: " + problems);
    }
    if (trace.windows_per_day <= 0) {
        throw std::invalid_argument("serve: windows_per_day must be > 0");
    }
    windows_per_day_ = trace.windows_per_day;
    train_len_ = static_cast<std::size_t>(config_.pipeline.train_days) *
                 static_cast<std::size_t>(windows_per_day_);
    // Model work needs a full seasonal period of lag history plus a day to
    // learn from; below this the engine just accumulates samples.
    warmup_len_ = 2 * static_cast<std::size_t>(windows_per_day_);

    meta_.reserve(trace.boxes.size());
    boxes_.reserve(trace.boxes.size());
    for (const trace::BoxTrace& box : trace.boxes) {
        // Names and capacities only: the samples arrive through apply().
        trace::BoxTrace meta = box;
        for (trace::VmTrace& vm : meta.vms) {
            vm.cpu_usage_pct = vm.ram_usage_pct = ts::Series{};
            vm.cpu_demand_ghz = vm.ram_demand_gb = ts::Series{};
        }
        meta_.push_back(std::move(meta));
        auto state = std::make_unique<BoxState>();
        state->history.resize(box.vms.size() * 2);
        boxes_.push_back(std::move(state));
    }

    if (config_.journal_path.empty()) return;
    const std::string header =
        core::journal_header(core::kServeJournalSchema, trace,
                             serve_config_digest(config_), config_.pipeline.seed);
    if (config_.resume) {
        const exec::JournalLoad load = exec::load_journal(config_.journal_path);
        if (load.exists && load.header == header) {
            // Accept the longest decodable prefix whose per-box epochs are
            // contiguous from 0; anything after the first bad record is
            // treated like checksum corruption and physically truncated.
            std::uint64_t good = load.header_end;
            std::vector<std::uint64_t> expected(boxes_.size(), 0);
            for (std::size_t i = 0; i < load.records.size(); ++i) {
                core::ServeEpochRecord record;
                try {
                    record = core::decode_epoch_record(load.records[i]);
                    if (record.box_index < 0 ||
                        record.box_index >=
                            static_cast<int>(boxes_.size())) {
                        throw std::runtime_error(
                            "serve journal: box index out of range");
                    }
                    const auto bi = static_cast<std::size_t>(record.box_index);
                    if (record.epoch != expected[bi]) {
                        throw std::runtime_error(
                            "serve journal: epoch out of order");
                    }
                    ++expected[bi];
                } catch (const std::exception&) {
                    break;
                }
                boxes_[static_cast<std::size_t>(record.box_index)]
                    ->replay.push_back(std::move(record));
                good = load.record_ends[i];
            }
            journal_ =
                exec::JournalWriter::append_after(config_.journal_path, good);
            resumed_ = true;
            return;
        }
    }
    journal_ = exec::JournalWriter::create(config_.journal_path, header);
}

ServeEngine::~ServeEngine() = default;

int ServeEngine::num_boxes() const { return static_cast<int>(boxes_.size()); }

int ServeEngine::find_box(const std::string& name) const {
    for (std::size_t i = 0; i < meta_.size(); ++i) {
        if (meta_[i].name == name) return static_cast<int>(i);
    }
    return -1;
}

std::uint64_t ServeEngine::next_epoch(int box_index) const {
    return boxes_.at(static_cast<std::size_t>(box_index))->next_epoch;
}

const std::vector<int>& ServeEngine::signatures(int box_index) const {
    return boxes_.at(static_cast<std::size_t>(box_index))
        ->spatial.signature_indices();
}

const std::vector<double>& ServeEngine::last_forecast(int box_index) const {
    return boxes_.at(static_cast<std::size_t>(box_index))->last_forecast;
}

std::uint64_t ServeEngine::replay_remaining() const {
    std::uint64_t remaining = 0;
    for (const auto& box : boxes_) remaining += box->replay.size();
    return remaining;
}

void ServeEngine::close() {
    if (journal_) {
        journal_->close();
        journal_.reset();
    }
}

// ---------------------------------------------------------------------------
// apply

ApplyOutcome ServeEngine::apply(const WindowUpdate& update) {
    ApplyOutcome out;
    out.epoch = update.epoch;
    if (update.box_index < 0 ||
        update.box_index >= static_cast<int>(boxes_.size())) {
        out.status = ApplyStatus::kBadShape;
        out.error = "unknown box index " + std::to_string(update.box_index);
        return out;
    }
    const auto bi = static_cast<std::size_t>(update.box_index);
    const trace::BoxTrace& meta = meta_[bi];
    BoxState& box = *boxes_[bi];
    const std::size_t num_vms = meta.vms.size();
    if (num_vms == 0 || update.cpu.size() != num_vms ||
        update.ram.size() != num_vms) {
        out.status = ApplyStatus::kBadShape;
        out.error = "box " + meta.name + " has " + std::to_string(num_vms) +
                    " VMs, update has " + std::to_string(update.cpu.size()) +
                    " cpu / " + std::to_string(update.ram.size()) +
                    " ram samples";
        return out;
    }
    if (update.epoch < box.next_epoch) {
        out.status = ApplyStatus::kStale;
        return out;
    }
    if (update.epoch > box.next_epoch) {
        out.status = ApplyStatus::kGap;
        out.error = "expected epoch " + std::to_string(box.next_epoch) +
                    ", got " + std::to_string(update.epoch);
        return out;
    }

    const core::ServeEpochRecord* forced =
        box.replay.empty() ? nullptr : &box.replay.front();
    core::ServeEpochRecord record;
    out = apply_window(update.box_index, update, forced, record);
    if (forced != nullptr) {
        // Replay consistency: the recomputation under forced decisions
        // must be bit-identical to what the journal recorded. A mismatch
        // means the determinism contract is broken — fail loudly rather
        // than serve silently-diverged recommendations.
        if (record.ladder != forced->ladder || record.cpu != forced->cpu ||
            record.ram != forced->ram) {
            throw std::runtime_error(
                "serve journal: replay diverged for box " + meta.name +
                " epoch " + std::to_string(update.epoch));
        }
        box.replay.pop_front();
    } else if (journal_) {
        journal_->append(core::encode_epoch_record(record));
    }
    ++box.next_epoch;
    return out;
}

ApplyOutcome ServeEngine::apply_window(int box_index,
                                       const WindowUpdate& update,
                                       const core::ServeEpochRecord* forced,
                                       core::ServeEpochRecord& record) {
    BoxState& box = *boxes_[static_cast<std::size_t>(box_index)];
    record.box_index = box_index;
    record.epoch = update.epoch;

    ingest_samples(box_index, update);

    ApplyOutcome out;
    out.epoch = update.epoch;
    if (box.history[0].size() < warmup_len_) {
        counter("serve.windows.warming");
        out.status = ApplyStatus::kWarming;
        return out;
    }

    // The window's control decisions live in `record`: taken live (SLO,
    // faults) or forced from the journal on replay — the only
    // non-determinism the journal has to pin down for bit-identical warm
    // restart.
    if (forced != nullptr) {
        record.ladder = forced->ladder;
        record.searched = forced->searched;
        record.retrained = forced->retrained;
        record.attempts = forced->attempts;
        // A ladder of *exactly* the ingest-only bit means retries were
        // exhausted at the fault site and model_work never ran live —
        // replaying it would over-count shed counters. Any other mask
        // (even ones including bit 8, e.g. "search shed, still no
        // model") means model_work did run and must replay so its
        // counters and the drift gauge land identically.
        if (record.ladder != kShedIngestOnly) {
            model_work(box_index, update.epoch, true, record, nullptr);
        }
    } else {
        exec::CancellationToken slo;
        const exec::CancellationToken* token = nullptr;
        if (config_.slo_ms > 0.0) {
            slo.arm_deadline_after(config_.slo_ms / 1000.0);
            token = &slo;
        }
        int attempt = 0;
        bool applied = false;
        while (true) {
            exec::FaultContext fault;
            fault.plan = config_.faults.empty() ? nullptr : &config_.faults;
            fault.entity = static_cast<std::uint64_t>(box_index);
            fault.attempt = static_cast<std::uint64_t>(attempt);
            // +1 so epoch 0 still re-rolls per window (0 means "unset" in
            // the fault-key chain).
            fault.epoch = update.epoch + 1;
            try {
                ATM_FAULT_SITE(fault, "serve.apply");
                model_work(box_index, update.epoch, false, record, token);
                applied = true;
                break;
            } catch (const exec::InjectedFault&) {
                if (attempt >= config_.max_retries) break;
                // backoff_ms * 2^attempt without an integer shift, so any
                // max_retries stays defined and saturates at the cap.
                const double delay_ms =
                    std::min(std::ldexp(config_.backoff_ms, attempt),
                             config_.backoff_max_ms);
                if (delay_ms > 0.0) {
                    std::this_thread::sleep_for(std::chrono::duration<double,
                                                std::milli>(delay_ms));
                }
                ++attempt;
            }
        }
        record.attempts = attempt + 1;
        if (!applied) record.ladder |= kShedIngestOnly;
    }

    const bool ingest_only = (record.ladder & kShedIngestOnly) != 0;
    if (ingest_only) counter("serve.degraded.ingest_only");
    if (record.attempts > 1) {
        counter("serve.retry.attempts",
                static_cast<std::uint64_t>(record.attempts - 1));
        counter(ingest_only ? "serve.retry.exhausted" : "serve.retry.recovered");
    }
    counter("serve.windows.applied");

    if (!ingest_only && !box.rec_cpu.empty()) {
        record.cpu = box.rec_cpu;
        record.ram = box.rec_ram;
    }
    out.status = ApplyStatus::kApplied;
    out.ladder = record.ladder;
    out.attempts = record.attempts;
    out.cpu = record.cpu;
    out.ram = record.ram;
    return out;
}

void ServeEngine::ingest_samples(int box_index, const WindowUpdate& update) {
    const auto bi = static_cast<std::size_t>(box_index);
    const trace::BoxTrace& meta = meta_[bi];
    BoxState& box = *boxes_[bi];
    const double alpha = config_.pipeline.alpha;
    std::uint64_t bad = 0;
    for (std::size_t vm = 0; vm < meta.vms.size(); ++vm) {
        for (const ts::ResourceKind kind :
             {ts::ResourceKind::kCpu, ts::ResourceKind::kRam}) {
            const bool is_cpu = kind == ts::ResourceKind::kCpu;
            const std::size_t flat = flat_index(vm, kind);
            std::vector<double>& history = box.history[flat];
            double actual = is_cpu ? update.cpu[vm] : update.ram[vm];
            if (!std::isfinite(actual) || actual < 0.0) {
                ++bad;
                actual = history.empty() ? 0.0 : history.back();
            }
            // Rolling one-step forecast accuracy (vs. last_forecast, which
            // predicted exactly this window) and ticket accounting on the
            // static allocation vs. the engine's recommendation.
            if (!box.last_forecast.empty() && std::abs(actual) > 1e-9) {
                const double ape =
                    std::abs(actual - box.last_forecast[flat]) /
                    std::abs(actual);
                if (std::isfinite(ape)) {
                    obs::HistogramSnapshot& hist = metrics_.histograms["serve.ape"];
                    if (hist.bounds.empty() && hist.count == 0) {
                        const auto bounds = obs::default_histogram_bounds();
                        hist.bounds.assign(bounds.begin(), bounds.end());
                    }
                    hist.record(ape);
                }
            }
            const char* kind_name = is_cpu ? "cpu" : "ram";
            if (actual > alpha * meta.vms[vm].capacity(kind)) {
                counter(std::string("serve.tickets.") + kind_name + ".before");
            }
            if (!box.rec_cpu.empty()) {
                const double rec_cap =
                    is_cpu ? box.rec_cpu[vm] : box.rec_ram[vm];
                if (actual > alpha * rec_cap) {
                    counter(std::string("serve.tickets.") + kind_name +
                            ".after");
                }
            }
            history.push_back(actual);
            if (history.size() > train_len_) {
                history.erase(history.begin());
            }
        }
    }
    if (bad != 0) counter("serve.sanitize.bad_samples", bad);
}

// ---------------------------------------------------------------------------
// Per-window model work (live + forced replay)

void ServeEngine::model_work(int box_index, std::uint64_t epoch, bool forced,
                             core::ServeEpochRecord& d,
                             const exec::CancellationToken* slo) {
    BoxState& box = *boxes_[static_cast<std::size_t>(box_index)];

    // Drift-gated signature search. The drift statistic is deterministic
    // (history only), so live and replay agree on *wanting* a search; the
    // journal pins whether one actually ran (SLO shed is wall-clock).
    bool want_search = !box.spatial.fitted();
    if (box.spatial.fitted()) {
        const double drift =
            std::abs(mean_abs_correlation(box) - box.corr_at_search);
        metrics_.gauges["serve.drift"] = drift;
        if (drift > config_.drift_threshold) want_search = true;
    }
    if (forced ? d.searched : want_search) {
        const bool committed =
            run_search(box_index, forced ? nullptr : slo);
        if (!forced) d.searched = committed;
    }
    if (d.searched) {
        counter("serve.search.runs");
    } else if (want_search) {
        counter("serve.degraded.skip_search");
        if (!forced) d.ladder |= kShedRefresh;
    }

    // Warm retrain on a fixed cadence (deterministic), skipped the window
    // a search already cold-fit everything.
    const bool retrain_due =
        box.spatial.fitted() && !d.searched &&
        config_.pipeline.temporal == forecast::TemporalModel::kNeuralNetwork &&
        epoch % static_cast<std::uint64_t>(config_.retrain_every) == 0;
    if (forced ? d.retrained != 0 : retrain_due) {
        bool committed = false;
        if (forced || slo == nullptr || !slo->cancelled()) {
            committed = run_retrain(box_index, epoch, forced ? nullptr : slo);
        }
        if (!forced) d.retrained = committed ? 1 : 0;
        if (committed || forced) counter("serve.retrain.warm");
    }
    if (retrain_due && d.retrained == 0) {
        counter("serve.degraded.skip_retrain");
        if (!forced) d.ladder |= kShedRefresh;
    }

    if (!box.spatial.fitted()) {
        // Nothing to shed to: no spatial model yet and this window's
        // search did not land one.
        d.ladder |= kShedIngestOnly;
        return;
    }

    // Forecast the next window, or reuse the previous forecast under SLO
    // pressure (rung 2).
    bool reuse = forced && (d.ladder & kShedForecast) != 0;
    if (!forced && slo != nullptr && slo->cancelled()) {
        reuse = true;
        d.ladder |= kShedForecast;
    }
    if (reuse && box.last_forecast.empty()) {
        d.ladder |= kShedIngestOnly;
        return;
    }
    if (reuse) {
        counter("serve.degraded.reuse_forecast");
    } else {
        forecast_next(box_index);
    }

    // Resize on the forecast; under SLO pressure fall to max-min (rung 3),
    // which needs no MCKP iterations.
    bool max_min = forced && (d.ladder & kShedResize) != 0;
    if (!forced && !max_min) {
        try {
            exec::checkpoint(slo, "serve.resize");
            resize_window(box_index, false, slo);
        } catch (const exec::OperationCancelled&) {
            max_min = true;
            d.ladder |= kShedResize;
        }
    }
    if (max_min) {
        resize_window(box_index, true, nullptr);
        counter("serve.degraded.max_min");
    } else if (forced) {
        resize_window(box_index, false, nullptr);
    }
}

double ServeEngine::mean_abs_correlation(const BoxState& box) const {
    const std::size_t n = box.history.size();
    if (n < 2) return 0.0;
    const std::size_t len = box.history[0].size();
    if (len < 2) return 0.0;
    std::vector<double> mean(n, 0.0);
    std::vector<double> norm(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        double sum = 0.0;
        for (const double x : box.history[i]) sum += x;
        mean[i] = sum / static_cast<double>(len);
        double sq = 0.0;
        for (const double x : box.history[i]) {
            const double c = x - mean[i];
            sq += c * c;
        }
        norm[i] = std::sqrt(sq);
    }
    double total = 0.0;
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            ++pairs;
            if (norm[i] < 1e-12 || norm[j] < 1e-12) continue;
            double dot = 0.0;
            for (std::size_t t = 0; t < len; ++t) {
                dot += (box.history[i][t] - mean[i]) *
                       (box.history[j][t] - mean[j]);
            }
            total += std::abs(dot / (norm[i] * norm[j]));
        }
    }
    return pairs == 0 ? 0.0 : total / static_cast<double>(pairs);
}

bool ServeEngine::run_search(int box_index,
                             const exec::CancellationToken* slo) {
    BoxState& box = *boxes_[static_cast<std::size_t>(box_index)];
    // Staged: everything lands in locals + a scratch registry, committed
    // only when the whole unit finishes — an SLO trip mid-search leaves
    // the previous model (and metrics) untouched, so replay (which skips
    // the shed search entirely) reproduces the same state.
    obs::MetricsRegistry scratch;
    core::PipelineConfig config = config_.pipeline;
    config.metrics = &scratch;
    config.cancel = slo;
    try {
        // The batch ladder; its rungs count as robust.fallback.* in scratch.
        std::vector<core::Degradation> degradations;
        la::FlatMatrix series(box.history.size(), box.history[0].size());
        for (std::size_t i = 0; i < box.history.size(); ++i) {
            std::copy(box.history[i].begin(), box.history[i].end(),
                      series[i].begin());
        }
        core::SignatureModel fit =
            core::fit_signature_model(series, config, degradations);
        forecast::MlpForecasterOptions mlp;
        mlp.seasonal_period = windows_per_day_;
        mlp.train.epochs = config_.train_epochs;
        const std::uint64_t box_seed =
            exec::derive_seed(config.seed, static_cast<std::uint64_t>(box_index));
        std::vector<SignatureForecaster> models;
        for (const int series : fit.spatial.signature_indices()) {
            const auto s = static_cast<std::size_t>(series);
            if (config.temporal == forecast::TemporalModel::kSeasonalNaive) {
                models.emplace_back(
                    forecast::SeasonalNaiveForecaster(windows_per_day_));
            } else {
                forecast::MlpForecaster model(mlp);  // its first retrain is cold
                model.retrain(box.history[s],
                              retrain_options(config_.retrain_epochs,
                                              exec::derive_seed(box_seed, s),
                                              &scratch, slo));
                models.emplace_back(std::move(model));
            }
            scratch.add("serve.retrain.cold");
        }
        box.spatial = std::move(fit.spatial);
        box.models = std::move(models);
        box.corr_at_search = mean_abs_correlation(box);
        metrics_.merge(scratch.snapshot());
        return true;
    } catch (const exec::OperationCancelled&) {
        return false;
    }
}

bool ServeEngine::run_retrain(int box_index, std::uint64_t epoch,
                              const exec::CancellationToken* slo) {
    BoxState& box = *boxes_[static_cast<std::size_t>(box_index)];
    obs::MetricsRegistry scratch;
    const std::uint64_t box_seed = exec::derive_seed(
        config_.pipeline.seed, static_cast<std::uint64_t>(box_index));
    try {
        // Staged copies: a cancelled retrain must leave the previous
        // weights exactly as they were (replay skips the whole stage).
        std::vector<SignatureForecaster> updated = box.models;
        const std::vector<int>& signatures = box.spatial.signature_indices();
        for (std::size_t k = 0; k < updated.size(); ++k) {
            const auto series = static_cast<std::size_t>(signatures[k]);
            const std::uint64_t sig_seed = exec::derive_seed(box_seed, series);
            const bool rescaled =
                std::get<forecast::MlpForecaster>(updated[k])
                    .retrain(box.history[series],
                             retrain_options(config_.retrain_epochs,
                                             exec::derive_seed(sig_seed, epoch + 1),
                                             &scratch, slo));
            if (rescaled) scratch.add("serve.retrain.rescale");
        }
        box.models = std::move(updated);
        metrics_.merge(scratch.snapshot());
        return true;
    } catch (const exec::OperationCancelled&) {
        return false;
    }
}

void ServeEngine::forecast_next(int box_index) {
    BoxState& box = *boxes_[static_cast<std::size_t>(box_index)];
    const std::vector<int>& signatures = box.spatial.signature_indices();
    la::FlatMatrix signature_values(signatures.size(), 1);
    for (std::size_t k = 0; k < signatures.size(); ++k) {
        const std::vector<double>& window =
            box.history[static_cast<std::size_t>(signatures[k])];
        double predicted = std::visit(
            [&window](const auto& model) { return model.forecast_next(window); },
            box.models[k]);
        if (!std::isfinite(predicted)) {
            predicted = window.back();
            counter("serve.forecast.nonfinite");
        }
        signature_values(k, 0) = predicted;
    }
    const la::FlatMatrix full = box.spatial.reconstruct(signature_values);
    box.last_forecast.resize(box.history.size());
    for (std::size_t i = 0; i < box.history.size(); ++i) {
        double value = full(i, 0);
        if (!std::isfinite(value)) {
            value = box.history[i].back();
            counter("serve.forecast.nonfinite");
        }
        box.last_forecast[i] = value;
    }
}

void ServeEngine::resize_window(int box_index, bool max_min_only,
                                const exec::CancellationToken* slo) {
    const auto bi = static_cast<std::size_t>(box_index);
    const trace::BoxTrace& meta = meta_[bi];
    BoxState& box = *boxes_[bi];
    const std::size_t num_vms = meta.vms.size();
    const auto day = static_cast<std::size_t>(windows_per_day_);
    std::vector<double> rec_cpu;
    std::vector<double> rec_ram;
    for (const ts::ResourceKind kind :
         {ts::ResourceKind::kCpu, ts::ResourceKind::kRam}) {
        std::vector<std::vector<double>> demands(num_vms);
        std::vector<std::span<const double>> last_day;
        for (std::size_t vm = 0; vm < num_vms; ++vm) {
            const std::size_t flat = flat_index(vm, kind);
            demands[vm] = {std::max(0.0, box.last_forecast[flat])};
            if (config_.pipeline.use_lower_bounds) {
                const std::vector<double>& history = box.history[flat];
                const std::size_t tail = std::min(day, history.size());
                last_day.emplace_back(history.data() + history.size() - tail,
                                      tail);
            }
        }
        resize::ResizeInput input = core::make_resize_input(
            meta, kind, std::move(demands), config_.pipeline.alpha,
            config_.pipeline.epsilon_pct, last_day);
        input.cancel = slo;
        resize::ResizeResult result;
        bool max_min = max_min_only;
        if (!max_min_only) {
            try {
                result = resize::apply_policy(config_.policy, input);
                max_min = !result.feasible;
            } catch (const exec::OperationCancelled&) {
                throw;
            } catch (const std::exception&) {
                max_min = true;
            }
            // Deterministic infeasibility (not an SLO trip): max-min
            // replays identically, so no journal bit is needed.
            if (max_min) counter("serve.resize.fallback");
        }
        if (max_min) {
            input.cancel = nullptr;
            result = resize::max_min_fairness_resize(input);
        }
        (kind == ts::ResourceKind::kCpu ? rec_cpu : rec_ram) =
            std::move(result.capacities);
    }
    box.rec_cpu = std::move(rec_cpu);
    box.rec_ram = std::move(rec_ram);
}

void ServeEngine::counter(const std::string& name, std::uint64_t delta) {
    metrics_.counters[name] += delta;
}

}  // namespace atm::serve
