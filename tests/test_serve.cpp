// Serve suite (ctest -L serve): the streaming daemon of DESIGN.md §7.15.
// The headline assertion is the crash-safety contract: an engine killed at
// an arbitrary window (journal left with a torn tail, as after SIGKILL
// mid-append) and warm-restarted with --resume replays to bit-identical
// recommendations and deterministic metrics versus an uninterrupted run —
// including runs whose windows went ingest-only under injected apply
// faults, which replay re-draws identically.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fleet_journal.hpp"
#include "exec/fault.hpp"
#include "exec/journal.hpp"
#include "exec/socket.hpp"
#include "linalg/simd/simd.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/serve.hpp"
#include "tracegen/generator.hpp"

namespace atm {
namespace {

using serve::ApplyOutcome;
using serve::ApplyStatus;
using serve::ServeConfig;
using serve::ServeEngine;
using serve::WindowUpdate;

std::string temp_path(const std::string& stem) {
    return testing::TempDir() + stem;
}

/// Two boxes, short days, 12 windows/day: warmup is 2 days = 24 windows,
/// so a 4-day trace exercises warming, search, retrains, and resizes in
/// well under a second with the seasonal-naive model.
trace::Trace tiny_trace(std::uint64_t seed = 11) {
    trace::TraceGenOptions options;
    options.num_boxes = 2;
    options.num_days = 4;
    options.windows_per_day = 12;
    options.gappy_box_fraction = 0.0;
    options.seed = seed;
    return trace::generate_trace(options);
}

ServeConfig fast_config() {
    ServeConfig config;
    config.pipeline.temporal = forecast::TemporalModel::kSeasonalNaive;
    config.pipeline.train_days = 2;
    config.retrain_every = 3;
    return config;
}

WindowUpdate update_at(const trace::Trace& trace, int box_index,
                       std::uint64_t epoch) {
    WindowUpdate update;
    update.box_index = box_index;
    update.epoch = epoch;
    const auto& box = trace.boxes[static_cast<std::size_t>(box_index)];
    for (const auto& vm : box.vms) {
        update.cpu.push_back(vm.cpu_demand_ghz.values()[epoch]);
        update.ram.push_back(vm.ram_demand_gb.values()[epoch]);
    }
    return update;
}

/// Feeds every window of every box epoch-major (the daemon's arrival
/// order) and returns the outcomes keyed by (box, epoch).
std::map<std::pair<int, std::uint64_t>, ApplyOutcome> feed_all(
    ServeEngine& engine, const trace::Trace& trace) {
    std::map<std::pair<int, std::uint64_t>, ApplyOutcome> outcomes;
    const std::uint64_t windows = trace.boxes.front().length();
    for (std::uint64_t epoch = 0; epoch < windows; ++epoch) {
        for (int box = 0; box < engine.num_boxes(); ++box) {
            outcomes[{box, epoch}] = engine.apply(update_at(trace, box, epoch));
        }
    }
    return outcomes;
}

/// The deterministic part of the resume-equivalence contract: counters,
/// gauges, and histograms (timers are wall-clock and excluded; the serve
/// engine records none).
void expect_metrics_equal(const obs::MetricsSnapshot& a,
                          const obs::MetricsSnapshot& b) {
    EXPECT_EQ(a.counters, b.counters);
    EXPECT_EQ(a.gauges, b.gauges);
    ASSERT_EQ(a.histograms.size(), b.histograms.size());
    for (const auto& [name, hist] : a.histograms) {
        ASSERT_TRUE(b.histograms.count(name)) << name;
        const auto& other = b.histograms.at(name);
        EXPECT_EQ(hist.counts, other.counts) << name;
        EXPECT_EQ(hist.count, other.count) << name;
        EXPECT_DOUBLE_EQ(hist.sum, other.sum) << name;
    }
}

// ------------------------------------------------------------- validate

TEST(ServeConfigTest, AcceptsFastDefaults) {
    EXPECT_EQ(fast_config().validate(), "");
    EXPECT_EQ(ServeConfig{}.validate(), "");
}

TEST(ServeConfigTest, ReportsEveryViolationJoined) {
    ServeConfig config = fast_config();
    config.pipeline.train_days = 1;
    config.queue_depth = 0;
    config.drift_threshold = -0.5;
    config.retrain_every = 0;
    config.resume = true;  // without a journal path
    const std::string message = config.validate();
    EXPECT_NE(message.find("train_days must be >= 2"), std::string::npos);
    EXPECT_NE(message.find("queue_depth must be in [1, 1048576], got 0"),
              std::string::npos);
    EXPECT_NE(message.find("drift_threshold must be >= 0"), std::string::npos);
    EXPECT_NE(message.find("retrain_every must be >= 1"), std::string::npos);
    EXPECT_NE(message.find("resume requires a journal path"),
              std::string::npos);
    // Violations are joined with "; " like FleetConfig::validate.
    EXPECT_NE(message.find("; "), std::string::npos);
}

TEST(ServeConfigTest, RejectsNanAndOutOfRangePipelineKnobs) {
    // The pipeline's own range check (shared with FleetConfig): NaN fails
    // every bound, and epsilon must stay below a full capacity.
    ServeConfig config = fast_config();
    config.pipeline.epsilon_pct = 500.0;
    EXPECT_NE(config.validate().find("epsilon_pct must be in [0, 100)"),
              std::string::npos);
    config = fast_config();
    config.pipeline.alpha = std::nan("");
    config.pipeline.epsilon_pct = std::nan("");
    config.pipeline.max_bad_sample_fraction = std::nan("");
    config.pipeline.search.vif_threshold = std::nan("");
    config.pipeline.search.rho_threshold = std::nan("");
    const std::string message = config.validate();
    EXPECT_NE(message.find("alpha must be in (0, 1]"), std::string::npos);
    EXPECT_NE(message.find("epsilon_pct must be in [0, 100)"),
              std::string::npos);
    EXPECT_NE(message.find("max_bad_sample_fraction must be in [0, 1]"),
              std::string::npos);
    EXPECT_NE(message.find("search.vif_threshold must be finite and >= 1"),
              std::string::npos);
    EXPECT_NE(message.find("search.rho_threshold must be in [-1, 1]"),
              std::string::npos);
    // Out of range without NaN: serve searches with the same thresholds.
    config = fast_config();
    config.pipeline.search.vif_threshold = 0.0;
    config.pipeline.search.rho_threshold = -2.0;
    const std::string range_message = config.validate();
    EXPECT_NE(range_message.find("search.vif_threshold must be finite and >= 1"),
              std::string::npos);
    EXPECT_NE(range_message.find("search.rho_threshold must be in [-1, 1]"),
              std::string::npos);
}

TEST(ServeConfigTest, EngineCtorThrowsOnInvalidConfig) {
    const trace::Trace trace = tiny_trace();
    ServeConfig config = fast_config();
    config.queue_depth = -3;
    EXPECT_THROW(ServeEngine(trace, config), std::invalid_argument);
}

// ---------------------------------------------------------- epoch record

TEST(ServeJournalTest, EpochRecordRoundTripsBitExact) {
    core::ServeEpochRecord record;
    record.box_index = 3;
    record.epoch = 41;
    record.ladder = 8;
    record.cpu = {0.1, 1.0 / 3.0, 2.7182818284590452};
    record.ram = {12.5, 1e-17};
    const core::ServeEpochRecord decoded =
        core::decode_epoch_record(core::encode_epoch_record(record));
    EXPECT_EQ(decoded.box_index, record.box_index);
    EXPECT_EQ(decoded.epoch, record.epoch);
    EXPECT_EQ(decoded.ladder, record.ladder);
    EXPECT_EQ(decoded.cpu, record.cpu);  // bit-exact doubles
    EXPECT_EQ(decoded.ram, record.ram);
}

TEST(ServeJournalTest, DecodeRejectsLadderOutsideMaskRange) {
    // A window either ran in full (0) or went ingest-only (8); any other
    // mask is a corrupt record.
    core::ServeEpochRecord record;
    for (const int ladder : {0, 8}) {
        record.ladder = ladder;
        EXPECT_NO_THROW(
            core::decode_epoch_record(core::encode_epoch_record(record)))
            << ladder;
    }
    for (const int ladder : {1, 2, 4, 15, 16, -1}) {
        record.ladder = ladder;
        EXPECT_THROW(
            core::decode_epoch_record(core::encode_epoch_record(record)),
            std::runtime_error)
            << ladder;
    }
}

// ----------------------------------------------------------- ingest queue

TEST(IngestQueueTest, EnforcesCapacityAndTracksPeak) {
    serve::IngestQueue queue(2);
    EXPECT_TRUE(queue.try_push({}));
    EXPECT_TRUE(queue.try_push({}));
    EXPECT_FALSE(queue.try_push({}));  // backpressure: never exceeds cap
    EXPECT_EQ(queue.depth(), 2u);
    EXPECT_EQ(queue.peak(), 2u);
    EXPECT_TRUE(queue.pop(10).has_value());
    EXPECT_TRUE(queue.try_push({}));  // slot freed
    EXPECT_EQ(queue.peak(), 2u);      // high-water mark sticks
}

TEST(IngestQueueTest, CloseDrainsThenReturnsEmpty) {
    serve::IngestQueue queue(4);
    ASSERT_TRUE(queue.try_push({}));
    queue.close();
    EXPECT_FALSE(queue.try_push({}));            // closed: no new work
    EXPECT_TRUE(queue.pop(10).has_value());      // but queued work drains
    EXPECT_FALSE(queue.pop(10).has_value());     // then empty forever
}

TEST(IngestQueueTest, PopTimesOutWhenIdle) {
    serve::IngestQueue queue(1);
    EXPECT_FALSE(queue.pop(1).has_value());
}

// -------------------------------------------------------- apply statuses

TEST(ServeEngineTest, RejectsBadShapeGapAndStale) {
    const trace::Trace trace = tiny_trace();
    ServeEngine engine(trace, fast_config());
    ASSERT_EQ(engine.num_boxes(), 2);
    EXPECT_EQ(engine.find_box(trace.boxes[1].name), 1);
    EXPECT_EQ(engine.find_box("no-such-box"), -1);

    WindowUpdate update = update_at(trace, 0, 0);
    update.cpu.pop_back();  // one sample short of the VM count
    EXPECT_EQ(engine.apply(update).status, ApplyStatus::kBadShape);

    update = update_at(trace, 0, 5);  // future epoch: ordered stream only
    const ApplyOutcome gap = engine.apply(update);
    EXPECT_EQ(gap.status, ApplyStatus::kGap);
    EXPECT_NE(gap.error.find("expected epoch 0"), std::string::npos);

    EXPECT_EQ(engine.apply(update_at(trace, 0, 0)).status,
              ApplyStatus::kWarming);
    EXPECT_EQ(engine.next_epoch(0), 1u);
    // Re-sending an applied epoch is a stale no-op (client retransmit).
    EXPECT_EQ(engine.apply(update_at(trace, 0, 0)).status, ApplyStatus::kStale);
    EXPECT_EQ(engine.next_epoch(0), 1u);
}

// --------------------------------------------------- kill-restart (headline)

/// Runs `config` uninterrupted as the baseline, then re-runs it journaled
/// but killed after `kill_after` epochs (with a torn half-frame appended,
/// as a SIGKILL mid-append leaves), resumes, and requires bit-identical
/// recommendations and metrics. Shared by the plain / MLP / faulty
/// variants below.
void expect_kill_restart_equivalence(ServeConfig config,
                                     const std::string& stem,
                                     std::uint64_t kill_after) {
    const trace::Trace trace = tiny_trace();
    const std::string journal_path = temp_path(stem + ".journal");
    std::remove(journal_path.c_str());

    // Baseline: uninterrupted, journal disabled (journaling must not
    // change results).
    ServeConfig baseline_config = config;
    baseline_config.journal_path.clear();
    ServeEngine baseline(trace, baseline_config);
    const auto expected = feed_all(baseline, trace);
    const obs::MetricsSnapshot expected_metrics = baseline.metrics();

    // Victim: journaled, fed `kill_after` epochs, then destroyed without
    // a clean drain and the journal left with a torn tail.
    config.journal_path = journal_path;
    {
        ServeEngine victim(trace, config);
        EXPECT_FALSE(victim.resumed());
        for (std::uint64_t epoch = 0; epoch < kill_after; ++epoch) {
            for (int box = 0; box < victim.num_boxes(); ++box) {
                const ApplyOutcome out =
                    victim.apply(update_at(trace, box, epoch));
                const ApplyOutcome& want = expected.at({box, epoch});
                EXPECT_EQ(out.status, want.status);
                EXPECT_EQ(out.cpu, want.cpu);
                EXPECT_EQ(out.ram, want.ram);
            }
        }
    }
    {
        // SIGKILL mid-append: a frame prefix with no trailing newline.
        std::ofstream torn(journal_path, std::ios::app | std::ios::binary);
        torn << "0000002a 0123456789abcdef {\"box\":0,\"epo";
    }

    // Resume: clients re-send from epoch 0; journaled windows are
    // re-applied by the same live code and must match bit for bit.
    config.resume = true;
    ServeEngine resumed(trace, config);
    EXPECT_TRUE(resumed.resumed());
    EXPECT_GT(resumed.replay_remaining(), 0u);
    const auto actual = feed_all(resumed, trace);
    EXPECT_EQ(resumed.replay_remaining(), 0u);

    ASSERT_EQ(actual.size(), expected.size());
    for (const auto& [key, want] : expected) {
        const ApplyOutcome& got = actual.at(key);
        EXPECT_EQ(got.status, want.status)
            << "box " << key.first << " epoch " << key.second;
        EXPECT_EQ(got.ladder, want.ladder)
            << "box " << key.first << " epoch " << key.second;
        EXPECT_EQ(got.cpu, want.cpu)  // bit-identical recommendations
            << "box " << key.first << " epoch " << key.second;
        EXPECT_EQ(got.ram, want.ram)
            << "box " << key.first << " epoch " << key.second;
    }
    expect_metrics_equal(resumed.metrics(), expected_metrics);
    resumed.close();
    std::remove(journal_path.c_str());
}

TEST(ServeRestartTest, KillAndResumeIsBitIdentical) {
    // Kill right after the warmup boundary so replay covers warming
    // windows, the first search, and post-model windows.
    expect_kill_restart_equivalence(fast_config(), "serve_restart", 30);
}

TEST(ServeRestartTest, KillAndResumeIsBitIdenticalWithMlp) {
    ServeConfig config = fast_config();
    config.pipeline.temporal = forecast::TemporalModel::kNeuralNetwork;
    config.train_epochs = 3;   // keep the suite fast on one core
    config.retrain_epochs = 2;
    expect_kill_restart_equivalence(config, "serve_restart_mlp", 28);
}

TEST(ServeRestartTest, KillAndResumeIsBitIdenticalUnderFaults) {
    // Apply faults send windows to ingest-only live; replay re-rolls the
    // same (seed, box, epoch) draws, which must fire on the same windows.
    ServeConfig config = fast_config();
    config.faults = exec::FaultPlan::parse("serve.apply=throw@0.3", 77);
    expect_kill_restart_equivalence(config, "serve_restart_fault", 34);
}

TEST(ServeRestartTest, HeaderMismatchStartsFresh) {
    const trace::Trace trace = tiny_trace();
    const std::string journal_path = temp_path("serve_header.journal");
    std::remove(journal_path.c_str());
    ServeConfig config = fast_config();
    config.journal_path = journal_path;
    {
        ServeEngine engine(trace, config);
        for (std::uint64_t epoch = 0; epoch < 4; ++epoch) {
            engine.apply(update_at(trace, 0, epoch));
        }
    }
    // Any result-affecting knob change invalidates the journal: the
    // resume starts fresh instead of replaying under the wrong config.
    config.resume = true;
    config.drift_threshold = 0.5;
    {
        ServeEngine engine(trace, config);
        EXPECT_FALSE(engine.resumed());
        EXPECT_EQ(engine.replay_remaining(), 0u);
        EXPECT_EQ(engine.next_epoch(0), 0u);
    }

    // A journal of the previous schema, atm.serve-journal.v2, may hold
    // sheds that no longer reproduce: even with a matching trace and
    // config it starts fresh, so its records are never checked against
    // the live windows (these would all diverge).
    {
        exec::JournalWriter old = exec::JournalWriter::create(
            journal_path,
            core::journal_header("atm.serve-journal.v2", trace,
                                 serve::serve_config_digest(config),
                                 config.pipeline.seed));
        for (std::uint64_t epoch = 0; epoch < 4; ++epoch) {
            core::ServeEpochRecord record;
            record.epoch = epoch;
            record.cpu = {123.0};
            old.append(core::encode_epoch_record(record));
        }
        old.close();
    }
    ServeEngine engine(trace, config);
    EXPECT_FALSE(engine.resumed());
    EXPECT_EQ(engine.replay_remaining(), 0u);
    EXPECT_EQ(engine.next_epoch(0), 0u);
    for (std::uint64_t epoch = 0; epoch < 4; ++epoch) {
        EXPECT_NO_THROW(engine.apply(update_at(trace, 0, epoch)));
    }
    engine.close();
    std::remove(journal_path.c_str());
}

// ------------------------------------------------------- full windows

TEST(ServeEngineTest, EveryAppliedWindowRunsToCompletion) {
    const trace::Trace trace = tiny_trace();
    ServeEngine engine(trace, fast_config());
    const auto outcomes = feed_all(engine, trace);
    for (const auto& [key, out] : outcomes) {
        if (out.status != ApplyStatus::kApplied) continue;
        EXPECT_EQ(out.ladder, 0);
        EXPECT_FALSE(out.cpu.empty());
        EXPECT_FALSE(out.ram.empty());
        for (double v : out.cpu) EXPECT_TRUE(std::isfinite(v));
        for (double v : out.ram) EXPECT_TRUE(std::isfinite(v));
    }
    const auto& counters = engine.metrics().counters;
    EXPECT_GT(counters.at("serve.windows.applied"), 0u);
    EXPECT_GE(counters.at("serve.search.runs"), 2u);  // one per box
    for (const auto& [name, value] : counters) {
        EXPECT_NE(name.rfind("serve.degraded.", 0), 0u) << name;
    }
}

TEST(ServeEngineTest, DriftThresholdGatesResearch) {
    const trace::Trace trace = tiny_trace();
    ServeConfig lazy = fast_config();
    lazy.drift_threshold = 1e9;  // never re-search after the cold start
    ServeEngine lazy_engine(trace, lazy);
    feed_all(lazy_engine, trace);
    const std::uint64_t lazy_runs =
        lazy_engine.metrics().counters.at("serve.search.runs");
    EXPECT_EQ(lazy_runs, 2u);  // exactly the per-box cold searches

    ServeConfig eager = fast_config();
    eager.drift_threshold = 0.0;  // any drift re-triggers search
    ServeEngine eager_engine(trace, eager);
    feed_all(eager_engine, trace);
    EXPECT_GT(eager_engine.metrics().counters.at("serve.search.runs"),
              lazy_runs);
}

// ------------------------------------------------------ batch == stream

TEST(ServeEngineTest, FirstForecastEqualsBatchPipelineBitForBit) {
    // Serve is the batch model on a sliding window: after exactly
    // train_days of windows, its search and first forecast must equal
    // run_pipeline_on_box on the same trace, bit for bit.
    struct ScalarPath {
        simd::Path saved = simd::active_path();
        ScalarPath() { simd::set_path(simd::Path::kScalar); }
        ~ScalarPath() { simd::set_path(saved); }
    } scalar;
    const trace::Trace trace = tiny_trace();
    ServeConfig config = fast_config();
    config.pipeline.search.method = core::ClusteringMethod::kCbc;
    config.pipeline.train_days = 3;
    config.drift_threshold = 0.0;  // the last window searches again
    ServeEngine engine(trace, config);
    const std::uint64_t train_len = static_cast<std::uint64_t>(
        config.pipeline.train_days * trace.windows_per_day);
    std::uint64_t searches_before_last = 0;
    for (std::uint64_t epoch = 0; epoch < train_len; ++epoch) {
        if (epoch + 1 == train_len) {
            searches_before_last =
                engine.metrics().counters.at("serve.search.runs");
        }
        ASSERT_NE(engine.apply(update_at(trace, 0, epoch)).status,
                  ApplyStatus::kBadShape);
    }
    ASSERT_EQ(engine.metrics().counters.at("serve.search.runs"),
              searches_before_last + 1);

    const core::BoxPipelineResult batch = core::run_pipeline_on_box(
        trace.boxes[0], trace.windows_per_day, config.pipeline);
    EXPECT_EQ(engine.signatures(0), batch.search.signatures);
    const std::vector<double>& forecast = engine.last_forecast(0);
    ASSERT_EQ(forecast.size(), batch.predicted_demands.size());
    for (std::size_t i = 0; i < forecast.size(); ++i) {
        EXPECT_EQ(forecast[i], batch.predicted_demands[i][0]) << "series " << i;
    }
}

// ------------------------------------------------------- apply faults

TEST(ServeEngineTest, InjectedApplyFaultGoesIngestOnlyOnFirstAttempt) {
    // The model work is deterministic, so a fired "serve.apply" fault is
    // not retried: exactly the windows whose (seed, box, epoch) draw fires
    // shed to ingest-only (ladder 8) and emit no recommendation.
    const trace::Trace trace = tiny_trace();
    ServeConfig config = fast_config();
    config.faults = exec::FaultPlan::parse("serve.apply=throw@0.5", 9);
    ServeEngine engine(trace, config);
    std::uint64_t fired = 0;
    std::uint64_t clean = 0;
    const auto outcomes = feed_all(engine, trace);
    for (const auto& [key, out] : outcomes) {
        if (out.status != ApplyStatus::kApplied) continue;
        exec::FaultContext fault;
        fault.plan = &config.faults;
        fault.entity = static_cast<std::uint64_t>(key.first);
        fault.epoch = key.second + 1;
        bool fires = false;
        try {
            fault.check_site("serve.apply");
        } catch (const exec::InjectedFault&) {
            fires = true;
        }
        if (fires) {
            ++fired;
            EXPECT_EQ(out.ladder, 8) << "box " << key.first << " epoch "
                                     << key.second;
            EXPECT_TRUE(out.cpu.empty());
        } else {
            ++clean;
            EXPECT_EQ(out.ladder & 8, 0) << "box " << key.first << " epoch "
                                         << key.second;
        }
    }
    ASSERT_GT(fired, 0u);  // rate 0.5 fires
    ASSERT_GT(clean, 0u);
    const auto& counters = engine.metrics().counters;
    EXPECT_EQ(counters.at("serve.degraded.ingest_only"), fired);
}

// ------------------------------------------- journal with a live writer

TEST(ServeJournalTest, LoadTolleratesLiveWriterMidAppend) {
    const std::string path = temp_path("serve_live_writer.journal");
    const std::string snapshot = temp_path("serve_live_writer.snapshot");
    std::remove(path.c_str());
    exec::JournalWriter writer = exec::JournalWriter::create(path, "header");
    writer.append("record-0");
    writer.append("record-1");

    // A reader snapshotting the file mid-append sees the intact prefix
    // plus the partial bytes of the record being written; load_journal
    // must hand back exactly the prefix and flag the dropped tail.
    {
        std::ifstream in(path, std::ios::binary);
        std::ofstream out(snapshot, std::ios::binary);
        out << in.rdbuf();
        out << "00000008 0011";  // torn frame: half a checksum, no payload
    }
    const exec::JournalLoad partial = exec::load_journal(snapshot);
    EXPECT_TRUE(partial.exists);
    EXPECT_TRUE(partial.dropped_tail);
    EXPECT_EQ(partial.header, "header");
    ASSERT_EQ(partial.records.size(), 2u);
    EXPECT_EQ(partial.records[0], "record-0");
    EXPECT_EQ(partial.records[1], "record-1");

    // The writer was never disturbed: appends continue and a later load
    // of the live file sees everything, with no dropped tail.
    writer.append("record-2");
    writer.close();
    const exec::JournalLoad full = exec::load_journal(path);
    EXPECT_FALSE(full.dropped_tail);
    ASSERT_EQ(full.records.size(), 3u);
    EXPECT_EQ(full.records[2], "record-2");
    std::remove(path.c_str());
    std::remove(snapshot.c_str());
}

// ------------------------------------------------------------- protocol

TEST(ServeProtocolTest, RequestRoundTrips) {
    const serve::Request hello = serve::parse_request(serve::encode_hello());
    EXPECT_EQ(hello.type, serve::Request::Type::kHello);
    EXPECT_EQ(hello.proto, serve::kServeProtocol);

    const serve::Request window = serve::parse_request(
        serve::encode_window("box-7", 12, {1.5, 0.25}, {8.0, 16.0}));
    EXPECT_EQ(window.type, serve::Request::Type::kWindow);
    EXPECT_EQ(window.box, "box-7");
    EXPECT_EQ(window.epoch, 12u);
    EXPECT_EQ(window.cpu, (std::vector<double>{1.5, 0.25}));
    EXPECT_EQ(window.ram, (std::vector<double>{8.0, 16.0}));

    EXPECT_EQ(serve::parse_request(serve::encode_stat()).type,
              serve::Request::Type::kStat);
    EXPECT_EQ(serve::parse_request(serve::encode_shutdown()).type,
              serve::Request::Type::kShutdown);
    EXPECT_THROW(serve::parse_request("not json"), std::runtime_error);
    EXPECT_THROW(serve::parse_request("{\"type\":\"mystery\"}"),
                 std::runtime_error);
    // An epoch outside u64 (or overflowing to infinity) is rejected, not
    // cast: a double-to-integer conversion out of range is undefined.
    for (const char* epoch : {"1e30", "1e400"}) {
        EXPECT_THROW(serve::parse_request(
                         std::string("{\"type\":\"window\",\"box\":\"b0\","
                                     "\"epoch\":") +
                         epoch + ",\"cpu\":[1],\"ram\":[1]}"),
                     std::runtime_error)
            << epoch;
    }
}

TEST(ServeProtocolTest, ResponseRoundTrips) {
    ApplyOutcome outcome;
    outcome.status = ApplyStatus::kApplied;
    outcome.epoch = 9;
    outcome.ladder = 8;
    outcome.cpu = {2.5};
    outcome.ram = {4.0};
    const serve::Response ack =
        serve::parse_response(serve::encode_ack(outcome));
    EXPECT_EQ(ack.type, "ack");
    EXPECT_EQ(ack.status, "applied");
    EXPECT_EQ(ack.epoch, 9u);
    EXPECT_EQ(ack.ladder, 8);
    EXPECT_EQ(ack.cpu, outcome.cpu);

    const serve::Response busy = serve::parse_response(serve::encode_busy(12.5));
    EXPECT_EQ(busy.type, "busy");
    EXPECT_DOUBLE_EQ(busy.retry_after_ms, 12.5);

    const serve::Response hello =
        serve::parse_response(serve::encode_hello_response(4, true));
    EXPECT_EQ(hello.type, "hello");
    EXPECT_EQ(hello.boxes, 4);
    EXPECT_TRUE(hello.resumed);
}

// ---------------------------------------------------------- daemon (e2e)

TEST(ServeDaemonTest, SocketRoundTripWithStatAndShutdown) {
    const trace::Trace trace = tiny_trace();
    serve::DaemonOptions options;
    options.socket_path = temp_path("atmd_e2e.sock");
    serve::ServeDaemon daemon(trace, fast_config(), options);
    std::thread server([&daemon] { EXPECT_EQ(daemon.run(), 0); });

    serve::ServeClient client =
        serve::ServeClient::connect(options.socket_path);
    EXPECT_EQ(client.hello().boxes, 2);
    EXPECT_FALSE(client.hello().resumed);

    for (int box = 0; box < 2; ++box) {
        const WindowUpdate update = update_at(trace, box, 0);
        const serve::Response ack = client.window(
            trace.boxes[static_cast<std::size_t>(box)].name, 0, update.cpu,
            update.ram);
        EXPECT_EQ(ack.type, "ack");
        EXPECT_EQ(ack.status, "warming");
    }
    const serve::Response unknown = client.window("no-such-box", 0, {1}, {1});
    EXPECT_EQ(unknown.type, "error");
    EXPECT_NE(unknown.message.find("unknown box"), std::string::npos);

    const serve::Response stat = client.stat();
    EXPECT_EQ(stat.type, "stat");
    EXPECT_NE(stat.metrics_json.find("atm.serve-metrics.v1"),
              std::string::npos);
    EXPECT_NE(stat.metrics_json.find("serve.windows.warming"),
              std::string::npos);

    EXPECT_EQ(client.shutdown().type, "ok");
    server.join();
}

TEST(ServeDaemonTest, BackpressureRejectsWithRetryAfterAndRecovers) {
    const trace::Trace trace = tiny_trace();
    ServeConfig config = fast_config();
    config.queue_depth = 1;  // one in flight, everything else rejected
    serve::DaemonOptions options;
    options.socket_path = temp_path("atmd_bp.sock");
    options.retry_after_ms = 5.0;
    options.apply_delay_ms = 100.0;  // worker slow: queue fills for sure
    serve::ServeDaemon daemon(trace, config, options);
    std::thread server([&daemon] { EXPECT_EQ(daemon.run(), 0); });

    // Raw socket (not ServeClient): fire three windows back-to-back
    // without waiting for acks, so the bounded queue overflows.
    exec::UnixSocket socket = exec::unix_connect(options.socket_path, 5000);
    ASSERT_TRUE(socket.write_line(serve::encode_hello()));
    ASSERT_TRUE(socket.read_line(5000).has_value());
    const std::string& box = trace.boxes[0].name;
    const WindowUpdate w0 = update_at(trace, 0, 0);
    // Epoch 0 first, alone: the worker pops it immediately and is then
    // pinned in the 100ms apply delay, so epochs 1 and 2 arrive while
    // the (depth-1) queue holds exactly one job — epoch 1 queues, epoch
    // 2 must bounce.
    ASSERT_TRUE(socket.write_line(serve::encode_window(box, 0, w0.cpu, w0.ram)));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ASSERT_TRUE(socket.write_line(serve::encode_window(box, 1, w0.cpu, w0.ram)));
    ASSERT_TRUE(socket.write_line(serve::encode_window(box, 2, w0.cpu, w0.ram)));
    int acks = 0;
    int busies = 0;
    const std::uint64_t retry_epoch = 2;
    for (int i = 0; i < 3; ++i) {
        std::optional<std::string> line;
        for (int poll = 0; poll < 100 && !line.has_value(); ++poll) {
            line = socket.read_line(100);
        }
        ASSERT_TRUE(line.has_value());
        const serve::Response response = serve::parse_response(*line);
        if (response.type == "ack") {
            ++acks;
        } else {
            ASSERT_EQ(response.type, "busy");
            EXPECT_DOUBLE_EQ(response.retry_after_ms, 5.0);
            ++busies;
        }
    }
    EXPECT_EQ(acks, 2);
    EXPECT_EQ(busies, 1);

    // The well-behaved reaction: wait out retry_after and re-send. The
    // queue has drained by then, so the retried window is accepted.
    serve::Response retried;
    for (int attempt = 0; attempt < 50; ++attempt) {
        ASSERT_TRUE(socket.write_line(
            serve::encode_window(box, retry_epoch, w0.cpu, w0.ram)));
        std::optional<std::string> line;
        for (int poll = 0; poll < 100 && !line.has_value(); ++poll) {
            line = socket.read_line(100);
        }
        ASSERT_TRUE(line.has_value());
        retried = serve::parse_response(*line);
        if (retried.type != "busy") break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(retried.type, "ack");

    ASSERT_TRUE(socket.write_line(serve::encode_shutdown()));
    server.join();
}

TEST(ServeDaemonTest, RejectsProtocolMismatch) {
    const trace::Trace trace = tiny_trace();
    serve::DaemonOptions options;
    options.socket_path = temp_path("atmd_proto.sock");
    serve::ServeDaemon daemon(trace, fast_config(), options);
    std::thread server([&daemon] { daemon.run(); });

    exec::UnixSocket socket = exec::unix_connect(options.socket_path, 5000);
    ASSERT_TRUE(socket.write_line(
        "{\"type\":\"hello\",\"proto\":\"atm.serve.v999\"}"));
    std::optional<std::string> line;
    for (int poll = 0; poll < 100 && !line.has_value(); ++poll) {
        line = socket.read_line(100);
    }
    ASSERT_TRUE(line.has_value());
    const serve::Response response = serve::parse_response(*line);
    EXPECT_EQ(response.type, "error");
    EXPECT_NE(response.message.find("unsupported protocol"), std::string::npos);

    serve::ServeClient client =
        serve::ServeClient::connect(options.socket_path);
    client.shutdown();
    server.join();
}

}  // namespace
}  // namespace atm
