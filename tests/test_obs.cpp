// Tests for the obs metrics/tracing subsystem: histogram math, counter
// monotonicity, the registry's thread safety (run under TSan via
// `ctest -L obs` with ATM_SANITIZE=thread), JSON round-trips, and the
// fleet-level determinism contract for deterministic metric categories.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/fleet.hpp"
#include "core/metrics_report.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "tracegen/generator.hpp"

namespace atm {
namespace {

// ---------------------------------------------------------------- Histogram

TEST(HistogramTest, BucketsCountAndPercentilesInterpolate) {
    obs::HistogramSnapshot h;
    h.bounds = {1.0, 2.0, 5.0};
    h.counts.assign(h.bounds.size() + 1, 0);
    // 100 observations uniform on (0, 10]: 10 per 0.1-wide step.
    for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i) / 10.0);
    ASSERT_EQ(h.count, 100u);
    EXPECT_EQ(h.counts[0], 10u);  // (0, 1]
    EXPECT_EQ(h.counts[1], 10u);  // (1, 2]
    EXPECT_EQ(h.counts[2], 30u);  // (2, 5]
    EXPECT_EQ(h.counts[3], 50u);  // (5, inf)
    EXPECT_DOUBLE_EQ(h.min, 0.1);
    EXPECT_DOUBLE_EQ(h.max, 10.0);
    EXPECT_NEAR(h.mean(), 5.05, 1e-12);

    // p10 sits exactly at the first bucket's upper edge; p50 halfway into
    // the open-ended bucket is clamped against the observed max.
    EXPECT_NEAR(h.percentile(0.10), 1.0, 1e-9);
    EXPECT_GE(h.percentile(0.50), 2.0);
    EXPECT_LE(h.percentile(0.50), 5.0);
    EXPECT_LE(h.percentile(0.999), h.max);
    EXPECT_GE(h.percentile(0.0), h.min);
}

TEST(HistogramTest, MergeSumsBucketsAndTracksExtremes) {
    obs::HistogramSnapshot a;
    a.bounds = {1.0, 10.0};
    a.counts.assign(3, 0);
    a.record(0.5);
    a.record(5.0);

    obs::HistogramSnapshot b;
    b.bounds = {1.0, 10.0};
    b.counts.assign(3, 0);
    b.record(50.0);

    a.merge(b);
    EXPECT_EQ(a.count, 3u);
    EXPECT_EQ(a.counts[0], 1u);
    EXPECT_EQ(a.counts[1], 1u);
    EXPECT_EQ(a.counts[2], 1u);
    EXPECT_DOUBLE_EQ(a.min, 0.5);
    EXPECT_DOUBLE_EQ(a.max, 50.0);
    EXPECT_DOUBLE_EQ(a.sum, 55.5);
}

TEST(HistogramTest, MergeRejectsMismatchedBounds) {
    obs::HistogramSnapshot a;
    a.bounds = {1.0, 2.0};
    a.counts.assign(3, 0);
    obs::HistogramSnapshot b;
    b.bounds = {1.0, 3.0};
    b.counts.assign(3, 0);
    b.record(1.5);
    EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(HistogramTest, EmptyPercentileIsZero) {
    obs::HistogramSnapshot h;
    h.bounds = {1.0};
    h.counts.assign(2, 0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

// ----------------------------------------------------------------- Registry

TEST(MetricsRegistryTest, CountersAreMonotonicAndExact) {
    obs::MetricsRegistry registry;
    std::uint64_t previous = 0;
    for (int i = 1; i <= 100; ++i) {
        registry.add("events", 3);
        const std::uint64_t now = registry.snapshot().counter("events");
        EXPECT_EQ(now, static_cast<std::uint64_t>(i) * 3);
        EXPECT_GE(now, previous);  // snapshots never go backwards
        previous = now;
    }
}

TEST(MetricsRegistryTest, GaugesLastWriteWins) {
    obs::MetricsRegistry registry;
    registry.set_gauge("level", 1.0);
    registry.set_gauge("level", 2.5);
    EXPECT_DOUBLE_EQ(registry.snapshot().gauges.at("level"), 2.5);
}

TEST(MetricsRegistryTest, NullRegistryScopedTimerIsANoop) {
    obs::ScopedTimer timer(nullptr, "whatever");
    timer.stop();  // must not crash
}

TEST(MetricsRegistryTest, ScopedTimerRecordsElapsedSpans) {
    obs::MetricsRegistry registry;
    for (int i = 0; i < 3; ++i) {
        obs::ScopedTimer timer(&registry, "span");
    }
    {
        obs::ScopedTimer timer(&registry, "stopped");
        timer.stop();
        timer.stop();  // idempotent
    }
    const obs::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.timers.at("span").count, 3u);
    EXPECT_EQ(snap.timers.at("stopped").count, 1u);
    EXPECT_GE(snap.timers.at("span").total_ns,
              snap.timers.at("span").max_ns);
    EXPECT_LE(snap.timers.at("span").min_ns,
              snap.timers.at("span").max_ns);
}

// The TSan target: N writer threads hammer one registry while the main
// thread snapshots mid-flight, then a final quiescent snapshot must be
// exact. Run with ATM_SANITIZE=thread to prove race freedom.
TEST(MetricsRegistryTest, ConcurrentWritersFlushExactly) {
    constexpr int kThreads = 8;
    constexpr int kOpsPerThread = 10'000;
    obs::MetricsRegistry registry;

    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int w = 0; w < kThreads; ++w) {
        writers.emplace_back([&registry] {
            for (int i = 1; i <= kOpsPerThread; ++i) {
                registry.add("ops");
                if (i % 16 == 0) registry.observe("dist", 0.5);
                if (i % 64 == 0) registry.record_ns("span", 10);
            }
        });
    }
    // Interleaved snapshots: values may be partial but must never exceed
    // the final totals, and must not race with the writers.
    for (int s = 0; s < 50; ++s) {
        const obs::MetricsSnapshot mid = registry.snapshot();
        EXPECT_LE(mid.counter("ops"),
                  static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
    }
    for (std::thread& t : writers) t.join();

    const obs::MetricsSnapshot final = registry.snapshot();
    EXPECT_EQ(final.counter("ops"),
              static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
    EXPECT_EQ(final.histograms.at("dist").count,
              static_cast<std::uint64_t>(kThreads) * (kOpsPerThread / 16));
    EXPECT_EQ(final.timers.at("span").count,
              static_cast<std::uint64_t>(kThreads) * (kOpsPerThread / 64));
}

TEST(MetricsSnapshotTest, MergeAddsCountersAndTimers) {
    obs::MetricsRegistry a;
    a.add("shared", 2);
    a.add("only_a", 1);
    a.record_ns("span", 100);
    obs::MetricsRegistry b;
    b.add("shared", 3);
    b.record_ns("span", 50);

    obs::MetricsSnapshot merged = a.snapshot();
    merged.merge(b.snapshot());
    EXPECT_EQ(merged.counter("shared"), 5u);
    EXPECT_EQ(merged.counter("only_a"), 1u);
    EXPECT_EQ(merged.timers.at("span").count, 2u);
    EXPECT_EQ(merged.timers.at("span").total_ns, 150u);
    EXPECT_EQ(merged.timers.at("span").min_ns, 50u);
    EXPECT_EQ(merged.timers.at("span").max_ns, 100u);
}

// --------------------------------------------------------------------- JSON

TEST(JsonTest, ParsesScalarsArraysAndNestedObjects) {
    const obs::json::Value v = obs::json::parse(
        R"({"a": 1, "b": [true, null, -2.5e1], "c": {"d": "x\nyé"}})");
    EXPECT_EQ(v.at("a").as_int(), 1);
    EXPECT_TRUE(v.at("b").array[0].as_bool());
    EXPECT_EQ(v.at("b").array[1].type, obs::json::Value::Type::kNull);
    EXPECT_DOUBLE_EQ(v.at("b").array[2].as_double(), -25.0);
    EXPECT_EQ(v.at("c").at("d").as_string(), "x\ny\xc3\xa9");
}

TEST(JsonTest, RejectsMalformedDocuments) {
    EXPECT_THROW(obs::json::parse(""), std::runtime_error);
    EXPECT_THROW(obs::json::parse("{"), std::runtime_error);
    EXPECT_THROW(obs::json::parse("[1,]"), std::runtime_error);
    EXPECT_THROW(obs::json::parse("{\"a\": 1} trailing"), std::runtime_error);
    EXPECT_THROW(obs::json::parse("\"unterminated"), std::runtime_error);
}

TEST(JsonTest, SerializeParseRoundTripPreservesStructure) {
    obs::json::Value doc = obs::json::Value::make_object();
    doc.set("int", obs::json::Value::of(std::int64_t{-42}));
    doc.set("big", obs::json::Value::of(std::uint64_t{1} << 52));
    doc.set("frac", obs::json::Value::of(0.1));
    doc.set("text", obs::json::Value::of("quote \" slash \\ tab \t"));
    obs::json::Value arr = obs::json::Value::make_array();
    arr.array.push_back(obs::json::Value::of(true));
    arr.array.push_back(obs::json::Value::null());
    doc.set("arr", std::move(arr));

    const obs::json::Value back = obs::json::parse(obs::json::serialize(doc));
    EXPECT_EQ(back.at("int").as_int(), -42);
    EXPECT_EQ(back.at("big").as_u64(), std::uint64_t{1} << 52);
    EXPECT_DOUBLE_EQ(back.at("frac").as_double(), 0.1);
    EXPECT_EQ(back.at("text").as_string(), "quote \" slash \\ tab \t");
    EXPECT_TRUE(back.at("arr").array[0].as_bool());
    // Serialization is stable: same document, same bytes.
    EXPECT_EQ(obs::json::serialize(doc), obs::json::serialize(back));
}

TEST(JsonTest, SnapshotRoundTripsThroughJson) {
    obs::MetricsRegistry registry;
    registry.add("cluster.dtw.cells", 12345);
    registry.add("search.series", 10);
    registry.set_gauge("search.silhouette", 0.625);
    registry.record_ns("stage.search", 1500);
    registry.record_ns("stage.search", 500);
    registry.observe("predict.ape", 0.07);
    registry.observe("predict.ape", 0.30);
    const obs::MetricsSnapshot original = registry.snapshot();

    const std::string text = obs::json::serialize(obs::json::to_json(original));
    const obs::MetricsSnapshot restored =
        obs::json::snapshot_from_json(obs::json::parse(text));

    EXPECT_EQ(restored.counters, original.counters);
    EXPECT_EQ(restored.gauges, original.gauges);
    ASSERT_EQ(restored.timers.size(), original.timers.size());
    EXPECT_EQ(restored.timers.at("stage.search").count, 2u);
    EXPECT_EQ(restored.timers.at("stage.search").total_ns, 2000u);
    ASSERT_EQ(restored.histograms.size(), original.histograms.size());
    EXPECT_EQ(restored.histograms.at("predict.ape").count, 2u);
    EXPECT_EQ(restored.histograms.at("predict.ape").counts,
              original.histograms.at("predict.ape").counts);
    // Byte-identical re-serialization closes the loop.
    EXPECT_EQ(obs::json::serialize(obs::json::to_json(restored)), text);
}

// --------------------------------------------- fleet metrics determinism

/// Serializes only the deterministic categories of a snapshot: counters,
/// gauges, and histograms — timers are wall-clock and excluded from the
/// determinism contract (see DESIGN.md).
std::string deterministic_fingerprint(const obs::MetricsSnapshot& snapshot) {
    obs::MetricsSnapshot stripped = snapshot;
    stripped.timers.clear();
    return obs::json::serialize(obs::json::to_json(stripped));
}

TEST(FleetMetricsTest, DeterministicMetricsIdenticalAcrossJobCounts) {
    trace::TraceGenOptions options;
    options.num_boxes = 4;
    options.num_days = 6;
    options.windows_per_day = 24;
    options.gappy_box_fraction = 0.0;
    options.seed = 20150403;
    const trace::Trace t = trace::generate_trace(options);

    core::FleetConfig config;
    config.pipeline.search.method = core::ClusteringMethod::kDtw;
    config.pipeline.temporal = forecast::TemporalModel::kNeuralNetwork;
    config.pipeline.train_days = 5;
    config.collect_metrics = true;
    config.policies = {resize::ResizePolicy::kAtmGreedy,
                       resize::ResizePolicy::kStingy};

    config.jobs = 1;
    const core::FleetResult serial = core::run_pipeline_on_fleet(t, config);
    config.jobs = 8;
    const core::FleetResult pooled = core::run_pipeline_on_fleet(t, config);

    ASSERT_EQ(serial.boxes.size(), pooled.boxes.size());
    ASSERT_EQ(serial.boxes_failed, 0u);
    ASSERT_EQ(pooled.boxes_failed, 0u);

    // Per-box and fleet-merged deterministic categories are bit-identical
    // between the serial and pooled schedules.
    for (std::size_t b = 0; b < serial.boxes.size(); ++b) {
        EXPECT_EQ(deterministic_fingerprint(serial.boxes[b].result.metrics),
                  deterministic_fingerprint(pooled.boxes[b].result.metrics))
            << "box " << serial.boxes[b].box_name;
    }
    EXPECT_EQ(deterministic_fingerprint(serial.metrics),
              deterministic_fingerprint(pooled.metrics));

    // The instrumentation actually fired: every stage the pipeline runs
    // shows up with non-zero counts.
    const obs::MetricsSnapshot& m = serial.metrics;
    EXPECT_GT(m.counter("cluster.dtw.pairs"), 0u);
    EXPECT_GT(m.counter("cluster.dtw.cells"), 0u);
    EXPECT_GT(m.counter("search.series"), 0u);
    EXPECT_GT(m.counter("search.final_signatures"), 0u);
    EXPECT_GT(m.counter("forecast.mlp.fits"), 0u);
    EXPECT_GT(m.counter("resize.mckp.groups"), 0u);
    EXPECT_GT(m.histograms.at("predict.ape").count, 0u);
    EXPECT_GT(m.timers.at("stage.search").count, 0u);
    EXPECT_GT(m.timers.at("stage.forecast").count, 0u);
    EXPECT_GT(m.timers.at("stage.resize").count, 0u);
}

TEST(FleetMetricsTest, CollectionOffLeavesSnapshotsEmpty) {
    trace::TraceGenOptions options;
    options.num_boxes = 2;
    options.num_days = 6;
    options.windows_per_day = 24;
    options.gappy_box_fraction = 0.0;
    const trace::Trace t = trace::generate_trace(options);

    core::FleetConfig config;
    config.pipeline.train_days = 5;
    config.jobs = 2;
    const core::FleetResult fleet = core::run_pipeline_on_fleet(t, config);
    EXPECT_TRUE(fleet.metrics.empty());
    for (const core::FleetBoxResult& b : fleet.boxes) {
        EXPECT_TRUE(b.result.metrics.empty());
    }
}

TEST(FleetMetricsTest, ReportCarriesSchemaAndPerBoxSections) {
    trace::TraceGenOptions options;
    options.num_boxes = 2;
    options.num_days = 6;
    options.windows_per_day = 24;
    options.gappy_box_fraction = 0.0;
    const trace::Trace t = trace::generate_trace(options);

    core::FleetConfig config;
    config.pipeline.train_days = 5;
    config.jobs = 1;
    config.collect_metrics = true;
    const core::FleetResult fleet = core::run_pipeline_on_fleet(t, config);

    obs::MetricsRegistry extra;
    extra.record_ns("trace.load", 1000);
    const obs::json::Value report =
        core::build_metrics_report(fleet, "predict", extra.snapshot());

    EXPECT_EQ(report.at("schema").as_string(), core::kMetricsReportSchema);
    EXPECT_EQ(report.at("command").as_string(), "predict");
    EXPECT_EQ(report.at("boxes_in_trace").as_u64(), 2u);
    EXPECT_TRUE(report.at("fleet").has("counters"));
    // The `extra` snapshot (CLI-side trace load) lands in the fleet merge.
    EXPECT_TRUE(report.at("fleet").at("timers").has("trace.load"));
    ASSERT_EQ(report.at("boxes").array.size(), fleet.boxes.size());
    for (const obs::json::Value& box : report.at("boxes").array) {
        EXPECT_TRUE(box.has("name"));
        EXPECT_TRUE(box.has("metrics"));
        EXPECT_GT(box.at("metrics").at("counters").object.size(), 0u);
    }
    // The report parses back as valid JSON.
    const obs::json::Value reparsed =
        obs::json::parse(obs::json::serialize(report));
    EXPECT_EQ(reparsed.at("schema").as_string(), core::kMetricsReportSchema);
}

}  // namespace
}  // namespace atm
