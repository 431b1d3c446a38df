// Tests for the exec subsystem (the parallel loop, seed derivation,
// ArgParser) and the fleet driver's determinism contract: identical
// results at every worker count.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/dtw.hpp"
#include "core/fleet.hpp"
#include "exec/arg_parser.hpp"
#include "exec/cancel.hpp"
#include "exec/io.hpp"
#include "exec/journal.hpp"
#include "exec/parallel_for.hpp"
#include "exec/seed.hpp"
#include "obs/metrics.hpp"
#include "tracegen/generator.hpp"

namespace atm {
namespace {

// ------------------------------------------------------------------- seeding

TEST(SeedTest, DeriveSeedIsDeterministic) {
    EXPECT_EQ(exec::derive_seed(42, 7), exec::derive_seed(42, 7));
}

TEST(SeedTest, DeriveSeedSeparatesIndicesAndBases) {
    std::set<std::uint64_t> seeds;
    for (std::uint64_t base : {0ull, 1ull, 42ull}) {
        for (std::uint64_t index = 0; index < 100; ++index) {
            seeds.insert(exec::derive_seed(base, index));
        }
    }
    EXPECT_EQ(seeds.size(), 300u);  // no collisions across bases or indices
}

// ------------------------------------------------------------- FleetConfig

TEST(FleetConfigTest, DefaultConfigValidates) {
    const core::FleetConfig config;
    EXPECT_EQ(config.validate(), "");
}

TEST(FleetConfigTest, ReportsEveryOutOfRangeValue) {
    core::FleetConfig config;
    config.pipeline.alpha = 1.5;
    config.pipeline.train_days = 0;
    config.pipeline.epsilon_pct = -1.0;
    config.pipeline.search.vif_threshold = 0.5;  // every VIF is >= 1
    config.pipeline.search.rho_threshold = 1.5;
    config.jobs = -2;
    const std::string problems = config.validate();
    EXPECT_NE(problems.find("alpha"), std::string::npos);
    EXPECT_NE(problems.find("train_days"), std::string::npos);
    EXPECT_NE(problems.find("epsilon_pct"), std::string::npos);
    EXPECT_NE(problems.find("search.vif_threshold"), std::string::npos);
    EXPECT_NE(problems.find("search.rho_threshold"), std::string::npos);
    EXPECT_NE(problems.find("jobs"), std::string::npos);

    // NaN fails every range check (`atm predict --threshold nan`).
    core::FleetConfig nan_config;
    nan_config.pipeline.alpha = std::nan("");
    nan_config.pipeline.epsilon_pct = std::nan("");
    nan_config.pipeline.max_bad_sample_fraction = std::nan("");
    nan_config.pipeline.search.vif_threshold = std::nan("");
    nan_config.pipeline.search.rho_threshold = std::nan("");
    nan_config.box_deadline_seconds = std::nan("");
    const std::string nan_problems = nan_config.validate();
    EXPECT_NE(nan_problems.find("alpha"), std::string::npos);
    EXPECT_NE(nan_problems.find("epsilon_pct"), std::string::npos);
    EXPECT_NE(nan_problems.find("max_bad_sample_fraction"), std::string::npos);
    EXPECT_NE(nan_problems.find("search.vif_threshold"), std::string::npos);
    EXPECT_NE(nan_problems.find("search.rho_threshold"), std::string::npos);
    EXPECT_NE(nan_problems.find("box_deadline_seconds"), std::string::npos);

    // An infinite VIF threshold disables Step 2 silently; ρ stays in [-1, 1].
    core::FleetConfig edge_config;
    edge_config.pipeline.search.vif_threshold =
        std::numeric_limits<double>::infinity();
    edge_config.pipeline.search.rho_threshold = -1.0001;
    const std::string edge_problems = edge_config.validate();
    EXPECT_NE(edge_problems.find("search.vif_threshold"), std::string::npos);
    EXPECT_NE(edge_problems.find("search.rho_threshold"), std::string::npos);
    edge_config.pipeline.search.vif_threshold = 1.0;  // boundaries are valid
    edge_config.pipeline.search.rho_threshold = -1.0;
    EXPECT_EQ(edge_config.validate(), "");
    edge_config.pipeline.search.rho_threshold = 1.0;
    EXPECT_EQ(edge_config.validate(), "");

    // jobs is bounded above too, so a huge --jobs fails here instead of
    // asking for that many threads; 0 (hardware concurrency) and the
    // bound itself are valid. validate() starts no pool.
    core::FleetConfig jobs_config;
    for (const int jobs : {core::FleetConfig::kMaxJobs + 1, 100000,
                           std::numeric_limits<int>::max()}) {
        jobs_config.jobs = jobs;
        EXPECT_NE(jobs_config.validate().find("jobs"), std::string::npos)
            << jobs;
    }
    for (const int jobs : {0, 1, core::FleetConfig::kMaxJobs}) {
        jobs_config.jobs = jobs;
        EXPECT_EQ(jobs_config.validate(), "") << jobs;
    }
}

TEST(FleetConfigTest, AcceptsBoundaryAlphaAndRejectsRangeEdges) {
    core::FleetConfig config;
    config.pipeline.alpha = 1.0;  // a 100% threshold is a valid boundary
    EXPECT_EQ(config.validate(), "");
    config.pipeline.epsilon_pct = 100.0;  // rounding to >= a full capacity is not
    EXPECT_NE(config.validate().find("epsilon_pct"), std::string::npos);
    config.pipeline.epsilon_pct = 5.0;
    config.pipeline.max_bad_sample_fraction = 1.5;
    EXPECT_NE(config.validate().find("max_bad_sample_fraction"),
              std::string::npos);
}

TEST(FleetConfigTest, TraceValidationCatchesOverlongTraining) {
    trace::TraceGenOptions options;
    options.num_boxes = 1;
    options.num_days = 6;
    options.windows_per_day = 24;
    options.gappy_box_fraction = 0.0;
    const trace::Trace t = trace::generate_trace(options);

    core::FleetConfig config;
    EXPECT_EQ(config.validate(t), "");  // 5 train days + 1 eval day fit in 6
    config.pipeline.train_days = 10;
    EXPECT_EQ(config.validate(), "");  // config alone cannot see the trace
    EXPECT_NE(config.validate(t).find("train_days"), std::string::npos);
    EXPECT_THROW(core::run_pipeline_on_fleet(t, config), std::invalid_argument);
}

TEST(FleetConfigTest, FleetRunRejectsInvalidConfig) {
    trace::TraceGenOptions options;
    options.num_boxes = 1;
    options.num_days = 6;
    options.gappy_box_fraction = 0.0;
    const trace::Trace t = trace::generate_trace(options);
    core::FleetConfig config;
    config.pipeline.alpha = 0.0;
    EXPECT_THROW(core::run_pipeline_on_fleet(t, config), std::invalid_argument);
}

// ------------------------------------------------------------- fleet driver

trace::Trace fleet_trace(int boxes) {
    trace::TraceGenOptions options;
    options.num_boxes = boxes;
    options.num_days = 6;  // 5 training days + 1 evaluation day
    options.windows_per_day = 24;  // keep the NN fits fast
    options.gappy_box_fraction = 0.0;
    options.seed = 20150403;
    return trace::generate_trace(options);
}

core::FleetConfig fleet_config() {
    core::FleetConfig config;
    config.pipeline.search.method = core::ClusteringMethod::kDtw;
    // The NN temporal model is the seed-sensitive path; using it makes
    // this test prove the per-box seed derivation is schedule-independent.
    config.pipeline.temporal = forecast::TemporalModel::kNeuralNetwork;
    config.pipeline.train_days = 5;
    config.policies = {resize::ResizePolicy::kAtmGreedy,
                       resize::ResizePolicy::kStingy};
    return config;
}

TEST(FleetDriverTest, ResultsAreBitIdenticalAcrossJobCounts) {
    const trace::Trace t = fleet_trace(8);

    core::FleetConfig serial = fleet_config();
    serial.jobs = 1;
    const core::FleetResult a = core::run_pipeline_on_fleet(t, serial);

    core::FleetConfig pooled = fleet_config();
    pooled.jobs = 8;
    const core::FleetResult b = core::run_pipeline_on_fleet(t, pooled);

    ASSERT_EQ(a.boxes.size(), 8u);
    ASSERT_EQ(b.boxes.size(), a.boxes.size());
    EXPECT_EQ(a.boxes_failed, 0u);
    EXPECT_EQ(b.boxes_failed, 0u);
    for (std::size_t i = 0; i < a.boxes.size(); ++i) {
        const auto& ra = a.boxes[i];
        const auto& rb = b.boxes[i];
        EXPECT_EQ(ra.box_index, rb.box_index);
        EXPECT_EQ(ra.box_name, rb.box_name);
        EXPECT_EQ(ra.result.ape_all, rb.result.ape_all) << "box " << i;
        EXPECT_EQ(ra.result.ape_peak, rb.result.ape_peak) << "box " << i;
        EXPECT_EQ(ra.result.search.signatures, rb.result.search.signatures);
        ASSERT_EQ(ra.result.policies.size(), rb.result.policies.size());
        for (std::size_t p = 0; p < ra.result.policies.size(); ++p) {
            EXPECT_EQ(ra.result.policies[p].cpu_before,
                      rb.result.policies[p].cpu_before);
            EXPECT_EQ(ra.result.policies[p].cpu_after,
                      rb.result.policies[p].cpu_after);
            EXPECT_EQ(ra.result.policies[p].ram_before,
                      rb.result.policies[p].ram_before);
            EXPECT_EQ(ra.result.policies[p].ram_after,
                      rb.result.policies[p].ram_after);
        }
    }
    ASSERT_EQ(a.totals.size(), 2u);
    for (std::size_t p = 0; p < a.totals.size(); ++p) {
        EXPECT_EQ(a.totals[p].cpu_before, b.totals[p].cpu_before);
        EXPECT_EQ(a.totals[p].cpu_after, b.totals[p].cpu_after);
        EXPECT_EQ(a.totals[p].ram_before, b.totals[p].ram_before);
        EXPECT_EQ(a.totals[p].ram_after, b.totals[p].ram_after);
    }
    EXPECT_EQ(a.mean_ape_all, b.mean_ape_all);
    EXPECT_EQ(a.mean_ape_peak, b.mean_ape_peak);
}

TEST(FleetDriverTest, PerBoxSeedsDifferFromEachOther) {
    // Two identical boxes in a fleet must not get identical forecaster
    // seeds — derive_seed keys on the box index.
    const trace::Trace t = fleet_trace(3);
    core::FleetConfig config = fleet_config();
    config.jobs = 1;
    const core::FleetResult fleet = core::run_pipeline_on_fleet(t, config);
    ASSERT_EQ(fleet.boxes.size(), 3u);
    // Results exist and the run is marked with the resolved job count.
    EXPECT_EQ(fleet.jobs, 1);
    EXPECT_EQ(fleet.boxes_evaluated(), 3u);
}

TEST(FleetDriverTest, SelectsByNameAndCapsBoxCount) {
    const trace::Trace t = fleet_trace(6);
    core::FleetConfig config = fleet_config();
    config.pipeline.temporal = forecast::TemporalModel::kSeasonalNaive;
    config.jobs = 2;

    config.box_names = {t.boxes[2].name};
    const core::FleetResult named = core::run_pipeline_on_fleet(t, config);
    ASSERT_EQ(named.boxes.size(), 1u);
    EXPECT_EQ(named.boxes[0].box_index, 2);
    EXPECT_EQ(named.boxes_skipped, 5u);

    config.box_names.clear();
    config.max_boxes = 4;
    const core::FleetResult capped = core::run_pipeline_on_fleet(t, config);
    ASSERT_EQ(capped.boxes.size(), 4u);
    EXPECT_EQ(capped.boxes_skipped, 2u);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(capped.boxes[static_cast<std::size_t>(i)].box_index, i);
}

TEST(FleetDriverTest, ActualsFleetMatchesPerBoxCalls) {
    trace::TraceGenOptions options;
    options.num_boxes = 4;
    options.num_days = 2;
    options.gappy_box_fraction = 0.0;
    const trace::Trace t = trace::generate_trace(options);

    core::FleetConfig config;
    config.jobs = 4;
    config.skip_gappy_boxes = false;
    const core::FleetResult fleet = core::evaluate_resize_on_fleet(t, 1, config);
    ASSERT_EQ(fleet.boxes.size(), 4u);
    for (const core::FleetBoxResult& b : fleet.boxes) {
        ASSERT_TRUE(b.error.empty());
        const auto direct = core::evaluate_resize_policies_on_actuals(
            t.boxes[static_cast<std::size_t>(b.box_index)], t.windows_per_day,
            1, config.pipeline.alpha, config.pipeline.epsilon_pct,
            config.policies, config.pipeline.use_lower_bounds);
        ASSERT_EQ(b.result.policies.size(), direct.size());
        for (std::size_t p = 0; p < direct.size(); ++p) {
            EXPECT_EQ(b.result.policies[p].cpu_after, direct[p].cpu_after);
            EXPECT_EQ(b.result.policies[p].ram_after, direct[p].ram_after);
        }
    }
}

// ---------------------------------------------------------------- ArgParser

std::vector<char*> argv_of(std::vector<std::string>& args) {
    std::vector<char*> argv;
    argv.reserve(args.size());
    for (std::string& a : args) argv.push_back(a.data());
    return argv;
}

TEST(ArgParserTest, ParsesBothFlagSpellingsAndPositionals) {
    exec::ArgParser parser("tool", "test");
    parser.positional("input", "the input")
        .option("boxes", "50", "box count")
        .option("seed", "1", "seed")
        .flag("verbose", "talk more");
    std::vector<std::string> args{"tool", "trace.csv", "--boxes", "12",
                                  "--seed=99", "--verbose"};
    auto argv = argv_of(args);
    ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data(), 1));
    EXPECT_EQ(parser.get("input"), "trace.csv");
    EXPECT_EQ(parser.get_int("boxes"), 12);
    EXPECT_EQ(parser.get_u64("seed"), 99u);
    EXPECT_TRUE(parser.get_flag("verbose"));
}

TEST(ArgParserTest, DefaultsApplyWhenFlagsAbsent) {
    exec::ArgParser parser("tool", "test");
    parser.option("threshold", "60", "pct").flag("verbose", "");
    std::vector<std::string> args{"tool"};
    auto argv = argv_of(args);
    ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data(), 1));
    EXPECT_EQ(parser.get_double("threshold"), 60.0);
    EXPECT_FALSE(parser.get_flag("verbose"));
}

TEST(ArgParserTest, ErrorsOnUnknownFlag) {
    exec::ArgParser parser("tool", "test");
    parser.option("boxes", "50", "");
    std::vector<std::string> args{"tool", "--boxen", "7"};
    auto argv = argv_of(args);
    EXPECT_THROW(parser.parse(static_cast<int>(argv.size()), argv.data(), 1),
                 exec::ArgParseError);
}

TEST(ArgParserTest, ErrorsOnMissingValueAndMalformedNumbers) {
    exec::ArgParser parser("tool", "test");
    parser.option("boxes", "50", "");
    {
        std::vector<std::string> args{"tool", "--boxes"};
        auto argv = argv_of(args);
        EXPECT_THROW(parser.parse(static_cast<int>(argv.size()), argv.data(), 1),
                     exec::ArgParseError);
    }
    {
        std::vector<std::string> args{"tool", "--boxes", "12x"};
        auto argv = argv_of(args);
        ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data(), 1));
        EXPECT_THROW(static_cast<void>(parser.get_int("boxes")),
                     exec::ArgParseError);
    }
}

TEST(ArgParserTest, ErrorsOnMissingPositionalAndExtraPositional) {
    {
        exec::ArgParser parser("tool", "test");
        parser.positional("input", "");
        std::vector<std::string> args{"tool"};
        auto argv = argv_of(args);
        EXPECT_THROW(parser.parse(static_cast<int>(argv.size()), argv.data(), 1),
                     exec::ArgParseError);
    }
    {
        exec::ArgParser parser("tool", "test");
        parser.positional("input", "");
        std::vector<std::string> args{"tool", "a.csv", "b.csv"};
        auto argv = argv_of(args);
        EXPECT_THROW(parser.parse(static_cast<int>(argv.size()), argv.data(), 1),
                     exec::ArgParseError);
    }
}

TEST(ArgParserTest, RequireWritableFileRejectsBadPaths) {
    // Unwritable directory component -> hard usage error, not a silent
    // no-op after the fleet run (this is what `--metrics-out` leans on).
    EXPECT_THROW(
        exec::require_writable_file("metrics-out",
                                    "/nonexistent-dir-atm/metrics.json"),
        exec::ArgParseError);
    EXPECT_THROW(exec::require_writable_file("metrics-out", ""),
                 exec::ArgParseError);
}

TEST(ArgParserTest, RequireWritableFileAcceptsAndCleansUpProbe) {
    const std::string path =
        testing::TempDir() + "atm_require_writable_probe.json";
    std::remove(path.c_str());
    EXPECT_NO_THROW(exec::require_writable_file("metrics-out", path));
    // The probe created the file only to test writability; it must not
    // leave an empty report behind.
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_EQ(f, nullptr);
    if (f != nullptr) std::fclose(f);

    // An existing file is left untouched (append-mode probe).
    {
        std::FILE* out = std::fopen(path.c_str(), "wb");
        ASSERT_NE(out, nullptr);
        std::fputs("keep me", out);
        std::fclose(out);
    }
    EXPECT_NO_THROW(exec::require_writable_file("metrics-out", path));
    std::ifstream in(path);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(contents, "keep me");
    std::remove(path.c_str());
}

TEST(ArgParserTest, HelpReturnsFalse) {
    exec::ArgParser parser("tool", "test");
    parser.option("boxes", "50", "box count");
    std::vector<std::string> args{"tool", "--help"};
    auto argv = argv_of(args);
    testing::internal::CaptureStdout();
    const bool proceed =
        parser.parse(static_cast<int>(argv.size()), argv.data(), 1);
    const std::string help = testing::internal::GetCapturedStdout();
    EXPECT_FALSE(proceed);
    EXPECT_NE(help.find("usage: tool"), std::string::npos);
    EXPECT_NE(help.find("--boxes"), std::string::npos);
}

// ------------------------------------------------------------- atomic writes

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spill(const std::string& path, const std::string& contents) {
    std::ofstream out(path, std::ios::binary);
    out << contents;
}

TEST(AtomicWriteTest, WritesNewFileAndRemovesTemp) {
    const std::string path = testing::TempDir() + "atm_atomic_new.txt";
    std::remove(path.c_str());
    exec::write_file_atomic(path, "hello\n");
    EXPECT_EQ(slurp(path), "hello\n");
    // The staging file must not survive a successful publish.
    std::ifstream temp(exec::atomic_temp_path(path));
    EXPECT_FALSE(temp.good());
    std::remove(path.c_str());
}

TEST(AtomicWriteTest, ReplacesExistingContentsWhole) {
    const std::string path = testing::TempDir() + "atm_atomic_replace.txt";
    spill(path, "old contents, longer than the replacement");
    exec::write_file_atomic(path, "new");
    // rename() replaces the whole file: no stale tail from the old data.
    EXPECT_EQ(slurp(path), "new");
    std::remove(path.c_str());
}

TEST(AtomicWriteTest, FailureLeavesTargetUntouched) {
    const std::string path = "/nonexistent-dir-atm/out.json";
    EXPECT_THROW(exec::write_file_atomic(path, "x"), std::runtime_error);
}

TEST(ProbeWritablePathTest, ProbesViaTempAndNeverTouchesTarget) {
    const std::string path = testing::TempDir() + "atm_probe_target.json";
    spill(path, "precious");
    std::string error;
    EXPECT_TRUE(exec::probe_writable_path(path, &error)) << error;
    EXPECT_EQ(slurp(path), "precious");  // target never opened
    std::ifstream temp(exec::atomic_temp_path(path));
    EXPECT_FALSE(temp.good());  // probe cleaned up after itself
    std::remove(path.c_str());

    EXPECT_FALSE(exec::probe_writable_path("", &error));
    EXPECT_FALSE(exec::probe_writable_path(testing::TempDir(), &error));
    EXPECT_NE(error.find("directory"), std::string::npos);
    EXPECT_FALSE(exec::probe_writable_path("/nonexistent-dir-atm/x", &error));
}

// ------------------------------------------------------------------- journal

TEST(JournalTest, FrameEmbedsLengthAndChecksum) {
    const std::string frame = exec::frame_journal_record("payload");
    ASSERT_GT(frame.size(), 26u);
    EXPECT_EQ(frame.substr(26, 7), "payload");
    EXPECT_EQ(frame.back(), '\n');
    // Newlines would tear the framing; the writer must reject them.
    EXPECT_THROW(exec::frame_journal_record("two\nlines"), std::invalid_argument);
}

TEST(JournalTest, MissingFileLoadsAsAbsent) {
    const exec::JournalLoad load =
        exec::load_journal(testing::TempDir() + "atm_journal_missing.jsonl");
    EXPECT_FALSE(load.exists);
    EXPECT_TRUE(load.header.empty());
    EXPECT_TRUE(load.records.empty());
    EXPECT_EQ(load.valid_bytes, 0u);
}

TEST(JournalTest, CreateAppendLoadRoundTrips) {
    const std::string path = testing::TempDir() + "atm_journal_roundtrip.jsonl";
    std::remove(path.c_str());
    {
        exec::JournalWriter writer = exec::JournalWriter::create(path, "header");
        writer.append("first");
        writer.append("second");
    }
    const exec::JournalLoad load = exec::load_journal(path);
    EXPECT_TRUE(load.exists);
    EXPECT_FALSE(load.dropped_tail);
    EXPECT_EQ(load.header, "header");
    EXPECT_EQ(load.records, (std::vector<std::string>{"first", "second"}));
    EXPECT_EQ(load.valid_bytes, load.record_ends.back());
    std::remove(path.c_str());
}

TEST(JournalTest, TornTailIsDroppedNotFatal) {
    const std::string path = testing::TempDir() + "atm_journal_torn.jsonl";
    std::remove(path.c_str());
    {
        exec::JournalWriter writer = exec::JournalWriter::create(path, "h");
        writer.append("intact");
    }
    // Simulate a crash mid-write: half a frame, no trailing newline.
    const std::string torn = exec::frame_journal_record("lost");
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << torn.substr(0, torn.size() / 2);
    out.close();

    const exec::JournalLoad load = exec::load_journal(path);
    EXPECT_TRUE(load.dropped_tail);
    EXPECT_EQ(load.header, "h");
    EXPECT_EQ(load.records, std::vector<std::string>{"intact"});
    std::remove(path.c_str());
}

TEST(JournalTest, ChecksumMismatchTruncatesFromTheBadRecord) {
    const std::string path = testing::TempDir() + "atm_journal_corrupt.jsonl";
    std::remove(path.c_str());
    std::string good_tail;
    {
        exec::JournalWriter writer = exec::JournalWriter::create(path, "h");
        writer.append("keep");
    }
    // A record whose payload was flipped after the checksum was computed —
    // and a perfectly framed record after it, which must ALSO be dropped
    // (append order is the recovery contract; no holes).
    std::string bad = exec::frame_journal_record("flipme");
    bad[26] = 'F';
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << bad << exec::frame_journal_record("after-the-hole");
    out.close();

    const exec::JournalLoad load = exec::load_journal(path);
    EXPECT_TRUE(load.dropped_tail);
    EXPECT_EQ(load.records, std::vector<std::string>{"keep"});
    std::remove(path.c_str());
}

TEST(JournalTest, AppendAfterPhysicallyRemovesTheTornTail) {
    const std::string path = testing::TempDir() + "atm_journal_append.jsonl";
    std::remove(path.c_str());
    {
        exec::JournalWriter writer = exec::JournalWriter::create(path, "h");
        writer.append("one");
    }
    std::ofstream(path, std::ios::binary | std::ios::app) << "garbage tail";
    const exec::JournalLoad load = exec::load_journal(path);
    ASSERT_TRUE(load.dropped_tail);
    {
        exec::JournalWriter writer =
            exec::JournalWriter::append_after(path, load.valid_bytes);
        writer.append("two");
    }
    const exec::JournalLoad reloaded = exec::load_journal(path);
    EXPECT_FALSE(reloaded.dropped_tail);
    EXPECT_EQ(reloaded.records, (std::vector<std::string>{"one", "two"}));
    std::remove(path.c_str());
}

TEST(JournalTest, AppendIsThreadSafe) {
    const std::string path = testing::TempDir() + "atm_journal_mt.jsonl";
    std::remove(path.c_str());
    {
        exec::JournalWriter writer = exec::JournalWriter::create(path, "h");
        exec::parallel_for(64, 4, [&writer](std::size_t i) {
            writer.append("record-" + std::to_string(i));
        });
    }
    const exec::JournalLoad load = exec::load_journal(path);
    EXPECT_FALSE(load.dropped_tail);  // frames never interleave
    std::set<std::string> seen(load.records.begin(), load.records.end());
    EXPECT_EQ(seen.size(), 64u);
    std::remove(path.c_str());
}

TEST(JournalTest, LoadWithLiveWriterDropsInFlightTailThenSeesItComplete) {
    const std::string path = testing::TempDir() + "atm_journal_live.jsonl";
    std::remove(path.c_str());
    exec::JournalWriter writer = exec::JournalWriter::create(path, "h");
    writer.append("a");

    // Readers may load while the writer still holds the fd (the serve
    // daemon's warm restart races a dying predecessor; monitors poll the
    // file). Each load must see the intact prefix as of that instant.
    exec::JournalLoad load = exec::load_journal(path);
    EXPECT_FALSE(load.dropped_tail);
    EXPECT_EQ(load.records, std::vector<std::string>{"a"});

    writer.append("b");
    load = exec::load_journal(path);
    EXPECT_EQ(load.records, (std::vector<std::string>{"a", "b"}));
    const std::uint64_t intact_bytes = load.valid_bytes;

    // Simulate the writer caught mid-write(2): the first half of its next
    // frame is visible at EOF. A concurrent load drops the torn tail.
    const std::string frame = exec::frame_journal_record("c");
    std::ofstream(path, std::ios::binary | std::ios::app)
        << frame.substr(0, frame.size() / 2);
    load = exec::load_journal(path);
    EXPECT_TRUE(load.dropped_tail);
    EXPECT_EQ(load.records, (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(load.valid_bytes, intact_bytes);

    // The writer's fd position is still the end of "b", so its append
    // lands exactly where the in-flight bytes sat — completing the frame
    // the torn tail previewed. Appends continue as if no reader raced it.
    writer.append("c");
    load = exec::load_journal(path);
    EXPECT_FALSE(load.dropped_tail);
    EXPECT_EQ(load.records, (std::vector<std::string>{"a", "b", "c"}));

    writer.append("d");
    load = exec::load_journal(path);
    EXPECT_FALSE(load.dropped_tail);
    EXPECT_EQ(load.records, (std::vector<std::string>{"a", "b", "c", "d"}));
    writer.close();
    std::remove(path.c_str());
}

// -------------------------------------------------------------- cancellation

TEST(CancellationTokenTest, FirstReasonWins) {
    exec::CancellationToken token;
    EXPECT_FALSE(token.cancelled());
    token.cancel(exec::CancelReason::kDeadline);
    token.cancel(exec::CancelReason::kStop);  // too late: no-op
    EXPECT_EQ(token.reason(), exec::CancelReason::kDeadline);
    try {
        token.check("unit.test");
        FAIL() << "expected OperationCancelled";
    } catch (const exec::OperationCancelled& e) {
        EXPECT_EQ(e.reason(), exec::CancelReason::kDeadline);
        EXPECT_EQ(e.where(), "unit.test");
    }
}

TEST(CancellationTokenTest, ExpiredDeadlineSelfTrips) {
    exec::CancellationToken token;
    token.arm_deadline_after(1e-9);
    // No watchdog anywhere: the next observation must trip the token.
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.reason(), exec::CancelReason::kDeadline);

    exec::CancellationToken patient;
    patient.arm_deadline_after(3600.0);
    EXPECT_FALSE(patient.cancelled());
    patient.arm_deadline_after(0.0);  // disarm
    EXPECT_FALSE(patient.cancelled());
}

TEST(CancellationTokenTest, CheckpointToleratesNullToken) {
    EXPECT_NO_THROW(exec::checkpoint(nullptr, "anywhere"));
    exec::CancellationToken live;
    EXPECT_NO_THROW(exec::checkpoint(&live, "anywhere"));
    live.cancel(exec::CancelReason::kStop);
    EXPECT_THROW(exec::checkpoint(&live, "anywhere"), exec::OperationCancelled);
}

// ---------------------------------------------------------------------------
// The parallel loop (exec/parallel_for.hpp), which shards the fleet's boxes
// over its workers one index at a time.

/// Runs parallel_for(n, workers), checks every index ran exactly once and
/// returns how many distinct threads ran an index.
std::size_t expect_each_index_once(std::size_t n, unsigned workers) {
    std::vector<std::atomic<int>> hits(n);
    std::mutex threads_mutex;
    std::set<std::thread::id> threads;
    exec::parallel_for(n, workers, [&](std::size_t i) {
        hits[i].fetch_add(1);
        const std::lock_guard<std::mutex> lock(threads_mutex);
        threads.insert(std::this_thread::get_id());
    });
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "index " << i << " of " << n << ", workers " << workers;
    }
    return threads.size();
}

TEST(ShardTest, SerialPathCoversEveryIndexInOrder) {
    // One worker runs every index inline, in order, on the calling thread.
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> seen;
    exec::parallel_for(10, 1, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        seen.push_back(i);
    });
    std::vector<std::size_t> want(10);
    std::iota(want.begin(), want.end(), 0u);
    EXPECT_EQ(seen, want);
}

TEST(ShardTest, DefaultWorkersCoverEveryIndexExactlyOnce) {
    // Many indices per worker, with a remainder: 257 = 5 * 51 + 2.
    EXPECT_LE(expect_each_index_once(257, 5), 5u);
}

TEST(ShardTest, PooledRunCoversEveryIndexExactlyOnceWithDenseWorkerIds) {
    // No more threads than min(workers, n) ever run an index: fewer
    // indices than workers, one index per worker, and several per worker.
    EXPECT_LE(expect_each_index_once(3, 8), 3u);
    EXPECT_LE(expect_each_index_once(4, 4), 4u);
    EXPECT_LE(expect_each_index_once(71, 4), 4u);
}

TEST(ShardTest, LowestIndexExceptionWins) {
    // Throwers far apart, so they race on different workers.
    constexpr std::size_t kN = 63;
    for (int repeat = 0; repeat < 20; ++repeat) {
        try {
            exec::parallel_for(kN, 4, [](std::size_t i) {
                if (i == 7 || i == 31 || i == 50) {
                    throw std::runtime_error("fail@" + std::to_string(i));
                }
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "fail@7") << "repeat " << repeat;
        }
    }
}

TEST(ShardTest, LowestIndexExceptionWinsAcrossMultiIndexShards) {
    // Several indices throw concurrently, one at the very last index; the
    // caller always sees the lowest one, independent of scheduling —
    // chaos tests rely on this to assert exact failures.
    constexpr std::size_t kN = 128;
    for (int repeat = 0; repeat < 25; ++repeat) {
        try {
            exec::parallel_for(kN, 8, [](std::size_t i) {
                if (i == 5 || i == 23 || i == 77 || i == 127) {
                    throw std::runtime_error("boom " + std::to_string(i));
                }
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "boom 5") << "repeat " << repeat;
        }
    }
}

TEST(ShardTest, NestedCallsOnTheSamePoolComplete) {
    // The fleet's box loop is the program's only caller and does not
    // nest, but each call starts and joins its own helpers, so nesting
    // stays safe.
    std::atomic<int> count{0};
    exec::parallel_for(4, 3, [&count](std::size_t) {
        exec::parallel_for(8, 3,
                           [&count](std::size_t) { count.fetch_add(1); });
    });
    EXPECT_EQ(count.load(), 32);
}

TEST(ShardTest, ZeroItemsIsANoOp) {
    exec::parallel_for(0, 4, [](std::size_t) { FAIL(); });
    exec::parallel_for(0, 1, [](std::size_t) { FAIL(); });
}

// ---------------------------------------------------------------------------
// 64-bit safety audit: counters and cell-count arithmetic that a
// paper-scale fleet (6K boxes / 80K VMs / 10^10+ DTW cells) pushes past
// the 32-bit line.

TEST(SixtyFourBitTest, DtwCellCountSurvivesHugeSeries) {
    // (2^17)^2 = 2^34 cells: silently truncated to 0 by 32-bit math.
    constexpr std::size_t kLen = std::size_t{1} << 17;
    EXPECT_EQ(cluster::dtw_cell_count(kLen, kLen, -1),
              std::uint64_t{1} << 34);
    // Banded count stays within u64 and is monotone in the band.
    const std::uint64_t narrow = cluster::dtw_cell_count(kLen, kLen, 8);
    const std::uint64_t wide = cluster::dtw_cell_count(kLen, kLen, 1024);
    EXPECT_GT(narrow, 0u);
    EXPECT_GT(wide, narrow);
    EXPECT_LT(wide, std::uint64_t{1} << 34);
}

TEST(SixtyFourBitTest, FleetTotalsAreSixtyFourBitWide) {
    static_assert(std::is_same_v<decltype(core::FleetPolicyTotals::cpu_before),
                                 std::int64_t>);
    static_assert(std::is_same_v<decltype(core::FleetPolicyTotals::ram_after),
                                 std::int64_t>);
    // Summing per-box int tickets near INT_MAX must not wrap.
    core::FleetPolicyTotals totals;
    for (int i = 0; i < 4; ++i) {
        totals.cpu_before += std::numeric_limits<int>::max();
        totals.cpu_after += std::numeric_limits<int>::max() / 2;
    }
    EXPECT_EQ(totals.cpu_before, 4 * std::int64_t{2147483647});
    EXPECT_GT(totals.cpu_before, totals.cpu_after);
    EXPECT_NEAR(totals.cpu_reduction_pct(), 50.0, 0.1);
}

TEST(SixtyFourBitTest, MetricsCountersAccumulatePastTwoToTheThirtyTwo) {
    obs::MetricsRegistry registry;
    // 5 x 2^30 > 2^32: a u32 counter would wrap to 2^30.
    for (int i = 0; i < 5; ++i) {
        registry.add("audit.samples", std::uint64_t{1} << 30);
    }
    EXPECT_EQ(registry.snapshot().counter("audit.samples"),
              std::uint64_t{5} << 30);
}

}  // namespace
}  // namespace atm
