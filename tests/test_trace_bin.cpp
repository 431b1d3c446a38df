// Binary trace format (atm.trace.bin.v1, src/tracegen/trace_binary.hpp):
// pack -> load -> unpack round trips bit-identically against the CSV
// loader, also across the loader's page releases on a multi-MiB file.
// Malformed files (truncation, bad magic, wrong endianness, lying header
// or index counts, misalignment, corrupted payload, bad samples) are
// rejected with the structured PipelineError taxonomy instead of
// producing garbage traces or escaping as allocation errors, and a
// corrupt payload is reported as such before any bad sample in it.
// Seeded mutations (byte flips, truncation at every section boundary,
// lying counts) of a packed trace and of a CSV must each load as a valid
// trace or be rejected cleanly by the reader.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/errors.hpp"
#include "exec/seed.hpp"
#include "obs/metrics.hpp"
#include "tracegen/generator.hpp"
#include "tracegen/trace_binary.hpp"
#include "tracegen/trace_io.hpp"

namespace atm::trace {
namespace {

Trace small_trace() {
    TraceGenOptions options;
    options.num_boxes = 4;
    options.num_days = 2;
    options.gappy_box_fraction = 0.25;
    options.seed = 11;
    return generate_trace(options);
}

std::string temp_path(const std::string& name) {
    return testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void spit(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Bitwise equality of two loaded traces — the binary loader's contract
/// is *exact* sample reproduction, so EXPECT_NEAR would be too weak.
void expect_bit_identical(const Trace& a, const Trace& b) {
    EXPECT_EQ(a.windows_per_day, b.windows_per_day);
    ASSERT_EQ(a.boxes.size(), b.boxes.size());
    for (std::size_t i = 0; i < a.boxes.size(); ++i) {
        const BoxTrace& x = a.boxes[i];
        const BoxTrace& y = b.boxes[i];
        EXPECT_EQ(x.name, y.name);
        EXPECT_EQ(x.has_gaps, y.has_gaps);
        EXPECT_EQ(x.cpu_capacity_ghz, y.cpu_capacity_ghz);
        EXPECT_EQ(x.ram_capacity_gb, y.ram_capacity_gb);
        ASSERT_EQ(x.vms.size(), y.vms.size());
        for (std::size_t v = 0; v < x.vms.size(); ++v) {
            EXPECT_EQ(x.vms[v].name, y.vms[v].name);
            EXPECT_EQ(x.vms[v].cpu_capacity_ghz, y.vms[v].cpu_capacity_ghz);
            EXPECT_EQ(x.vms[v].ram_capacity_gb, y.vms[v].ram_capacity_gb);
            for (const auto& [xs, ys] :
                 {std::pair{&x.vms[v].cpu_usage_pct, &y.vms[v].cpu_usage_pct},
                  std::pair{&x.vms[v].ram_usage_pct, &y.vms[v].ram_usage_pct},
                  std::pair{&x.vms[v].cpu_demand_ghz, &y.vms[v].cpu_demand_ghz},
                  std::pair{&x.vms[v].ram_demand_gb, &y.vms[v].ram_demand_gb}}) {
                EXPECT_EQ(xs->name(), ys->name());
                ASSERT_EQ(xs->size(), ys->size());
                for (std::size_t t = 0; t < xs->size(); ++t) {
                    // operator== on doubles: bit-identity for finite
                    // non-zero values, which generated traces are.
                    EXPECT_EQ((*xs)[t], (*ys)[t]) << "sample " << t;
                }
            }
        }
    }
}

TEST(TraceBinaryTest, PackLoadRoundTripIsBitIdentical) {
    const Trace original = small_trace();
    const std::string path = temp_path("atm_trace_roundtrip.bin");
    write_trace_binary_file(path, original);
    const Trace loaded = read_trace_binary_file(path);
    expect_bit_identical(original, loaded);
}

TEST(TraceBinaryTest, BinaryLoadMatchesCsvLoadBitForBit) {
    // The full pack/unpack pipeline: the binary loader must reproduce
    // exactly what the CSV round trip reproduces, so a packed trace is a
    // drop-in replacement for its CSV source.
    const Trace original = small_trace();
    const std::string csv_path = temp_path("atm_trace_equiv.csv");
    const std::string bin_path = temp_path("atm_trace_equiv.bin");
    write_trace_csv_file(csv_path.c_str(), original);
    const Trace from_csv =
        read_trace_csv_file(csv_path.c_str(), original.windows_per_day);
    write_trace_binary_file(bin_path, from_csv);
    const Trace from_bin = read_trace_binary_file(bin_path);
    expect_bit_identical(from_csv, from_bin);
}

TEST(TraceBinaryTest, UnpackReproducesTheSourceCsvByteForByte) {
    const Trace original = small_trace();
    const std::string csv_a = temp_path("atm_trace_unpack_a.csv");
    const std::string bin = temp_path("atm_trace_unpack.bin");
    const std::string csv_b = temp_path("atm_trace_unpack_b.csv");
    write_trace_csv_file(csv_a.c_str(), original);
    // CSV -> binary -> CSV: the final CSV must equal the first byte for
    // byte (doubles are serialized at full round-trip precision).
    const Trace loaded =
        read_trace_csv_file(csv_a.c_str(), original.windows_per_day);
    write_trace_binary_file(bin, loaded);
    write_trace_csv_file(csv_b.c_str(), read_trace_binary_file(bin));
    EXPECT_EQ(slurp(csv_a), slurp(csv_b));
}

TEST(TraceBinaryTest, SniffingLoaderAcceptsBothFormats) {
    const Trace original = small_trace();
    const std::string csv_path = temp_path("atm_trace_sniff.csv");
    const std::string bin_path = temp_path("atm_trace_sniff.bin");
    write_trace_csv_file(csv_path.c_str(), original);
    // Pack from the CSV-loaded trace: CSV text serialization may round
    // at the ULP level, and the bit-identity contract is between the
    // two *loaders*, not across the lossy text encoding.
    const Trace via_csv =
        read_trace_any_file(csv_path, original.windows_per_day);
    write_trace_binary_file(bin_path, via_csv);
    EXPECT_FALSE(is_trace_binary_file(csv_path));
    EXPECT_TRUE(is_trace_binary_file(bin_path));
    const Trace via_bin =
        read_trace_any_file(bin_path, original.windows_per_day);
    expect_bit_identical(via_csv, via_bin);
}

TEST(TraceBinaryTest, LoaderRecordsTheCsvReadersCounters) {
    const Trace original = small_trace();
    const std::string path = temp_path("atm_trace_counters.bin");
    write_trace_binary_file(path, original);
    obs::MetricsRegistry metrics;
    const Trace loaded = read_trace_binary_file(path, &metrics);
    const obs::MetricsSnapshot snap = metrics.snapshot();
    EXPECT_EQ(snap.counter("trace.boxes"), loaded.boxes.size());
    EXPECT_EQ(snap.counter("trace.vms"), loaded.total_vms());
    std::uint64_t samples = 0;
    for (const BoxTrace& box : loaded.boxes) {
        for (const VmTrace& vm : box.vms) samples += vm.cpu_usage_pct.size();
    }
    EXPECT_EQ(snap.counter("trace.rows"), samples);
    EXPECT_EQ(snap.timers.count("trace.load"), 1u);
}

/// Expects read_trace_binary_file(path) to throw PipelineError with
/// kTraceInvalid and a message containing `needle`.
void expect_invalid(const std::string& path, const std::string& needle) {
    try {
        (void)read_trace_binary_file(path);
        FAIL() << "expected PipelineError for " << needle;
    } catch (const core::PipelineError& e) {
        EXPECT_EQ(e.code(), core::PipelineErrorCode::kTraceInvalid);
        EXPECT_EQ(e.stage(), std::string("trace"));
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "message was: " << e.what();
    }
}

TEST(TraceBinaryTest, RejectsTruncatedFiles) {
    const std::string path = temp_path("atm_trace_truncated.bin");
    write_trace_binary_file(path, small_trace());
    const std::string whole = slurp(path);
    // Header cut short.
    spit(path, whole.substr(0, 40));
    expect_invalid(path, "header");
    // Payload cut short.
    spit(path, whole.substr(0, whole.size() - 16));
    expect_invalid(path, "truncated");
}

TEST(TraceBinaryTest, RejectsBadMagic) {
    const std::string path = temp_path("atm_trace_badmagic.bin");
    write_trace_binary_file(path, small_trace());
    std::string bytes = slurp(path);
    bytes[0] = 'X';
    spit(path, bytes);
    expect_invalid(path, "magic");
}

TEST(TraceBinaryTest, RejectsWrongEndianness) {
    const std::string path = temp_path("atm_trace_endian.bin");
    write_trace_binary_file(path, small_trace());
    std::string bytes = slurp(path);
    // Byte-swap the endianness tag at offset 8: exactly what the file
    // would look like written on an opposite-endian machine.
    std::swap(bytes[8], bytes[11]);
    std::swap(bytes[9], bytes[10]);
    spit(path, bytes);
    expect_invalid(path, "endian");
}

TEST(TraceBinaryTest, RejectsUnknownVersion) {
    const std::string path = temp_path("atm_trace_version.bin");
    write_trace_binary_file(path, small_trace());
    std::string bytes = slurp(path);
    const std::uint32_t version = 99;
    std::memcpy(&bytes[12], &version, sizeof(version));
    spit(path, bytes);
    expect_invalid(path, "version");
}

TEST(TraceBinaryTest, RejectsCorruptedPayload) {
    const std::string path = temp_path("atm_trace_corrupt.bin");
    write_trace_binary_file(path, small_trace());
    std::string bytes = slurp(path);
    // Flip one bit in the last payload byte: the fingerprint must catch
    // it before any sample reaches a pipeline.
    bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0x40);
    spit(path, bytes);
    expect_invalid(path, "fingerprint");
}

TEST(TraceBinaryTest, RejectsNonFiniteSamples) {
    // A payload that fingerprints correctly but carries a NaN (e.g. a
    // buggy producer): per-sample validation still rejects it, same as
    // the CSV reader.
    Trace bad = small_trace();
    bad.boxes[0].vms[0].cpu_usage_pct.values()[3] =
        std::numeric_limits<double>::quiet_NaN();
    const std::string path = temp_path("atm_trace_nan.bin");
    write_trace_binary_file(path, bad);
    expect_invalid(path, "sample");
}

/// Reads / overwrites a fixed-width field of a packed trace in place.
template <typename T>
T peek(const std::string& bytes, std::size_t at) {
    T value;
    std::memcpy(&value, bytes.data() + at, sizeof(T));
    return value;
}

template <typename T>
void poke(std::string& bytes, std::size_t at, T value) {
    std::memcpy(bytes.data() + at, &value, sizeof(T));
}

// Header field offsets (see the layout comment in trace_binary.hpp).
constexpr std::size_t kBoxCountAt = 24;
constexpr std::size_t kVmCountAt = 32;
constexpr std::size_t kSampleCountAt = 40;
constexpr std::size_t kPayloadOffsetAt = 48;
constexpr std::size_t kPayloadBytesAt = 56;

/// Offset of the first box's u32 VM count: name, has_gaps, two capacities.
std::size_t first_box_vm_count_at(const std::string& bytes) {
    return 72 + 2 + peek<std::uint16_t>(bytes, 72) + 1 + 16;
}

/// Offset of the first VM's u64 series length: name, two capacities.
std::size_t first_vm_series_len_at(const std::string& bytes) {
    const std::size_t vm_at = first_box_vm_count_at(bytes) + 4;
    return vm_at + 2 + peek<std::uint16_t>(bytes, vm_at) + 16;
}

/// Packs small_trace(), lets `edit` rewrite the bytes, and writes them back.
template <typename Edit>
std::string packed_and_edited(const std::string& name, Edit edit) {
    const std::string path = temp_path(name);
    write_trace_binary_file(path, small_trace());
    std::string bytes = slurp(path);
    edit(bytes);
    spit(path, bytes);
    return path;
}

TEST(TraceBinaryTest, RejectsABoxCountTheIndexCannotHold) {
    // Reserving 2^61 boxes would throw std::length_error, outside the
    // PipelineError taxonomy.
    const std::string path = packed_and_edited(
        "atm_trace_box_count.bin", [](std::string& bytes) {
            poke<std::uint64_t>(bytes, kBoxCountAt, std::uint64_t{1} << 61);
        });
    expect_invalid(path, "box_count");
}

TEST(TraceBinaryTest, RejectsAVmCountTheIndexCannotHold) {
    // Reserving this many VMs would ask for ~1.2 TB (std::bad_alloc).
    const std::string path = packed_and_edited(
        "atm_trace_vm_count.bin", [](std::string& bytes) {
            poke<std::uint32_t>(bytes, first_box_vm_count_at(bytes), 0xFFFFFFF0u);
        });
    expect_invalid(path, "box vm count");
}

TEST(TraceBinaryTest, RejectsSeriesLengthsBeyondTheSampleCount) {
    const std::string path = packed_and_edited(
        "atm_trace_series_len.bin", [](std::string& bytes) {
            poke<std::uint64_t>(bytes, first_vm_series_len_at(bytes),
                                peek<std::uint64_t>(bytes, kSampleCountAt) + 1);
        });
    expect_invalid(path, "index series lengths exceed sample count");
}

TEST(TraceBinaryTest, RejectsAVmCountTheIndexDisagreesWith) {
    const std::string path = packed_and_edited(
        "atm_trace_vm_total.bin", [](std::string& bytes) {
            poke<std::uint64_t>(bytes, kVmCountAt,
                                peek<std::uint64_t>(bytes, kVmCountAt) + 1);
        });
    expect_invalid(path, "index vm entries disagree with vm count");
}

TEST(TraceBinaryTest, RejectsAPayloadSizeTheSampleCountDisagreesWith) {
    const std::string path = packed_and_edited(
        "atm_trace_sample_count.bin", [](std::string& bytes) {
            poke<std::uint64_t>(bytes, kSampleCountAt,
                                peek<std::uint64_t>(bytes, kSampleCountAt) + 1);
        });
    expect_invalid(path, "payload size disagrees with sample count");
    // 2^59 more samples is the same byte count modulo 2^64 (32 bytes per
    // sample): the check must not be fooled by the wrap.
    const std::string wrapped = packed_and_edited(
        "atm_trace_sample_wrap.bin", [](std::string& bytes) {
            poke<std::uint64_t>(
                bytes, kSampleCountAt,
                peek<std::uint64_t>(bytes, kSampleCountAt) + (std::uint64_t{1} << 59));
        });
    expect_invalid(wrapped, "payload size disagrees with sample count");
}

TEST(TraceBinaryTest, RejectsAMisalignedPayloadOffset) {
    const std::string path = packed_and_edited(
        "atm_trace_misaligned.bin", [](std::string& bytes) {
            // Keep the shifted payload inside the file, so only the
            // alignment is wrong.
            poke<std::uint64_t>(bytes, kPayloadOffsetAt,
                                peek<std::uint64_t>(bytes, kPayloadOffsetAt) + 1);
            poke<std::uint64_t>(bytes, kPayloadBytesAt,
                                peek<std::uint64_t>(bytes, kPayloadBytesAt) - 8);
        });
    expect_invalid(path, "misaligned payload offset");
}

TEST(TraceBinaryTest, FingerprintMismatchOutranksABadSample) {
    // The loader reads the payload in one pass and checks samples only
    // after the fingerprint: a corrupt file carrying a NaN must still be
    // reported as corrupt.
    Trace bad = small_trace();
    bad.boxes[0].vms[0].cpu_usage_pct.values()[3] =
        std::numeric_limits<double>::quiet_NaN();
    const std::string path = temp_path("atm_trace_nan_corrupt.bin");
    write_trace_binary_file(path, bad);
    std::string bytes = slurp(path);
    bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0x40);
    spit(path, bytes);
    expect_invalid(path, "fingerprint");
}

TEST(TraceBinaryTest, TheFirstBadSampleInIndexOrderIsReported) {
    Trace bad = small_trace();
    VmTrace& first = bad.boxes.front().vms.front();
    VmTrace& last = bad.boxes.back().vms.back();
    ASSERT_NE(&first, &last);
    first.ram_usage_pct.values()[5] = -1.0;
    last.cpu_usage_pct.values()[0] = -2.0;
    const std::string path = temp_path("atm_trace_two_negatives.bin");
    write_trace_binary_file(path, bad);
    expect_invalid(path, "negative sample in series " + first.name + "/RAM");
}

TEST(TraceBinaryTest, RoundTripSpanningManyReleasedPagesIsBitIdentical) {
    // The loader hands payload pages back every MiB behind its copy
    // cursor; a multi-MiB trace must still load exactly.
    TraceGenOptions options;
    options.num_boxes = 24;
    options.num_days = 7;
    options.seed = 5;
    const Trace original = generate_trace(options);
    const std::string path = temp_path("atm_trace_large.bin");
    write_trace_binary_file(path, original);
    ASSERT_GT(slurp(path).size(), std::size_t{4} << 20);
    expect_bit_identical(original, read_trace_binary_file(path));
}

TEST(TraceBinaryTest, MissingFileThrowsPipelineError) {
    expect_invalid(temp_path("atm_trace_does_not_exist.bin"), "open");
}

TEST(TraceBinaryTest, DayCountWordComesFromTheSamplesNotTheSource) {
    // Header word [20] is the longest box's length in whole days, so a
    // trace packed from its CSV unpacking carries the same word as one
    // packed straight from the generator, and an empty trace carries 0.
    const auto day_word = [](const std::string& path) {
        const std::string bytes = slurp(path);
        std::uint32_t days = 0;
        std::memcpy(&days, bytes.data() + 20, sizeof days);
        return days;
    };
    TraceGenOptions options;
    options.num_boxes = 4;
    options.num_days = 6;
    options.seed = 3;
    const Trace generated = generate_trace(options);
    const std::string direct = temp_path("atm_trace_days_direct.bin");
    const std::string csv = temp_path("atm_trace_days.csv");
    const std::string repacked = temp_path("atm_trace_days_repacked.bin");
    write_trace_binary_file(direct, generated);
    write_trace_csv_file(csv, read_trace_binary_file(direct));
    write_trace_binary_file(repacked, read_trace_csv_file(csv));
    EXPECT_EQ(day_word(direct), 6u);
    EXPECT_EQ(day_word(repacked), 6u);

    const std::string empty = temp_path("atm_trace_days_empty.bin");
    write_trace_binary_file(empty, Trace{});
    EXPECT_EQ(day_word(empty), 0u);
}

TEST(TraceBinaryTest, HeaderMetadataWinsOverCallerWindowsPerDay) {
    // read_trace_any_file's windows_per_day parameter is for CSV files
    // only; a binary file carries its own.
    TraceGenOptions options;
    options.num_boxes = 1;
    options.num_days = 1;
    options.windows_per_day = 48;
    options.seed = 7;
    const Trace original = generate_trace(options);
    const std::string path = temp_path("atm_trace_wpd.bin");
    write_trace_binary_file(path, original);
    const Trace loaded = read_trace_any_file(path, /*windows_per_day=*/96);
    EXPECT_EQ(loaded.windows_per_day, 48);
}

// ------------------------------------------------------ seeded mutations

/// A small packed trace for the mutation runs: three boxes of one short
/// day, so each mutant loads in microseconds.
Trace mutation_trace() {
    TraceGenOptions options;
    options.num_boxes = 3;
    options.num_days = 1;
    options.windows_per_day = 8;
    options.gappy_box_fraction = 0.0;
    options.seed = 29;
    return generate_trace(options);
}

/// What a reader may hand back: a positive day length, finite
/// non-negative capacities and samples, and one length per VM for its
/// four series (VMs of one box may still differ; the pipeline rejects
/// such a box, the reader need not).
void expect_valid(const Trace& t) {
    EXPECT_GE(t.windows_per_day, 1);
    const auto ok = [](double x) { return std::isfinite(x) && x >= 0.0; };
    for (const BoxTrace& box : t.boxes) {
        EXPECT_TRUE(ok(box.cpu_capacity_ghz) && ok(box.ram_capacity_gb))
            << box.name;
        for (const VmTrace& vm : box.vms) {
            EXPECT_TRUE(ok(vm.cpu_capacity_ghz) && ok(vm.ram_capacity_gb))
                << vm.name;
            const std::size_t len = vm.cpu_usage_pct.size();
            for (const ts::Series* series :
                 {&vm.cpu_usage_pct, &vm.ram_usage_pct, &vm.cpu_demand_ghz,
                  &vm.ram_demand_gb}) {
                ASSERT_EQ(series->size(), len) << series->name();
                for (const double x : series->values()) {
                    ASSERT_TRUE(ok(x)) << series->name();
                }
            }
        }
    }
}

/// Loads `bytes` as a binary trace file: true when it loaded (and the
/// trace is valid), false when the reader rejected it with a
/// PipelineError. Any other exception (std::bad_alloc or
/// std::length_error from an allocation sized by a lying count, a logic
/// error) escapes and fails the test, and a crash or sanitizer report
/// fails it too.
bool load_packed(const std::string& path, const std::string& bytes) {
    spit(path, bytes);
    try {
        expect_valid(read_trace_binary_file(path));
        return true;
    } catch (const core::PipelineError& e) {
        EXPECT_EQ(e.code(), core::PipelineErrorCode::kTraceInvalid);
        return false;
    }
}

/// Same for CSV text; the CSV reader rejects with std::runtime_error.
bool load_csv(const std::string& text) {
    std::istringstream in(text);
    try {
        expect_valid(read_trace_csv(in, 8));
        return true;
    } catch (const std::runtime_error&) {
        return false;
    }
}

/// Offsets where a packed trace's sections and fields begin: every
/// header field, every index entry and field, the payload start and
/// every series block in it.
std::vector<std::size_t> section_boundaries(const std::string& bytes) {
    std::vector<std::size_t> at{0, 8, 12, 16, 20, 24, 32, 40, 48, 56, 64, 72};
    std::size_t pos = 72;
    const auto boxes = peek<std::uint64_t>(bytes, kBoxCountAt);
    for (std::uint64_t b = 0; b < boxes; ++b) {
        at.push_back(pos);                                   // name length
        pos += 2 + peek<std::uint16_t>(bytes, pos);
        at.insert(at.end(), {pos, pos + 1, pos + 9, pos + 17});
        const auto vms = peek<std::uint32_t>(bytes, pos + 17);
        pos += 21;
        for (std::uint32_t v = 0; v < vms; ++v) {
            at.push_back(pos);
            pos += 2 + peek<std::uint16_t>(bytes, pos);
            at.insert(at.end(), {pos, pos + 8, pos + 16});
            pos += 24;
        }
    }
    std::size_t payload = peek<std::uint64_t>(bytes, kPayloadOffsetAt);
    at.insert(at.end(), {pos, payload});
    const Trace t = mutation_trace();
    for (const BoxTrace& box : t.boxes) {
        for (const VmTrace& vm : box.vms) {
            for (int s = 0; s < 4; ++s) {
                payload += vm.cpu_usage_pct.size() * sizeof(double);
                at.push_back(payload);
            }
        }
    }
    return at;
}

TEST(TraceMutationTest, BinaryTruncatedAtEverySectionBoundaryIsRejected) {
    const std::string path = temp_path("atm_trace_mut_cut.bin");
    write_trace_binary_file(path, mutation_trace());
    const std::string whole = slurp(path);
    const std::vector<std::size_t> cuts = section_boundaries(whole);
    ASSERT_EQ(cuts.back(), whole.size());  // the walk covered the file
    for (const std::size_t cut : cuts) {
        for (const std::size_t at : {cut, cut + 1}) {
            if (at >= whole.size()) continue;
            EXPECT_FALSE(load_packed(path, whole.substr(0, at)))
                << "cut at " << at;
        }
    }
    EXPECT_TRUE(load_packed(path, whole));
}

TEST(TraceMutationTest, BinaryLyingCountsAreRejectedNotAllocated) {
    const std::string path = temp_path("atm_trace_mut_count.bin");
    write_trace_binary_file(path, mutation_trace());
    const std::string whole = slurp(path);

    // Every count and geometry word of the header, and the first box's
    // VM count and first VM's series length in the index, each set to
    // values a corrupt or hostile file could carry.
    struct Field {
        std::size_t at;
        bool wide;  // u64, else u32
    };
    const std::vector<Field> fields{
        {16, false},  // windows_per_day
        {kBoxCountAt, true},      {kVmCountAt, true},
        {kSampleCountAt, true},   {kPayloadOffsetAt, true},
        {kPayloadBytesAt, true},  {first_box_vm_count_at(whole), false},
        {first_vm_series_len_at(whole), true}};
    std::size_t rejected = 0;
    for (const Field& field : fields) {
        const std::uint64_t truth =
            field.wide ? peek<std::uint64_t>(whole, field.at)
                       : peek<std::uint32_t>(whole, field.at);
        for (const std::uint64_t lie :
             {std::uint64_t{0}, std::uint64_t{1}, truth - 1, truth + 1,
              truth * 2, std::uint64_t{1} << 31, (std::uint64_t{1} << 32) - 1,
              std::uint64_t{1} << 32, std::uint64_t{1} << 62,
              ~std::uint64_t{0}}) {
            if (lie == truth) continue;
            std::string bytes = whole;
            if (field.wide) {
                poke<std::uint64_t>(bytes, field.at, lie);
            } else {
                poke<std::uint32_t>(bytes, field.at,
                                    static_cast<std::uint32_t>(lie));
            }
            if (!load_packed(path, bytes)) ++rejected;
        }
    }
    EXPECT_GT(rejected, 0u);
}

TEST(TraceMutationTest, BinarySeededByteFlipsLoadValidOrThrowCleanly) {
    const std::string path = temp_path("atm_trace_mut_flip.bin");
    write_trace_binary_file(path, mutation_trace());
    const std::string whole = slurp(path);
    const std::size_t payload = peek<std::uint64_t>(whole, kPayloadOffsetAt);
    std::uint64_t state = 0xb17f11b5;
    const auto next = [&state](std::uint64_t bound) {
        state = exec::derive_seed(state, bound);
        return state % bound;
    };
    std::size_t loaded = 0;
    std::size_t rejected = 0;
    for (int trial = 0; trial < 600; ++trial) {
        std::string bytes = whole;
        // Two thirds of the flips land in the header and index, where
        // every field is parsed; the rest in the fingerprinted payload.
        const std::size_t span = trial % 3 == 2 ? whole.size() : payload;
        for (std::uint64_t e = 1 + next(3); e > 0; --e) {
            const std::size_t at = next(span);
            bytes[at] = static_cast<char>(bytes[at] ^ (1u << next(8)));
        }
        if (load_packed(path, bytes)) {
            ++loaded;  // a flip in a name, a gap flag or a capacity
        } else {
            ++rejected;
        }
    }
    EXPECT_GT(loaded, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(TraceMutationTest, CsvSeededMutationsLoadValidOrThrowCleanly) {
    std::ostringstream out;
    write_trace_csv(out, mutation_trace());
    const std::string whole = out.str();
    // Bytes that steer the reader into its number, field, line and
    // directive paths, plus arbitrary bytes.
    const std::string alphabet = "0123456789-+.eE,\n#nafib";
    std::uint64_t state = 0xc5f;
    const auto next = [&state](std::uint64_t bound) {
        state = exec::derive_seed(state, bound);
        return state % bound;
    };
    std::size_t loaded = 0;
    std::size_t rejected = 0;
    for (int trial = 0; trial < 600; ++trial) {
        std::string text = whole;
        for (std::uint64_t e = 1 + next(3); e > 0 && !text.empty(); --e) {
            const std::size_t at = next(text.size());
            switch (next(5)) {
                case 0: text[at] = alphabet[next(alphabet.size())]; break;
                case 1: text[at] = static_cast<char>(next(256)); break;
                case 2: text.resize(at); break;  // truncation
                case 3: text.erase(at, 1); break;
                default: text.insert(at, "1e999"); break;  // overflow
            }
        }
        if (load_csv(text)) {
            ++loaded;
        } else {
            ++rejected;
        }
    }
    EXPECT_GT(loaded, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(TraceMutationTest, CsvLyingWindowsAndDirectivesAreRejected) {
    // A CSV carries no counts; its lies are window numbers and box
    // directives. Each must be a clean, line-numbered rejection.
    const std::string header = "#box,b0,4,8,0\n";
    for (const std::string& row :
         {std::string("b0,vm0,-1,4,8,50,25,2,2\n"),
          std::string("b0,vm0,18446744073709551615,4,8,50,25,2,2\n"),
          std::string("b0,vm0,99999999999999999999,4,8,50,25,2,2\n"),
          std::string("b0,vm0,1,4,8,50,25,2,2\n"),
          std::string("b1,vm0,0,4,8,50,25,2,2\n")}) {
        EXPECT_FALSE(load_csv(header + row)) << row;
    }
    for (const std::string& directive :
         {std::string("#box,b0,4,8\n"), std::string("#box,b0,4,8,0,1\n"),
          std::string("#box,b0,4,8,x\n"), std::string("#box,b0,1e999,8,0\n")}) {
        EXPECT_FALSE(load_csv(directive)) << directive;
    }
}

}  // namespace
}  // namespace atm::trace
