// Binary trace format (atm.trace.bin.v1, src/tracegen/trace_binary.hpp):
// pack -> load -> unpack round trips bit-identically against the CSV
// loader, also across the loader's page releases on a multi-MiB file.
// Malformed files (truncation, bad magic, wrong endianness, lying header
// or index counts, misalignment, corrupted payload, bad samples) are
// rejected with the structured PipelineError taxonomy instead of
// producing garbage traces or escaping as allocation errors, and a
// corrupt payload is reported as such before any bad sample in it.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "core/errors.hpp"
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

}  // namespace
}  // namespace atm::trace
