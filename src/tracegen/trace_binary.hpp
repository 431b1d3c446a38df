#pragma once

#include <string>

#include "tracegen/trace.hpp"

namespace atm::obs {
class MetricsRegistry;
}

namespace atm::trace {

/// Compact binary columnar trace format `atm.trace.bin.v1`
/// (DESIGN.md §7.14). Replaces per-line CSV parsing on the fleet hot
/// path: loading is one mmap, header/index validation and one pass over
/// the payload that copies each series out and folds it into the
/// fingerprint — no text parsing, no per-row allocation.
///
/// Layout (all integers little-or-native endian; the endian tag below
/// rejects files written on a different-endian host):
///
///   header (72 bytes):
///     [0]  magic            8 bytes  "ATMTRB1\n"
///     [8]  endian tag       u32      0x01020304 (reads as 0x04030201
///                                    on a wrong-endian host)
///     [12] version          u32      1
///     [16] windows_per_day  u32
///     [20] num_days         u32      longest box length / windows_per_day;
///                                    informational, readers skip it
///     [24] box_count        u64
///     [32] vm_count         u64
///     [40] sample_count     u64      total (vm, window) samples
///     [48] payload_offset   u64      from file start, 8-byte aligned
///     [56] payload_bytes    u64
///     [64] payload_fp       u64      word-wise FNV-1a of the payload
///
///   index (runs [72, payload_offset)), per box in trace order:
///     u16 name_len + name bytes, u8 has_gaps, f64 cpu_capacity_ghz,
///     f64 ram_capacity_gb, u32 vm_count; then per VM: u16 name_len +
///     name bytes, f64 cpu_capacity_ghz, f64 ram_capacity_gb,
///     u64 series_len.
///
///   payload: per VM in index order, four contiguous blocks of
///     series_len doubles — cpu_usage_pct, ram_usage_pct,
///     cpu_demand_ghz, ram_demand_gb.
///
/// Validation: bad magic, wrong endianness, unknown version, a
/// windows_per_day of 0 or past INT_MAX, any offset/length outside the
/// file (truncation), counts the index cannot hold or disagrees with,
/// non-finite/negative capacities, fingerprint mismatch, and
/// non-finite/negative samples are all rejected with core::PipelineError{kTraceInvalid,
/// "trace"} — the same taxonomy the fleet driver already reports per
/// run. Payload problems are reported in a fixed order: fingerprint
/// mismatch first, then the index/header count checks, then the first
/// bad sample in index order. So a corrupt file is reported as corrupt,
/// and no sample reaches a caller before the fingerprint has matched.
inline constexpr char kTraceBinarySchema[] = "atm.trace.bin.v1";
inline constexpr char kTraceBinaryMagic[9] = "ATMTRB1\n";

/// True when `path` exists and starts with the binary magic. A missing
/// or short file is simply "not binary" (the CSV path then reports its
/// own open error).
[[nodiscard]] bool is_trace_binary_file(const std::string& path);

/// Packs a trace into the binary format and publishes it atomically
/// (temp + fsync + rename, like the CSV writer). Throws
/// core::PipelineError{kTraceInvalid} if a VM's four series disagree in
/// length (the format stores one length per VM).
void write_trace_binary_file(const std::string& path, const Trace& trace);

/// Loads a binary trace. The file is mmap'd read-only when possible
/// (falling back to a buffered read) and fully validated (see layout
/// comment). Each payload byte is read from the mapping once: copied
/// into its series and folded into the fingerprint in the same pass.
/// Mapped payload pages behind the copy are released every MiB, so the
/// load holds the trace about once (the returned copy), not twice.
/// Counters match the CSV reader: `trace.rows` / `trace.boxes` /
/// `trace.vms` and timer `trace.load`.
[[nodiscard]] Trace read_trace_binary_file(
    const std::string& path, obs::MetricsRegistry* metrics = nullptr);

/// Format-sniffing loader: binary when the magic matches (header
/// metadata wins over `windows_per_day`), CSV otherwise. Every CLI
/// trace input goes through this, so `.bin` and `.csv` traces are
/// interchangeable everywhere.
[[nodiscard]] Trace read_trace_any_file(const std::string& path,
                                        int windows_per_day = 96,
                                        obs::MetricsRegistry* metrics = nullptr);

}  // namespace atm::trace
