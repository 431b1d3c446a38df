#pragma once

#include <iosfwd>
#include <string>

#include "tracegen/trace.hpp"

namespace atm::obs {
class MetricsRegistry;
}

namespace atm::trace {

/// CSV schema for monitoring traces, one row per (box, VM, window):
///
///   box,vm,window,cpu_capacity_ghz,ram_capacity_gb,cpu_usage_pct,
///   ram_usage_pct,cpu_demand_ghz,ram_demand_gb
///
/// plus one `#box` directive line per box carrying box-level data:
///
///   #box,<name>,<cpu_capacity_ghz>,<ram_capacity_gb>,<has_gaps 0|1>
///
/// The demand columns are optional on import: when blank they are derived
/// as usage/100 x capacity (no latent demand). Rows must be grouped by
/// box and VM and ordered by window; the reader validates this and throws
/// std::runtime_error with a line number on malformed input. This is the
/// bridge for running ATM on real monitoring exports.

/// Writes a trace in the CSV schema above.
void write_trace_csv(std::ostream& out, const Trace& trace);

/// Convenience: writes to a file path; throws std::runtime_error if the
/// file cannot be opened.
void write_trace_csv_file(const std::string& path, const Trace& trace);

/// Reads a trace from the CSV schema. `windows_per_day` is metadata the
/// CSV does not carry (defaults to the paper's 96).
///
/// Usage, demand and capacity values must be finite and non-negative;
/// anything else (NaN/Inf/negative — which `std::from_chars` would parse
/// silently) is rejected with the same line-numbered std::runtime_error as
/// structural errors, so corrupt exports fail at the door instead of
/// poisoning downstream math.
///
/// When `metrics` is non-null, records `trace.rows`, `trace.boxes` and
/// `trace.vms` counters plus a `trace.load` timer span.
Trace read_trace_csv(std::istream& in, int windows_per_day = 96,
                     obs::MetricsRegistry* metrics = nullptr);

/// Convenience: reads from a file path.
Trace read_trace_csv_file(const std::string& path, int windows_per_day = 96,
                          obs::MetricsRegistry* metrics = nullptr);

}  // namespace atm::trace
