#include "tracegen/trace_io.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "exec/io.hpp"
#include "obs/metrics.hpp"

namespace atm::trace {
namespace {

/// Splits a CSV line on commas (no quoting — the schema has no free text
/// beyond names, which must not contain commas).
std::vector<std::string> split_csv(const std::string& line) {
    std::vector<std::string> fields;
    std::string field;
    std::istringstream stream(line);
    while (std::getline(stream, field, ',')) fields.push_back(field);
    if (!line.empty() && line.back() == ',') fields.emplace_back();
    return fields;
}

double parse_double(const std::string& s, int line_no, const char* what) {
    if (s.empty()) {
        throw std::runtime_error("trace csv line " + std::to_string(line_no) +
                                 ": empty " + what);
    }
    double value = 0.0;
    const auto* begin = s.data();
    const auto* end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{} || ptr != end) {
        throw std::runtime_error("trace csv line " + std::to_string(line_no) +
                                 ": bad " + what + " '" + s + "'");
    }
    return value;
}

/// Monitoring values (usage, demand, capacity) must be finite and
/// non-negative. std::from_chars happily parses "nan", "inf" and negative
/// numbers; let none of them into the trace.
double parse_sample(const std::string& s, int line_no, const char* what) {
    const double value = parse_double(s, line_no, what);
    if (!std::isfinite(value)) {
        throw std::runtime_error("trace csv line " + std::to_string(line_no) +
                                 ": non-finite " + what + " '" + s + "'");
    }
    if (value < 0.0) {
        throw std::runtime_error("trace csv line " + std::to_string(line_no) +
                                 ": negative " + what + " '" + s + "'");
    }
    return value;
}

long parse_long(const std::string& s, int line_no, const char* what) {
    long value = 0;
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
    if (ec != std::errc{} || ptr != s.data() + s.size()) {
        throw std::runtime_error("trace csv line " + std::to_string(line_no) +
                                 ": bad " + what + " '" + s + "'");
    }
    return value;
}

}  // namespace

void write_trace_csv(std::ostream& out, const Trace& trace) {
    // Enough digits for a lossless double round trip of monitoring values.
    out.precision(12);
    out << "box,vm,window,cpu_capacity_ghz,ram_capacity_gb,cpu_usage_pct,"
           "ram_usage_pct,cpu_demand_ghz,ram_demand_gb\n";
    for (const BoxTrace& box : trace.boxes) {
        out << "#box," << box.name << ',' << box.cpu_capacity_ghz << ','
            << box.ram_capacity_gb << ',' << (box.has_gaps ? 1 : 0) << '\n';
        for (const VmTrace& vm : box.vms) {
            for (std::size_t t = 0; t < vm.cpu_usage_pct.size(); ++t) {
                out << box.name << ',' << vm.name << ',' << t << ','
                    << vm.cpu_capacity_ghz << ',' << vm.ram_capacity_gb << ','
                    << vm.cpu_usage_pct[t] << ',' << vm.ram_usage_pct[t] << ','
                    << vm.cpu_demand_ghz[t] << ',' << vm.ram_demand_gb[t]
                    << '\n';
            }
        }
    }
}

void write_trace_csv_file(const std::string& path, const Trace& trace) {
    // Serialize to memory, then publish atomically (temp + rename): an
    // interrupted `atm generate` never leaves a half-written trace that a
    // later run would silently load as a shorter fleet.
    std::ostringstream out;
    write_trace_csv(out, trace);
    exec::write_file_atomic(path, out.str());
}

Trace read_trace_csv(std::istream& in, int windows_per_day,
                     obs::MetricsRegistry* metrics) {
    obs::ScopedTimer load_timer(metrics, "trace.load");
    Trace trace;
    trace.windows_per_day = windows_per_day;

    std::string line;
    int line_no = 0;
    std::uint64_t rows = 0;
    BoxTrace* box = nullptr;
    VmTrace* vm = nullptr;

    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty()) continue;
        if (line.rfind("box,vm,window", 0) == 0) continue;  // header
        const std::vector<std::string> f = split_csv(line);
        if (!f.empty() && f[0] == "#box") {
            if (f.size() != 5) {
                throw std::runtime_error("trace csv line " + std::to_string(line_no) +
                                         ": #box needs 5 fields");
            }
            trace.boxes.emplace_back();
            box = &trace.boxes.back();
            box->name = f[1];
            box->cpu_capacity_ghz = parse_sample(f[2], line_no, "box cpu capacity");
            box->ram_capacity_gb = parse_sample(f[3], line_no, "box ram capacity");
            box->has_gaps = parse_long(f[4], line_no, "has_gaps") != 0;
            vm = nullptr;
            continue;
        }
        if (f.size() != 9) {
            throw std::runtime_error("trace csv line " + std::to_string(line_no) +
                                     ": expected 9 fields, got " +
                                     std::to_string(f.size()));
        }
        if (box == nullptr || f[0] != box->name) {
            throw std::runtime_error("trace csv line " + std::to_string(line_no) +
                                     ": row for unknown box '" + f[0] + "'");
        }
        if (vm == nullptr || vm->name != f[1]) {
            box->vms.emplace_back();
            vm = &box->vms.back();
            vm->name = f[1];
            vm->cpu_capacity_ghz = parse_sample(f[3], line_no, "vm cpu capacity");
            vm->ram_capacity_gb = parse_sample(f[4], line_no, "vm ram capacity");
            vm->cpu_usage_pct.set_name(vm->name + "/CPU");
            vm->ram_usage_pct.set_name(vm->name + "/RAM");
            vm->cpu_demand_ghz.set_name(vm->name + "/CPU-demand");
            vm->ram_demand_gb.set_name(vm->name + "/RAM-demand");
        }
        const long window = parse_long(f[2], line_no, "window");
        if (static_cast<std::size_t>(window) != vm->cpu_usage_pct.size()) {
            throw std::runtime_error("trace csv line " + std::to_string(line_no) +
                                     ": windows out of order for " + vm->name);
        }
        const double cpu_usage = parse_sample(f[5], line_no, "cpu usage");
        const double ram_usage = parse_sample(f[6], line_no, "ram usage");
        vm->cpu_usage_pct.push_back(cpu_usage);
        vm->ram_usage_pct.push_back(ram_usage);
        // Demand columns optional: derive from usage when blank.
        vm->cpu_demand_ghz.push_back(
            f[7].empty() ? cpu_usage / 100.0 * vm->cpu_capacity_ghz
                         : parse_sample(f[7], line_no, "cpu demand"));
        vm->ram_demand_gb.push_back(
            f[8].empty() ? ram_usage / 100.0 * vm->ram_capacity_gb
                         : parse_sample(f[8], line_no, "ram demand"));
        ++rows;
    }
    if (metrics != nullptr) {
        metrics->add("trace.rows", rows);
        metrics->add("trace.boxes", trace.boxes.size());
        std::uint64_t vms = 0;
        for (const BoxTrace& b : trace.boxes) vms += b.vms.size();
        metrics->add("trace.vms", vms);
    }
    return trace;
}

Trace read_trace_csv_file(const std::string& path, int windows_per_day,
                          obs::MetricsRegistry* metrics) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("read_trace_csv_file: cannot open " + path);
    return read_trace_csv(in, windows_per_day, metrics);
}

}  // namespace atm::trace
