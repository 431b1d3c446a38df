#include "core/fleet_journal.hpp"

#include <limits>
#include <stdexcept>

#include "exec/journal.hpp"
#include "linalg/simd/simd.hpp"
#include "obs/json.hpp"

namespace atm::core {
namespace {

using exec::hex16;
using exec::mix_bytes;
using exec::mix_double;
using exec::mix_string;
using exec::mix_u64;
using obs::json::Value;

Value int_array(const std::vector<int>& values) {
    Value array = Value::make_array();
    for (const int v : values) {
        array.array.push_back(Value::of(static_cast<std::int64_t>(v)));
    }
    return array;
}

/// A record's int field. Out of int range throws rather than wraps: a
/// wrapped box index would replay one box's record as another box's.
int int_from(const Value& value) {
    const std::int64_t v = value.as_int();
    if (v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max()) {
        throw std::runtime_error("journal: integer out of int range");
    }
    return static_cast<int>(v);
}

std::vector<int> int_array_from(const Value& value) {
    std::vector<int> values;
    values.reserve(value.array.size());
    for (const Value& v : value.array) values.push_back(int_from(v));
    return values;
}

}  // namespace

std::uint64_t trace_fingerprint(const trace::Trace& trace) {
    std::uint64_t hash = exec::kFnv1a64Offset;
    mix_u64(hash, static_cast<std::uint64_t>(trace.windows_per_day));
    mix_u64(hash, trace.boxes.size());
    for (const trace::BoxTrace& box : trace.boxes) {
        mix_string(hash, box.name);
        mix_u64(hash, box.has_gaps ? 1 : 0);
        mix_double(hash, box.cpu_capacity_ghz);
        mix_double(hash, box.ram_capacity_gb);
        mix_u64(hash, box.vms.size());
        for (const trace::VmTrace& vm : box.vms) {
            mix_string(hash, vm.name);
            mix_double(hash, vm.cpu_capacity_ghz);
            mix_double(hash, vm.ram_capacity_gb);
            for (const ts::Series* series :
                 {&vm.cpu_usage_pct, &vm.ram_usage_pct, &vm.cpu_demand_ghz,
                  &vm.ram_demand_gb}) {
                const std::vector<double>& values = series->values();
                mix_u64(hash, values.size());
                mix_bytes(hash, values.data(),
                          values.size() * sizeof(double));
            }
        }
    }
    return hash;
}

std::uint64_t pipeline_config_digest(const PipelineConfig& p) {
    std::uint64_t hash = exec::kFnv1a64Offset;
    mix_u64(hash, static_cast<std::uint64_t>(p.search.method));
    mix_double(hash, p.search.rho_threshold);
    mix_double(hash, p.search.vif_threshold);
    mix_u64(hash, p.search.apply_stepwise ? 1 : 0);
    mix_u64(hash, static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(p.search.dtw_band)));
    mix_u64(hash, static_cast<std::uint64_t>(p.temporal));
    mix_u64(hash, static_cast<std::uint64_t>(p.train_days));
    mix_double(hash, p.alpha);
    mix_double(hash, p.epsilon_pct);
    mix_u64(hash, p.use_lower_bounds ? 1 : 0);
    mix_u64(hash, static_cast<std::uint64_t>(p.scope));
    return hash;
}

std::uint64_t fleet_config_digest(const FleetConfig& config) {
    std::uint64_t hash = exec::kFnv1a64Offset;
    mix_u64(hash, pipeline_config_digest(config.pipeline));
    // Fleet selection / evaluation knobs.
    mix_u64(hash, config.skip_gappy_boxes ? 1 : 0);
    mix_u64(hash, config.box_names.size());
    for (const std::string& name : config.box_names) mix_string(hash, name);
    mix_u64(hash, static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(config.max_boxes)));
    mix_u64(hash, config.policies.size());
    for (const resize::ResizePolicy policy : config.policies) {
        mix_u64(hash, static_cast<std::uint64_t>(policy));
    }
    mix_u64(hash, config.collect_metrics ? 1 : 0);
    return hash;
}

std::string journal_header(const char* schema, const trace::Trace& trace,
                           std::uint64_t config_digest, unsigned seed) {
    Value header = Value::make_object();
    header.set("schema", Value::of(schema));
    // u64 digests as hex strings: doubles only hold 53 exact bits.
    header.set("fingerprint", Value::of(hex16(trace_fingerprint(trace))));
    header.set("config", Value::of(hex16(config_digest)));
    header.set("seed", Value::of(static_cast<std::uint64_t>(seed)));
    // The dispatched SIMD path is result-affecting (vectorized MLP
    // forwards reassociate; simd.hpp's tolerance policy), so a journal
    // written under one path must not be replayed under another — a
    // mismatch makes the resume start fresh, like any config change.
    header.set("simd", Value::of(simd::to_string(simd::active_path())));
    return obs::json::serialize(header, 0);
}

std::string journal_header_mismatch(const std::string& found,
                                    const std::string& expected) {
    if (found == expected) return "";
    Value old;
    try {
        old = obs::json::parse(found);
    } catch (const std::runtime_error&) {
        return "no readable header";
    }
    if (old.type != Value::Type::kObject) return "no readable header";
    const Value now = obs::json::parse(expected);
    // Header key, what it binds, and whether its values mean something
    // to an operator (digests do not).
    struct Field {
        const char* key;
        const char* what;
        bool show_values;
    };
    constexpr Field kFields[] = {
        {"schema", "journal schema", false},
        {"fingerprint", "trace", false},
        {"config", "config", false},
        {"seed", "seed", true},
        {"simd", "SIMD path", true},
    };
    const auto bare = [](std::string text) {  // a JSON string unquoted
        if (text.size() >= 2 && text.front() == '"') {
            text = text.substr(1, text.size() - 2);
        }
        return text;
    };
    std::string differs;
    for (const Field& field : kFields) {
        const std::string was =
            old.has(field.key) ? obs::json::serialize(old.at(field.key), 0) : "none";
        const std::string is = obs::json::serialize(now.at(field.key), 0);
        if (was == is) continue;
        if (!differs.empty()) differs += ", ";
        differs += field.what;
        if (field.show_values) {
            differs += " (" + bare(was) + ", now " + bare(is) + ")";
        }
    }
    return differs.empty() ? "header" : differs;
}

std::string encode_box_record(const FleetBoxResult& box) {
    Value record = Value::make_object();
    record.set("box", Value::of(static_cast<std::int64_t>(box.box_index)));
    record.set("name", Value::of(box.box_name));
    if (!box.error.empty()) {
        record.set("error", Value::of(box.error));
        record.set("code", Value::of(to_string(box.error_code)));
        record.set("stage", Value::of(box.error_stage));
        return obs::json::serialize(record, 0);
    }
    const BoxPipelineResult& r = box.result;
    Value result = Value::make_object();
    Value search = Value::make_object();
    search.set("signatures", int_array(r.search.signatures));
    search.set("initial", int_array(r.search.initial_signatures));
    search.set("clusters",
               Value::of(static_cast<std::int64_t>(r.search.num_clusters)));
    search.set("silhouette", Value::of(r.search.silhouette));
    result.set("search", std::move(search));
    result.set("ape_all", Value::of(r.ape_all));
    result.set("ape_peak", Value::of(r.ape_peak));
    Value pred = Value::make_array();
    for (const std::vector<double>& series : r.predicted_demands) {
        Value row = Value::make_array();
        for (const double v : series) row.array.push_back(Value::of(v));
        pred.array.push_back(std::move(row));
    }
    result.set("pred", std::move(pred));
    Value policies = Value::make_array();
    for (const PolicyTickets& tickets : r.policies) {
        Value entry = Value::make_object();
        entry.set("policy", Value::of(static_cast<std::int64_t>(
                                static_cast<int>(tickets.policy))));
        entry.set("cpu_before",
                  Value::of(static_cast<std::int64_t>(tickets.cpu_before)));
        entry.set("cpu_after",
                  Value::of(static_cast<std::int64_t>(tickets.cpu_after)));
        entry.set("ram_before",
                  Value::of(static_cast<std::int64_t>(tickets.ram_before)));
        entry.set("ram_after",
                  Value::of(static_cast<std::int64_t>(tickets.ram_after)));
        policies.array.push_back(std::move(entry));
    }
    result.set("policies", std::move(policies));
    Value degradations = Value::make_array();
    for (const Degradation& d : r.degradations) {
        Value entry = Value::make_object();
        entry.set("code", Value::of(to_string(d.code)));
        entry.set("stage", Value::of(d.stage));
        entry.set("detail", Value::of(d.detail));
        degradations.array.push_back(std::move(entry));
    }
    result.set("degradations", std::move(degradations));
    result.set("metrics", obs::json::to_json(r.metrics));
    record.set("result", std::move(result));
    return obs::json::serialize(record, 0);
}

FleetBoxResult decode_box_record(const std::string& payload) {
    const Value record = obs::json::parse(payload);
    FleetBoxResult box;
    box.box_index = int_from(record.at("box"));
    box.box_name = record.at("name").as_string();
    if (record.has("error")) {
        box.error = record.at("error").as_string();
        box.error_code = error_code_from_string(record.at("code").as_string());
        box.error_stage = record.at("stage").as_string();
        return box;
    }
    const Value& result = record.at("result");
    BoxPipelineResult& r = box.result;
    const Value& search = result.at("search");
    r.search.signatures = int_array_from(search.at("signatures"));
    r.search.initial_signatures = int_array_from(search.at("initial"));
    r.search.num_clusters = int_from(search.at("clusters"));
    r.search.silhouette = search.at("silhouette").as_double();
    r.ape_all = result.at("ape_all").as_double();
    r.ape_peak = result.at("ape_peak").as_double();
    for (const Value& row : result.at("pred").array) {
        std::vector<double> series;
        series.reserve(row.array.size());
        for (const Value& v : row.array) series.push_back(v.as_double());
        r.predicted_demands.push_back(std::move(series));
    }
    for (const Value& entry : result.at("policies").array) {
        PolicyTickets tickets;
        const std::int64_t policy = entry.at("policy").as_int();
        if (policy < 0 ||
            policy > static_cast<std::int64_t>(resize::ResizePolicy::kStingy)) {
            throw std::runtime_error("fleet journal: policy id out of range");
        }
        tickets.policy = static_cast<resize::ResizePolicy>(policy);
        tickets.cpu_before = int_from(entry.at("cpu_before"));
        tickets.cpu_after = int_from(entry.at("cpu_after"));
        tickets.ram_before = int_from(entry.at("ram_before"));
        tickets.ram_after = int_from(entry.at("ram_after"));
        r.policies.push_back(tickets);
    }
    for (const Value& entry : result.at("degradations").array) {
        Degradation d;
        d.code = error_code_from_string(entry.at("code").as_string());
        d.stage = entry.at("stage").as_string();
        d.detail = entry.at("detail").as_string();
        r.degradations.push_back(std::move(d));
    }
    r.metrics = obs::json::snapshot_from_json(result.at("metrics"));
    return box;
}

namespace {

Value double_array(const std::vector<double>& values) {
    Value array = Value::make_array();
    for (const double v : values) array.array.push_back(Value::of(v));
    return array;
}

std::vector<double> double_array_from(const Value& value) {
    std::vector<double> values;
    values.reserve(value.array.size());
    for (const Value& v : value.array) values.push_back(v.as_double());
    return values;
}

}  // namespace

std::string encode_epoch_record(const ServeEpochRecord& record) {
    Value out = Value::make_object();
    out.set("box", Value::of(static_cast<std::int64_t>(record.box_index)));
    out.set("epoch", Value::of(static_cast<std::uint64_t>(record.epoch)));
    out.set("cpu", double_array(record.cpu));
    out.set("ram", double_array(record.ram));
    return obs::json::serialize(out, 0);
}

ServeEpochRecord decode_epoch_record(const std::string& payload) {
    const Value in = obs::json::parse(payload);
    ServeEpochRecord record;
    record.box_index = int_from(in.at("box"));
    record.epoch = in.at("epoch").as_u64();
    record.cpu = double_array_from(in.at("cpu"));
    record.ram = double_array_from(in.at("ram"));
    return record;
}

}  // namespace atm::core
