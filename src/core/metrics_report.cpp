#include "core/metrics_report.hpp"

#include "exec/io.hpp"

namespace atm::core {

obs::json::Value build_metrics_report(const FleetResult& fleet,
                                      const std::string& command,
                                      const obs::MetricsSnapshot& extra) {
    namespace json = obs::json;

    obs::MetricsSnapshot merged = extra;
    merged.merge(fleet.metrics);

    json::Value report = json::Value::make_object();
    report.set("schema", json::Value::of(kMetricsReportSchema));
    report.set("command", json::Value::of(command));
    report.set("jobs", json::Value::of(static_cast<std::int64_t>(fleet.jobs)));
    report.set("simd", json::Value::of(fleet.simd_path));
    report.set("wall_seconds", json::Value::of(fleet.wall_seconds));
    report.set("boxes_in_trace",
               json::Value::of(static_cast<std::uint64_t>(fleet.boxes_in_trace)));
    report.set("boxes_skipped",
               json::Value::of(static_cast<std::uint64_t>(fleet.boxes_skipped)));
    report.set("boxes_failed",
               json::Value::of(static_cast<std::uint64_t>(fleet.boxes_failed)));
    report.set("fleet", json::to_json(merged));

    json::Value boxes = json::Value::make_array();
    boxes.array.reserve(fleet.boxes.size());
    for (const FleetBoxResult& box : fleet.boxes) {
        json::Value entry = json::Value::make_object();
        entry.set("name", json::Value::of(box.box_name));
        entry.set("index",
                  json::Value::of(static_cast<std::int64_t>(box.box_index)));
        if (box.error.empty()) {
            entry.set("metrics", json::to_json(box.result.metrics));
        } else {
            entry.set("error", json::Value::of(box.error));
        }
        boxes.array.push_back(std::move(entry));
    }
    report.set("boxes", std::move(boxes));
    return report;
}

void write_metrics_report_file(const std::string& path,
                               const FleetResult& fleet,
                               const std::string& command,
                               const obs::MetricsSnapshot& extra) {
    const obs::json::Value report = build_metrics_report(fleet, command, extra);
    // Atomic (temp + rename): a crash or SIGKILL mid-write leaves either
    // the previous report or the new one, never a truncated file.
    exec::write_file_atomic(path, obs::json::serialize(report, 2) + '\n');
}

}  // namespace atm::core
