#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace atm::obs::json {

/// Minimal JSON document value — enough for the metrics report schema,
/// golden files, and round-trip tests, with zero external dependencies.
/// Objects preserve insertion order so serialized reports are stable.
struct Value {
    enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

    Type type = Type::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;

    Value() = default;
    static Value null();
    static Value of(bool b);
    static Value of(double n);
    static Value of(std::int64_t n);
    static Value of(std::uint64_t n);
    static Value of(std::string s);
    static Value of(const char* s);
    static Value make_array();
    static Value make_object();

    /// Object field access; `set` replaces an existing key in place.
    Value& set(const std::string& key, Value value);
    [[nodiscard]] bool has(const std::string& key) const;
    /// Throws std::out_of_range when the key is absent or this is not an
    /// object.
    [[nodiscard]] const Value& at(const std::string& key) const;

    [[nodiscard]] double as_double() const;
    /// Truncating integer reads; throw std::runtime_error when the number
    /// is not finite or lies outside the target type's range.
    [[nodiscard]] std::int64_t as_int() const;
    [[nodiscard]] std::uint64_t as_u64() const;
    [[nodiscard]] const std::string& as_string() const;
    [[nodiscard]] bool as_bool() const;
};

/// Parses a JSON document. Throws std::runtime_error with a byte offset
/// on malformed input. Supports the full value grammar, escape sequences
/// (including \uXXXX with surrogate pairs), and rejects trailing garbage.
Value parse(std::string_view text);

/// Serializes with `indent` spaces per level (0 = compact one-line).
/// Numbers round-trip: integral values within the exact-double range
/// print without a fraction; everything else prints with max precision.
std::string serialize(const Value& value, int indent = 2);

/// Metrics snapshot <-> JSON, the `{"counters": .., "gauges": ..,
/// "timers": .., "histograms": ..}` sub-schema of the metrics report.
Value to_json(const MetricsSnapshot& snapshot);
MetricsSnapshot snapshot_from_json(const Value& value);

}  // namespace atm::obs::json
