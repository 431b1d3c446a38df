#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace atm::obs::json {

// ------------------------------------------------------------ construction

Value Value::null() { return Value{}; }

Value Value::of(bool b) {
    Value v;
    v.type = Type::kBool;
    v.boolean = b;
    return v;
}

Value Value::of(double n) {
    Value v;
    v.type = Type::kNumber;
    v.number = n;
    return v;
}

Value Value::of(std::int64_t n) { return of(static_cast<double>(n)); }
Value Value::of(std::uint64_t n) { return of(static_cast<double>(n)); }

Value Value::of(std::string s) {
    Value v;
    v.type = Type::kString;
    v.string = std::move(s);
    return v;
}

Value Value::of(const char* s) { return of(std::string(s)); }

Value Value::make_array() {
    Value v;
    v.type = Type::kArray;
    return v;
}

Value Value::make_object() {
    Value v;
    v.type = Type::kObject;
    return v;
}

Value& Value::set(const std::string& key, Value value) {
    type = Type::kObject;
    for (auto& [k, v] : object) {
        if (k == key) {
            v = std::move(value);
            return v;
        }
    }
    object.emplace_back(key, std::move(value));
    return object.back().second;
}

bool Value::has(const std::string& key) const {
    if (type != Type::kObject) return false;
    for (const auto& [k, v] : object) {
        if (k == key) return true;
    }
    return false;
}

const Value& Value::at(const std::string& key) const {
    if (type != Type::kObject) {
        throw std::out_of_range("json: at('" + key + "') on a non-object");
    }
    for (const auto& [k, v] : object) {
        if (k == key) return v;
    }
    throw std::out_of_range("json: missing key '" + key + "'");
}

double Value::as_double() const {
    if (type != Type::kNumber) throw std::runtime_error("json: not a number");
    return number;
}

// The integer casts range-check first: converting a double outside the
// target's range (or NaN, or an infinity from an overflowing literal such
// as 1e400) is undefined behaviour, and these values come from files and
// sockets.
std::int64_t Value::as_int() const {
    const double d = as_double();
    if (!(d >= -0x1p63 && d < 0x1p63)) {
        throw std::runtime_error("json: number out of int64 range");
    }
    return static_cast<std::int64_t>(d);
}

std::uint64_t Value::as_u64() const {
    const double d = as_double();
    if (d < 0.0) throw std::runtime_error("json: negative value for u64");
    if (!(d < 0x1p64)) throw std::runtime_error("json: number out of u64 range");
    return static_cast<std::uint64_t>(d);
}

const std::string& Value::as_string() const {
    if (type != Type::kString) throw std::runtime_error("json: not a string");
    return string;
}

bool Value::as_bool() const {
    if (type != Type::kBool) throw std::runtime_error("json: not a bool");
    return boolean;
}

// ----------------------------------------------------------------- parser

namespace {

class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    Value parse_document() {
        Value v = parse_value();
        skip_whitespace();
        if (pos_ != text_.size()) fail("trailing characters after document");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& what) const {
        throw std::runtime_error("json parse error at offset " +
                                 std::to_string(pos_) + ": " + what);
    }

    void skip_whitespace() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char peek() {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume_literal(std::string_view literal) {
        if (text_.substr(pos_, literal.size()) != literal) return false;
        pos_ += literal.size();
        return true;
    }

    Value parse_value() {
        skip_whitespace();
        switch (peek()) {
            case '{': return parse_object();
            case '[': return parse_array();
            case '"': return Value::of(parse_string());
            case 't':
                if (!consume_literal("true")) fail("bad literal");
                return Value::of(true);
            case 'f':
                if (!consume_literal("false")) fail("bad literal");
                return Value::of(false);
            case 'n':
                if (!consume_literal("null")) fail("bad literal");
                return Value::null();
            default: return parse_number();
        }
    }

    Value parse_object() {
        expect('{');
        Value v = Value::make_object();
        skip_whitespace();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            skip_whitespace();
            std::string key = parse_string();
            skip_whitespace();
            expect(':');
            v.object.emplace_back(std::move(key), parse_value());
            skip_whitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    Value parse_array() {
        expect('[');
        Value v = Value::make_array();
        skip_whitespace();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.array.push_back(parse_value());
            skip_whitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    void append_utf8(std::string& out, unsigned codepoint) {
        if (codepoint < 0x80) {
            out.push_back(static_cast<char>(codepoint));
        } else if (codepoint < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (codepoint >> 6)));
            out.push_back(static_cast<char>(0x80 | (codepoint & 0x3F)));
        } else if (codepoint < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (codepoint >> 12)));
            out.push_back(static_cast<char>(0x80 | ((codepoint >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (codepoint & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (codepoint >> 18)));
            out.push_back(static_cast<char>(0x80 | ((codepoint >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((codepoint >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (codepoint & 0x3F)));
        }
    }

    unsigned parse_hex4() {
        unsigned value = 0;
        for (int k = 0; k < 4; ++k) {
            const char c = peek();
            ++pos_;
            value <<= 4;
            if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
            else fail("bad \\u escape");
        }
        return value;
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size()) fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    unsigned code = parse_hex4();
                    if (code >= 0xD800 && code <= 0xDBFF) {
                        // High surrogate: a low surrogate must follow.
                        if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                            text_[pos_ + 1] != 'u') {
                            fail("lone high surrogate");
                        }
                        pos_ += 2;
                        const unsigned low = parse_hex4();
                        if (low < 0xDC00 || low > 0xDFFF) fail("bad surrogate pair");
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                    append_utf8(out, code);
                    break;
                }
                default: fail("unknown escape");
            }
        }
    }

    Value parse_number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (pos_ < text_.size() &&
               ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
                text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start) fail("expected a value");
        const std::string token(text_.substr(start, pos_ - start));
        char* end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size()) fail("bad number '" + token + "'");
        return Value::of(value);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

// -------------------------------------------------------------- serializer

void append_escaped(std::string& out, const std::string& s) {
    out.push_back('"');
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x",
                                  static_cast<unsigned>(static_cast<unsigned char>(c)));
                    out += buf;
                } else {
                    out.push_back(c);
                }
        }
    }
    out.push_back('"');
}

void append_number(std::string& out, double value) {
    if (!std::isfinite(value)) {
        // JSON has no inf/nan; clamp to null (metrics never emit these,
        // but a report must never be unparseable).
        out += "null";
        return;
    }
    char buf[40];
    constexpr double kExactIntLimit = 9.007199254740992e15;  // 2^53
    if (value == std::floor(value) && std::fabs(value) < kExactIntLimit) {
        std::snprintf(buf, sizeof(buf), "%.0f", value);
    } else {
        std::snprintf(buf, sizeof(buf), "%.17g", value);
    }
    out += buf;
}

void serialize_into(const Value& value, int indent, int depth, std::string& out) {
    const std::string pad(static_cast<std::size_t>(indent * (depth + 1)), ' ');
    const std::string close_pad(static_cast<std::size_t>(indent * depth), ' ');
    const char* newline = indent > 0 ? "\n" : "";
    switch (value.type) {
        case Value::Type::kNull: out += "null"; break;
        case Value::Type::kBool: out += value.boolean ? "true" : "false"; break;
        case Value::Type::kNumber: append_number(out, value.number); break;
        case Value::Type::kString: append_escaped(out, value.string); break;
        case Value::Type::kArray: {
            if (value.array.empty()) {
                out += "[]";
                break;
            }
            out += "[";
            out += newline;
            for (std::size_t i = 0; i < value.array.size(); ++i) {
                out += pad;
                serialize_into(value.array[i], indent, depth + 1, out);
                if (i + 1 < value.array.size()) out += ",";
                out += newline;
            }
            out += close_pad;
            out += "]";
            break;
        }
        case Value::Type::kObject: {
            if (value.object.empty()) {
                out += "{}";
                break;
            }
            out += "{";
            out += newline;
            for (std::size_t i = 0; i < value.object.size(); ++i) {
                out += pad;
                append_escaped(out, value.object[i].first);
                out += indent > 0 ? ": " : ":";
                serialize_into(value.object[i].second, indent, depth + 1, out);
                if (i + 1 < value.object.size()) out += ",";
                out += newline;
            }
            out += close_pad;
            out += "}";
            break;
        }
    }
}

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

std::string serialize(const Value& value, int indent) {
    std::string out;
    serialize_into(value, indent, 0, out);
    if (indent > 0) out += "\n";
    return out;
}

// ----------------------------------------------------- snapshot <-> JSON

Value to_json(const MetricsSnapshot& snapshot) {
    Value root = Value::make_object();

    Value counters = Value::make_object();
    for (const auto& [name, value] : snapshot.counters) {
        counters.set(name, Value::of(value));
    }
    root.set("counters", std::move(counters));

    Value gauges = Value::make_object();
    for (const auto& [name, value] : snapshot.gauges) {
        gauges.set(name, Value::of(value));
    }
    root.set("gauges", std::move(gauges));

    Value timers = Value::make_object();
    for (const auto& [name, stat] : snapshot.timers) {
        Value t = Value::make_object();
        t.set("count", Value::of(stat.count));
        t.set("total_ns", Value::of(stat.total_ns));
        t.set("min_ns", Value::of(stat.min_ns));
        t.set("max_ns", Value::of(stat.max_ns));
        timers.set(name, std::move(t));
    }
    root.set("timers", std::move(timers));

    Value histograms = Value::make_object();
    for (const auto& [name, hist] : snapshot.histograms) {
        Value h = Value::make_object();
        Value bounds = Value::make_array();
        for (const double b : hist.bounds) bounds.array.push_back(Value::of(b));
        Value counts = Value::make_array();
        for (const std::uint64_t c : hist.counts) {
            counts.array.push_back(Value::of(c));
        }
        h.set("bounds", std::move(bounds));
        h.set("counts", std::move(counts));
        h.set("count", Value::of(hist.count));
        h.set("sum", Value::of(hist.sum));
        h.set("min", Value::of(hist.min));
        h.set("max", Value::of(hist.max));
        histograms.set(name, std::move(h));
    }
    root.set("histograms", std::move(histograms));
    return root;
}

MetricsSnapshot snapshot_from_json(const Value& value) {
    MetricsSnapshot out;
    if (value.has("counters")) {
        for (const auto& [name, v] : value.at("counters").object) {
            out.counters[name] = v.as_u64();
        }
    }
    if (value.has("gauges")) {
        for (const auto& [name, v] : value.at("gauges").object) {
            out.gauges[name] = v.as_double();
        }
    }
    if (value.has("timers")) {
        for (const auto& [name, v] : value.at("timers").object) {
            TimerStat stat;
            stat.count = v.at("count").as_u64();
            stat.total_ns = v.at("total_ns").as_u64();
            stat.min_ns = v.at("min_ns").as_u64();
            stat.max_ns = v.at("max_ns").as_u64();
            out.timers[name] = stat;
        }
    }
    if (value.has("histograms")) {
        for (const auto& [name, v] : value.at("histograms").object) {
            HistogramSnapshot hist;
            for (const Value& b : v.at("bounds").array) {
                hist.bounds.push_back(b.as_double());
            }
            for (const Value& c : v.at("counts").array) {
                hist.counts.push_back(c.as_u64());
            }
            hist.count = v.at("count").as_u64();
            hist.sum = v.at("sum").as_double();
            hist.min = v.at("min").as_double();
            hist.max = v.at("max").as_double();
            out.histograms[name] = std::move(hist);
        }
    }
    return out;
}

}  // namespace atm::obs::json
