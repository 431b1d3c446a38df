#include "serve/protocol.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

#include "obs/json.hpp"

namespace atm::serve {

namespace {

using obs::json::Value;

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

Request parse_request(const std::string& line) {
    const Value in = obs::json::parse(line);
    Request request;
    const std::string& type = in.at("type").as_string();
    if (type == "hello") {
        request.type = Request::Type::kHello;
        request.proto = in.at("proto").as_string();
    } else if (type == "window") {
        request.type = Request::Type::kWindow;
        request.box = in.at("box").as_string();
        request.epoch = in.at("epoch").as_u64();
        request.cpu = double_array_from(in.at("cpu"));
        request.ram = double_array_from(in.at("ram"));
    } else if (type == "stat") {
        request.type = Request::Type::kStat;
    } else if (type == "shutdown") {
        request.type = Request::Type::kShutdown;
    } else {
        throw std::runtime_error("serve protocol: unknown request type '" +
                                 type + "'");
    }
    return request;
}

std::string encode_hello() {
    Value out = Value::make_object();
    out.set("type", Value::of("hello"));
    out.set("proto", Value::of(kServeProtocol));
    return obs::json::serialize(out, 0);
}

std::string encode_window(const std::string& box, std::uint64_t epoch,
                          const std::vector<double>& cpu,
                          const std::vector<double>& ram) {
    Value out = Value::make_object();
    out.set("type", Value::of("window"));
    out.set("box", Value::of(box));
    out.set("epoch", Value::of(epoch));
    out.set("cpu", double_array(cpu));
    out.set("ram", double_array(ram));
    return obs::json::serialize(out, 0);
}

std::string encode_stat() {
    Value out = Value::make_object();
    out.set("type", Value::of("stat"));
    return obs::json::serialize(out, 0);
}

std::string encode_shutdown() {
    Value out = Value::make_object();
    out.set("type", Value::of("shutdown"));
    return obs::json::serialize(out, 0);
}

Response parse_response(const std::string& line) {
    const Value in = obs::json::parse(line);
    Response response;
    response.type = in.at("type").as_string();
    if (response.type == "hello") {
        response.proto = in.at("proto").as_string();
        response.boxes = static_cast<int>(in.at("boxes").as_int());
        response.resumed = in.at("resumed").as_bool();
    } else if (response.type == "ack") {
        response.status = in.at("status").as_string();
        response.epoch = in.at("epoch").as_u64();
        response.ladder = static_cast<int>(in.at("ladder").as_int());
        response.cpu = double_array_from(in.at("cpu"));
        response.ram = double_array_from(in.at("ram"));
        if (in.has("message")) response.message = in.at("message").as_string();
    } else if (response.type == "busy") {
        response.retry_after_ms = in.at("retry_after_ms").as_double();
    } else if (response.type == "error") {
        response.message = in.at("message").as_string();
    } else if (response.type == "stat") {
        response.metrics_json = obs::json::serialize(in.at("metrics"), 0);
    } else if (response.type != "ok") {
        throw std::runtime_error("serve protocol: unknown response type '" +
                                 response.type + "'");
    }
    return response;
}

std::string encode_hello_response(int boxes, bool resumed) {
    Value out = Value::make_object();
    out.set("type", Value::of("hello"));
    out.set("proto", Value::of(kServeProtocol));
    out.set("boxes", Value::of(static_cast<std::int64_t>(boxes)));
    out.set("resumed", Value::of(resumed));
    return obs::json::serialize(out, 0);
}

std::string encode_ack(const ApplyOutcome& outcome) {
    Value out = Value::make_object();
    out.set("type", Value::of("ack"));
    out.set("status", Value::of(to_string(outcome.status)));
    out.set("epoch", Value::of(outcome.epoch));
    out.set("ladder", Value::of(std::int64_t{0}));  // reserved, always 0
    out.set("cpu", double_array(outcome.cpu));
    out.set("ram", double_array(outcome.ram));
    if (!outcome.error.empty()) out.set("message", Value::of(outcome.error));
    return obs::json::serialize(out, 0);
}

std::string encode_busy(double retry_after_ms) {
    Value out = Value::make_object();
    out.set("type", Value::of("busy"));
    out.set("retry_after_ms", Value::of(retry_after_ms));
    return obs::json::serialize(out, 0);
}

std::string encode_error(const std::string& message) {
    Value out = Value::make_object();
    out.set("type", Value::of("error"));
    out.set("message", Value::of(message));
    return obs::json::serialize(out, 0);
}

std::string encode_ok() {
    Value out = Value::make_object();
    out.set("type", Value::of("ok"));
    return obs::json::serialize(out, 0);
}

std::string encode_stat_response(const std::string& metrics_json) {
    Value out = Value::make_object();
    out.set("type", Value::of("stat"));
    out.set("metrics", obs::json::parse(metrics_json));
    return obs::json::serialize(out, 0);
}

// ---------------------------------------------------------------------------
// ServeClient

ServeClient ServeClient::connect(const std::string& socket_path,
                                 int timeout_ms) {
    ServeClient client(exec::unix_connect(socket_path, timeout_ms));
    client.hello_ = client.transact(encode_hello(), timeout_ms);
    if (client.hello_.type == "error") {
        throw std::runtime_error("serve client: handshake rejected: " +
                                 client.hello_.message);
    }
    if (client.hello_.type != "hello" ||
        client.hello_.proto != kServeProtocol) {
        throw std::runtime_error(
            "serve client: unexpected handshake response");
    }
    return client;
}

Response ServeClient::transact(const std::string& line, int timeout_ms) {
    if (!socket_.write_line(line)) {
        throw std::runtime_error("serve client: daemon closed the connection");
    }
    bool eof = false;
    const std::optional<std::string> reply = socket_.read_line(timeout_ms, &eof);
    if (!reply.has_value()) {
        throw std::runtime_error(
            eof ? "serve client: daemon closed the connection"
                : "serve client: timed out waiting for a response");
    }
    return parse_response(*reply);
}

Response ServeClient::window(const std::string& box, std::uint64_t epoch,
                             const std::vector<double>& cpu,
                             const std::vector<double>& ram, int timeout_ms) {
    return transact(encode_window(box, epoch, cpu, ram), timeout_ms);
}

Response ServeClient::window_retry(const std::string& box, std::uint64_t epoch,
                                   const std::vector<double>& cpu,
                                   const std::vector<double>& ram,
                                   int deadline_ms) {
    const std::string line = encode_window(box, epoch, cpu, ram);
    double budget_ms = static_cast<double>(deadline_ms);
    while (true) {
        const Response response =
            transact(line, std::max(1, static_cast<int>(budget_ms)));
        if (response.type != "busy") return response;
        const double wait_ms = std::max(1.0, response.retry_after_ms);
        if (wait_ms >= budget_ms) {
            throw std::runtime_error(
                "serve client: backpressure retries exhausted for box " + box +
                " epoch " + std::to_string(epoch));
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(wait_ms));
        budget_ms -= wait_ms;
    }
}

Response ServeClient::stat(int timeout_ms) {
    return transact(encode_stat(), timeout_ms);
}

Response ServeClient::shutdown(int timeout_ms) {
    return transact(encode_shutdown(), timeout_ms);
}

}  // namespace atm::serve
