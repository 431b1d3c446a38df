#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/socket.hpp"
#include "serve/serve.hpp"

namespace atm::serve {

/// Wire protocol version, exchanged in the hello handshake. A daemon
/// rejects clients announcing a different version with an error response
/// (never by guessing at the frame layout).
inline constexpr const char* kServeProtocol = "atm.serve.v1";

/// One parsed client request (one JSON line on the socket).
struct Request {
    enum class Type { kHello, kWindow, kStat, kShutdown };
    Type type = Type::kHello;
    std::string proto;  ///< hello: announced protocol version
    std::string box;    ///< window: box addressed by trace name
    std::uint64_t epoch = 0;
    std::vector<double> cpu;
    std::vector<double> ram;
};

/// Parses one request line; throws std::runtime_error on malformed JSON,
/// a missing/unknown "type", or missing fields for that type.
[[nodiscard]] Request parse_request(const std::string& line);

[[nodiscard]] std::string encode_hello();
[[nodiscard]] std::string encode_window(const std::string& box,
                                        std::uint64_t epoch,
                                        const std::vector<double>& cpu,
                                        const std::vector<double>& ram);
[[nodiscard]] std::string encode_stat();
[[nodiscard]] std::string encode_shutdown();

/// One parsed server response. `type` is one of "hello", "ack", "busy",
/// "error", "ok", "stat"; only the fields for that type are meaningful.
struct Response {
    std::string type;
    std::string proto;     ///< hello
    int boxes = 0;         ///< hello
    bool resumed = false;  ///< hello
    std::string status;    ///< ack: ApplyStatus to_string value
    std::uint64_t epoch = 0;
    /// ack: reserved, always 0 (a window always runs to completion); kept
    /// so atm.serve.v1 clients that read it still parse.
    int ladder = 0;
    std::vector<double> cpu;  ///< ack: recommended allocations (may be empty)
    std::vector<double> ram;
    double retry_after_ms = 0.0;  ///< busy: backpressure hint
    std::string message;          ///< error
    std::string metrics_json;     ///< stat: serialized metrics report
};

[[nodiscard]] Response parse_response(const std::string& line);

[[nodiscard]] std::string encode_hello_response(int boxes, bool resumed);
[[nodiscard]] std::string encode_ack(const ApplyOutcome& outcome);
[[nodiscard]] std::string encode_busy(double retry_after_ms);
[[nodiscard]] std::string encode_error(const std::string& message);
[[nodiscard]] std::string encode_ok();
[[nodiscard]] std::string encode_stat_response(const std::string& metrics_json);

/// Blocking lock-step client over a Unix-domain socket: each call sends
/// one request line and waits for the matching response line. Used by
/// `atm play`, tests, and as the reference client in README.
class ServeClient {
  public:
    /// Connects (retrying while the daemon's socket does not exist yet)
    /// and performs the hello handshake. Throws std::runtime_error on
    /// timeout, protocol mismatch, or an error response.
    static ServeClient connect(const std::string& socket_path,
                               int timeout_ms = 5000);

    /// Sends one window update; returns the daemon's response ("ack" or
    /// "busy" or "error"). Throws std::runtime_error when the connection
    /// dies or times out.
    Response window(const std::string& box, std::uint64_t epoch,
                    const std::vector<double>& cpu,
                    const std::vector<double>& ram, int timeout_ms = 30000);

    /// Like window(), but sleeps out "busy" responses (using the daemon's
    /// retry_after_ms hint) until an ack arrives or `deadline_ms` of total
    /// budget is spent — the well-behaved reaction to backpressure.
    Response window_retry(const std::string& box, std::uint64_t epoch,
                          const std::vector<double>& cpu,
                          const std::vector<double>& ram,
                          int deadline_ms = 60000);

    Response stat(int timeout_ms = 30000);
    Response shutdown(int timeout_ms = 30000);

    [[nodiscard]] const Response& hello() const { return hello_; }

  private:
    explicit ServeClient(exec::UnixSocket socket) : socket_(std::move(socket)) {}
    Response transact(const std::string& line, int timeout_ms);

    exec::UnixSocket socket_;
    Response hello_;
};

}  // namespace atm::serve
