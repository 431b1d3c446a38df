#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "exec/socket.hpp"
#include "serve/protocol.hpp"
#include "serve/serve.hpp"

namespace atm::serve {

/// One accepted client connection: the socket plus a write lock so the
/// worker thread (acks) and the reader thread (busy/error responses)
/// never interleave bytes of two response lines.
struct Connection {
    explicit Connection(exec::UnixSocket s) : socket(std::move(s)) {}

    bool send(const std::string& line) {
        const std::lock_guard<std::mutex> lock(write_mutex);
        return socket.write_line(line);
    }

    exec::UnixSocket socket;
    std::mutex write_mutex;
};

/// One queued window update awaiting the worker, with the connection the
/// ack must go back on (null in unit tests).
struct IngestJob {
    WindowUpdate update;
    std::shared_ptr<Connection> conn;
};

/// Bounded multi-producer single-consumer ingest queue — the daemon's
/// backpressure boundary. try_push never blocks: a full queue returns
/// false and the caller answers "busy" with a retry-after hint instead
/// of letting a fast client grow the heap without bound.
class IngestQueue {
  public:
    explicit IngestQueue(std::size_t capacity) : capacity_(capacity) {}

    /// False when the queue is at capacity (backpressure) or closed.
    bool try_push(IngestJob job);

    /// Waits up to `timeout_ms` for a job; nullopt on timeout, or when
    /// the queue is closed and fully drained.
    std::optional<IngestJob> pop(int timeout_ms);

    /// Stops accepting pushes; pop keeps draining what is queued.
    void close();

    [[nodiscard]] std::size_t depth() const;
    /// High-water mark of depth() over the queue's lifetime.
    [[nodiscard]] std::size_t peak() const;
    [[nodiscard]] std::size_t capacity() const { return capacity_; }

  private:
    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::condition_variable ready_;
    std::deque<IngestJob> jobs_;
    std::size_t peak_ = 0;
    bool closed_ = false;
};

/// Daemon lifecycle knobs (transport-level; model knobs live in
/// ServeConfig, validated there).
struct DaemonOptions {
    std::string socket_path;
    /// Metrics report path (written atomically); empty disables.
    std::string metrics_path;
    /// Rewrite the metrics report every N applied windows (crash
    /// observability); <= 0 writes only the final report on drain.
    int metrics_every_windows = 64;
    /// Backpressure hint returned with "busy" responses.
    double retry_after_ms = 25.0;
    /// Test seam: the worker sleeps this long before each apply, so a
    /// backpressure test can fill the queue deterministically.
    double apply_delay_ms = 0.0;
    /// Drain trigger (SIGTERM/SIGINT in the CLI): once set, stop
    /// accepting, finish queued windows, flush, exit. Not owned; null =
    /// shutdown request over the socket is the only way out.
    const std::atomic<bool>* stop = nullptr;
};

/// The atmd daemon: a Unix-socket listener feeding one ServeEngine
/// through a bounded IngestQueue. One worker thread owns the engine (so
/// apply stays single-threaded by construction); one reader thread per
/// connection parses requests and enqueues; the accept loop runs on the
/// caller's thread inside run().
class ServeDaemon {
  public:
    /// Validates config (via ServeEngine) and binds the socket. Throws
    /// std::invalid_argument / std::runtime_error on failure.
    ServeDaemon(const trace::Trace& trace, ServeConfig config,
                DaemonOptions options);
    ~ServeDaemon();

    /// Serves until the stop flag is set or a client sends "shutdown",
    /// then drains queued windows, writes the final metrics report, and
    /// closes the journal. Returns 0 on a clean drain, 2 when the final
    /// metrics report could not be written.
    int run();

    /// The bound socket path (run() must not have returned yet).
    [[nodiscard]] const std::string& socket_path() const;

  private:
    /// True once the stop flag is set or a client asked for shutdown.
    [[nodiscard]] bool stopping() const;
    void reader_loop(std::shared_ptr<Connection> conn);
    void worker_loop();
    void handle_window(const std::shared_ptr<Connection>& conn,
                       const Request& request);
    /// Serialized metrics report: {"schema", "command", "engine",
    /// "transport"} — "transport" carries wall-clock-dependent transport
    /// counters and is stripped by the comparison script.
    [[nodiscard]] std::string build_report();
    void write_report();

    ServeConfig config_;
    DaemonOptions options_;
    std::unique_ptr<ServeEngine> engine_;
    std::mutex engine_mutex_;  ///< worker applies; stat readers snapshot
    exec::UnixListener listener_;
    IngestQueue queue_;
    obs::MetricsRegistry transport_;
    /// Per-box (epoch, delivery count) so client re-sends of the same
    /// window re-roll the "serve.ingest" fault draw (FaultContext::attempt).
    std::mutex delivery_mutex_;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> deliveries_;
    std::atomic<bool> shutdown_requested_{false};
};

}  // namespace atm::serve
