#include "serve/daemon.hpp"

#include <atomic>
#include <chrono>
#include <thread>

#include "core/metrics_report.hpp"
#include "exec/fault.hpp"
#include "exec/io.hpp"
#include "obs/json.hpp"

namespace atm::serve {

namespace {
/// Poll period of the accept loop and reader loops: how quickly a drain
/// request is observed when a connection is idle.
constexpr int kPollMs = 200;
}  // namespace

// ---------------------------------------------------------------------------
// IngestQueue

bool IngestQueue::try_push(IngestJob job) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (closed_ || jobs_.size() >= capacity_) return false;
        jobs_.push_back(std::move(job));
        peak_ = std::max(peak_, jobs_.size());
    }
    ready_.notify_one();
    return true;
}

std::optional<IngestJob> IngestQueue::pop(int timeout_ms) {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                    [this] { return !jobs_.empty() || closed_; });
    if (jobs_.empty()) return std::nullopt;
    IngestJob job = std::move(jobs_.front());
    jobs_.pop_front();
    return job;
}

void IngestQueue::close() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
    }
    ready_.notify_all();
}

std::size_t IngestQueue::depth() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return jobs_.size();
}

std::size_t IngestQueue::peak() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return peak_;
}

// ---------------------------------------------------------------------------
// ServeDaemon

ServeDaemon::ServeDaemon(const trace::Trace& trace, ServeConfig config,
                         DaemonOptions options)
    : config_(std::move(config)),
      options_(std::move(options)),
      engine_(std::make_unique<ServeEngine>(trace, config_)),
      queue_(static_cast<std::size_t>(config_.queue_depth)) {
    if (options_.socket_path.empty()) {
        throw std::invalid_argument("serve daemon: socket path is required");
    }
    deliveries_.assign(static_cast<std::size_t>(engine_->num_boxes()),
                       {0, 0});
    listener_ = exec::UnixListener::bind(options_.socket_path);
}

ServeDaemon::~ServeDaemon() = default;

const std::string& ServeDaemon::socket_path() const {
    return listener_.path();
}

bool ServeDaemon::stopping() const {
    return (options_.stop != nullptr && options_.stop->load()) ||
           shutdown_requested_.load(std::memory_order_acquire);
}

int ServeDaemon::run() {
    std::thread worker([this] { worker_loop(); });
    std::vector<std::thread> readers;
    std::atomic<bool> draining{false};

    while (!draining.load(std::memory_order_acquire)) {
        if (stopping()) {
            draining.store(true, std::memory_order_release);
            break;
        }
        exec::UnixSocket socket = listener_.accept(kPollMs);
        if (!socket.valid()) continue;
        transport_.add("transport.connections");
        auto conn = std::make_shared<Connection>(std::move(socket));
        readers.emplace_back(
            [this, conn = std::move(conn)] { reader_loop(conn); });
    }

    // Drain: no new connections; readers exit on their next poll (they
    // observe the same stop conditions), then the worker finishes every
    // queued window before the journal flushes its last record.
    listener_.close();
    for (std::thread& reader : readers) reader.join();
    queue_.close();
    worker.join();

    int exit_code = 0;
    if (!options_.metrics_path.empty()) {
        try {
            write_report();
        } catch (const std::exception&) {
            exit_code = 2;
        }
    }
    {
        const std::lock_guard<std::mutex> lock(engine_mutex_);
        engine_->close();
    }
    return exit_code;
}

void ServeDaemon::reader_loop(std::shared_ptr<Connection> conn) {
    while (true) {
        if (stopping()) {
            return;
        }
        bool eof = false;
        std::optional<std::string> line;
        try {
            line = conn->socket.read_line(kPollMs, &eof);
        } catch (const std::exception&) {
            return;  // oversize line or socket error: drop the connection
        }
        if (!line.has_value()) {
            if (eof) return;
            continue;  // idle poll round
        }
        Request request;
        try {
            request = parse_request(*line);
        } catch (const std::exception& error) {
            transport_.add("transport.bad_requests");
            if (!conn->send(encode_error(error.what()))) return;
            continue;
        }
        switch (request.type) {
            case Request::Type::kHello: {
                if (request.proto != kServeProtocol) {
                    transport_.add("transport.bad_requests");
                    conn->send(encode_error(
                        "unsupported protocol '" + request.proto +
                        "', daemon speaks " + kServeProtocol));
                    return;
                }
                if (!conn->send(encode_hello_response(engine_->num_boxes(),
                                                      engine_->resumed()))) {
                    return;
                }
                break;
            }
            case Request::Type::kWindow:
                handle_window(conn, request);
                break;
            case Request::Type::kStat: {
                std::string report;
                try {
                    report = build_report();
                } catch (const std::exception& error) {
                    conn->send(encode_error(error.what()));
                    break;
                }
                if (!conn->send(encode_stat_response(report))) return;
                break;
            }
            case Request::Type::kShutdown: {
                conn->send(encode_ok());
                shutdown_requested_.store(true, std::memory_order_release);
                return;
            }
        }
    }
}

void ServeDaemon::handle_window(const std::shared_ptr<Connection>& conn,
                                const Request& request) {
    const int box_index = engine_->find_box(request.box);
    if (box_index < 0) {
        transport_.add("transport.bad_requests");
        conn->send(encode_error("unknown box '" + request.box + "'"));
        return;
    }

    // "serve.ingest" chaos site: a firing rule models a transient ingest
    // failure (e.g. a dropped datagram) — reported as "busy" so a
    // well-behaved client re-sends, which re-rolls the draw via the
    // delivery count in FaultContext::attempt.
    if (!config_.faults.empty()) {
        std::uint64_t delivery = 0;
        {
            const std::lock_guard<std::mutex> lock(delivery_mutex_);
            auto& [epoch, count] = deliveries_[static_cast<std::size_t>(box_index)];
            if (epoch != request.epoch) {
                epoch = request.epoch;
                count = 0;
            }
            delivery = count++;
        }
        exec::FaultContext fault;
        fault.plan = &config_.faults;
        fault.entity = static_cast<std::uint64_t>(box_index);
        fault.attempt = delivery;
        fault.epoch = request.epoch + 1;
        try {
            ATM_FAULT_SITE(fault, "serve.ingest");
        } catch (const exec::InjectedFault&) {
            transport_.add("serve.rejected.fault");
            conn->send(encode_busy(options_.retry_after_ms));
            return;
        }
    }

    IngestJob job;
    job.update.box_index = box_index;
    job.update.epoch = request.epoch;
    job.update.cpu = request.cpu;
    job.update.ram = request.ram;
    job.conn = conn;  // shared: the job may outlive the reader loop
    if (!queue_.try_push(std::move(job))) {
        transport_.add("serve.rejected.backpressure");
        conn->send(encode_busy(options_.retry_after_ms));
    }
}

void ServeDaemon::worker_loop() {
    std::uint64_t applied_since_report = 0;
    while (true) {
        std::optional<IngestJob> job = queue_.pop(kPollMs);
        if (!job.has_value()) {
            // Either an idle poll round or a closed-and-drained queue.
            if (queue_.depth() == 0 && stopping()) {
                return;
            }
            continue;
        }
        if (options_.apply_delay_ms > 0.0) {
            std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
                options_.apply_delay_ms));
        }
        ApplyOutcome outcome;
        {
            const std::lock_guard<std::mutex> lock(engine_mutex_);
            outcome = engine_->apply(job->update);
        }
        if (job->conn != nullptr) job->conn->send(encode_ack(outcome));
        if (outcome.status == ApplyStatus::kApplied ||
            outcome.status == ApplyStatus::kWarming) {
            ++applied_since_report;
            if (!options_.metrics_path.empty() &&
                options_.metrics_every_windows > 0 &&
                applied_since_report >=
                    static_cast<std::uint64_t>(options_.metrics_every_windows)) {
                applied_since_report = 0;
                try {
                    write_report();
                } catch (const std::exception&) {
                    transport_.add("transport.report_failures");
                }
            }
        }
    }
}

std::string ServeDaemon::build_report() {
    obs::MetricsSnapshot engine_metrics;
    {
        const std::lock_guard<std::mutex> lock(engine_mutex_);
        engine_metrics = engine_->metrics();
    }
    obs::MetricsSnapshot transport = transport_.snapshot();
    transport.gauges["transport.queue.capacity"] =
        static_cast<double>(queue_.capacity());
    transport.gauges["transport.queue.peak"] =
        static_cast<double>(queue_.peak());

    obs::json::Value report = obs::json::Value::make_object();
    report.set("schema", obs::json::Value::of("atm.serve-metrics.v1"));
    report.set("command", obs::json::Value::of("serve"));
    // "engine" is deterministic (the resume-equivalence contract);
    // "transport" is wall-clock/schedule-dependent by nature and is
    // stripped by compare_metrics_reports.py, like timers.
    report.set("engine", obs::json::to_json(engine_metrics));
    report.set("transport", obs::json::to_json(transport));
    return obs::json::serialize(report, 2) + "\n";
}

void ServeDaemon::write_report() {
    exec::write_file_atomic(options_.metrics_path, build_report());
}

}  // namespace atm::serve
