#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace atm::exec {

/// Fixed-size thread pool with a FIFO work queue.
///
/// Built for the fleet driver's batch shape — many independent per-box
/// tasks — rather than general task graphs: tasks must not block waiting
/// for other pool tasks (use `run_sharded`, whose caller participates in
/// the work, for nested parallelism). Submission order is the order
/// tasks are *started* in; with one worker this is strict FIFO execution.
///
/// The destructor drains the queue: all submitted tasks run before the
/// workers join (shutdown never drops work).
class ThreadPool {
public:
    /// `threads == 0` uses std::thread::hardware_concurrency() (at least 1).
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Number of worker threads. Safe to call concurrently with grow().
    [[nodiscard]] unsigned size() const {
        return size_.load(std::memory_order_acquire);
    }

    /// Adds workers until the pool has at least `threads` of them. Never
    /// shrinks — a persistent pool (see `shared_pool`) only ratchets up to
    /// the largest --jobs seen. Safe to call while tasks are running.
    void grow(unsigned threads);

    /// Enqueues a task. The task must not throw (wrap work that can throw —
    /// `run_sharded` does, capturing the lowest-index exception).
    void submit(std::function<void()> task);

private:
    void worker_loop();

    std::mutex mutex_;
    std::condition_variable work_available_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;  // guarded by mutex_
    std::atomic<unsigned> size_{0};
    bool stopping_ = false;
};

}  // namespace atm::exec
