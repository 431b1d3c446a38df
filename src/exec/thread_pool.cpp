#include "exec/thread_pool.hpp"

#include <utility>

namespace atm::exec {

ThreadPool::ThreadPool(unsigned threads) {
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0) threads = 1;
    }
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
    size_.store(threads, std::memory_order_release);
}

void ThreadPool::grow(unsigned threads) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    while (workers_.size() < threads) {
        workers_.emplace_back([this] { worker_loop(); });
    }
    size_.store(static_cast<unsigned>(workers_.size()),
                std::memory_order_release);
}

ThreadPool::~ThreadPool() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_available_.notify_all();
    for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    work_available_.notify_one();
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_available_.wait(lock,
                                 [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) return;  // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

}  // namespace atm::exec
