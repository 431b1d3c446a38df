#include "exec/shard.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <utility>

#include "exec/thread_pool.hpp"

namespace atm::exec {

ThreadPool& shared_pool(unsigned min_helpers) {
    if (min_helpers == 0) min_helpers = 1;
    static ThreadPool pool(min_helpers);
    if (pool.size() < min_helpers) pool.grow(min_helpers);
    return pool;
}

std::size_t resolve_shard_size(std::size_t n, unsigned workers) {
    if (n == 0) return 1;
    if (workers == 0) workers = 1;
    // ~8 shards per worker balances stragglers (a worker stuck on a slow
    // box strands at most 1/8 of its share) while keeping claims rare;
    // capped so tiny fleets still produce one shard per worker.
    const std::size_t target = n / (std::size_t{8} * workers);
    return std::clamp<std::size_t>(target, 1, 64);
}

namespace {

/// Shared state of one run_sharded call: the claim unit is a shard of
/// contiguous indices, and each drainer carries a dense worker id.
/// Heap-allocated and owned jointly by caller and helpers so a helper
/// scheduled after the caller already drained everything (its pool
/// thread was still busy, say with a previous run's last box) finds the
/// state alive and exits as a no-op.
struct ShardedState {
    std::function<void(unsigned, std::size_t)> fn;
    std::size_t n = 0;
    std::size_t shard = 1;
    std::size_t num_shards = 0;
    std::atomic<std::size_t> next_shard{0};
    std::atomic<std::size_t> completed{0};
    /// Lowest index that has thrown (SIZE_MAX while none has). An index
    /// is skipped only when a lower one has already thrown, so the lowest
    /// thrower always runs and its exception is the one kept: a pure
    /// function of fn, independent of sharding and scheduling.
    std::atomic<std::size_t> error_index{SIZE_MAX};
    std::exception_ptr error;
    std::mutex error_mutex;
    std::mutex done_mutex;
    std::condition_variable done_cv;

    void drain(unsigned worker) {
        for (;;) {
            const std::size_t s = next_shard.fetch_add(1);
            if (s >= num_shards) return;
            run_shard(worker, s);
        }
    }

    void run_shard(unsigned worker, std::size_t s) {
        const std::size_t begin = s * shard;
        const std::size_t end = std::min(n, begin + shard);
        for (std::size_t i = begin; i < end; ++i) {
            if (i < error_index.load(std::memory_order_acquire)) {
                try {
                    fn(worker, i);
                } catch (...) {
                    const std::lock_guard<std::mutex> lock(error_mutex);
                    if (i < error_index.load(std::memory_order_relaxed)) {
                        error_index.store(i, std::memory_order_release);
                        error = std::current_exception();
                    }
                }
            }
        }
        // Whole shards complete at once; completed == n still means
        // no fn invocation is in flight (skipped indices count too).
        const std::size_t done = end - begin;
        if (completed.fetch_add(done) + done == n) {
            const std::lock_guard<std::mutex> lock(done_mutex);
            done_cv.notify_all();
        }
    }
};

}  // namespace

void run_sharded(ThreadPool* pool, std::size_t n, const ShardOptions& options,
                 const std::function<void(unsigned, std::size_t)>& fn) {
    if (n == 0) return;
    unsigned workers = options.workers;
    if (workers == 0) workers = (pool == nullptr ? 0 : pool->size()) + 1;
    if (workers < 1) workers = 1;

    if (pool == nullptr || workers == 1 || n == 1) {
        // Serial: ascending order means the first exception is already the
        // lowest-index one; let it propagate directly.
        for (std::size_t i = 0; i < n; ++i) fn(0, i);
        return;
    }

    auto state = std::make_shared<ShardedState>();
    state->fn = fn;
    state->n = n;
    state->shard = resolve_shard_size(n, workers);
    state->num_shards = (n + state->shard - 1) / state->shard;

    // The caller claims shard 0 before any helper exists, so worker 0
    // always participates, however fast the helpers start.
    const std::size_t first = state->next_shard.fetch_add(1);

    // Worker ids are handed out here, not claimed from a counter inside
    // the task: id h+1 belongs to helper h even if it never runs, so ids
    // stay dense in [0, workers) and each maps to one workspace slot.
    const std::size_t helpers =
        std::min<std::size_t>(workers - 1, state->num_shards - 1);
    for (std::size_t h = 0; h < helpers; ++h) {
        const unsigned worker = static_cast<unsigned>(h + 1);
        pool->submit([state, worker] { state->drain(worker); });
    }

    state->run_shard(0, first);
    state->drain(0);
    {
        std::unique_lock<std::mutex> lock(state->done_mutex);
        state->done_cv.wait(
            lock, [&state] { return state->completed.load() == state->n; });
    }
    if (state->error_index.load() != SIZE_MAX) {
        // Take the exception out of the shared state: a helper that runs
        // late may drop the last reference to the state, and the caller
        // that handles the exception must be the one to destroy it.
        std::rethrow_exception(std::exchange(state->error, nullptr));
    }
}

}  // namespace atm::exec
