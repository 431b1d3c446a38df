#include "exec/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace atm::exec {

void parallel_for(std::size_t n, unsigned workers,
                  const std::function<void(std::size_t)>& fn) {
    const std::size_t threads = std::min<std::size_t>(workers, n);
    if (threads <= 1) {
        // Ascending order: the first exception is already the lowest-index
        // one, so it propagates directly.
        for (std::size_t i = 0; i < n; ++i) fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    // Lowest index that has thrown (SIZE_MAX while none has). An index is
    // skipped only when a lower one has already thrown, so the lowest
    // thrower always runs and its exception is the one kept.
    std::atomic<std::size_t> error_index{SIZE_MAX};
    std::exception_ptr error;
    std::mutex error_mutex;
    const auto drain = [&] {
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
            if (i > error_index.load()) continue;
            try {
                fn(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (i < error_index.load()) {
                    error_index.store(i);
                    error = std::current_exception();
                }
            }
        }
    };
    {
        std::vector<std::jthread> helpers;
        helpers.reserve(threads - 1);
        try {
            for (std::size_t h = 1; h < threads; ++h) helpers.emplace_back(drain);
        } catch (const std::system_error&) {
            // Out of threads: the caller and the helpers already started
            // still drain every index.
        }
        drain();
    }  // ~jthread joins every helper
    if (error) std::rethrow_exception(error);
}

}  // namespace atm::exec
