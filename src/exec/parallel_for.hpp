#pragma once

#include <cstddef>
#include <functional>

namespace atm::exec {

/// Runs `fn(0) .. fn(n-1)` on up to `workers` threads: the program's one
/// parallel loop, run by the fleet over its boxes.
///
/// The calling thread is the first worker; each call starts
/// `min(workers, n) - 1` helper threads and joins them before it returns,
/// so nothing outlives the call. Every worker claims one index at a time
/// from a shared atomic cursor. `workers <= 1` (or `n <= 1`) runs every
/// index inline, in order, on the caller. If a helper cannot be started,
/// the workers already running finish the loop.
///
/// Nothing identifies the worker that runs an index: results must depend
/// on the index alone. Nested calls complete (each starts its own
/// helpers).
///
/// Exception safety: the lowest-index exception is rethrown on the caller
/// after every worker has finished, so the delivered exception does not
/// depend on scheduling; indices above a thrown one may be skipped.
void parallel_for(std::size_t n, unsigned workers,
                  const std::function<void(std::size_t)>& fn);

}  // namespace atm::exec
