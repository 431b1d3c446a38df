#pragma once

#include <cstddef>
#include <functional>

namespace atm::exec {

class ThreadPool;

/// Process-wide persistent thread pool for fleet runs. Constructed on
/// first use and grown (never shrunk) to satisfy the largest
/// `min_helpers` seen, so repeated fleet runs — benches sweeping --jobs,
/// resumed checkpoints, CLI invocations in one process — reuse warm
/// threads instead of paying a spawn/join cycle per run.
ThreadPool& shared_pool(unsigned min_helpers);

/// Knobs for run_sharded.
struct ShardOptions {
    /// Total workers including the calling thread (0 = pool size + 1).
    unsigned workers = 0;
};

/// The shard size run_sharded uses for `n` indices on `workers` workers:
/// enough shards to balance, few enough that claiming stays off the hot
/// path. Exposed so the fleet driver can report it.
std::size_t resolve_shard_size(std::size_t n, unsigned workers);

/// Runs `fn(worker, 0) .. fn(worker, n-1)`, partitioning the index space
/// into contiguous shards claimed from a single atomic cursor. Each
/// claimant drains its whole shard before claiming another, so a worker
/// touches long contiguous runs of indices (cache-friendly when indices
/// map to adjacent trace boxes) and the claim rate is 1/shard_size of
/// per-index claiming.
///
/// `worker` is a dense id in [0, workers): the calling thread is always
/// worker 0 and participates fully (the call completes even if the pool
/// is saturated or null); pool helpers get ids 1..workers-1. The id is
/// intended to key per-worker workspaces; results must not depend on
/// which worker ran an index — determinism comes from the index, the
/// worker id only selects equivalent scratch space.
///
/// The program's one parallel loop: the fleet driver runs its boxes
/// through it and nothing inside a box calls it again. The shared shard
/// cursor outlives the call, so a helper that starts only after the
/// caller has drained every shard finds no work and returns. For the
/// same reason nested calls on the same pool would still complete: the
/// caller drains shards itself instead of waiting for a free helper.
///
/// Exception safety: the lowest-index exception is rethrown on the
/// caller after all in-flight work finishes, so the delivered exception
/// is independent of sharding and scheduling; indices above a thrown one
/// may be skipped. The pool stays usable afterwards.
void run_sharded(ThreadPool* pool, std::size_t n, const ShardOptions& options,
                 const std::function<void(unsigned, std::size_t)>& fn);

}  // namespace atm::exec
