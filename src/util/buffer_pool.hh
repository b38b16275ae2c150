/**
 * @file
 * Process-wide recycler of byte buffers. The message fast paths
 * (WireWriter payloads, and received payloads the endpoint and the
 * fetch paths hand back) used to allocate a fresh
 * std::vector<std::byte> per message; the pool hands the capacity of
 * retired buffers back to the next producer instead. Page twins do
 * not come from here: the TwinStore recycles its own buffers, since
 * its live twins alone (about 245 per node on SOR) would overflow the
 * pool's bound.
 *
 * Two levels: every thread keeps a small LIFO freelist (no
 * synchronization at all on the hot path) that spills to / refills
 * from a mutex-guarded global cache in half-batches, so the mutex is
 * touched once per kLocalCached/2 operations instead of once per
 * buffer. The whole pool is bounded (a fixed number of parked buffers
 * in total, each capped in capacity) so a burst of large messages
 * cannot pin memory forever.
 *
 * Disabling the pool (see ClusterConfig::pooledBuffers, the DSM_POOL=0
 * ablation) turns acquire/release into plain allocate/free behind one
 * relaxed atomic load — the seed behavior for message payloads,
 * without the process-wide lock the previous implementation still
 * paid when disabled. It no longer touches twins, whose recycling is
 * the TwinStore's own and has no switch.
 */

#ifndef DSM_UTIL_BUFFER_POOL_HH
#define DSM_UTIL_BUFFER_POOL_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace dsm {

class BufferPool
{
  public:
    /** The single process-wide pool. */
    static BufferPool &instance();

    /** Caching limits: how many buffers may be parked at once (local
     *  freelists + global cache), how large a buffer is still worth
     *  keeping, and how many a thread may hold privately. */
    static constexpr std::size_t kMaxCached = 256;
    static constexpr std::size_t kMaxCachedCapacity = 1u << 20;
    static constexpr std::size_t kMinUsefulCapacity = 64;
    static constexpr std::size_t kLocalCached = 32;

    /**
     * Obtain an empty buffer, reusing a cached one when available
     * (thread-local freelist first, then a half-batch refill from the
     * global cache). @p reserve_hint pre-reserves capacity for the
     * expected payload.
     */
    std::vector<std::byte> acquire(std::size_t reserve_hint = 0);

    /** Return a retired buffer; its contents are discarded. Buffers
     *  that are too small, too large, or beyond the cache bound are
     *  simply freed. */
    void release(std::vector<std::byte> &&buf);

    /** Enable/disable recycling (disabled = plain allocate/free). */
    void setEnabled(bool on);

    bool
    enabled() const
    {
        return on.load(std::memory_order_relaxed);
    }

    struct PoolStats
    {
        std::uint64_t acquires = 0;
        std::uint64_t hits = 0;     ///< acquires served from a cache
        std::uint64_t releases = 0;
        std::uint64_t discarded = 0; ///< releases the cache rejected
        std::size_t cached = 0;      ///< buffers currently parked
    };

    PoolStats stats() const;

    /**
     * Drop every cached buffer reachable from this thread (its local
     * freelist plus the global cache) and reset counters (tests,
     * ablations). Other live threads' freelists are untouched; they
     * spill back to the global cache when those threads exit.
     */
    void drain();

  private:
    friend struct BufferPoolLocalCache;

    /** Move half of @p overflow into the global cache (mutex). */
    void spill(std::vector<std::vector<std::byte>> &local);

    /** Refill @p local with up to half its bound from the global
     *  cache; returns false when the global cache was empty. */
    bool refill(std::vector<std::vector<std::byte>> &local);

    /** Thread-exit path: park a dying thread's freelist. */
    void adoptOrphans(std::vector<std::vector<std::byte>> &&bufs);

    std::atomic<bool> on{true};

    // Counters are relaxed atomics: exact under the single-threaded
    // test harness, monotone and near-exact under concurrency.
    mutable std::atomic<std::uint64_t> acquireCount{0};
    mutable std::atomic<std::uint64_t> hitCount{0};
    mutable std::atomic<std::uint64_t> releaseCount{0};
    mutable std::atomic<std::uint64_t> discardCount{0};
    /** Buffers parked across all freelists + the global cache; bounds
     *  admission (>= kMaxCached rejects the release). */
    std::atomic<std::size_t> parked{0};

    mutable std::mutex mu;
    std::vector<std::vector<std::byte>> cache; ///< global spill, LIFO
};

} // namespace dsm

#endif // DSM_UTIL_BUFFER_POOL_HH
