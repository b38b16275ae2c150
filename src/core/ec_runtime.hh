/**
 * @file
 * Entry consistency runtime (Midway-style; Sections 3.1, 4, 5 of the
 * paper). Shared data is bound to locks; an acquire makes exactly the
 * bound data consistent via an update protocol. Per-lock incarnation
 * numbers order transfers.
 *
 * Write trapping:
 *  - compiler instrumentation: instrumented stores set software dirty
 *    words at the region's block granularity;
 *  - twinning: small objects (<= one page) are twinned eagerly when
 *    the write lock is acquired (this paper's improvement over the
 *    Midway VM scheme); large objects are write-protected and twinned
 *    page-by-page on the first fault.
 *
 * Write collection:
 *  - timestamping: each block carries the incarnation number current
 *    when its change was detected; a grant transmits runs of blocks
 *    newer than the requester's incarnation;
 *  - diffing: each transfer creates a diff tagged with the incarnation;
 *    grants send the diffs the requester lacks; on an exclusive
 *    transfer the diff history migrates with the ownership.
 */

#ifndef DSM_CORE_EC_RUNTIME_HH
#define DSM_CORE_EC_RUNTIME_HH

#include <unordered_map>

#include "core/runtime.hh"
#include "mem/diff.hh"
#include "mem/dirty_bits.hh"
#include "mem/page_table.hh"
#include "mem/twin_store.hh"
#include "mem/word_ts.hh"

namespace dsm {

class EcRuntime : public Runtime
{
  public:
    explicit EcRuntime(const Deps &deps);

    void bindLock(LockId lock, std::vector<Range> ranges) override;
    void rebindLock(LockId lock, std::vector<Range> ranges) override;
    void acquireForRebind(LockId lock) override;

    std::string name() const override;

    /** Checkpoint support (core/checkpoint.hh): protocol state on top
     *  of the base arena/alloc-log image. */
    void serialize(WireWriter &w) const override;
    void restoreFrom(WireReader &r) override;
    void wipeForRecovery() override;

  protected:
    void doRead(GlobalAddr addr, void *dst, std::size_t size) override;
    void doWrite(GlobalAddr addr, const void *src, std::size_t size,
                 bool bulk) override;

  private:
    struct LockInfo
    {
        std::vector<Range> ranges;
        std::uint64_t boundBytes = 0;
        std::uint32_t bindVersion = 0;
        /** Incarnation number: this node has seen all data with
         *  timestamps <= inc. */
        std::uint32_t inc = 0;
        /** Trapping/collection block size (region granularity for
         *  compiler instrumentation, 4 bytes for twinning). */
        std::uint32_t blockSize = 4;
        /** Per-block timestamps over the concatenated ranges. */
        BlockTimestamps ts;
        /** Diff history: (incarnation tag, diff), ascending tags. */
        std::vector<std::pair<std::uint32_t, Diff>> history;
        /**
         * The history covers exactly the transfers in
         * (historyBase, inc]. A requester whose incarnation is at or
         * below historyBase cannot be served incrementally (its diffs
         * were deleted on an earlier exclusive transfer) and receives
         * the full bound data instead.
         */
        std::uint32_t historyBase = 0;
    };

    /** Apply @p fn(arenaAddr, concatOffset, length) per bound piece. */
    template <typename Fn>
    void forEachPiece(const LockInfo &info, Fn fn) const;

    /** Copy the bound ranges into one concatenated buffer. */
    std::vector<std::byte> gatherRanges(const LockInfo &info) const;

    /** Write a concatenated buffer back to the bound ranges. */
    void scatterRanges(const LockInfo &info, const std::byte *buf);

    /** Hold the memory shards of every page @p info's ranges touch
     *  for the returned span's scope. */
    NodeLocks::ShardSpan boundShards(const LockInfo &info);

    LockInfo &info(LockId lock);

    std::uint32_t numBlocks(const LockInfo &info) const;

    /** Install binding state (shared by bind and rebind). */
    void setBinding(LockInfo &info, std::vector<Range> ranges);

    // Lock service hooks.
    std::vector<std::byte> makeRequest(LockId lock, AccessMode mode);
    std::vector<std::byte> makeGrant(LockId lock, AccessMode mode,
                                     NodeId origin, WireReader &req);
    void applyGrant(LockId lock, AccessMode mode, WireReader &r);
    void onAcquired(LockId lock, AccessMode mode);

    /**
     * Run write collection for @p lock: fold trapped changes into the
     * timestamp array or diff history with tag inc+1. Caller holds the
     * node mutex.
     */
    void flushLock(LockId lock, LockInfo &info);

    /** Twin-trapping flush: changed byte runs in concat space. */
    std::vector<Run> twinChanges(LockId lock, LockInfo &info);

    /** Dirty-bit flush: changed byte runs in concat space. */
    std::vector<Run> dirtyChanges(LockInfo &info);

    /** Record changed concat-space *byte* runs with tag. */
    void recordChanges(LockInfo &info, const std::vector<Run> &byte_runs,
                       std::uint32_t tag, std::vector<std::byte> *gathered);

    bool usesTwinning() const
    {
        return cluster->runtime.trap == TrapMethod::Twinning;
    }

    bool usesDiffing() const
    {
        return cluster->runtime.collect == CollectMethod::Diffing;
    }

    std::unordered_map<LockId, LockInfo> lockInfoMap;
    /** Locks being acquired with rebind intent (no-data grants). */
    std::unordered_map<LockId, bool> rebindIntent;
    PageTable pages;   ///< soft protection for large twin-mode objects
    TwinStore twins;
    DirtyBitmap dirty; ///< compiler-instrumentation dirty words
};

} // namespace dsm

#endif // DSM_CORE_EC_RUNTIME_HH
