/**
 * @file
 * The homeless LRC diff store: every diff a node created or applied,
 * saved "for possible future transmission" (Section 5.2 of the paper)
 * until barrier-time GC proves no node can still ask for it.
 *
 * The store is indexed by page, then by writer, and each writer's
 * diffs of a page sit in one append-only list in interval order. That
 * shape follows the protocol: a node stores a writer's diffs for a
 * page only as its copy of the page moves past them, and its copy
 * never moves back (PageMeta::copyVt only grows), so appends arrive in
 * interval order; a request asks for everything newer than the
 * requester's copy, which is a suffix of each list; and GC drops
 * everything up to a vector time, which is a prefix of each list. A
 * batch request therefore costs time in the diffs it sends, not in the
 * diffs the node stores.
 *
 * Locking is the caller's: LrcRuntime appends and prunes under its
 * diff lock (and the node core lock), and reads under the diff lock.
 */

#ifndef DSM_CORE_DIFF_INDEX_HH
#define DSM_CORE_DIFF_INDEX_HH

#include <cstdint>
#include <map>
#include <vector>

#include "mem/diff.hh"
#include "net/serde.hh"
#include "sync/vector_time.hh"
#include "util/types.hh"

namespace dsm {

class DiffIndex
{
  public:
    /** Per-diff tuple header of a batch reply: proc (u16), interval
     *  (u32) and the interval's vector-time sum (u64). The diff image
     *  itself travels out of line, as a message image. */
    static constexpr std::uint64_t kReplyHeaderBytes = 2 + 4 + 8;

    /**
     * Store writer @p proc's diff of @p page for its interval @p idx,
     * whose vector time sums to @p vt_sum (the apply order). @p idx
     * must exceed every interval already stored for (page, proc).
     */
    void put(PageId page, NodeId proc, std::uint32_t idx,
             std::uint64_t vt_sum, Diff diff);

    /**
     * Write the reply section for @p page to a requester whose copy
     * reflects @p req_vt: a u32 count, then one header per stored diff
     * newer than req_vt (writers ascending, intervals ascending), and
     * append the diffs' images to @p images in the same order.
     * Returns the image bytes appended.
     */
    std::uint64_t encodeNewer(PageId page, const VectorTime &req_vt,
                              WireWriter &w,
                              std::vector<Image> &images) const;

    /** Drop every diff whose interval is at or below @p gc_vt for its
     *  writer; returns how many were dropped. */
    std::uint64_t pruneThrough(const VectorTime &gc_vt);

    /** Diffs stored. */
    std::size_t size() const { return count; }

    void clear();

    /** Checkpoint section: a u32 count, then (u32 page, u64
     *  packTs(proc, idx), image, u64 vtSum) ordered by page, writer
     *  and interval. */
    void serialize(WireWriter &w) const;
    void restoreFrom(WireReader &r);

  private:
    struct Entry
    {
        std::uint32_t idx = 0;
        std::uint64_t vtSum = 0;
        Diff diff;
    };

    /** One writer's diffs of one page; entries before @c head are
     *  pruned and compacted away once they outnumber the live ones. */
    struct WriterLog
    {
        std::vector<Entry> entries;
        std::size_t head = 0;

        std::size_t live() const { return entries.size() - head; }
    };

    /** Page -> writer logs indexed by proc (grown on demand). */
    std::map<PageId, std::vector<WriterLog>> pages;
    std::size_t count = 0;
};

/**
 * One diff of a batch reply, tagged with its page and interval. The
 * image stays unread until the apply, which checks it and only then
 * makes the Diff; a duplicate (another responder's copy of a diff
 * already applied) is dropped unread.
 */
struct FetchedDiff
{
    PageId page = 0;
    NodeId proc = 0;
    std::uint32_t idx = 0;
    std::uint64_t vtSum = 0;
    Image image;
};

/**
 * Sort @p fetched into apply order: grouped by page, and within each
 * page a linear extension of happens-before (vector-time sum, then
 * writer, then interval) — the same per-page order as a global sum
 * order, since diffs of different pages touch disjoint bytes.
 */
void sortForApply(std::vector<FetchedDiff> &fetched);

} // namespace dsm

#endif // DSM_CORE_DIFF_INDEX_HH
