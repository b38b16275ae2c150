/**
 * @file
 * Storage for twins: unmodified copies of shared data used by the
 * twinning write-trapping method (Section 4.2 of the paper).
 *
 * Two kinds are kept:
 *  - page twins, used by LRC and by EC for large objects
 *    (copy-on-write via the software MMU);
 *  - range twins keyed by lock, used by EC for small objects, which
 *    are copied eagerly when the write lock is acquired (the paper's
 *    improvement over the Midway VM implementation).
 *
 * Page twins are made once per write fault and dropped once per
 * interval close, so the store recycles their buffers itself: a
 * dropped twin's buffer goes back on the store's free list and the
 * next fault reuses it, so the store allocates only as many buffers as
 * the peak number of live twins. Each page has one slot pointing at
 * its twin (or null); the slot table is an anonymous mapping, so the
 * kernel materializes only the parts of it that pages actually twin.
 * The live twins sit in one dense array, so twinnedPages() costs time
 * in the live twins, not in the arena's pages.
 */

#ifndef DSM_MEM_TWIN_STORE_HH
#define DSM_MEM_TWIN_STORE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/serde.hh"
#include "util/types.hh"

namespace dsm {

/**
 * Thread-safety (SMP nodes): hasPage() is one atomic load of the
 * page's slot and takes no lock. Making and dropping page twins and
 * all range-twin operations take an internal leaf mutex, held only
 * while a buffer moves between the live array and the free list, so
 * concurrent calls from sibling threads are safe on their own. The
 * twin *bytes* a returned pointer or reference points at are guarded
 * by the caller's lock discipline instead: page twin contents are only
 * touched while holding that page's memory shard lock, range twin
 * contents under the protocol core lock — the same holder that makes
 * or drops the twin, so a pointer can never outlive its twin. A slot
 * is published with release order after the twin's bytes are copied,
 * so a thread that sees the slot also sees the bytes.
 */
class TwinStore
{
  public:
    /** A store for the twins of @p num_pages pages of @p page_size
     *  bytes each. */
    TwinStore(std::size_t num_pages, std::size_t page_size);
    ~TwinStore();

    TwinStore(const TwinStore &) = delete;
    TwinStore &operator=(const TwinStore &) = delete;

    /** Copy the page_size bytes at @p src as the twin of @p page. */
    void makePage(PageId page, const std::byte *src);

    bool
    hasPage(PageId page) const
    {
        return slot(page).load(std::memory_order_acquire) != nullptr;
    }

    /** Twin bytes of @p page (page_size of them); page must be
     *  twinned. */
    const std::byte *pageTwin(PageId page) const;

    /** Mutable twin bytes (for refreshing after a flush). */
    std::byte *pageTwinMut(PageId page);

    void dropPage(PageId page);

    /** Pages currently twinned (unordered). */
    std::vector<PageId> twinnedPages() const;

    /** Copy the concatenated bytes of a lock's bound ranges. */
    void makeRange(LockId lock, std::vector<std::byte> bytes);

    bool
    hasRange(LockId lock) const
    {
        std::lock_guard<std::mutex> g(structMu);
        return rangeTwins.count(lock) != 0;
    }

    const std::vector<std::byte> &rangeTwin(LockId lock) const;

    void dropRange(LockId lock);

    /** Drop every twin; page buffers stay on the free list. */
    void clear();

    /** Checkpoint support: capture / rebuild both kinds of twin. */
    void serialize(WireWriter &w) const;
    void restoreFrom(WireReader &r);

    std::size_t
    numPageTwins() const
    {
        std::lock_guard<std::mutex> g(structMu);
        return liveCount;
    }

    /** Page-twin buffers allocated so far (live + free list): the
     *  peak number of live page twins. */
    std::size_t
    numPageBuffers() const
    {
        std::lock_guard<std::mutex> g(structMu);
        return buffers.size();
    }

  private:
    /** One page-twin buffer, live or on the free list. */
    struct PageTwin
    {
        PageId page = 0;
        std::uint32_t pos = 0; ///< index in buffers
        std::unique_ptr<std::byte[]> bytes;
    };

    std::atomic_ref<PageTwin *>
    slot(PageId page) const
    {
        return std::atomic_ref<PageTwin *>(slots[page]);
    }

    /** The twin in @p page's slot; asserts the page is twinned. */
    PageTwin *twinOf(PageId page) const;

    const std::size_t numPages;
    const std::size_t pageBytes;
    /** numPages slots, null when untwinned; an anonymous mapping, so
     *  untouched parts cost no memory. Accessed only atomically. */
    PageTwin **slots = nullptr;

    /** Leaf lock: guards buffers/liveCount and rangeTwins, never held
     *  while calling out. */
    mutable std::mutex structMu;
    /** Every page-twin buffer: [0, liveCount) are live, the rest is
     *  the free list. A buffer's pos is its index here. */
    std::vector<std::unique_ptr<PageTwin>> buffers;
    std::size_t liveCount = 0;
    std::unordered_map<LockId, std::vector<std::byte>> rangeTwins;
};

} // namespace dsm

#endif // DSM_MEM_TWIN_STORE_HH
