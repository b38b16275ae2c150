#include "mem/twin_store.hh"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/logging.hh"

namespace dsm {

namespace {

std::size_t
slotTableBytes(std::size_t num_pages)
{
    return std::max<std::size_t>(num_pages, 1) * sizeof(void *);
}

} // namespace

TwinStore::TwinStore(std::size_t num_pages, std::size_t page_size)
    : numPages(num_pages), pageBytes(page_size)
{
    // Zero-filled on first touch: an all-null slot table that costs
    // memory only where pages are twinned (the socket tier forks
    // after building every runtime, so eager tables would add up).
    void *p = ::mmap(nullptr, slotTableBytes(numPages),
                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                     -1, 0);
    DSM_ASSERT(p != MAP_FAILED, "mmap(%zu-page twin slot table): %s",
               numPages, std::strerror(errno));
    slots = static_cast<PageTwin **>(p);
}

TwinStore::~TwinStore()
{
    ::munmap(slots, slotTableBytes(numPages));
}

TwinStore::PageTwin *
TwinStore::twinOf(PageId page) const
{
    PageTwin *t = slot(page).load(std::memory_order_acquire);
    DSM_ASSERT(t != nullptr, "page %u not twinned", page);
    return t;
}

void
TwinStore::makePage(PageId page, const std::byte *src)
{
    DSM_ASSERT(page < numPages, "page %u outside the %zu-page arena", page,
               numPages);
    DSM_ASSERT(!hasPage(page), "page %u already twinned", page);
    PageTwin *t = nullptr;
    {
        std::lock_guard<std::mutex> g(structMu);
        if (liveCount == buffers.size()) {
            auto fresh = std::make_unique<PageTwin>();
            fresh->bytes = std::make_unique_for_overwrite<std::byte[]>(
                pageBytes);
            buffers.push_back(std::move(fresh));
        }
        t = buffers[liveCount].get();
        t->page = page;
        t->pos = static_cast<std::uint32_t>(liveCount++);
    }
    std::memcpy(t->bytes.get(), src, pageBytes);
    slot(page).store(t, std::memory_order_release);
}

const std::byte *
TwinStore::pageTwin(PageId page) const
{
    return twinOf(page)->bytes.get();
}

std::byte *
TwinStore::pageTwinMut(PageId page)
{
    return twinOf(page)->bytes.get();
}

void
TwinStore::dropPage(PageId page)
{
    PageTwin *t = slot(page).exchange(nullptr, std::memory_order_acq_rel);
    if (t == nullptr)
        return;
    // Swap the buffer with the last live one: it joins the free list
    // at the head and the live array stays dense.
    std::lock_guard<std::mutex> g(structMu);
    const std::size_t last = --liveCount;
    std::swap(buffers[t->pos], buffers[last]);
    buffers[t->pos]->pos = t->pos;
    t->pos = static_cast<std::uint32_t>(last);
}

std::vector<PageId>
TwinStore::twinnedPages() const
{
    std::lock_guard<std::mutex> g(structMu);
    std::vector<PageId> pages;
    pages.reserve(liveCount);
    for (std::size_t i = 0; i < liveCount; ++i)
        pages.push_back(buffers[i]->page);
    return pages;
}

void
TwinStore::makeRange(LockId lock, std::vector<std::byte> bytes)
{
    std::lock_guard<std::mutex> g(structMu);
    rangeTwins[lock] = std::move(bytes);
}

const std::vector<std::byte> &
TwinStore::rangeTwin(LockId lock) const
{
    std::lock_guard<std::mutex> g(structMu);
    auto it = rangeTwins.find(lock);
    DSM_ASSERT(it != rangeTwins.end(), "lock %u has no range twin", lock);
    return it->second;
}

void
TwinStore::dropRange(LockId lock)
{
    std::lock_guard<std::mutex> g(structMu);
    rangeTwins.erase(lock);
}

void
TwinStore::clear()
{
    std::lock_guard<std::mutex> g(structMu);
    for (std::size_t i = 0; i < liveCount; ++i)
        slot(buffers[i]->page).store(nullptr, std::memory_order_release);
    liveCount = 0;
    rangeTwins.clear();
}

void
TwinStore::serialize(WireWriter &w) const
{
    std::lock_guard<std::mutex> g(structMu);
    w.putU32(static_cast<std::uint32_t>(liveCount));
    for (std::size_t i = 0; i < liveCount; ++i) {
        // The blob layout: a u32 length, then the bytes.
        w.putU32(buffers[i]->page);
        w.putU32(static_cast<std::uint32_t>(pageBytes));
        w.putBytes(buffers[i]->bytes.get(), pageBytes);
    }
    w.putU32(static_cast<std::uint32_t>(rangeTwins.size()));
    for (const auto &[lock, twin] : rangeTwins) {
        w.putU32(lock);
        w.putBlob(twin);
    }
}

void
TwinStore::restoreFrom(WireReader &r)
{
    clear();
    const std::uint32_t npages = r.getU32();
    for (std::uint32_t i = 0; i < npages; ++i) {
        const PageId page = r.getU32();
        const std::vector<std::byte> twin = r.getBlob();
        DSM_ASSERT(twin.size() == pageBytes,
                   "page %u twin is %zu bytes, pages are %zu", page,
                   twin.size(), pageBytes);
        makePage(page, twin.data());
    }
    std::lock_guard<std::mutex> g(structMu);
    const std::uint32_t nranges = r.getU32();
    for (std::uint32_t i = 0; i < nranges; ++i) {
        const LockId lock = r.getU32();
        rangeTwins.emplace(lock, r.getBlob());
    }
}

} // namespace dsm
