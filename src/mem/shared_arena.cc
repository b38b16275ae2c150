#include "mem/shared_arena.hh"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>

#include "util/logging.hh"

namespace dsm {

namespace {

bool
isPowerOfTwo(std::size_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

SharedArena::SharedArena(std::size_t bytes, std::size_t page_size)
    : arenaBytes((bytes + page_size - 1) / page_size * page_size),
      pageBytes(page_size)
{
    DSM_ASSERT(isPowerOfTwo(page_size), "page size must be a power of two");
    void *p = ::mmap(nullptr, arenaBytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    DSM_ASSERT(p != MAP_FAILED, "mmap(%zu-byte arena): %s", arenaBytes,
               std::strerror(errno));
    data = static_cast<std::byte *>(p);
}

SharedArena::~SharedArena()
{
    ::munmap(data, arenaBytes);
}

void
SharedArena::protect()
{
    DSM_ASSERT(::mprotect(data, arenaBytes, PROT_NONE) == 0,
               "mprotect(arena): %s", std::strerror(errno));
}

GlobalAddr
SharedArena::alloc(std::size_t bytes, std::size_t align)
{
    DSM_ASSERT(isPowerOfTwo(align), "alignment must be a power of two");
    std::size_t base = (top + align - 1) & ~(align - 1);
    if (base + bytes > arenaBytes) {
        fatal("shared arena exhausted: need %zu bytes, %zu free "
              "(increase ClusterConfig::arenaBytes)",
              bytes, arenaBytes - base);
    }
    top = base + bytes;
    return static_cast<GlobalAddr>(base);
}

std::vector<PageId>
SharedArena::pagesIn(GlobalAddr addr, std::size_t size) const
{
    std::vector<PageId> pages;
    if (size == 0)
        return pages;
    PageId first = pageOf(addr);
    PageId last = pageOf(addr + size - 1);
    pages.reserve(last - first + 1);
    for (PageId p = first; p <= last; ++p)
        pages.push_back(p);
    return pages;
}

} // namespace dsm
