/**
 * @file
 * Per-node backing store for the shared virtual address space.
 *
 * Every node holds its own SharedArena of identical size and performs
 * the identical allocation sequence (the applications are SPMD), so a
 * GlobalAddr — an offset into the arena — denotes the same object on
 * every node. This reproduces the shared-heap convention of Midway and
 * TreadMarks without address-space tricks.
 *
 * The backing is one shared anonymous mapping (MAP_SHARED |
 * MAP_ANONYMOUS). The kernel zero-fills each page on first touch, so
 * constructing an arena costs no memset and a page the run never
 * touches costs no memory. Being shared, the mapping survives fork():
 * a socket-tier node process writes its final memory straight into
 * the parent's view of its arena, with no dump to fold back. A node
 * process maps every other node's arena PROT_NONE (protect()), so a
 * stray access into a foreign arena kills the process with SIGSEGV
 * instead of silently corrupting the parent's view.
 */

#ifndef DSM_MEM_SHARED_ARENA_HH
#define DSM_MEM_SHARED_ARENA_HH

#include <cstddef>
#include <vector>

#include "util/types.hh"

namespace dsm {

class SharedArena
{
  public:
    /**
     * @param bytes Arena capacity (rounded up to a whole page).
     * @param page_size Virtual page size; must be a power of two.
     */
    SharedArena(std::size_t bytes, std::size_t page_size);
    ~SharedArena();

    SharedArena(const SharedArena &) = delete;
    SharedArena &operator=(const SharedArena &) = delete;

    /** Bump allocation; deterministic, symmetric across nodes. */
    GlobalAddr alloc(std::size_t bytes, std::size_t align = 8);

    /** Local pointer for @p addr on this node. */
    std::byte *
    at(GlobalAddr addr)
    {
        return data + addr;
    }

    const std::byte *
    at(GlobalAddr addr) const
    {
        return data + addr;
    }

    std::size_t size() const { return arenaBytes; }
    std::size_t pageSize() const { return pageBytes; }
    std::size_t numPages() const { return arenaBytes / pageBytes; }

    PageId
    pageOf(GlobalAddr addr) const
    {
        return static_cast<PageId>(addr / pageBytes);
    }

    GlobalAddr
    pageBase(PageId page) const
    {
        return static_cast<GlobalAddr>(page) * pageBytes;
    }

    /** Bytes allocated so far. */
    std::size_t used() const { return top; }

    /** True when [addr, addr+bytes) lies inside the allocated area. */
    bool
    contains(GlobalAddr addr, std::size_t bytes) const
    {
        return addr + bytes <= top && addr + bytes >= addr;
    }

    /** Pages overlapped by the byte range [addr, addr + size). */
    std::vector<PageId> pagesIn(GlobalAddr addr, std::size_t size) const;

    /** Make the whole arena inaccessible (PROT_NONE): any later access
     *  through at() raises SIGSEGV. A node process applies this to
     *  every arena but its own. */
    void protect();

  private:
    std::byte *data;
    std::size_t arenaBytes;
    std::size_t pageBytes;
    std::size_t top = 0;
};

} // namespace dsm

#endif // DSM_MEM_SHARED_ARENA_HH
