#include "core/runtime.hh"

#include "core/checkpoint.hh"
#include "util/futex.hh"
#include "util/logging.hh"

namespace dsm {

Runtime::Runtime(const Deps &deps)
    : id(deps.self), numProcs(deps.nprocs),
      threadsT(deps.threadsPerNode), arena(deps.arena),
      ep(deps.endpoint), locks(deps.locks), barriers(deps.barriers),
      regions(deps.regions), nl(deps.nodeLocks), cluster(deps.cluster)
{
    DSM_ASSERT(arena && ep && locks && barriers && regions && nl &&
                   cluster,
               "incomplete runtime wiring");
    DSM_ASSERT(threadsT >= 1, "bad threadsPerNode %d", threadsT);
}

GlobalAddr
Runtime::sharedAlloc(std::size_t bytes, std::size_t align,
                     std::uint32_t block_size, const std::string &name)
{
    std::lock_guard<std::mutex> g(allocMu);
    ThreadContext *ctx = ThreadContext::current();
    if (ctx && ctx->allocCursor < allocLog.size()) {
        // A sibling thread already performed this allocation of the
        // node's SPMD sequence; replay its address.
        return allocLog[ctx->allocCursor++];
    }
    GlobalAddr addr = arena->alloc(bytes, align);
    // Zero-size allocations (empty worker partitions on wide SMP
    // grids) get a valid address but no region: they share it with
    // the next allocation and would otherwise collide in the table.
    if (bytes > 0)
        regions->add({addr, bytes, block_size, name});
    allocLog.push_back(addr);
    if (ctx)
        ctx->allocCursor = static_cast<std::uint32_t>(allocLog.size());
    return addr;
}

void
Runtime::initRaw(GlobalAddr addr, const void *src, std::size_t size)
{
    if (size == 0)
        return;
    // Serialize against sibling initializers and protocol page access;
    // every thread writes the same SPMD-identical image, so repeats
    // are overwrites with identical bytes.
    NodeLocks::ShardSpan span(*nl, arena->pageOf(addr),
                              arena->pageOf(addr + size - 1));
    std::memcpy(arena->at(addr), src, size);
}

void
Runtime::acquire(LockId lock, AccessMode mode)
{
    locks->acquire(lock, mode);
}

void
Runtime::release(LockId lock)
{
    locks->release(lock);
}

void
Runtime::barrier(BarrierId barrier)
{
    // The checkpoint rendezvous runs before the protocol's own
    // pre-barrier work: at that point no thread is mid-acquire or
    // mid-wait, which is what makes the cut consistent.
    if (ckptCoord)
        ckptCoord->atBarrier(*this, barrier);
    preBarrier();
    barriers->wait(barrier);
}

void
Runtime::chargeWork(std::uint64_t units)
{
    ep->clock().add(units * costModel().workUnitNs);
    ep->stats().workUnits += units;
}

void
Runtime::pollIdle()
{
    // Virtual-clock accounting is identical with the knob on or off —
    // the blocking dequeue changes where wall-clock goes, never the
    // modeled time — so final states stay bit-identical.
    chargeWork(400);
    if (!ep->blockingDequeueOn())
        return;
    ep->stats().idlePolls++;
    // Adaptive spin before parking: a poller whose last wait parked
    // skips straight to the futex.
    static thread_local bool lastParked = false;
    const std::uint32_t seen = ep->activityStamp();
    const int budget = lastParked ? 0 : 128;
    for (int spin = 0; spin < budget; ++spin) {
        if (ep->activityStamp() != seen) {
            lastParked = false;
            return;
        }
        cpuRelax();
    }
    // Bounded park: the progress this poller waits for can be a
    // remote store into shared memory that bumps nothing locally, so
    // the park must time out and re-poll.
    ep->stats().idleParks++;
    ep->waitActivity(seen, 100'000);
    lastParked = true;
}

void
Runtime::handleMessage(Message &msg)
{
    panic("runtime %s cannot handle message %s", name().c_str(),
          toString(msg.type));
}

void
Runtime::serialize(WireWriter &w) const
{
    std::lock_guard<std::mutex> g(allocMu);
    const std::uint64_t used = arena->used();
    w.putU64(used);
    w.putBytes(arena->at(0), static_cast<std::size_t>(used));
    w.putU32(static_cast<std::uint32_t>(allocLog.size()));
    for (GlobalAddr a : allocLog)
        w.putU64(a);
}

void
Runtime::restoreFrom(WireReader &r)
{
    std::lock_guard<std::mutex> g(allocMu);
    const std::uint64_t used = r.getU64();
    // Allocation is SPMD-deterministic and the snapshot was taken at
    // the same logical point the node restarts from, so the arena
    // watermark must already match — recovery rewrites contents, it
    // never re-allocates.
    DSM_ASSERT(used == arena->used(),
               "checkpoint arena watermark %llu != live %llu",
               static_cast<unsigned long long>(used),
               static_cast<unsigned long long>(arena->used()));
    r.getBytes(arena->at(0), static_cast<std::size_t>(used));
    allocLog.clear();
    const std::uint32_t nalloc = r.getU32();
    allocLog.reserve(nalloc);
    for (std::uint32_t i = 0; i < nalloc; ++i)
        allocLog.push_back(r.getU64());
}

void
Runtime::wipeForRecovery()
{
    std::lock_guard<std::mutex> g(allocMu);
    // Scribble, don't zero: zeroed pages look like valid initial data
    // and would let a broken restore pass by accident.
    std::memset(arena->at(0), 0xDB, static_cast<std::size_t>(arena->used()));
    allocLog.clear();
}

} // namespace dsm
