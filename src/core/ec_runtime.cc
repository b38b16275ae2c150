#include "core/ec_runtime.hh"

#include <algorithm>
#include <limits>

#include "mem/wide_scan.hh"
#include "util/logging.hh"

namespace dsm {

EcRuntime::EcRuntime(const Deps &deps)
    : Runtime(deps),
      pages(deps.arena->numPages(), PageAccess::ReadWrite),
      twins(deps.arena->numPages(), deps.arena->pageSize()),
      dirty(deps.arena->size(), deps.arena->pageSize())
{
    DSM_ASSERT(cluster->runtime.model == Model::EC, "config mismatch");
    cluster->runtime.validate();

    LockHooks hooks;
    hooks.makeRequest = [this](LockId lock, AccessMode mode) {
        return makeRequest(lock, mode);
    };
    hooks.makeGrant = [this](LockId lock, AccessMode mode, NodeId origin,
                             WireReader &req) {
        return makeGrant(lock, mode, origin, req);
    };
    hooks.applyGrant = [this](LockId lock, AccessMode mode, WireReader &r) {
        applyGrant(lock, mode, r);
    };
    hooks.onAcquired = [this](LockId lock, AccessMode mode) {
        onAcquired(lock, mode);
    };
    locks->setHooks(std::move(hooks));
    // EC associates data with locks, not barriers (Midway practice):
    // barriers carry no consistency payload. Cached read locks are
    // revalidated at barriers (see LockService::clearReadCaches).
    barriers->setPostWait([this] { locks->clearReadCaches(); });
}

std::string
EcRuntime::name() const
{
    return cluster->runtime.name();
}

EcRuntime::LockInfo &
EcRuntime::info(LockId lock)
{
    return lockInfoMap[lock];
}

template <typename Fn>
void
EcRuntime::forEachPiece(const LockInfo &info, Fn fn) const
{
    std::uint64_t off = 0;
    for (const Range &r : info.ranges) {
        fn(r.addr, off, r.size);
        off += r.size;
    }
}

std::vector<std::byte>
EcRuntime::gatherRanges(const LockInfo &info) const
{
    std::vector<std::byte> buf(info.boundBytes);
    forEachPiece(info, [&](GlobalAddr addr, std::uint64_t off,
                           std::uint64_t len) {
        std::memcpy(buf.data() + off, arena->at(addr), len);
    });
    return buf;
}

void
EcRuntime::scatterRanges(const LockInfo &info, const std::byte *buf)
{
    forEachPiece(info, [&](GlobalAddr addr, std::uint64_t off,
                           std::uint64_t len) {
        std::memcpy(arena->at(addr), buf + off, len);
    });
}

NodeLocks::ShardSpan
EcRuntime::boundShards(const LockInfo &info)
{
    PageId first = std::numeric_limits<PageId>::max();
    PageId last = 0;
    for (const Range &range : info.ranges) {
        if (range.size == 0)
            continue;
        first = std::min(first, arena->pageOf(range.addr));
        last = std::max(last, arena->pageOf(range.addr + range.size - 1));
    }
    return NodeLocks::ShardSpan(*nl, std::min(first, last), last);
}

std::uint32_t
EcRuntime::numBlocks(const LockInfo &info) const
{
    return static_cast<std::uint32_t>(
        (info.boundBytes + info.blockSize - 1) / info.blockSize);
}

void
EcRuntime::setBinding(LockInfo &info, std::vector<Range> ranges)
{
    std::uint64_t total = 0;
    for (const Range &r : ranges) {
        DSM_ASSERT(arena->contains(r.addr, r.size),
                   "binding outside allocated shared memory");
        total += r.size;
    }
    info.ranges = std::move(ranges);
    info.boundBytes = total;
    info.blockSize = 4;
    if (cluster->runtime.trap == TrapMethod::CompilerInstrumentation &&
        !info.ranges.empty()) {
        info.blockSize = regions->blockSizeAt(info.ranges.front().addr);
    }
    info.ts = BlockTimestamps(numBlocks(info));
    info.ts.setAll(info.inc);
    info.history.clear();
    info.historyBase = info.inc;
}

void
EcRuntime::bindLock(LockId lock, std::vector<Range> ranges)
{
    std::lock_guard<std::mutex> g(nl->core);
    LockInfo &li = info(lock);
    if (!li.ranges.empty()) {
        // SMP nodes: every thread of a node executes the same SPMD
        // bind sequence; a repeat with the identical ranges is the
        // sibling's copy of a binding already installed.
        DSM_ASSERT(li.ranges == ranges,
                   "lock %u already bound with different ranges (use "
                   "rebindLock)",
                   lock);
        return;
    }
    setBinding(li, std::move(ranges));
}

void
EcRuntime::rebindLock(LockId lock, std::vector<Range> ranges)
{
    DSM_ASSERT(locks->holdsExclusively(lock),
               "rebindLock requires holding the lock exclusively");
    std::lock_guard<std::mutex> g(nl->core);
    LockInfo &li = info(lock);
    stats().rebinds++;
    twins.dropRange(lock);
    setBinding(li, std::move(ranges));
    li.bindVersion++;

    // Re-arm write trapping for the remainder of the critical section.
    if (usesTwinning() && li.boundBytes > 0) {
        if (li.boundBytes <= arena->pageSize()) {
            twins.makeRange(lock, gatherRanges(li));
            const std::uint64_t words = (li.boundBytes + 3) / 4;
            clock().add(costModel().perWordTwinNs * words);
            stats().twinsCreated++;
            stats().twinWordsCopied += words;
        } else {
            forEachPiece(li, [&](GlobalAddr addr, std::uint64_t,
                                 std::uint64_t len) {
                for (PageId p : arena->pagesIn(addr, len)) {
                    std::lock_guard<std::mutex> sg(nl->shardFor(p));
                    if (pages.access(p) == PageAccess::ReadWrite &&
                        !twins.hasPage(p)) {
                        pages.setAccess(p, PageAccess::Read);
                    }
                }
            });
        }
    }
}

void
EcRuntime::onAcquired(LockId lock, AccessMode mode)
{
    // Hook runs with the lock-service mutex held; EC protocol state
    // (lock info, range twins) lives under the core lock.
    if (mode != AccessMode::Write || !usesTwinning())
        return;
    std::lock_guard<std::mutex> g(nl->core);
    auto it = lockInfoMap.find(lock);
    if (it == lockInfoMap.end() || it->second.boundBytes == 0)
        return;
    LockInfo &li = it->second;

    if (li.boundBytes <= arena->pageSize()) {
        // Small object: twin eagerly now — a write lock means the data
        // is likely to be written, so we save the protection fault the
        // Midway VM implementation would take (Section 4.2). With
        // ecEagerSmallTwin disabled we model that older scheme: the
        // same twin is made, but only after the protection fault the
        // first store would take (the paper notes the object is
        // virtually always written, so the fault is charged here).
        if (!twins.hasRange(lock)) {
            if (!cluster->ecEagerSmallTwin) {
                clock().add(costModel().pageFaultNs);
                stats().pageFaults++;
            }
            twins.makeRange(lock, gatherRanges(li));
            const std::uint64_t words = (li.boundBytes + 3) / 4;
            clock().add(costModel().perWordTwinNs * words);
            stats().twinsCreated++;
            stats().twinWordsCopied += words;
        }
    } else {
        // Large object: copy-on-write via the (software) VM system.
        forEachPiece(li, [&](GlobalAddr addr, std::uint64_t,
                             std::uint64_t len) {
            for (PageId p : arena->pagesIn(addr, len)) {
                std::lock_guard<std::mutex> sg(nl->shardFor(p));
                if (pages.access(p) == PageAccess::ReadWrite &&
                    !twins.hasPage(p)) {
                    pages.setAccess(p, PageAccess::Read);
                }
            }
        });
    }
}

void
EcRuntime::doRead(GlobalAddr addr, void *dst, std::size_t size)
{
    // Update protocol: bound data is made current at acquire time, so
    // reads never fault and carry no instrumentation. A data-race-free
    // EC program only reads data whose lock it holds (or that is
    // barrier-separated from writers), so the bytes cannot change
    // underneath the copy and no lock is taken — this is the SMP-node
    // zero-contention read path.
    std::memcpy(dst, arena->at(addr), size);
}

void
EcRuntime::doWrite(GlobalAddr addr, const void *src, std::size_t size,
                   bool bulk)
{
    // Charges are per call (not per page segment), matching the
    // monolithic-mutex accounting bit for bit.
    if (cluster->runtime.trap == TrapMethod::CompilerInstrumentation) {
        if (bulk) {
            // Split-loop instrumentation (Section 4.1 optimization):
            // the dirty-bit loop runs separately from the data loop at
            // about half the per-store cost.
            const std::uint32_t bs = regions->blockSizeAt(addr);
            const std::uint64_t blocks = (size + bs - 1) / bs;
            clock().add(costModel().dirtyStoreNs * blocks / 2);
            stats().dirtyStores += blocks;
        } else {
            clock().add(costModel().dirtyStoreNs);
            stats().dirtyStores++;
        }
        if (size == 0)
            return;
        // Mark + store under the memory shards so a concurrent grant
        // flush (scan + clear on another thread) sees either both or
        // neither.
        NodeLocks::ShardSpan span(*nl, arena->pageOf(addr),
                                  arena->pageOf(addr + size - 1));
        dirty.markRange(addr, size);
        std::memcpy(arena->at(addr), src, size);
        return;
    }
    if (size == 0)
        return;
    // Twinning: copy-on-write fault for protected (large-object)
    // pages; must happen atomically with the store so a concurrent
    // grant flush cannot miss the change.
    NodeLocks::ShardSpan span(*nl, arena->pageOf(addr),
                              arena->pageOf(addr + size - 1));
    for (PageId p : arena->pagesIn(addr, size)) {
        if (pages.access(p) != PageAccess::Read)
            continue;
        const std::uint64_t words = arena->pageSize() / 4;
        clock().add(costModel().pageFaultNs +
                    costModel().perWordTwinNs * words);
        stats().pageFaults++;
        stats().twinsCreated++;
        stats().twinWordsCopied += words;
        twins.makePage(p, arena->at(arena->pageBase(p)));
        pages.setAccess(p, PageAccess::ReadWrite);
    }
    std::memcpy(arena->at(addr), src, size);
}

std::vector<Run>
EcRuntime::twinChanges(LockId lock, LockInfo &li)
{
    std::vector<Run> byte_runs;
    const ScanKernel kernel = bestScanKernel();
    auto compare = [&](const std::byte *cur, const std::byte *twin,
                       std::uint64_t len, std::uint64_t concat_base) {
        const std::uint32_t words = static_cast<std::uint32_t>(len / 4);
        scanChangedRuns(
            cur, twin, words, kernel,
            [&](std::uint32_t w, std::uint32_t e) {
                byte_runs.push_back(
                    {static_cast<std::uint32_t>(concat_base + w * 4),
                     (e - w) * 4});
            });
        const std::uint64_t tail = std::uint64_t{words} * 4;
        if (tail < len && std::memcmp(cur + tail, twin + tail,
                                      len - tail) != 0) {
            byte_runs.push_back(
                {static_cast<std::uint32_t>(concat_base + tail),
                 static_cast<std::uint32_t>(len - tail)});
        }
        clock().add(costModel().perWordDiffNs * (words + 1));
        stats().diffWordsCompared += words + 1;
    };

    if (li.boundBytes <= arena->pageSize() && twins.hasRange(lock)) {
        // Eagerly twinned small object.
        std::vector<std::byte> cur = gatherRanges(li);
        const std::vector<std::byte> &twin = twins.rangeTwin(lock);
        compare(cur.data(), twin.data(), li.boundBytes, 0);
        twins.dropRange(lock);
        return byte_runs;
    }

    // Large object (or small object with eager twinning disabled):
    // compare each twinned page's overlap with the bound ranges, then
    // refresh the twin so later flushes report only newer changes.
    forEachPiece(li, [&](GlobalAddr addr, std::uint64_t off,
                         std::uint64_t len) {
        for (PageId p : arena->pagesIn(addr, len)) {
            // Serialize against sibling writers faulting on p.
            std::lock_guard<std::mutex> sg(nl->shardFor(p));
            if (!twins.hasPage(p))
                continue;
            const GlobalAddr page_base = arena->pageBase(p);
            const GlobalAddr lo = std::max<GlobalAddr>(addr, page_base);
            const GlobalAddr hi = std::min<GlobalAddr>(
                addr + len, page_base + arena->pageSize());
            if (lo >= hi)
                continue;
            const std::byte *cur = arena->at(lo);
            std::byte *twin = twins.pageTwinMut(p) + (lo - page_base);
            compare(cur, twin, hi - lo, off + (lo - addr));
            std::memcpy(twin, cur, hi - lo);
        }
    });
    return byte_runs;
}

std::vector<Run>
EcRuntime::dirtyChanges(LockInfo &li)
{
    std::vector<Run> byte_runs;
    forEachPiece(li, [&](GlobalAddr addr, std::uint64_t off,
                         std::uint64_t len) {
        // Scan + clear must exclude concurrent instrumented stores to
        // the same pages (mark + copy hold these shards too), or a
        // store could slip between the scan and the clear and be lost.
        NodeLocks::ShardSpan span(*nl, arena->pageOf(addr),
                                  arena->pageOf(addr + len - 1));
        for (const Run &r : dirty.dirtyRunsIn(addr, len)) {
            // r is in absolute 4-byte block indices; clip to the piece.
            const std::uint64_t run_lo = std::uint64_t{r.start} * 4;
            const std::uint64_t run_hi = std::uint64_t{r.end()} * 4;
            const std::uint64_t lo = std::max<std::uint64_t>(run_lo, addr);
            const std::uint64_t hi = std::min<std::uint64_t>(run_hi,
                                                             addr + len);
            if (lo >= hi)
                continue;
            byte_runs.push_back(
                {static_cast<std::uint32_t>(off + (lo - addr)),
                 static_cast<std::uint32_t>(hi - lo)});
        }
        dirty.clearRange(addr, len);
        // Scanning the dirty words of the bound object costs one scan
        // per block at the region's granularity (Section 8.1: larger
        // granularity halves the scan).
        const std::uint64_t blocks = (len + li.blockSize - 1) /
                                     li.blockSize;
        clock().add(costModel().perWordScanNs * blocks);
        stats().tsWordsScanned += blocks;
    });
    return byte_runs;
}

void
EcRuntime::recordChanges(LockInfo &li, const std::vector<Run> &byte_runs,
                         std::uint32_t tag,
                         std::vector<std::byte> *gathered)
{
    if (byte_runs.empty())
        return;
    if (!usesDiffing()) {
        for (const Run &r : byte_runs) {
            const std::uint32_t first = r.start / li.blockSize;
            const std::uint32_t last = (r.end() - 1) / li.blockSize;
            li.ts.setRange(first, last - first + 1, tag);
        }
        return;
    }
    // Diffing: one diff over the concatenated bound area.
    std::vector<std::byte> local;
    if (!gathered) {
        local = gatherRanges(li);
        gathered = &local;
    }
    Diff d;
    {
        // Assemble the diff directly from the byte runs.
        WireWriter w;
        w.putU32(static_cast<std::uint32_t>(li.boundBytes));
        w.putU32(static_cast<std::uint32_t>(byte_runs.size()));
        for (const Run &r : byte_runs) {
            w.putU32(r.start);
            w.putU32(r.length);
            w.putBytes(gathered->data() + r.start, r.length);
        }
        auto bytes = w.take();
        WireReader rd(bytes);
        d = Diff::decode(rd);
    }
    stats().diffsCreated++;
    li.history.emplace_back(tag, std::move(d));
}

void
EcRuntime::flushLock(LockId lock, LockInfo &li)
{
    if (li.boundBytes == 0)
        return;
    const std::uint32_t tag = li.inc + 1;
    std::vector<Run> byte_runs = usesTwinning() ? twinChanges(lock, li)
                                                : dirtyChanges(li);
    recordChanges(li, byte_runs, tag, nullptr);
}

void
EcRuntime::acquireForRebind(LockId lock)
{
    {
        std::lock_guard<std::mutex> g(nl->core);
        rebindIntent[lock] = true;
    }
    acquire(lock, AccessMode::Write);
    {
        // Consumed by makeRequest on the remote path; clear in case
        // the acquire was a local fast path.
        std::lock_guard<std::mutex> g(nl->core);
        rebindIntent.erase(lock);
    }
}

std::vector<std::byte>
EcRuntime::makeRequest(LockId lock, AccessMode)
{
    std::lock_guard<std::mutex> g(nl->core);
    LockInfo &li = info(lock);
    WireWriter w;
    w.putU32(li.inc);
    w.putU32(li.bindVersion);
    auto it = rebindIntent.find(lock);
    const bool no_data = it != rebindIntent.end() && it->second;
    if (no_data)
        rebindIntent.erase(it);
    w.putU8(no_data ? 1 : 0);
    return w.take();
}

std::vector<std::byte>
EcRuntime::makeGrant(LockId lock, AccessMode mode, NodeId, WireReader &req)
{
    std::lock_guard<std::mutex> g(nl->core);
    LockInfo &li = info(lock);
    const std::uint32_t req_inc = req.getU32();
    const std::uint32_t req_version = req.getU32();
    const bool no_data = req.getU8() != 0;

    flushLock(lock, li);
    const std::uint32_t granted = li.inc + 1;
    // Full send when the requester's binding is stale, or (diffing)
    // when the history no longer reaches back to its incarnation.
    const bool full = !no_data &&
                      (req_version < li.bindVersion ||
                       (usesDiffing() && req_inc < li.historyBase));

    WireWriter w;
    w.putU32(li.bindVersion);
    w.putU16(static_cast<std::uint16_t>(li.ranges.size()));
    for (const Range &r : li.ranges) {
        w.putU64(r.addr);
        w.putU64(r.size);
    }
    w.putU32(granted);
    w.putU8(full ? 1 : 0);
    w.putU8(no_data ? 1 : 0);

    if (no_data) {
        // Requester declared rebind intent: transfer ownership and the
        // incarnation only. The old binding's data stays here; the
        // history is dead either way (the rebind clears it).
        if (mode == AccessMode::Write) {
            li.history.clear();
            li.historyBase = granted;
        }
        li.inc = granted;
        stats().updatesSent++;
        return w.take();
    }

    std::uint64_t data_bytes = 0;
    if (!usesDiffing()) {
        // Timestamping: scan the blocks and send runs newer than the
        // requester's incarnation (all runs after a rebind).
        const std::uint32_t nb = numBlocks(li);
        clock().add(costModel().perWordScanNs * nb);
        stats().tsWordsScanned += nb;
        auto runs = full
            ? li.ts.collect([](std::uint64_t) { return true; })
            : li.ts.collect([&](std::uint64_t ts) { return ts > req_inc; });
        std::vector<std::byte> gathered = gatherRanges(li);
        w.putU32(static_cast<std::uint32_t>(runs.size()));
        for (const TsRun &run : runs) {
            const std::uint64_t lo = std::uint64_t{run.firstBlock} *
                                     li.blockSize;
            const std::uint64_t hi = std::min<std::uint64_t>(
                lo + std::uint64_t{run.numBlocks} * li.blockSize,
                li.boundBytes);
            w.putU32(run.firstBlock);
            w.putU32(run.numBlocks);
            w.putU32(static_cast<std::uint32_t>(run.ts));
            w.putBytes(gathered.data() + lo, hi - lo);
            data_bytes += hi - lo;
            stats().tsBytesSent += TsRunWire::kHeaderBytes + (hi - lo);
        }
        stats().tsRunsSent += runs.size();
    } else {
        std::vector<std::pair<std::uint32_t, Diff>> send;
        if (full) {
            std::vector<std::byte> gathered = gatherRanges(li);
            Diff d;
            {
                WireWriter dw;
                dw.putU32(static_cast<std::uint32_t>(li.boundBytes));
                dw.putU32(1);
                dw.putU32(0);
                dw.putU32(static_cast<std::uint32_t>(li.boundBytes));
                dw.putBytes(gathered.data(), gathered.size());
                auto bytes = dw.take();
                WireReader rd(bytes);
                d = Diff::decode(rd);
            }
            stats().diffsCreated++;
            send.emplace_back(granted, std::move(d));
        } else {
            for (const auto &[tag, diff] : li.history) {
                if (tag > req_inc)
                    send.emplace_back(tag, diff);
            }
        }
        w.putU32(static_cast<std::uint32_t>(send.size()));
        for (const auto &[tag, diff] : send) {
            w.putU32(tag);
            diff.encode(w);
            data_bytes += diff.dataBytes();
            stats().diffBytesSent += diff.wireBytes();
        }
        if (mode == AccessMode::Write) {
            // The diff history migrates with the ownership: the old
            // owner deletes, the new owner saves (Section 5.2). What
            // travels covers (req_inc, granted]; anything older is
            // gone, which the new owner's historyBase records.
            li.history.clear();
            li.historyBase = granted;
        }
    }

    li.inc = granted;
    stats().updatesSent++;
    stats().updateBytesSent += data_bytes;
    return w.take();
}

void
EcRuntime::applyGrant(LockId lock, AccessMode, WireReader &r)
{
    std::lock_guard<std::mutex> g(nl->core);
    LockInfo &li = info(lock);
    const std::uint32_t version = r.getU32();
    const std::uint16_t nranges = r.getU16();
    std::vector<Range> ranges(nranges);
    for (Range &range : ranges) {
        range.addr = r.getU64();
        range.size = r.getU64();
    }
    const std::uint32_t granted = r.getU32();
    const bool was_full = r.getU8() != 0;
    const bool no_data = r.getU8() != 0;

    DSM_ASSERT(version >= li.bindVersion,
               "grant carries an older binding than ours");
    if (version > li.bindVersion) {
        twins.dropRange(lock);
        setBinding(li, std::move(ranges));
        li.bindVersion = version;
    }

    if (no_data) {
        li.inc = granted;
        li.historyBase = granted; // nothing received; serve full sends
        return;
    }

    // A sibling's twin fault copies whole pages under their shards,
    // bytes bound to this lock included, so the granted data is
    // written under them too (held once per grant: EC-time grants
    // carry many runs of a few words each).
    if (!usesDiffing()) {
        const std::uint32_t nruns = r.getU32();
        std::uint64_t words = 0;
        NodeLocks::ShardSpan span = boundShards(li);
        for (std::uint32_t i = 0; i < nruns; ++i) {
            const std::uint32_t first = r.getU32();
            const std::uint32_t count = r.getU32();
            const std::uint32_t ts = r.getU32();
            const std::uint64_t lo = std::uint64_t{first} * li.blockSize;
            const std::uint64_t hi = std::min<std::uint64_t>(
                lo + std::uint64_t{count} * li.blockSize, li.boundBytes);
            std::vector<std::byte> data(hi - lo);
            r.getBytes(data.data(), data.size());
            // Scatter the run back to the bound ranges.
            forEachPiece(li, [&](GlobalAddr addr, std::uint64_t off,
                                 std::uint64_t len) {
                const std::uint64_t plo = std::max<std::uint64_t>(lo, off);
                const std::uint64_t phi = std::min<std::uint64_t>(hi,
                                                                  off + len);
                if (plo >= phi)
                    return;
                std::memcpy(arena->at(addr + (plo - off)),
                            data.data() + (plo - lo), phi - plo);
            });
            li.ts.setRange(first, count, ts);
            words += count;
        }
        clock().add(costModel().perWordApplyNs * words);
    } else {
        const std::uint32_t ndiffs = r.getU32();
        if (ndiffs > 0) {
            std::vector<std::byte> buf = gatherRanges(li);
            for (std::uint32_t i = 0; i < ndiffs; ++i) {
                const std::uint32_t tag = r.getU32();
                Diff d = Diff::decode(r);
                DSM_ASSERT(d.length() == li.boundBytes,
                           "diff length does not match binding");
                d.apply(buf.data(), &stats());
                clock().add(costModel().perWordApplyNs *
                            ((d.dataBytes() + 3) / 4));
                // Save for possible future transmission (Section 5.2).
                li.history.emplace_back(tag, std::move(d));
            }
            NodeLocks::ShardSpan span = boundShards(li);
            scatterRanges(li, buf.data());
        }
        // A full send (one diff spanning the whole binding) can serve
        // any future requester; incremental entries extend coverage
        // down to my previous incarnation.
        li.historyBase = was_full ? 0
                                  : std::min(li.historyBase, li.inc);
    }

    li.inc = granted;
}

// Checkpoint serialization. Runs at a barrier cut with the service
// thread joined and every application thread parked at the checkpoint
// rendezvous, so no protocol state is in motion; components with their
// own leaf mutexes (twins) still lock internally.

void
EcRuntime::serialize(WireWriter &w) const
{
    Runtime::serialize(w);
    w.putU32(static_cast<std::uint32_t>(lockInfoMap.size()));
    for (const auto &[lock, li] : lockInfoMap) {
        w.putU32(lock);
        w.putU32(static_cast<std::uint32_t>(li.ranges.size()));
        for (const Range &range : li.ranges) {
            w.putU64(range.addr);
            w.putU64(range.size);
        }
        w.putU64(li.boundBytes);
        w.putU32(li.bindVersion);
        w.putU32(li.inc);
        w.putU32(li.blockSize);
        w.putU32(li.ts.numBlocks());
        for (std::uint64_t ts : li.ts.raw())
            w.putU64(ts);
        w.putU32(static_cast<std::uint32_t>(li.history.size()));
        for (const auto &[tag, diff] : li.history) {
            w.putU32(tag);
            diff.encode(w);
        }
        w.putU32(li.historyBase);
    }
    w.putU32(static_cast<std::uint32_t>(rebindIntent.size()));
    for (const auto &[lock, intent] : rebindIntent) {
        w.putU32(lock);
        w.putU8(intent ? 1 : 0);
    }
    w.putU32(static_cast<std::uint32_t>(pages.numPages()));
    for (PageId p = 0; p < pages.numPages(); ++p)
        w.putU8(static_cast<std::uint8_t>(pages.access(p)));
    twins.serialize(w);
    const std::vector<Run> dirtyRuns = dirty.dirtyRunsIn(0, arena->size());
    w.putU32(static_cast<std::uint32_t>(dirtyRuns.size()));
    for (const Run &run : dirtyRuns) {
        w.putU32(run.start);
        w.putU32(run.length);
    }
}

void
EcRuntime::restoreFrom(WireReader &r)
{
    Runtime::restoreFrom(r);
    lockInfoMap.clear();
    const std::uint32_t nlocks = r.getU32();
    for (std::uint32_t i = 0; i < nlocks; ++i) {
        const LockId lock = r.getU32();
        LockInfo &li = lockInfoMap[lock];
        const std::uint32_t nranges = r.getU32();
        li.ranges.reserve(nranges);
        for (std::uint32_t rg = 0; rg < nranges; ++rg) {
            Range range;
            range.addr = r.getU64();
            range.size = static_cast<std::size_t>(r.getU64());
            li.ranges.push_back(range);
        }
        li.boundBytes = r.getU64();
        li.bindVersion = r.getU32();
        li.inc = r.getU32();
        li.blockSize = r.getU32();
        const std::uint32_t nblocks = r.getU32();
        li.ts = BlockTimestamps(nblocks);
        for (std::uint32_t b = 0; b < nblocks; ++b)
            li.ts.set(b, r.getU64());
        const std::uint32_t nhistory = r.getU32();
        li.history.reserve(nhistory);
        for (std::uint32_t h = 0; h < nhistory; ++h) {
            const std::uint32_t tag = r.getU32();
            li.history.emplace_back(tag, Diff::decode(r));
        }
        li.historyBase = r.getU32();
    }
    rebindIntent.clear();
    const std::uint32_t nintents = r.getU32();
    for (std::uint32_t i = 0; i < nintents; ++i) {
        const LockId lock = r.getU32();
        rebindIntent[lock] = r.getU8() != 0;
    }
    const std::uint32_t npages = r.getU32();
    DSM_ASSERT(npages == pages.numPages(), "page-table size mismatch");
    for (PageId p = 0; p < npages; ++p)
        pages.setAccess(p, static_cast<PageAccess>(r.getU8()));
    twins.restoreFrom(r);
    dirty.clearAll();
    const std::uint32_t nruns = r.getU32();
    for (std::uint32_t i = 0; i < nruns; ++i) {
        const std::uint64_t start = r.getU32();
        const std::uint64_t length = r.getU32();
        dirty.markRange(start * 4, length * 4);
    }
}

void
EcRuntime::wipeForRecovery()
{
    Runtime::wipeForRecovery();
    lockInfoMap.clear();
    rebindIntent.clear();
    pages.setAll(PageAccess::None); // restoreFrom rewrites every entry
    twins.clear();
    dirty.clearAll();
}

} // namespace dsm
