/**
 * @file
 * Optimistic lock-free home reads (DSM_OPT_READ): the home's service
 * thread answers read-only page misses from a version-validated
 * snapshot without taking the home core lock.
 *  - read-only misses are actually served lock-free (counters), for
 *    both never-flushed initialization pages and flushed pages;
 *  - the torn-snapshot property: a seqlock-guarded flush application
 *    racing concurrent snapshot copies never lets a *validated*
 *    snapshot observe a mixed pre/post cacheline (run under TSan in
 *    the CI matrix — every access on the racing paths is atomic);
 *  - migration churn under optimistic reads: snapshots, epoch stamps
 *    and home hand-offs coexist without corrupting values;
 *  - checkpoint/restore rebuilds the (deliberately unserialized)
 *    version footers and the fast path keeps working after recovery;
 *  - replies stay ordered with respect to HomeMigrate broadcasts
 *    and forwarded lock grants (stress over the exact message mix
 *    that reorders if a reply ever jumps the inbox).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "core/cluster.hh"
#include "core/page_home.hh"
#include "core/shared_array.hh"
#include "mem/diff.hh"

namespace dsm {
namespace {

ClusterConfig
optReadConfig(int nprocs, int threads, bool opt_on)
{
    ClusterConfig cc;
    cc.nprocs = nprocs;
    cc.threadsPerNode = threads;
    cc.arenaBytes = 1u << 20;
    cc.pageSize = 1024;
    cc.runtime = RuntimeConfig::parse("LRC-diff");
    cc.homeBasedLrc = true;
    cc.homeMigrateThreshold = 0; // no migration unless a test wants it
    // Pin explicitly (0, not the -1 sentinel) so a DSM_OPT_READ=1
    // environment sweep cannot turn the "off" reference legs on.
    cc.optimisticHomeReads = opt_on ? 1 : 0;
    return cc;
}

/** Producer/consumer over remotely homed pages: every consumer read
 *  miss is read-only, so with the fast path on the homes serve
 *  snapshots; the values must be identical either way. */
RunResult
producerConsumerRun(bool opt_on, std::vector<int> *out)
{
    constexpr int kInts = 1024; // 4 pages of 1024 bytes
    ClusterConfig cc = optReadConfig(4, 1, opt_on);
    Cluster cluster(cc);
    RunResult result = cluster.run([&](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, kInts, 4, "pc");
        const int self = rt.self();
        if (self == 0) {
            // Written under a lock, flushed to the pages' homes at
            // the release-side interval close.
            rt.acquire(1, AccessMode::Write);
            for (int i = 0; i < kInts; ++i)
                a.set(i, 3 * i + 7);
            rt.release(1);
        }
        rt.barrier(0);
        if (self != 0) {
            // Pure read-only misses against remote homes.
            rt.acquire(1, AccessMode::Read);
            for (int i = 0; i < kInts; i += 5)
                ASSERT_EQ(a.get(i), 3 * i + 7) << "index " << i;
            rt.release(1);
        }
        rt.barrier(1);
        if (self == 0 && out) {
            out->resize(kInts);
            a.load(0, out->data(), kInts);
        }
    });
    return result;
}

TEST(OptRead, ServesFlushedPagesLockFree)
{
    std::vector<int> with, without;
    RunResult on = producerConsumerRun(true, &with);
    RunResult off = producerConsumerRun(false, &without);
    EXPECT_GT(on.total.optReadsServed, 0u)
        << "fast path never engaged with DSM_OPT_READ on";
    EXPECT_EQ(off.total.optReadsServed, 0u)
        << "fast path engaged with DSM_OPT_READ off";
    EXPECT_EQ(off.total.optReadRetries, 0u);
    EXPECT_EQ(off.total.optReadFallbacks, 0u);
    ASSERT_EQ(with, without);
}

TEST(OptRead, SmpWorkersAndZeroRetryBudgetStayCorrect)
{
    // Two app threads per node fan read-only misses into the homes
    // concurrently (several parked callers per endpoint), and the
    // retry budget is pinned to zero so any snapshot that races a
    // flush falls back to the locked path immediately instead of
    // spinning — the degenerate budget must only cost performance,
    // never values.
    constexpr int kInts = 1024;
    constexpr int kEpochs = 8;
    ClusterConfig cc = optReadConfig(3, 2, true);
    cc.optReadMaxRetries = 0;
    Cluster cluster(cc);
    RunResult result = cluster.run([&](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, kInts, 4, "smp");
        const int nw = rt.nworkers();
        const int w = rt.worker();
        const int chunk = kInts / nw;
        rt.barrier(0);
        for (int e = 0; e < kEpochs; ++e) {
            rt.acquire(1, AccessMode::Write);
            for (int i = 0; i < chunk; ++i)
                a.set(w * chunk + i, e * 1000 + w * 10 + i);
            rt.release(1);
            rt.barrier(1 + 2 * e);
            const int peer = (w + 1) % nw;
            rt.acquire(1, AccessMode::Read);
            for (int i = 0; i < chunk; i += 7)
                ASSERT_EQ(a.get(peer * chunk + i),
                          e * 1000 + peer * 10 + i)
                    << "epoch " << e << " worker " << w;
            rt.release(1);
            rt.barrier(2 + 2 * e);
        }
    });
    EXPECT_GT(result.total.optReadsServed + result.total.optReadFallbacks,
              0u)
        << "the optimistic request path never engaged";
}

// ---------------------------------------------------------------------
// Torn-snapshot property test: guarded flush application (the only
// writer of committed home bytes) vs concurrent lock-free snapshot
// copies, at the page_home primitive level. A writer rewrites the
// whole page with generation g (every word = g) through
// applyDiffGuarded under the seqlock footer; readers run the exact
// validation protocol the service thread uses. Any validated snapshot
// whose cacheline mixes two generations is a torn read the footer
// failed to catch.

TEST(OptRead, TornSnapshotProperty)
{
    constexpr std::uint32_t kPageBytes = 1024;
    constexpr std::uint32_t kWords = kPageBytes / Diff::kWordBytes;
    const std::uint32_t nlines =
        (kPageBytes + kOptLineBytes - 1) / kOptLineBytes;

    std::vector<std::byte> page(kPageBytes, std::byte{0});
    std::vector<std::uint64_t> word_sums(kWords, 0);
    auto line_versions =
        std::make_unique<std::atomic<std::uint32_t>[]>(nlines);
    for (std::uint32_t l = 0; l < nlines; ++l)
        line_versions[l].store(0);

    std::atomic<bool> stop{false};
    std::thread writer([&] {
        std::vector<std::byte> cur(kPageBytes);
        std::vector<std::byte> twin(kPageBytes, std::byte{0});
        std::uint32_t gen = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            ++gen;
            auto *words = reinterpret_cast<std::uint32_t *>(cur.data());
            for (std::uint32_t w = 0; w < kWords; ++w)
                words[w] = gen;
            // Whole-page diff (every word differs from the twin);
            // vt_sum = gen keeps the word-sum guard monotone.
            Diff d = Diff::create(cur.data(), twin.data(), kPageBytes,
                                  nullptr, DiffScan{});
            applyDiffGuarded(page.data(), word_sums, d, gen, nullptr,
                             nullptr, line_versions.get());
            twin = cur;
        }
    });

    constexpr int kReaders = 3;
    constexpr int kValidatedTarget = 400;
    std::vector<std::thread> readers;
    std::atomic<int> torn{0};
    for (int t = 0; t < kReaders; ++t) {
        readers.emplace_back([&] {
            std::vector<std::byte> buf(kPageBytes);
            std::vector<std::uint32_t> v1(nlines);
            int validated = 0;
            while (validated < kValidatedTarget) {
                bool busy = false;
                for (std::uint32_t l = 0; l < nlines; ++l) {
                    v1[l] = line_versions[l].load(
                        std::memory_order_acquire);
                    if ((v1[l] & 1u) != 0) {
                        busy = true;
                        break;
                    }
                }
                if (busy)
                    continue;
                optAtomicReadBytes(buf.data(), page.data(), kPageBytes);
                std::atomic_thread_fence(std::memory_order_acquire);
                bool changed = false;
                for (std::uint32_t l = 0; l < nlines; ++l) {
                    if (line_versions[l].load(
                            std::memory_order_acquire) != v1[l]) {
                        changed = true;
                        break;
                    }
                }
                if (changed)
                    continue;
                // Validated: every cacheline must be generation-pure.
                const auto *words =
                    reinterpret_cast<const std::uint32_t *>(buf.data());
                const std::uint32_t words_per_line =
                    kOptLineBytes / Diff::kWordBytes;
                for (std::uint32_t l = 0; l < nlines; ++l) {
                    const std::uint32_t first = words[l * words_per_line];
                    for (std::uint32_t k = 1; k < words_per_line; ++k) {
                        if (words[l * words_per_line + k] != first) {
                            torn.fetch_add(1);
                            break;
                        }
                    }
                }
                ++validated;
            }
        });
    }
    for (std::thread &r : readers)
        r.join();
    stop.store(true);
    writer.join();
    EXPECT_EQ(torn.load(), 0)
        << "a validated snapshot observed a mixed-generation cacheline";
}

// ---------------------------------------------------------------------
// Migration churn under optimistic reads (the stale-snapshot guard):
// an alternating writer pair drives migrate-to-last-writer hand-offs
// while a reader hammers read-only misses against the moving home.
// Epoch-stamped snapshots must never let a deposed home's copy
// shadow the current home's flushes.

TEST(OptRead, MigrationChurnUnderOptimisticReads)
{
    constexpr int kInts = 256; // one page
    constexpr int kRounds = 24;
    ClusterConfig cc = optReadConfig(3, 1, true);
    cc.homeMigrateLastWriter = 1;
    cc.homeWriterSwitchThreshold = 2;
    cc.homePingPongLimit = 0; // unbounded: keep the home moving
    Cluster cluster(cc);
    RunResult result = cluster.run([&](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, kInts, 4, "churn");
        const int self = rt.self();
        rt.barrier(0);
        for (int round = 0; round < kRounds; ++round) {
            // Writers 0 and 1 alternate under the lock (the migratory
            // pattern: each round switches the page's last writer).
            const int writer = round % 2;
            rt.acquire(7, AccessMode::Write);
            if (self == writer) {
                for (int i = 0; i < kInts; i += 4)
                    a.set(i, round * 1000 + i);
            }
            rt.release(7);
            rt.barrier(1 + 2 * round);
            if (self == 2) {
                rt.acquire(7, AccessMode::Read);
                for (int i = 0; i < kInts; i += 16)
                    ASSERT_EQ(a.get(i), round * 1000 + i)
                        << "round " << round << " index " << i;
                rt.release(7);
            }
            rt.barrier(2 + 2 * round);
        }
    });
    EXPECT_GT(result.total.homeMigrations, 0u)
        << "the churn never migrated a home — the test lost its point";
    EXPECT_GT(result.total.optReadsServed +
                  result.total.optReadFallbacks,
              0u)
        << "the reader never exercised the optimistic request path";
}

// ---------------------------------------------------------------------
// Checkpoint/restore: version footers are deliberately not on the
// wire — a restore rebuilds them zeroed (all even) and republishes
// the lock-free index, so post-recovery optimistic reads validate
// against fresh seqlocks.

TEST(OptRead, CheckpointRebuildsVersionFooters)
{
    constexpr int kInts = 512;
    constexpr int kEpochs = 6;
    ClusterConfig cc = optReadConfig(3, 1, true);
    // Pin every crash knob (the -1 sentinels would leak a nightly
    // chaos environment into this controlled scenario).
    cc.faultSeed = 1;
    cc.faultMsgDrop = 0;
    cc.checkpointEvery = 1;   // snapshot at every barrier epoch
    cc.faultKillNode = 1;     // chaos-kill a home mid-run...
    cc.faultKillEpoch = 3;    // ...at the third cut
    Cluster cluster(cc);
    RunResult result = cluster.run([&](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, kInts, 4, "ckpt");
        const int self = rt.self();
        const int np = rt.nprocs();
        const int chunk = kInts / np;
        rt.barrier(0);
        for (int e = 0; e < kEpochs; ++e) {
            rt.acquire(5, AccessMode::Write);
            for (int i = 0; i < chunk; ++i)
                a.set(self * chunk + i, e * 100 + self * 10 + i);
            rt.release(5);
            rt.barrier(1 + 2 * e);
            const int peer = (self + 1) % np;
            rt.acquire(5, AccessMode::Read);
            for (int i = 0; i < chunk; i += 7)
                ASSERT_EQ(a.get(peer * chunk + i),
                          e * 100 + peer * 10 + i)
                    << "epoch " << e;
            rt.release(5);
            rt.barrier(2 + 2 * e);
        }
    });
    EXPECT_GT(result.total.checkpointsTaken, 0u);
    EXPECT_GT(result.total.recoveryReplays, 0u);
}

// ---------------------------------------------------------------------
// Reply vs HomeMigrate/LockForward ordering: replies share the inbox
// with every other message, so a reply can never overtake an earlier
// non-reply message (migration broadcast, forwarded lock request)
// from the same sender. This ordering regression maximizes the mix
// that breaks if a reply ever skips the inbox again: forwarded lock
// chains (manager != owner), aggressive home migration, SMP nodes
// (several parked callers per endpoint), and exact values throughout.

TEST(OptRead, ReplyOrderingUnderMigrationAndForwarding)
{
    constexpr int kInts = 512;
    constexpr int kRounds = 16;
    for (int threads : {1, 2}) {
        ClusterConfig cc = optReadConfig(4, threads, true);
        cc.homeMigrateThreshold = 2; // migrate eagerly on access counts
        Cluster cluster(cc);
        cluster.run([&](Runtime &rt) {
            auto a = SharedArray<int>::alloc(rt, kInts, 4, "order");
            const int nw = rt.nworkers();
            const int w = rt.worker();
            const int chunk = kInts / nw;
            rt.barrier(0);
            for (int round = 0; round < kRounds; ++round) {
                // Every worker bounces the same lock (manager node 0,
                // owner rotating: every acquire is a LockForward
                // chain) and rewrites its chunk; homes chase the
                // writers through HomeMigrate broadcasts that must
                // stay ordered ahead of later replies.
                rt.acquire(9, AccessMode::Write);
                for (int i = 0; i < chunk; ++i)
                    a.set(w * chunk + i, round * 10000 + w * 100 + i);
                rt.release(9);
                rt.barrier(1 + 2 * round);
                const int peer = (w + 1) % nw;
                rt.acquire(9, AccessMode::Read);
                for (int i = 0; i < chunk; i += 5)
                    ASSERT_EQ(a.get(peer * chunk + i),
                              round * 10000 + peer * 100 + i)
                        << "threads " << threads << " round " << round;
                rt.release(9);
                rt.barrier(2 + 2 * round);
            }
        });
    }
}

} // namespace
} // namespace dsm
