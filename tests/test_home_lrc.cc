/**
 * @file
 * Home-based LRC invariants:
 *  - no node ever stores a diff (homes apply flushes in place, clients
 *    fetch full copies), across dozens of epochs;
 *  - an access miss on a remotely homed page costs exactly one
 *    request/reply round trip, counter-asserted;
 *  - a deliberately skewed access pattern migrates the home past the
 *    threshold and stays correct before, during and after the move;
 *  - every interval close flushes eagerly, one HomeDiffFlush per
 *    close;
 *  - migration churn under a steady reader, and replies staying
 *    ordered behind HomeMigrate broadcasts and forwarded lock grants.
 */

#include <gtest/gtest.h>

#include "core/cluster.hh"
#include "core/shared_array.hh"

namespace dsm {
namespace {

ClusterConfig
homeConfig(int nprocs, std::uint32_t migrate_threshold)
{
    ClusterConfig cc;
    cc.nprocs = nprocs;
    cc.arenaBytes = 1u << 20;
    cc.pageSize = 1024;
    cc.runtime = RuntimeConfig::parse("LRC-diff");
    cc.homeBasedLrc = true;
    cc.homeMigrateThreshold = migrate_threshold;
    // Per-node scripted protocol test: roles key off rt.self(), so the
    // scenario only makes sense with one app thread per node (SMP
    // coverage lives in the worker-parametrized app/conformance/smp
    // suites). Pin T=1 so a DSM_THREADS sweep cannot redefine it.
    cc.threadsPerNode = 1;
    return cc;
}

/** White-box handle on a node's live protocol state. Only meaningful
 *  when the workers ran in this address space: under a process-per-
 *  node transport the launcher-side runtimes never execute the app,
 *  so every test that inspects lrcOf() pins cc.transport = "ring"
 *  (otherwise the assertions would pass vacuously on pristine
 *  state). */
LrcRuntime &
lrcOf(Cluster &cluster, NodeId node)
{
    auto *lrc = dynamic_cast<LrcRuntime *>(&cluster.runtime(node));
    EXPECT_NE(lrc, nullptr);
    return *lrc;
}

/** 44 epochs of cross-node producing and consuming: the diff store
 *  stays empty on every node, while the same run in homeless mode
 *  does store diffs. */
TEST(HomeLrc, DiffStoreStaysEmptyAcrossEpochs)
{
    constexpr int kEpochs = 44;
    constexpr int kWords = 1024; // 4 pages of 1024 bytes
    auto run = [&](bool home) {
        ClusterConfig cc = homeConfig(4, 0);
        cc.homeBasedLrc = home;
        cc.transport = "ring"; // white-box lrcOf() inspection below
        auto cluster = std::make_unique<Cluster>(cc);
        cluster->run([&](Runtime &rt) {
            auto a = SharedArray<int>::alloc(rt, kWords, 4, "epochs");
            const int np = rt.nprocs();
            const int self = rt.self();
            const int chunk = kWords / np;
            rt.barrier(0);
            for (int e = 0; e < kEpochs; ++e) {
                // Write my chunk, then read my right neighbour's.
                for (int i = 0; i < chunk; ++i)
                    a.set(self * chunk + i, e * 100 + self + i);
                rt.barrier(1 + 2 * e);
                const int peer = (self + 1) % np;
                for (int i = 0; i < chunk; i += 7)
                    ASSERT_EQ(a.get(peer * chunk + i),
                              e * 100 + peer + i);
                rt.barrier(2 + 2 * e);
            }
        });
        return cluster;
    };

    auto home_cluster = run(true);
    std::size_t homeless_diffs = 0;
    {
        auto homeless_cluster = run(false);
        for (int n = 0; n < 4; ++n)
            homeless_diffs +=
                lrcOf(*homeless_cluster, n).diffStoreSize();
    }
    for (int n = 0; n < 4; ++n) {
        EXPECT_EQ(lrcOf(*home_cluster, n).diffStoreSize(), 0u)
            << "node " << n << " stored diffs in home mode";
    }
    EXPECT_GT(homeless_diffs, 0u)
        << "homeless control run should have stored diffs";
}

/** Every cold miss on a remotely homed page is exactly one
 *  request/reply pair: pageFetchRoundTrips == accessMisses on the
 *  consumer, one per epoch. */
TEST(HomeLrc, OneRoundTripPerColdMiss)
{
    constexpr int kEpochs = 40;
    ClusterConfig cc = homeConfig(2, 0); // migration off
    cc.gcAtBarriers = false; // keep proactive GC fetches out of the count
    cc.transport = "ring";   // white-box lrcOf() inspection below
    Cluster cluster(cc);
    RunResult result = cluster.run([&](Runtime &rt) {
        // One page (256 ints x 4 bytes = 1024 = page 0, homed at 0).
        auto a = SharedArray<int>::alloc(rt, 256, 4, "page0");
        rt.barrier(0);
        for (int e = 0; e < kEpochs; ++e) {
            if (rt.self() == 0) {
                for (int i = 0; i < 256; ++i)
                    a.set(i, e * 1000 + i);
            }
            rt.barrier(1 + 2 * e);
            if (rt.self() == 1) {
                ASSERT_EQ(a.get(17), e * 1000 + 17);
                ASSERT_EQ(a.get(255), e * 1000 + 255);
            }
            rt.barrier(2 + 2 * e);
        }
    });

    ASSERT_EQ(lrcOf(cluster, 1).pageHomeOf(0), 0);
    const NodeStats &consumer = result.perNode[1];
    EXPECT_EQ(consumer.accessMisses,
              static_cast<std::uint64_t>(kEpochs));
    EXPECT_EQ(consumer.pageFetchRoundTrips, consumer.accessMisses)
        << "every miss must be exactly one request/reply pair";
    // The producer writes its own homed page: no misses, no fetches.
    EXPECT_EQ(result.perNode[0].pageFetchRoundTrips, 0u);
    EXPECT_EQ(result.total.diffRequestsSent, 0u)
        << "home mode must never run the homeless diff protocol";
}

/** Skewed access: node 1 writes and node 2 reads a page homed at node
 *  0. Past the threshold the home migrates off node 0, and the data
 *  stays correct through and after the move. */
TEST(HomeLrc, MigratesUnderSkewedAccess)
{
    constexpr int kEpochs = 16;
    ClusterConfig cc = homeConfig(4, 4);
    cc.transport = "ring"; // white-box lrcOf() inspection below
    Cluster cluster(cc);
    RunResult result = cluster.run([&](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, 256, 4, "skew");
        rt.barrier(0);
        for (int e = 0; e < kEpochs; ++e) {
            if (rt.self() == 1) {
                for (int i = 0; i < 256; ++i)
                    a.set(i, e * 10 + i);
            }
            rt.barrier(1 + 2 * e);
            if (rt.self() == 2) {
                for (int i = 0; i < 256; i += 13)
                    ASSERT_EQ(a.get(i), e * 10 + i);
            }
            rt.barrier(2 + 2 * e);
        }
    });

    EXPECT_GE(result.total.homeMigrations, 1u)
        << "the skewed accessor should have pulled the home over";
    // All nodes agree on the final mapping, and it moved off node 0.
    const NodeId final_home = lrcOf(cluster, 0).pageHomeOf(0);
    EXPECT_NE(final_home, 0);
    for (int n = 1; n < 4; ++n)
        EXPECT_EQ(lrcOf(cluster, n).pageHomeOf(0), final_home);
    for (int n = 0; n < 4; ++n)
        EXPECT_EQ(lrcOf(cluster, n).diffStoreSize(), 0u);
}

// ---------------------------------------------------------------------
// Flush transport.

/** Eager flushes: node 1 closes four intervals on a remotely homed
 *  page (three at remote acquires of fresh locks, one at the barrier
 *  arrival). Every close sends its own HomeDiffFlush before its
 *  interval record can leave the node, and the home ends with every
 *  close's words. */
TEST(HomeLrc, EveryCloseFlushesEagerly)
{
    ClusterConfig cc = homeConfig(2, 0);
    Cluster cluster(cc);
    RunResult result = cluster.run([&](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, 256, 4, "eager");
        rt.barrier(0);
        if (rt.self() == 1) {
            // Each remote acquire (locks 2, 4, 6 start owned by their
            // manager, node 0) closes the previous interval.
            for (int k = 0; k < 4; ++k) {
                for (int i = k * 64; i < (k + 1) * 64; ++i)
                    a.set(i, 7000 + i);
                if (k < 3) {
                    rt.acquire(static_cast<LockId>(2 + 2 * k),
                               AccessMode::Write);
                    rt.release(static_cast<LockId>(2 + 2 * k));
                }
            }
        }
        rt.barrier(1);
        if (rt.self() == 0) {
            for (int i = 0; i < 256; ++i)
                ASSERT_EQ(a.get(i), 7000 + i);
        }
        rt.barrier(2);
    });
    EXPECT_EQ(result.total.homeFlushesSent, 4u)
        << "one flush message per close, none merged";
}

// ---------------------------------------------------------------------
// Migration churn under a steady reader: an alternating writer pair
// and the reader drive access-count hand-offs (threshold 2) while the
// reader misses on the moving home every round. A deposed home's
// copy must never shadow the current home's flushes.

TEST(HomeLrc, MigrationChurnUnderConcurrentReads)
{
    constexpr int kInts = 256; // one page
    constexpr int kRounds = 24;
    ClusterConfig cc = homeConfig(3, 2); // migrate eagerly
    Cluster cluster(cc);
    RunResult result = cluster.run([&](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, kInts, 4, "churn");
        const int self = rt.self();
        rt.barrier(0);
        for (int round = 0; round < kRounds; ++round) {
            // Writers 0 and 1 alternate under the lock (the migratory
            // pattern: each round switches the page's writer).
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
}

// ---------------------------------------------------------------------
// Reply vs HomeMigrate/LockForward ordering: replies share the inbox
// with every other message, so a reply can never overtake an earlier
// non-reply message (migration broadcast, forwarded lock request)
// from the same sender. This ordering regression maximizes the mix
// that breaks if a reply ever skips the inbox: forwarded lock chains
// (manager != owner), aggressive home migration, SMP nodes (several
// parked callers per endpoint), and exact values throughout.

TEST(HomeLrc, ReplyOrderingUnderMigrationAndForwarding)
{
    constexpr int kInts = 512;
    constexpr int kRounds = 16;
    for (int threads : {1, 2}) {
        ClusterConfig cc = homeConfig(4, 2); // migrate eagerly
        cc.threadsPerNode = threads;
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
