/**
 * @file
 * Unit tests for the synchronization layer: vector times, distributed
 * lock protocol (manager forwarding, queueing, mutual exclusion, read
 * caching), and barriers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "net/network.hh"
#include "sync/barrier_service.hh"
#include "sync/lock_service.hh"
#include "sync/vector_time.hh"
#include "time/thread_context.hh"

namespace dsm {
namespace {

TEST(VectorTime, MergeDominatesSum)
{
    VectorTime a(3), b(3);
    a[0] = 5;
    a[2] = 1;
    b[1] = 4;
    b[2] = 3;
    EXPECT_FALSE(a.dominates(b));
    EXPECT_FALSE(b.dominates(a));
    VectorTime m = a;
    m.mergeMax(b);
    EXPECT_TRUE(m.dominates(a));
    EXPECT_TRUE(m.dominates(b));
    EXPECT_EQ(m.sum(), 5u + 4u + 3u);
    EXPECT_EQ(m[2], 3u);
}

TEST(VectorTime, WireRoundTrip)
{
    VectorTime a(4);
    a[0] = 1;
    a[3] = 99;
    WireWriter w;
    a.encode(w);
    auto bytes = w.take();
    WireReader r(bytes);
    EXPECT_EQ(VectorTime::decode(r), a);
}

TEST(VectorTime, SumIsLinearExtension)
{
    // If a happens-before b (pointwise <=, strictly less somewhere),
    // then sum(a) < sum(b).
    VectorTime a(2), b(2);
    a[0] = 1;
    b[0] = 1;
    b[1] = 2;
    EXPECT_TRUE(b.dominates(a));
    EXPECT_LT(a.sum(), b.sum());
}

/** A little fixture wiring N nodes' lock/barrier services directly. */
class SyncFixture : public ::testing::Test
{
  protected:
    static constexpr int kNodes = 4;

    void
    SetUp() override
    {
        net = std::make_unique<Network>(kNodes, cm);
        for (int i = 0; i < kNodes; ++i) {
            nodes.push_back(std::make_unique<NodeBits>(*net, i));
        }
        for (auto &n : nodes) {
            NodeBits *raw = n.get();
            raw->ep.setHandler([raw](Message &msg) {
                switch (msg.type) {
                  case MsgType::LockRequest:
                  case MsgType::LockForward:
                    raw->locks.handleMessage(msg);
                    break;
                  case MsgType::BarrierArrive:
                    raw->barriers.handleMessage(msg);
                    break;
                  default:
                    FAIL() << "unexpected message";
                }
            });
            raw->ep.start();
        }
    }

    void
    TearDown() override
    {
        for (auto &n : nodes)
            n->ep.stop();
        net->shutdown();
    }

    struct NodeBits
    {
        NodeBits(Network &net, NodeId id)
            : ep(net, id, clock, stats), locks(ep), barriers(ep)
        {}

        VirtualClock clock;
        NodeStats stats;
        /** App-side counter deltas merged back by spawned threads
         *  (read by the main thread after join). */
        NodeStats appStats;
        Endpoint ep;
        LockService locks;
        BarrierService barriers;
    };

    /**
     * Spawn one application thread for node @p i, wrapped in a
     * ThreadContext exactly like Cluster::run's workers: app-side
     * counters go to a private delta (merged into appStats when the
     * thread finishes), so they never race the service thread's
     * writes to the node stats.
     */
    std::thread
    spawnNode(int i, std::function<void()> fn)
    {
        NodeBits *node = nodes[i].get();
        return std::thread([node, i, fn = std::move(fn)] {
            ThreadContext ctx;
            ctx.node = static_cast<NodeId>(i);
            ctx.clock = &node->clock;
            ThreadContext::Scope scope(&ctx);
            fn();
            node->appStats += ctx.stats;
        });
    }

    CostModel cm;
    std::unique_ptr<Network> net;
    std::vector<std::unique_ptr<NodeBits>> nodes;
};

TEST_F(SyncFixture, MutualExclusionUnderContention)
{
    // N threads hammer one lock; a plain int counts critical sections.
    constexpr int kIters = 50;
    int counter = 0;
    std::vector<std::thread> threads;
    for (int i = 0; i < kNodes; ++i) {
        threads.push_back(spawnNode(i, [&, i] {
            for (int k = 0; k < kIters; ++k) {
                nodes[i]->locks.acquire(7, AccessMode::Write);
                const int seen = counter;
                std::this_thread::yield();
                counter = seen + 1;
                nodes[i]->locks.release(7);
            }
        }));
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(counter, kNodes * kIters);
}

TEST_F(SyncFixture, LocalReacquireIsFree)
{
    nodes[1]->locks.acquire(3, AccessMode::Write);
    nodes[1]->locks.release(3);
    const auto sent = nodes[1]->stats.messagesSent;
    for (int i = 0; i < 10; ++i) {
        nodes[1]->locks.acquire(3, AccessMode::Write);
        nodes[1]->locks.release(3);
    }
    EXPECT_EQ(nodes[1]->stats.messagesSent, sent);
    EXPECT_GE(nodes[1]->stats.localLockHits, 10u);
}

TEST_F(SyncFixture, ManagerOwnsInitially)
{
    // Lock 2's manager is node 2: its first acquire is message-free.
    nodes[2]->locks.acquire(2, AccessMode::Write);
    nodes[2]->locks.release(2);
    EXPECT_EQ(nodes[2]->stats.messagesSent, 0u);
}

TEST_F(SyncFixture, GrantHooksCarryPayload)
{
    // Owner-side makeGrant payload reaches the requester's applyGrant.
    std::vector<std::byte> seen;
    LockHooks hooks0;
    hooks0.makeGrant = [](LockId, AccessMode, NodeId, WireReader &) {
        WireWriter w;
        w.putU32(0xfeed);
        return w.take();
    };
    nodes[0]->locks.setHooks(std::move(hooks0));

    LockHooks hooks1;
    hooks1.applyGrant = [&](LockId, AccessMode, WireReader &r) {
        WireWriter w;
        w.putU32(r.getU32());
        seen = w.take();
    };
    nodes[1]->locks.setHooks(std::move(hooks1));

    // Lock 0 is managed (and initially owned) by node 0.
    nodes[1]->locks.acquire(0, AccessMode::Write);
    nodes[1]->locks.release(0);
    ASSERT_EQ(seen.size(), 4u);
    WireReader r(seen);
    EXPECT_EQ(r.getU32(), 0xfeedu);
}

TEST_F(SyncFixture, ReadLocksCacheUntilBarrier)
{
    // Node 0 owns lock 1 after an exclusive acquire.
    nodes[1]->locks.acquire(1, AccessMode::Write);
    nodes[1]->locks.release(1);

    // First read acquire on node 2: remote; repeats: cached (free).
    nodes[2]->locks.acquire(1, AccessMode::Read);
    nodes[2]->locks.release(1);
    const auto sent = nodes[2]->stats.messagesSent;
    nodes[2]->locks.acquire(1, AccessMode::Read);
    nodes[2]->locks.release(1);
    EXPECT_EQ(nodes[2]->stats.messagesSent, sent);

    // After a barrier the cache is revalidated (the barrier's
    // post-wait action calls clearReadCaches): next read is remote.
    nodes[2]->locks.clearReadCaches();
    nodes[2]->locks.acquire(1, AccessMode::Read);
    nodes[2]->locks.release(1);
    EXPECT_GT(nodes[2]->stats.messagesSent, sent);
}

TEST_F(SyncFixture, ForwardDedupKeysOnOriginAndToken)
{
    // Regression: every endpoint numbers its calls from the same
    // counter start, so two different origins' requests routinely
    // carry EQUAL reply tokens. The owner-side forward dedup (which
    // exists so a manager's orphan replay after an outage cannot
    // double-grant) must therefore key on (origin, token) — deduping
    // on the bare token silently dropped the second origin's forward
    // and its acquire hung forever.
    nodes[1]->locks.acquire(13, AccessMode::Write); // 13 % 4 = node 1:
                                                    // manager-owned,
                                                    // message-free
    const auto forward = [&](NodeId origin, std::uint64_t token) {
        WireWriter w;
        w.putU32(13);
        w.putU8(static_cast<std::uint8_t>(AccessMode::Read));
        w.putU16(static_cast<std::uint16_t>(origin));
        w.putBlob({});
        Message msg;
        msg.src = 1; // the manager forwarding to itself-as-owner
        msg.dst = 1;
        msg.type = MsgType::LockForward;
        msg.replyToken = token;
        msg.payload = w.take();
        nodes[1]->locks.handleMessage(msg);
    };

    forward(0, 500);
    EXPECT_EQ(nodes[1]->locks.pendingRemoteCount(13), 1u);
    forward(0, 500); // true duplicate (an orphan replay): dropped
    EXPECT_EQ(nodes[1]->locks.pendingRemoteCount(13), 1u);
    forward(2, 500); // same token, DIFFERENT origin: a distinct request
    EXPECT_EQ(nodes[1]->locks.pendingRemoteCount(13), 2u);
    forward(0, 501); // same origin, new token: also distinct
    EXPECT_EQ(nodes[1]->locks.pendingRemoteCount(13), 3u);
    // The queued grants are never released: the fixture tears the
    // cluster down with the lock still held, which is exactly what we
    // want — no reply choreography, just the dedup keying.
}

TEST_F(SyncFixture, BarrierBlocksUntilAllArrive)
{
    std::atomic<int> arrived{0};
    std::atomic<int> departed{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kNodes; ++i) {
        threads.push_back(spawnNode(i, [&, i] {
            arrived.fetch_add(1);
            nodes[i]->barriers.wait(9);
            // Everyone must have arrived before anyone departs.
            EXPECT_EQ(arrived.load(), kNodes);
            departed.fetch_add(1);
        }));
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(departed.load(), kNodes);
}

TEST_F(SyncFixture, BarrierReusableAcrossGenerations)
{
    for (int round = 0; round < 3; ++round) {
        std::vector<std::thread> threads;
        for (int i = 0; i < kNodes; ++i) {
            threads.push_back(
                spawnNode(i, [&, i] { nodes[i]->barriers.wait(4); }));
        }
        for (auto &t : threads)
            t.join();
    }
    for (int i = 0; i < kNodes; ++i)
        EXPECT_EQ(nodes[i]->appStats.barriersEntered, 3u);
}

TEST_F(SyncFixture, BarrierHooksMergeAndDistribute)
{
    // Manager (node 0) sums arrival payloads and broadcasts the total.
    std::atomic<std::uint32_t> merged{0};
    BarrierHooks mgr;
    mgr.mergeArrival = [&](BarrierId, NodeId, WireReader &r) {
        merged.fetch_add(r.getU32());
    };
    mgr.makeDepart = [&](BarrierId, NodeId) {
        WireWriter w;
        w.putU32(merged.load());
        return w.take();
    };

    std::vector<std::uint32_t> got(kNodes, 0);
    for (int i = 0; i < kNodes; ++i) {
        BarrierHooks h = i == 0 ? mgr : BarrierHooks{};
        h.makeArrival = [i](BarrierId) {
            WireWriter w;
            w.putU32(1u << i);
            return w.take();
        };
        h.applyDepart = [&, i](BarrierId, WireReader &r) {
            got[i] = r.getU32();
        };
        if (i == 0) {
            h.mergeArrival = mgr.mergeArrival;
            h.makeDepart = mgr.makeDepart;
        }
        nodes[i]->barriers.setHooks(std::move(h));
    }

    std::vector<std::thread> threads;
    for (int i = 0; i < kNodes; ++i)
        threads.push_back(
            spawnNode(i, [&, i] { nodes[i]->barriers.wait(2); }));
    for (auto &t : threads)
        t.join();
    for (int i = 0; i < kNodes; ++i)
        EXPECT_EQ(got[i], 0b1111u) << "node " << i;
}

// ---------------------------------------------------------------------
// Static fairness bound k = 4, choreographed with exact counts. Node 0
// (lock 2's manager and initial owner) holds the lock while a node-1
// contender's request queues there; then two node-0 threads hand the
// lock back and forth, each release waiting until the sibling has
// provably parked. Every local grant extends the run, so the fourth
// release is the one that finds the run at the bound with the remote
// still queued: exactly one forced grant. Ownership then leaves the
// node, and the parked thread re-acquires remotely once the contender
// releases.

TEST(LockFairness, StaticBoundForcesOneRemoteGrant)
{
    CostModel cm;
    Network net(2, cm);
    VirtualClock clocks[2];
    NodeStats stats[2];
    Endpoint ep0(net, 0, clocks[0], stats[0]);
    Endpoint ep1(net, 1, clocks[1], stats[1]);
    LockService locks0(ep0, /*threads_per_node=*/2,
                       /*local_handoff_bound=*/4);
    LockService locks1(ep1, 1, 4);
    ep0.setHandler([&](Message &msg) { locks0.handleMessage(msg); });
    ep1.setHandler([&](Message &msg) { locks1.handleMessage(msg); });
    ep0.start();
    ep1.start();

    NodeStats app;
    std::mutex appMu;
    const auto worker = [&](int node, int tid,
                            std::function<void()> fn) {
        return std::thread([&, node, tid, fn = std::move(fn)] {
            ThreadContext ctx;
            ctx.node = static_cast<NodeId>(node);
            ctx.threadId = tid;
            ctx.clock = node == 0 ? &clocks[0] : &clocks[1];
            ThreadContext::Scope scope(&ctx);
            fn();
            std::lock_guard<std::mutex> g(appMu);
            app += ctx.stats;
        });
    };

    {
        // Each scripted thread alternates acquire/release of lock 2,
        // one operation per go[] step the test hands it.
        std::atomic<int> go[2] = {0, 0};
        std::atomic<int> done[2] = {0, 0};
        const auto scripted = [&](int tid, int ops) {
            return worker(0, tid, [&, tid, ops] {
                for (int op = 0; op < ops; ++op) {
                    while (go[tid].load() <= op)
                        std::this_thread::yield();
                    if (op % 2 == 0)
                        locks0.acquire(2, AccessMode::Write);
                    else
                        locks0.release(2);
                    done[tid].store(op + 1);
                }
            });
        };
        const auto step = [&](int tid) { go[tid].fetch_add(1); };
        const auto awaitDone = [&](int tid, int n) {
            while (done[tid].load() < n)
                std::this_thread::yield();
        };
        const auto awaitParked = [&] {
            while (locks0.localWaiterCount(2) != 1)
                std::this_thread::yield();
        };

        std::vector<std::thread> ts;
        ts.push_back(scripted(0, 6));
        ts.push_back(scripted(1, 4));
        step(0); // t0 acquires: run 1
        awaitDone(0, 1);
        ts.push_back(worker(1, 0, [&] {
            locks1.acquire(2, AccessMode::Write);
            locks1.release(2);
        }));
        while (locks0.pendingRemoteCount(2) != 1)
            std::this_thread::yield();

        step(1); // t1 parks behind t0
        awaitParked();
        step(0); // t0 releases; t1 takes it: run 2
        awaitDone(1, 1);
        step(0); // t0 parks behind t1
        awaitParked();
        step(1); // t1 releases; t0 takes it: run 3
        awaitDone(0, 3);
        step(1); // t1 parks behind t0
        awaitParked();
        step(0); // t0 releases; t1 takes it: run 4
        awaitDone(1, 3);
        step(0); // t0 parks behind t1
        awaitParked();
        step(1); // t1 releases at the bound: forced remote grant
        awaitDone(0, 5); // t0 re-acquired through the manager
        step(0); // t0 releases
        for (auto &t : ts)
            t.join();
    }
    {
        std::lock_guard<std::mutex> g(appMu);
        EXPECT_EQ(app.remoteHandoffsForced, 1u);
        EXPECT_EQ(app.intraNodeLockHandoffs, 3u);
        EXPECT_EQ(app.maxLocalHandoffRun, 4u);
    }

    ep0.stop();
    ep1.stop();
    net.shutdown();
}

} // namespace
} // namespace dsm
