/**
 * @file
 * Unit tests for the network layer: wire serialization, delivery,
 * loss/retransmission modeling, endpoint RPC and virtual-time
 * causality.
 */

#include <gtest/gtest.h>

#include <map>
#include <mutex>

#include "net/endpoint.hh"
#include "net/network.hh"
#include "net/fault_injector.hh"
#include "net/serde.hh"

namespace dsm {
namespace {

TEST(Serde, PodRoundTrip)
{
    WireWriter w;
    w.putU8(0xab);
    w.putU16(0x1234);
    w.putU32(0xdeadbeef);
    w.putU64(0x0123456789abcdefull);
    w.putI64(-42);
    w.putF64(3.25);
    w.putString("hello");
    w.putBlob({std::byte{1}, std::byte{2}});

    auto bytes = w.take();
    WireReader r(bytes);
    EXPECT_EQ(r.getU8(), 0xab);
    EXPECT_EQ(r.getU16(), 0x1234);
    EXPECT_EQ(r.getU32(), 0xdeadbeefu);
    EXPECT_EQ(r.getU64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.getI64(), -42);
    EXPECT_EQ(r.getF64(), 3.25);
    EXPECT_EQ(r.getString(), "hello");
    auto blob = r.getBlob();
    ASSERT_EQ(blob.size(), 2u);
    EXPECT_EQ(blob[1], std::byte{2});
    EXPECT_TRUE(r.done());
}

TEST(Network, DeliversInSendOrder)
{
    CostModel cm;
    Network net(2, cm);
    NodeStats stats;
    for (int i = 0; i < 10; ++i) {
        Message m;
        m.src = 0;
        m.dst = 1;
        m.type = MsgType::LockRequest;
        m.replyToken = i;
        net.send(std::move(m), stats);
    }
    for (int i = 0; i < 10; ++i) {
        Message out;
        ASSERT_TRUE(net.recv(1, out));
        EXPECT_EQ(out.replyToken, static_cast<std::uint64_t>(i));
    }
    EXPECT_EQ(stats.messagesSent, 10u);
    EXPECT_EQ(net.totalMessages(), 10u);
}

TEST(Network, ArrivalTimeUsesCostModel)
{
    CostModel cm;
    cm.msgFixedNs = 1000;
    cm.perByteNs = 2;
    Network net(2, cm);
    NodeStats stats;
    Message m;
    m.src = 0;
    m.dst = 1;
    m.type = MsgType::LockRequest;
    m.vtSendNs = 500;
    m.payload.resize(10);
    const std::size_t wire = m.wireSize();
    net.send(std::move(m), stats);
    Message out;
    ASSERT_TRUE(net.recv(1, out));
    EXPECT_EQ(out.vtArriveNs, 500 + 1000 + 2 * wire);
    EXPECT_EQ(stats.bytesSent, wire);
}

TEST(Network, LossChargesTimeoutAndCountsRetransmissions)
{
    CostModel cm;
    cm.msgFixedNs = 100;
    cm.perByteNs = 0;
    cm.retransTimeoutNs = 50'000;
    // Drop the first attempt of every message.
    Network net(2, cm, [](NodeId, NodeId, std::uint64_t, int attempt) {
        return attempt == 0;
    });
    NodeStats stats;
    Message m;
    m.src = 0;
    m.dst = 1;
    m.type = MsgType::LockRequest;
    m.vtSendNs = 0;
    net.send(std::move(m), stats);
    Message out;
    ASSERT_TRUE(net.recv(1, out));
    EXPECT_EQ(out.vtArriveNs, 50'000u + 100u);
    EXPECT_EQ(stats.retransmissions, 1u);
    EXPECT_EQ(stats.messagesSent, 2u); // original + retransmission
}

TEST(Network, DropEveryNthPlan)
{
    auto plan = dropEveryNth(3);
    int drops = 0;
    for (std::uint64_t seq = 1; seq <= 9; ++seq) {
        if (plan(0, 1, seq, 0))
            ++drops;
        EXPECT_FALSE(plan(0, 1, seq, 1)); // retransmissions succeed
    }
    EXPECT_EQ(drops, 3);
}

TEST(Network, ShutdownUnblocksReceivers)
{
    CostModel cm;
    Network net(1, cm);
    std::thread t([&] {
        Message out;
        EXPECT_FALSE(net.recv(0, out));
    });
    net.shutdown();
    t.join();
}

class EndpointTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        net = std::make_unique<Network>(2, cm);
        for (int i = 0; i < 2; ++i) {
            eps.push_back(std::make_unique<Endpoint>(*net, i, clocks[i],
                                                     stats[i]));
        }
    }

    void
    TearDown() override
    {
        for (auto &ep : eps)
            ep->stop();
        net->shutdown();
    }

    CostModel cm;
    std::unique_ptr<Network> net;
    VirtualClock clocks[2];
    NodeStats stats[2];
    std::vector<std::unique_ptr<Endpoint>> eps;
};

TEST_F(EndpointTest, RpcRoundTripAdvancesClock)
{
    // Node 1 echoes requests back with a marker byte.
    eps[1]->setHandler([&](Message &msg) {
        WireWriter w;
        w.putU32(1234);
        eps[1]->reply(msg.src, MsgType::LockGrant, w.take(),
                      msg.replyToken);
    });
    eps[0]->setHandler([](Message &) { FAIL(); });
    eps[0]->start();
    eps[1]->start();

    Message reply = eps[0]->call(1, MsgType::LockRequest, {});
    WireReader r(reply.payload);
    EXPECT_EQ(r.getU32(), 1234u);
    EXPECT_TRUE(reply.isReply);
    // The caller's clock must be at least two one-way transits.
    EXPECT_GE(clocks[0].now(), 2 * cm.msgFixedNs);
    // Causality: replier observed the request before replying.
    EXPECT_GE(clocks[1].now(), cm.msgFixedNs);
}

TEST_F(EndpointTest, FireAndForgetReachesHandler)
{
    std::atomic<int> got{0};
    eps[1]->setHandler([&](Message &msg) {
        got.fetch_add(static_cast<int>(msg.payload.size()));
    });
    eps[0]->setHandler([](Message &) {});
    eps[0]->start();
    eps[1]->start();

    eps[0]->send(1, MsgType::LockForward, std::vector<std::byte>(7));
    while (got.load() == 0)
        std::this_thread::yield();
    EXPECT_EQ(got.load(), 7);
}

// ---------------------------------------------------------------------
// One delivery path: replies travel through the caller's inbox and
// service thread like every other message, so per-pair FIFO order
// covers them too.

TEST_F(EndpointTest, RepliesTakeTheInboxPath)
{
    eps[1]->setHandler([&](Message &msg) {
        WireWriter w;
        w.putU32(77);
        eps[1]->reply(msg.src, MsgType::LockGrant, w.take(),
                      msg.replyToken);
    });
    eps[0]->setHandler([](Message &) { FAIL(); });
    eps[0]->start();
    eps[1]->start();

    Message reply = eps[0]->call(1, MsgType::LockRequest, {});
    // The inbox stamps every message it carries: the first message
    // from node 1 to node 0 is pair sequence 1.
    EXPECT_EQ(reply.pairSeq, 1u);
    WireReader r(reply.payload);
    EXPECT_EQ(r.getU32(), 77u);
    // The receiving service thread did the wire accounting.
    EXPECT_EQ(stats[0].messagesReceived, 1u);
    EXPECT_GT(stats[0].bytesReceived, 0u);
}

TEST_F(EndpointTest, DuplicateReplyDeliveredOnce)
{
    // With faults armed a responder may answer one request twice (the
    // recorded-reply resend of a dedup hit). The caller must take
    // exactly one reply per round — the one for its own token — and
    // the service thread must drop the other copy.
    eps[1]->setHandler([&](Message &msg) {
        const int copies = msg.type == MsgType::LockRequest ? 2 : 1;
        for (int c = 0; c < copies; ++c) {
            eps[1]->reply(msg.src, MsgType::LockGrant, msg.payload,
                          msg.replyToken);
        }
    });
    eps[0]->setHandler([](Message &) { FAIL(); });
    eps[0]->setFaultsEnabled(true);
    eps[1]->setFaultsEnabled(true);
    eps[0]->start();
    eps[1]->start();

    constexpr int kRounds = 200;
    for (int i = 0; i < kRounds; ++i) {
        WireWriter w;
        w.putU32(static_cast<std::uint32_t>(i));
        Message reply = eps[0]->call(1, MsgType::LockRequest, w.take());
        WireReader r(reply.payload);
        EXPECT_EQ(r.getU32(), static_cast<std::uint32_t>(i))
            << "round " << i;
    }
    // Fence: a single-reply call returns only after every earlier
    // reply from node 1, duplicates included, was dispatched.
    (void)eps[0]->call(1, MsgType::DiffRequest, {});
    EXPECT_EQ(stats[0].messagesReceived, 2u * kRounds + 1);
    EXPECT_EQ(stats[1].messagesSent, 2u * kRounds + 1);
}

TEST_F(EndpointTest, FaultTolerantCallerWokenByReply)
{
    // With faults armed a droppable call parks in a timed futex wait
    // until its retransmit deadline. The reply must wake it: with a
    // deadline far beyond any round trip, no call needs a retransmit.
    eps[1]->setHandler([&](Message &msg) {
        eps[1]->reply(msg.src, MsgType::BarrierDepart, {},
                      msg.replyToken);
    });
    eps[0]->setHandler([](Message &) {});
    for (auto &ep : eps) {
        ep->setFaultsEnabled(true);
        ep->setRetransmitTimeouts(10'000'000'000ull, 10'000'000'000ull);
        ep->start();
    }

    for (int i = 0; i < 5; ++i) {
        Message reply = eps[0]->call(1, MsgType::BarrierArrive, {});
        EXPECT_EQ(reply.type, MsgType::BarrierDepart);
    }
    EXPECT_EQ(stats[0].msgRetransmits, 0u);
}

TEST_F(EndpointTest, ReplyNeverOvertakesHomeMigrateInstall)
{
    // Ordering regression: the responder first fire-and-forgets a
    // HomeMigrate install, *then* replies. A reply that overtook the
    // install would let the caller touch a page whose home it
    // believes already moved. Both share the caller's inbox, so
    // whenever call() returns, the install for that round is
    // complete.
    std::atomic<int> migrates{0};
    eps[1]->setHandler([&](Message &msg) {
        eps[1]->send(msg.src, MsgType::HomeMigrate,
                     std::vector<std::byte>(3));
        eps[1]->reply(msg.src, MsgType::HomePageReply, {},
                      msg.replyToken);
    });
    eps[0]->setHandler([&](Message &msg) {
        ASSERT_EQ(msg.type, MsgType::HomeMigrate);
        // Widen the race window: a reply that skipped the inbox
        // would return from call() while this handler still sleeps.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        migrates.fetch_add(1);
    });
    eps[0]->start();
    eps[1]->start();

    constexpr int kRounds = 300;
    for (int i = 0; i < kRounds; ++i) {
        Message reply = eps[0]->call(1, MsgType::HomePageRequest, {});
        EXPECT_EQ(reply.type, MsgType::HomePageReply);
        EXPECT_EQ(migrates.load(), i + 1) << "round " << i;
    }
}

TEST_F(EndpointTest, LockGrantNeverOvertakesLockForward)
{
    // Same invariant, lock-protocol shape: a manager forwards an
    // in-flight request to the new owner (fire-and-forget LockForward)
    // and then grants a waiting caller. The grant must not wake the
    // caller before the forward's handler ran — the caller could
    // release into a chain the forward has not yet established.
    std::atomic<int> forwards{0};
    eps[1]->setHandler([&](Message &msg) {
        eps[1]->send(msg.src, MsgType::LockForward,
                     std::vector<std::byte>(8));
        eps[1]->reply(msg.src, MsgType::LockGrant, {}, msg.replyToken);
    });
    eps[0]->setHandler([&](Message &msg) {
        ASSERT_EQ(msg.type, MsgType::LockForward);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        forwards.fetch_add(1);
    });
    eps[0]->start();
    eps[1]->start();

    constexpr int kRounds = 300;
    for (int i = 0; i < kRounds; ++i) {
        Message reply = eps[0]->call(1, MsgType::LockRequest, {});
        EXPECT_EQ(reply.type, MsgType::LockGrant);
        EXPECT_EQ(forwards.load(), i + 1) << "round " << i;
    }
}

TEST_F(EndpointTest, ConcurrentCallersWithOneWayChatter)
{
    // Several caller threads share one endpoint (the pending map is
    // genuinely concurrent) while the responder interleaves one-way
    // traffic ahead of every reply: each caller gets its own reply,
    // and every one-way message is dispatched exactly once.
    std::atomic<int> chatter{0};
    eps[1]->setHandler([&](Message &msg) {
        eps[1]->send(msg.src, MsgType::HomeDiffFlush,
                     std::vector<std::byte>(5));
        eps[1]->reply(msg.src, MsgType::LockGrant, msg.payload,
                      msg.replyToken);
    });
    eps[0]->setHandler([&](Message &msg) {
        ASSERT_EQ(msg.type, MsgType::HomeDiffFlush);
        chatter.fetch_add(1);
    });
    eps[0]->start();
    eps[1]->start();

    constexpr int kThreads = 4;
    constexpr int kCallsPerThread = 250;
    std::vector<std::thread> callers;
    for (int t = 0; t < kThreads; ++t) {
        callers.emplace_back([&, t] {
            // Each caller counts into its own stats delta (the
            // single-writer discipline of NodeStats).
            ThreadContext ctx;
            ctx.node = 0;
            ctx.threadId = t;
            ctx.clock = &clocks[0];
            ThreadContext::Scope scope(&ctx);
            for (int i = 0; i < kCallsPerThread; ++i) {
                WireWriter w;
                w.putU32(static_cast<std::uint32_t>(t * 1000 + i));
                Message reply =
                    eps[0]->call(1, MsgType::LockRequest, w.take());
                WireReader r(reply.payload);
                ASSERT_EQ(r.getU32(),
                          static_cast<std::uint32_t>(t * 1000 + i));
            }
        });
    }
    for (auto &th : callers)
        th.join();
    // Each reply was queued behind its chatter message, so all of it
    // has been dispatched by the time the last call returned.
    EXPECT_EQ(chatter.load(), kThreads * kCallsPerThread);
}

// ---------------------------------------------------------------------
// The dedup window's eviction edge. An in-window duplicate of an
// already-answered request resends the recorded reply without
// re-running the handler; once kDedupWindow newer requests from the
// same peer have evicted the entry, a very late duplicate re-executes
// — the window bounds memory, and handlers behind it must therefore
// be idempotent (ours reply with recomputable state). The test pins
// both halves of that contract.
TEST_F(EndpointTest, DedupWindowEvictionReexecutesLateDuplicate)
{
    std::mutex mu;
    std::map<std::uint64_t, int> execs; // token -> handler runs
    eps[1]->setHandler([&](Message &msg) {
        {
            std::lock_guard<std::mutex> g(mu);
            ++execs[msg.replyToken];
        }
        eps[1]->reply(msg.src, MsgType::BarrierDepart, msg.payload,
                      msg.replyToken);
    });
    eps[0]->setHandler([](Message &) {});
    eps[0]->setFaultsEnabled(true);
    eps[1]->setFaultsEnabled(true);
    eps[0]->start();
    eps[1]->start();

    std::uint64_t t0 = 0;
    {
        WireWriter w;
        w.putU32(0xa1);
        Message reply = eps[0]->call(1, MsgType::BarrierArrive, w.take());
        t0 = reply.replyToken;
        ASSERT_NE(t0, 0u);
    }

    const auto duplicate = [&] {
        Message dup;
        dup.src = 0;
        dup.dst = 1;
        dup.type = MsgType::BarrierArrive;
        dup.replyToken = t0;
        // A real retransmission would carry a late attempt; immune so
        // an armed injector could never eat the test's probe.
        dup.attempt = FaultInjector::kAttemptImmunity;
        dup.vtSendNs = clocks[0].now();
        net->send(std::move(dup), stats[0]);
        // Fence: per-pair FIFO delivery means this call returns only
        // after the service thread has consumed the duplicate.
        (void)eps[0]->call(1, MsgType::BarrierArrive, {});
    };

    duplicate();
    {
        std::lock_guard<std::mutex> g(mu);
        EXPECT_EQ(execs[t0], 1)
            << "in-window duplicate re-ran the handler instead of "
               "resending the recorded reply";
    }

    // Push t0 out of the per-src window (the probe calls above also
    // count towards it), then replay the duplicate: the entry is gone
    // and the handler legitimately runs again. Its reply lands at an
    // endpoint with no matching waiter; the armed fault path drops it
    // as a duplicate of an already-taken reply.
    for (std::size_t i = 0; i < 2 * Endpoint::kDedupWindow; ++i)
        (void)eps[0]->call(1, MsgType::BarrierArrive, {});
    duplicate();
    {
        std::lock_guard<std::mutex> g(mu);
        EXPECT_EQ(execs[t0], 2)
            << "evicted duplicate should re-execute (bounded window)";
    }
}

TEST(VirtualClock, AdvanceSemantics)
{
    VirtualClock c;
    EXPECT_EQ(c.now(), 0u);
    EXPECT_EQ(c.add(10), 10u);
    EXPECT_EQ(c.advanceTo(5), 10u);  // no going back
    EXPECT_EQ(c.advanceTo(25), 25u);
    c.reset();
    EXPECT_EQ(c.now(), 0u);
}

} // namespace
} // namespace dsm
