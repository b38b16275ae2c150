/**
 * @file
 * Tests for the node inbox (net/inbox.hh) and its integration into
 * Network: per-producer FIFO and dense pair stamps under many
 * concurrent producers, shutdown racing active producers, the
 * peer-down and timed dequeues the failure detector relies on, and
 * the in-order-per-pair delivery assertion at the Network level.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "net/inbox.hh"
#include "net/network.hh"

namespace dsm {
namespace {

Message
makeMsg(NodeId src, std::uint64_t payload_token)
{
    Message m;
    m.src = src;
    m.dst = 0;
    m.type = MsgType::LockRequest;
    m.replyToken = payload_token;
    return m;
}

TEST(LockedInbox, ManyProducersPerProducerFifo)
{
    constexpr int kProducers = 8;
    constexpr int kPerProducer = 20000;
    LockedInbox inbox(kProducers);

    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&inbox, p] {
            for (int i = 0; i < kPerProducer; ++i)
                inbox.push(makeMsg(p, static_cast<std::uint64_t>(i)));
        });
    }

    std::vector<std::uint64_t> next(kProducers, 0);
    Message out;
    for (int i = 0; i < kProducers * kPerProducer; ++i) {
        ASSERT_TRUE(inbox.pop(out));
        // Each producer's messages arrive in its send order, stamped
        // with a dense per-source sequence.
        ASSERT_EQ(out.replyToken, next[out.src]) << "producer "
                                                 << out.src;
        next[out.src]++;
        ASSERT_EQ(out.pairSeq, next[out.src]);
    }
    for (auto &t : producers)
        t.join();
    for (int p = 0; p < kProducers; ++p)
        EXPECT_EQ(next[p], static_cast<std::uint64_t>(kPerProducer));
}

TEST(LockedInbox, ShutdownRace)
{
    // Producers blast while the consumer drains a little and shuts
    // down mid-stream: no hang, no crash, and everything the consumer
    // saw is a valid prefix per producer.
    for (int round = 0; round < 20; ++round) {
        constexpr int kProducers = 4;
        LockedInbox inbox(kProducers);
        std::atomic<bool> stop{false};
        std::vector<std::thread> producers;
        for (int p = 0; p < kProducers; ++p) {
            producers.emplace_back([&, p] {
                // Bounded so a slow consumer cannot balloon the queue.
                for (std::uint64_t i = 0; i < 100000 && !stop.load();
                     ++i)
                    inbox.push(makeMsg(p, i));
            });
        }

        std::vector<std::uint64_t> next(kProducers, 0);
        Message out;
        for (int i = 0; i < 500 + round * 37; ++i) {
            ASSERT_TRUE(inbox.pop(out));
            ASSERT_EQ(out.replyToken, next[out.src]);
            next[out.src]++;
        }
        inbox.shutdown();
        stop.store(true);
        for (auto &t : producers)
            t.join();
        // Post-shutdown pops drain whatever was pushed, still in
        // order, and then report exhaustion instead of blocking.
        while (inbox.pop(out)) {
            ASSERT_EQ(out.replyToken, next[out.src]);
            next[out.src]++;
        }
    }
}

TEST(LockedInbox, ShutdownUnblocksParkedConsumer)
{
    LockedInbox inbox(1);
    std::thread consumer([&] {
        Message out;
        EXPECT_FALSE(inbox.pop(out));
    });
    // Give the consumer time to park before the wake (the test holds
    // either way: a consumer arriving late sees the shutdown flag).
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    inbox.shutdown();
    consumer.join();
}

TEST(LockedInbox, PeerDownStatusTyped)
{
    LockedInbox inbox(3);
    Message out;

    // Empty + peer dead: a typed status instead of parking forever.
    inbox.setPeerDown(true);
    EXPECT_EQ(inbox.popWithStatus(out), InboxPop::PeerDown);

    // Messages queued before the death still drain first, in order.
    inbox.setPeerDown(false);
    inbox.push(makeMsg(1, 0));
    inbox.push(makeMsg(1, 1));
    inbox.setPeerDown(true);
    EXPECT_EQ(inbox.popWithStatus(out), InboxPop::Ok);
    EXPECT_EQ(out.replyToken, 0u);
    EXPECT_EQ(inbox.popWithStatus(out), InboxPop::Ok);
    EXPECT_EQ(out.replyToken, 1u);
    EXPECT_EQ(inbox.popWithStatus(out), InboxPop::PeerDown);

    // Producers are unaffected while the peer is down ("parked
    // outbound traffic"), and plain pop() ignores the flag entirely.
    inbox.push(makeMsg(2, 7));
    EXPECT_TRUE(inbox.pop(out));
    EXPECT_EQ(out.src, 2);

    // Recovery clears the flag; shutdown then reads as Closed.
    inbox.setPeerDown(false);
    inbox.shutdown();
    EXPECT_EQ(inbox.popWithStatus(out), InboxPop::Closed);
}

TEST(LockedInbox, PeerDownWakesParkedStatusConsumer)
{
    LockedInbox inbox(1);
    std::thread consumer([&] {
        Message out;
        EXPECT_EQ(inbox.popWithStatus(out), InboxPop::PeerDown);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    inbox.setPeerDown(true);
    consumer.join();
}

TEST(LockedInbox, PopTimedTimesOutAndIgnoresPeerDown)
{
    LockedInbox inbox(2);
    Message out;

    // Empty: the deadline expires with a typed Timeout.
    EXPECT_EQ(inbox.popTimed(out, 1'000'000), InboxPop::Timeout);

    // The owning node's own consumer keeps draining while it is
    // marked down: Timeout, never PeerDown.
    inbox.setPeerDown(true);
    EXPECT_EQ(inbox.popTimed(out, 1'000'000), InboxPop::Timeout);
    inbox.push(makeMsg(1, 9));
    EXPECT_EQ(inbox.popTimed(out, 1'000'000), InboxPop::Ok);
    EXPECT_EQ(out.replyToken, 9u);

    // A push from another thread ends a long wait early.
    std::thread producer([&] { inbox.push(makeMsg(1, 10)); });
    EXPECT_EQ(inbox.popTimed(out, 60'000'000'000ull), InboxPop::Ok);
    EXPECT_EQ(out.replyToken, 10u);
    producer.join();

    inbox.shutdown();
    EXPECT_EQ(inbox.popTimed(out, 1'000'000), InboxPop::Closed);
}

TEST(NetworkPeerDown, RecvStatusSeesDeathAndRecovery)
{
    CostModel cm;
    Network net(2, cm);
    NodeStats stats;
    net.send(makeMsg(1, 5), stats);
    net.markNodeDown(0);

    Message out;
    // Pre-death traffic drains before the status shows.
    EXPECT_EQ(net.recvStatus(0, out), InboxPop::Ok);
    EXPECT_EQ(out.replyToken, 5u);
    EXPECT_EQ(net.recvStatus(0, out), InboxPop::PeerDown);

    // Sends to the dead node buffer; recovery drains them.
    net.send(makeMsg(1, 6), stats);
    net.clearNodeDown(0);
    EXPECT_EQ(net.recvStatus(0, out), InboxPop::Ok);
    EXPECT_EQ(out.replyToken, 6u);

    net.shutdown();
    EXPECT_EQ(net.recvStatus(0, out), InboxPop::Closed);
}

TEST(Network, InOrderPerPairUnderContention)
{
    // 7 sender nodes hammer node 0 through the Network (whose inbox
    // asserts pairSeq monotonicity per pair on every delivery); the
    // payload token re-checks per-pair FIFO end to end.
    CostModel cm;
    Network net(8, cm);
    constexpr int kPerSender = 15000;

    std::vector<std::thread> senders;
    for (int s = 1; s < 8; ++s) {
        senders.emplace_back([&, s] {
            NodeStats stats;
            for (int i = 0; i < kPerSender; ++i) {
                Message m = makeMsg(s, static_cast<std::uint64_t>(i));
                m.vtSendNs = static_cast<std::uint64_t>(i);
                net.send(std::move(m), stats);
            }
        });
    }
    std::vector<std::uint64_t> next(8, 0);
    Message out;
    for (int i = 0; i < 7 * kPerSender; ++i) {
        ASSERT_TRUE(net.recv(0, out));
        ASSERT_EQ(out.replyToken, next[out.src]);
        next[out.src]++;
    }
    for (auto &t : senders)
        t.join();
    net.shutdown();
    EXPECT_FALSE(net.recv(0, out));
}

} // namespace
} // namespace dsm
