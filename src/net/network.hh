/**
 * @file
 * The simulated cluster interconnect. Reliable in-order delivery per
 * sender/receiver pair over per-node inboxes; a configurable cost model
 * computes virtual arrival times. An optional loss plan simulates the
 * paper's unreliable AAL3/4 substrate: dropped transmissions are
 * recovered by a modeled stop-and-wait retransmission (counted and
 * charged with the retransmission timeout), after which the message is
 * delivered — so correctness is never affected, only cost, exactly like
 * the "operation-specific user-level protocols to insure delivery"
 * described in Section 6 of the paper.
 *
 * Every message, replies included, enters the destination's
 * LockedInbox (net/inbox.hh), a mutex+condvar FIFO that stamps each
 * message with a per-(src, dst) sequence number and asserts it on
 * every delivery, so the documented in-order-per-pair guarantee is
 * checked on every receive.
 */

#ifndef DSM_NET_NETWORK_HH
#define DSM_NET_NETWORK_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/fault_injector.hh"
#include "net/inbox.hh"
#include "net/message.hh"
#include "net/transport.hh"
#include "time/cost_model.hh"
#include "util/stats.hh"

namespace dsm {

class Network final : public Transport
{
  public:
    /**
     * @param nnodes Number of nodes.
     * @param costModel Timing constants for transit computation.
     * @param lossPlan Optional deterministic loss injector.
     */
    Network(int nnodes, const CostModel &costModel,
            LossPlan lossPlan = nullptr);

    /**
     * Send @p msg (src/dst/vtSendNs must be filled in). Computes the
     * arrival virtual time, simulates losses/retransmissions, and
     * enqueues into the destination inbox. Thread safe.
     *
     * @param senderStats Counters of the sending node (bytes/messages/
     *        retransmissions are recorded there).
     */
    void send(Message &&msg, NodeStats &senderStats) override;

    /**
     * Blocking receive of the next message for @p node, in enqueue
     * order (asserted per sender/receiver pair via Message::pairSeq).
     * Must be called by one thread per node at a time. Returns false
     * if the network was shut down and the inbox is drained.
     */
    bool recv(NodeId node, Message &out) override;

    /**
     * recv() with a typed status: returns InboxPop::PeerDown (without
     * blocking) when @p node's inbox is empty and the node is marked
     * dead via markNodeDown — the path recovery-aware consumers use so
     * a dead peer cannot park them forever.
     */
    InboxPop recvStatus(NodeId node, Message &out) override;

    /**
     * recv() with a deadline: returns InboxPop::Timeout once
     * @p timeout_ns elapses with @p node's inbox still empty. The
     * periodic-wake primitive of a failure-detecting service loop;
     * ignores the node's own peer-down flag (see
     * LockedInbox::popTimed).
     */
    InboxPop recvTimed(NodeId node, Message &out,
                       std::uint64_t timeout_ns) override;

    /**
     * Mark @p node dead (chaos kill in progress): status-aware
     * receives on its inbox stop blocking, while sends to it keep
     * buffering in the inbox — the "parked outbound traffic" the
     * restored node drains when it replays forward.
     */
    void markNodeDown(NodeId node) override;

    /** Recovery complete: @p node's inbox blocks normally again. */
    void clearNodeDown(NodeId node) override;

    /**
     * Install the fault-injection layer between send() and the
     * inboxes. Null (the default) keeps the send path bit-identical
     * to a build without the layer — one pointer test.
     */
    void setFaultInjector(FaultInjector *injector) override
    {
        faults = injector;
    }

    /** Wake all receivers and make subsequent recv() return false. */
    void shutdown() override;

    int nnodes() const override { return static_cast<int>(inboxes.size()); }

    const CostModel &costModel() const override { return cm; }

    /** Total messages accepted (including retransmitted ones once). */
    std::uint64_t totalMessages() const override;

  private:
    LockedInbox &inboxOf(NodeId node);

    CostModel cm;
    LossPlan loss;
    FaultInjector *faults = nullptr; ///< not owned; null = layer off
    std::vector<std::unique_ptr<LockedInbox>> inboxes;
    std::atomic<std::uint64_t> nextSeq{1};
    std::atomic<std::uint64_t> accepted{0};
};

/** A loss plan dropping the first attempt of every @p n-th message. */
LossPlan dropEveryNth(std::uint64_t n);

} // namespace dsm

#endif // DSM_NET_NETWORK_HH
