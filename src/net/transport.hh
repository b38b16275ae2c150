/**
 * @file
 * The cluster interconnect abstraction. Two tiers implement it:
 *
 *  - tier 0, `Network` (net/network.hh): the in-process interconnect —
 *    every node is a thread group in one address space and messages
 *    move through per-node inboxes (net/inbox.hh). This is the
 *    historical substrate every result so far was measured on.
 *  - tier 1, `SocketTransport` (net/socket_transport.hh): every node
 *    is its own OS process; messages cross real Unix-domain or TCP
 *    sockets as length-prefixed frames carrying the same serde wire
 *    payloads. The process launcher (driver/proc_launcher.hh) forks
 *    the node processes and rendezvouses them through a socket
 *    directory.
 *
 * Endpoint — and through it every runtime, lock service and barrier
 * service — talks only to this interface, so the whole protocol stack
 * is transport-neutral: the cross-protocol conformance suite runs
 * bit-identically on both tiers (the correctness anchor of the
 * socket backend).
 *
 * Semantics every implementation must provide:
 *  - reliable in-order delivery per (src, dst) pair;
 *  - one delivery path: every message, replies included, enters the
 *    destination node's LockedInbox and is drained by its service
 *    thread, so the inbox's FIFO order is the delivery order;
 *  - virtual-time arrival stamps computed from the shared CostModel
 *    at send time (the modeled wire is identical on both tiers);
 *  - the fault-injection hook between send() and delivery.
 */

#ifndef DSM_NET_TRANSPORT_HH
#define DSM_NET_TRANSPORT_HH

#include <cstdint>
#include <functional>

#include "net/fault_injector.hh"
#include "net/inbox.hh"
#include "net/message.hh"
#include "time/cost_model.hh"
#include "util/stats.hh"

namespace dsm {

/**
 * Decides whether transmission attempt @p attempt (0-based) of message
 * @p seq from @p src to @p dst is lost. Deterministic functions keep
 * runs reproducible.
 */
using LossPlan = std::function<bool(NodeId src, NodeId dst,
                                    std::uint64_t seq, int attempt)>;

class Transport
{
  public:
    virtual ~Transport() = default;

    /**
     * Send @p msg (src/dst/vtSendNs must be filled in). Computes the
     * arrival virtual time, simulates losses/retransmissions, and
     * delivers toward the destination inbox. Thread safe.
     *
     * @param senderStats Counters of the sending node (bytes/messages/
     *        retransmissions are recorded there).
     */
    virtual void send(Message &&msg, NodeStats &senderStats) = 0;

    /**
     * Blocking receive of the next message for @p node, in enqueue
     * order (asserted per sender/receiver pair via Message::pairSeq).
     * Must be called by one thread per node at a time. Returns false
     * if the transport was shut down and the inbox is drained. A
     * process-per-node transport only serves its own node's inbox.
     */
    virtual bool recv(NodeId node, Message &out) = 0;

    /**
     * recv() with a typed status: returns InboxPop::PeerDown (without
     * blocking) when @p node's inbox is empty and the node is marked
     * dead via markNodeDown — the path recovery-aware consumers use so
     * a dead peer cannot park them forever.
     */
    virtual InboxPop recvStatus(NodeId node, Message &out) = 0;

    /**
     * recv() with a deadline: returns InboxPop::Timeout once
     * @p timeout_ns elapses with @p node's inbox still empty. The
     * periodic-wake primitive of a failure-detecting service loop.
     */
    virtual InboxPop recvTimed(NodeId node, Message &out,
                               std::uint64_t timeout_ns) = 0;

    /**
     * Mark @p node dead (chaos kill / outage in progress):
     * status-aware receives on its inbox stop blocking, while sends
     * to it keep buffering — the "parked outbound traffic" a restored
     * node drains when it replays forward.
     */
    virtual void markNodeDown(NodeId node) = 0;

    /** Recovery complete: @p node's inbox blocks normally again. */
    virtual void clearNodeDown(NodeId node) = 0;

    /**
     * Install the fault-injection layer between send() and the
     * inboxes. Null (the default) keeps the send path bit-identical
     * to a build without the layer — one pointer test.
     */
    virtual void setFaultInjector(FaultInjector *injector) = 0;

    /** Wake all receivers and make subsequent recv() return false. */
    virtual void shutdown() = 0;

    /** Cluster size (nodes, not processes-owned-here). */
    virtual int nnodes() const = 0;

    virtual const CostModel &costModel() const = 0;

    /** Total messages accepted by this transport instance (a
     *  process-per-node transport counts its own sends only). */
    virtual std::uint64_t totalMessages() const = 0;
};

} // namespace dsm

#endif // DSM_NET_TRANSPORT_HH
