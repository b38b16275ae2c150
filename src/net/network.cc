#include "net/network.hh"

#include "util/logging.hh"

namespace dsm {

Network::Network(int nnodes, const CostModel &cost_model,
                 LossPlan loss_plan)
    : cm(cost_model), loss(std::move(loss_plan))
{
    DSM_ASSERT(nnodes > 0, "network needs at least one node");
    inboxes.reserve(nnodes);
    for (int i = 0; i < nnodes; ++i)
        inboxes.push_back(std::make_unique<LockedInbox>(nnodes));
}

LockedInbox &
Network::inboxOf(NodeId node)
{
    DSM_ASSERT(node >= 0 && node < nnodes(), "bad node %d", node);
    return *inboxes[node];
}

void
Network::send(Message &&msg, NodeStats &sender_stats)
{
    DSM_ASSERT(msg.dst >= 0 && msg.dst < nnodes(), "bad destination %d",
               msg.dst);
    DSM_ASSERT(msg.src >= 0 && msg.src < nnodes(), "bad source %d",
               msg.src);
    DSM_ASSERT(msg.type != MsgType::Invalid, "untyped message");

    const std::uint64_t seq = nextSeq.fetch_add(1);
    const std::size_t bytes = msg.wireSize();

    // Simulate loss + stop-and-wait recovery: each lost attempt costs
    // the retransmission timeout before the next attempt departs.
    std::uint64_t depart = msg.vtSendNs;
    if (loss) {
        int attempt = 0;
        while (loss(msg.src, msg.dst, seq, attempt)) {
            depart += cm.retransTimeoutNs;
            sender_stats.retransmissions++;
            sender_stats.messagesSent++;
            sender_stats.bytesSent += bytes;
            ++attempt;
            DSM_ASSERT(attempt < 64, "loss plan drops forever");
        }
    }
    msg.vtArriveNs = depart + cm.transitNs(bytes);

    sender_stats.messagesSent++;
    sender_stats.bytesSent += bytes;
    accepted.fetch_add(1);

    // Fault-injection layer: the message went on the (modeled) wire —
    // it was counted and charged — but never reaches the destination
    // inbox. The Endpoint deadline/retransmit path recovers it. One
    // pointer test when the layer is off.
    if (faults && faults->dropMessage(msg))
        return;

    inboxes[msg.dst]->push(std::move(msg));
}

bool
Network::recv(NodeId node, Message &out)
{
    return inboxOf(node).pop(out);
}

InboxPop
Network::recvStatus(NodeId node, Message &out)
{
    return inboxOf(node).popWithStatus(out);
}

InboxPop
Network::recvTimed(NodeId node, Message &out, std::uint64_t timeout_ns)
{
    return inboxOf(node).popTimed(out, timeout_ns);
}

void
Network::markNodeDown(NodeId node)
{
    inboxOf(node).setPeerDown(true);
}

void
Network::clearNodeDown(NodeId node)
{
    inboxOf(node).setPeerDown(false);
}

void
Network::shutdown()
{
    for (auto &box : inboxes)
        box->shutdown();
}

std::uint64_t
Network::totalMessages() const
{
    return accepted.load();
}

LossPlan
dropEveryNth(std::uint64_t n)
{
    DSM_ASSERT(n > 0, "dropEveryNth(0)");
    return [n](NodeId, NodeId, std::uint64_t seq, int attempt) {
        return attempt == 0 && seq % n == 0;
    };
}

} // namespace dsm
