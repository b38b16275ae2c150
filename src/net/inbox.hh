/**
 * @file
 * A node's inbox: a mutex + condition-variable FIFO with a single
 * consumer (the node's service thread). Both transport tiers deliver
 * every message through it — requests, one-way traffic and replies
 * alike — so the inbox's FIFO order is the delivery order, and the
 * in-order-per-pair guarantee the transports document follows from
 * it directly.
 *
 * push() stamps each message with a dense per-source sequence number
 * (Message::pairSeq) under the mutex, so the stamp order is the
 * enqueue order; every pop asserts the stamps increase per source,
 * which checks the guarantee on every delivery.
 *
 * Beyond a plain blocking pop the inbox serves the failure detector
 * and recovery: a status-aware pop that refuses to park on an inbox
 * whose owner is marked dead, and a timed pop that is the periodic
 * wake of a detector-armed service loop.
 */

#ifndef DSM_NET_INBOX_HH
#define DSM_NET_INBOX_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "net/message.hh"

namespace dsm {

/** Outcome of a status-aware inbox dequeue (LockedInbox::popWithStatus
 *  / popTimed, Transport::recvStatus / recvTimed). */
enum class InboxPop : std::uint8_t
{
    Ok,       ///< a message was dequeued
    Closed,   ///< inbox shut down and fully drained
    PeerDown, ///< empty and the owning node is marked dead — do not
              ///< block; the caller should back off or fail over
    Timeout,  ///< still empty when the caller's deadline expired
};

class LockedInbox
{
  public:
    /** @param nsources Number of nodes that may send here (node ids
     *  0..nsources-1). */
    explicit LockedInbox(int nsources);

    LockedInbox(const LockedInbox &) = delete;
    LockedInbox &operator=(const LockedInbox &) = delete;

    /** Enqueue @p msg (stamping its pairSeq) and wake the consumer.
     *  Never blocks beyond the mutex; pushes after shutdown() still
     *  enqueue and are drained by later pops. Any thread. */
    void push(Message &&msg);

    /** Dequeue the oldest message into @p out, blocking while empty.
     *  Returns false once the inbox is shut down and drained. */
    bool pop(Message &out);

    /**
     * pop() that refuses to block on a dead owner: when the inbox is
     * empty and setPeerDown(true) is in force, returns
     * InboxPop::PeerDown instead of parking (queued messages still
     * drain first, in order). pop() itself ignores the flag.
     */
    InboxPop popWithStatus(Message &out);

    /**
     * pop() with a deadline: returns InboxPop::Timeout once
     * @p timeout_ns elapses with the inbox still empty. Deliberately
     * ignores the peer-down flag: this is the owning node's own
     * consumer, and a falsely accused node must keep draining (and
     * heartbeating) rather than spin on PeerDown.
     */
    InboxPop popTimed(Message &out, std::uint64_t timeout_ns);

    /**
     * Mark the inbox's owning node dead (or alive again). Setting the
     * flag wakes a parked status-aware consumer so it can observe
     * PeerDown. Producers are unaffected — sends to a dead node
     * buffer here until recovery clears the flag and the node drains
     * them ("parked outbound traffic").
     */
    void setPeerDown(bool is_down);

    /** Wake the consumer; pops return Closed/false once drained. */
    void shutdown();

  private:
    using Deadline = std::chrono::steady_clock::time_point;

    /** Shared body of the pops: wait for a message, shutdown, and
     *  (when @p honour_peer_down) the peer-down flag, until
     *  @p deadline if one is given. */
    InboxPop take(Message &out, bool honour_peer_down,
                  const Deadline *deadline);

    std::mutex mu;
    std::condition_variable cv;
    std::deque<Message> queue;      ///< guarded by mu
    std::vector<std::uint64_t> pushed; ///< last pairSeq stamped per
                                       ///< source; guarded by mu
    std::vector<std::uint64_t> popped; ///< last pairSeq delivered per
                                       ///< source; consumer only
    bool down = false;     ///< guarded by mu
    bool peerDown = false; ///< guarded by mu
};

} // namespace dsm

#endif // DSM_NET_INBOX_HH
