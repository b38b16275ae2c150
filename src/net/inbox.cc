#include "net/inbox.hh"

#include "util/logging.hh"

namespace dsm {

LockedInbox::LockedInbox(int nsources)
    : pushed(static_cast<std::size_t>(nsources), 0),
      popped(static_cast<std::size_t>(nsources), 0)
{
    DSM_ASSERT(nsources > 0, "inbox needs at least one source");
}

void
LockedInbox::push(Message &&msg)
{
    DSM_ASSERT(msg.src >= 0 &&
                   static_cast<std::size_t>(msg.src) < pushed.size(),
               "bad source %d", msg.src);
    {
        std::lock_guard<std::mutex> g(mu);
        msg.pairSeq = ++pushed[msg.src];
        queue.push_back(std::move(msg));
    }
    cv.notify_one();
}

bool
LockedInbox::pop(Message &out)
{
    return take(out, false, nullptr) == InboxPop::Ok;
}

InboxPop
LockedInbox::popWithStatus(Message &out)
{
    return take(out, true, nullptr);
}

InboxPop
LockedInbox::popTimed(Message &out, std::uint64_t timeout_ns)
{
    const Deadline deadline = std::chrono::steady_clock::now() +
                              std::chrono::nanoseconds(timeout_ns);
    return take(out, false, &deadline);
}

InboxPop
LockedInbox::take(Message &out, bool honour_peer_down,
                  const Deadline *deadline)
{
    std::unique_lock<std::mutex> g(mu);
    const auto ready = [&] {
        return !queue.empty() || down || (honour_peer_down && peerDown);
    };
    if (deadline == nullptr)
        cv.wait(g, ready);
    else if (!cv.wait_until(g, *deadline, ready))
        return InboxPop::Timeout;
    if (queue.empty())
        return down ? InboxPop::Closed : InboxPop::PeerDown;
    out = std::move(queue.front());
    queue.pop_front();
    g.unlock();

    // In-order-per-pair invariant, checked on every delivery.
    std::uint64_t &last = popped[out.src];
    DSM_ASSERT(out.pairSeq == last + 1,
               "out-of-order delivery %d->%d: pairSeq %llu after %llu",
               out.src, out.dst,
               static_cast<unsigned long long>(out.pairSeq),
               static_cast<unsigned long long>(last));
    last = out.pairSeq;
    return InboxPop::Ok;
}

void
LockedInbox::setPeerDown(bool is_down)
{
    {
        std::lock_guard<std::mutex> g(mu);
        peerDown = is_down;
    }
    if (is_down)
        cv.notify_all();
}

void
LockedInbox::shutdown()
{
    {
        std::lock_guard<std::mutex> g(mu);
        down = true;
    }
    cv.notify_all();
}

} // namespace dsm
