/**
 * @file
 * Tier-1 transport: one node per OS process, full-mesh sockets.
 *
 * Each node binds a listener in a shared rendezvous directory
 * (Unix-domain: `<dir>/node-<i>.sock`; TCP: loopback ephemeral port
 * published atomically as `<dir>/node-<i>.port`) and dials every
 * peer's listener with a bounded retry loop, so process start order
 * does not matter. Connections are simplex: the dialing side writes,
 * the accepting side reads — one stream per ordered (src, dst) pair,
 * which carries the in-order-per-pair delivery guarantee for free.
 * Every connection opens with a Hello frame (magic, version, node id,
 * cluster size), so a stranger or a mismatched run is rejected at
 * accept time.
 *
 * Delivery reuses the tier-0 machinery wholesale: one reader thread
 * per inbound stream decodes frames (net/frame.hh) and pushes them
 * into the same LockedInbox the in-process Network uses, so
 * recv()/recvStatus()/recvTimed(), the in-order assert, and the
 * service-thread discipline are identical across tiers.
 *
 * Termination is the two-round goodbye documented in net/frame.hh:
 * finishRun() announces round 1 after the local workers joined, waits
 * for every peer's round 1 (at which point no request chain can be in
 * flight anywhere — a chain implies a blocked worker, which implies
 * an unsent round-1 goodbye at its origin), then announces round 2
 * and waits for every peer's round 2, after which every frame ever
 * written to this node has been pushed into its inbox. Stopping the
 * endpoint then drains the inbox ahead of the Shutdown marker with
 * exactly the in-process semantics.
 */

#ifndef DSM_NET_SOCKET_TRANSPORT_HH
#define DSM_NET_SOCKET_TRANSPORT_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/transport.hh"

namespace dsm {

/** Socket family of the tier-1 transport. */
enum class SocketKind : std::uint8_t
{
    Unix, ///< AF_UNIX stream sockets in the rendezvous directory
    Tcp,  ///< loopback TCP, ports published via the directory
};

class SocketTransport final : public Transport
{
  public:
    /**
     * Bind this node's listener and start the accept thread. The
     * rendezvous directory @p dir must exist and be shared by all
     * nodes of the run.
     */
    SocketTransport(NodeId self, int nnodes, const CostModel &costModel,
                    SocketKind kind, std::string dir,
                    LossPlan lossPlan = nullptr);
    ~SocketTransport() override;

    SocketTransport(const SocketTransport &) = delete;
    SocketTransport &operator=(const SocketTransport &) = delete;

    /**
     * Dial every peer and wait until every peer dialed us (all hello
     * frames exchanged). Must be called once, after construction,
     * before any send. @p timeout_ms bounds the whole rendezvous.
     */
    void connectPeers(int timeout_ms = 30000);

    /**
     * The two-round termination rendezvous (see file header). Call
     * after the local workers joined and before stopping the
     * endpoint. Returns once every frame ever sent to this node has
     * been pushed into its inbox.
     */
    void finishRun();

    // Transport interface.
    void send(Message &&msg, NodeStats &senderStats) override;
    bool recv(NodeId node, Message &out) override;
    InboxPop recvStatus(NodeId node, Message &out) override;
    InboxPop recvTimed(NodeId node, Message &out,
                       std::uint64_t timeout_ns) override;
    void markNodeDown(NodeId node) override;
    void clearNodeDown(NodeId node) override;
    void setFaultInjector(FaultInjector *injector) override
    {
        faults = injector;
    }
    void shutdown() override;
    int nnodes() const override { return numNodes; }
    const CostModel &costModel() const override { return cm; }
    std::uint64_t totalMessages() const override
    {
        return accepted.load();
    }

    NodeId self() const { return id; }
    SocketKind kind() const { return sockKind; }

  private:
    /** Reader-thread body for one inbound stream; the first frame
     *  must be the peer's Hello. */
    void readerLoop(int fd);

    /** Accept-thread body: accepts nnodes-1 streams and spawns a
     *  reader for each. */
    void acceptLoop();

    /** Write all of @p bytes to @p peer's outbound stream (serialized
     *  per peer). Panics on a broken stream — by protocol no write
     *  can legally race the peer's exit. */
    void writeTo(NodeId peer, const std::vector<std::byte> &bytes);

    /** Record a goodbye from @p peer and wake finishRun. */
    void noteGoodbye(NodeId peer, int round);

    std::string listenPath() const;

    CostModel cm;
    LossPlan loss;
    NodeId id;
    int numNodes;
    SocketKind sockKind;
    std::string dir;
    FaultInjector *faults = nullptr;

    /** This node's inbox — the same one the in-process tier uses. */
    LockedInbox inbox;

    int listenFd = -1;
    std::uint16_t listenPort = 0; ///< TCP only
    /** Outbound (dialed) stream per peer; -1 until connectPeers. The
     *  mutex serializes frame writes so frames never interleave. */
    struct OutStream
    {
        std::mutex mu;
        int fd = -1;
    };
    std::vector<std::unique_ptr<OutStream>> out;

    std::thread acceptThread;
    std::vector<std::thread> readers;
    std::vector<int> readerFds; ///< for shutdown() wakeups at teardown
    std::mutex readersMu; ///< guards readers/readerFds (accept appends)

    /** Hello/goodbye bookkeeping (rendezvous + finishRun), all under
     *  goodbyeMu / signalled via goodbyeCv. */
    std::mutex goodbyeMu;
    std::condition_variable goodbyeCv;
    int hellosSeen = 0;
    std::vector<std::uint8_t> goodbyeRound; ///< highest round per peer

    std::atomic<std::uint64_t> nextSeq{1};
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<bool> closing{false};
};

} // namespace dsm

#endif // DSM_NET_SOCKET_TRANSPORT_HH
