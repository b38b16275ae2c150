/**
 * @file
 * Microbenchmark of the RPC round trip every LRC access miss and lock
 * hand-off pays, on both transport tiers: request and reply each cross
 * a node inbox (net/inbox.hh) and a service thread.
 *
 * Shapes, all in real (wall-clock) nanoseconds:
 *  - rpc: Endpoint::call round trips between two nodes' app threads
 *    over the in-process Network — request and reply each cross an
 *    inbox and a service thread. Measured per iteration, so the table
 *    carries p50/p99 alongside the mean.
 *  - rpc socket: the same round trip over a pair of Unix-domain
 *    SocketTransports.
 *
 * Emits BENCH_net.json (tracked in the repo) with a host block (core
 * count, CPU model, build type), so a number is only compared with
 * one recorded on the same class of host.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "driver/proc_launcher.hh"
#include "net/endpoint.hh"
#include "net/network.hh"
#include "net/socket_transport.hh"

using namespace dsm;

namespace {

struct RpcResult
{
    double meanNs;
    double p50Ns;
    double p99Ns;
};

/** Time @p iters round trips from @p a to node 1 after a warm-up
 *  (thread creation, first futex round trips). */
RpcResult
timeCalls(Endpoint &a, int iters)
{
    for (int i = 0; i < 2000; ++i)
        a.call(1, MsgType::LockRequest, {});

    std::vector<double> samples(static_cast<std::size_t>(iters));
    for (double &sample : samples) {
        const auto t0 = std::chrono::steady_clock::now();
        a.call(1, MsgType::LockRequest, {});
        const auto t1 = std::chrono::steady_clock::now();
        sample = std::chrono::duration<double, std::nano>(t1 - t0).count();
    }

    double sum = 0.0;
    for (double sample : samples)
        sum += sample;
    std::sort(samples.begin(), samples.end());
    RpcResult r;
    r.meanNs = sum / iters;
    r.p50Ns = samples[samples.size() / 2];
    r.p99Ns = samples[samples.size() * 99 / 100];
    return r;
}

RpcResult
rpcRoundTrip(int iters)
{
    CostModel cm;
    Network net(2, cm);
    VirtualClock clocks[2];
    NodeStats stats[2];
    Endpoint a(net, 0, clocks[0], stats[0]);
    Endpoint b(net, 1, clocks[1], stats[1]);
    b.setHandler([&](Message &msg) {
        b.reply(msg.src, MsgType::LockGrant, {}, msg.replyToken);
    });
    a.setHandler([](Message &) {});
    a.start();
    b.start();
    const RpcResult r = timeCalls(a, iters);
    a.stop();
    b.stop();
    net.shutdown();
    return r;
}

/** The tier-1 point of the rpc shape: the same Endpoint::call round
 *  trip, but over a pair of Unix-domain SocketTransports — what a
 *  DSM_TRANSPORT=socket cluster pays per miss instead of an
 *  in-process push. Both transports live in this process (the frame
 *  path and reader threads are identical to the forked layout; only
 *  the fork is skipped). */
RpcResult
rpcRoundTripSocket(int iters)
{
    CostModel cm;
    const std::string dir = makeRendezvousDir();
    RpcResult r;
    {
        SocketTransport ta(0, 2, cm, SocketKind::Unix, dir);
        SocketTransport tb(1, 2, cm, SocketKind::Unix, dir);
        std::thread dial_b([&] { tb.connectPeers(); });
        ta.connectPeers();
        dial_b.join();

        VirtualClock clocks[2];
        NodeStats stats[2];
        Endpoint a(ta, 0, clocks[0], stats[0]);
        Endpoint b(tb, 1, clocks[1], stats[1]);
        b.setHandler([&](Message &msg) {
            b.reply(msg.src, MsgType::LockGrant, {}, msg.replyToken);
        });
        a.setHandler([](Message &) {});
        a.start();
        b.start();
        r = timeCalls(a, iters);

        std::thread finish_b([&] { tb.finishRun(); });
        ta.finishRun();
        finish_b.join();
        a.stop();
        b.stop();
    }
    removeRendezvousDir(dir);
    return r;
}

} // namespace

int
main()
{
    const int rpc_iters = 20000;

    std::printf("=== micro_net: rpc round trip, in-process vs socket "
                "===\n");

    const RpcResult rpc = rpcRoundTrip(rpc_iters);
    const RpcResult rpc_socket = rpcRoundTripSocket(rpc_iters);
    const double ring_vs_socket_p50 = rpc.p50Ns / rpc_socket.p50Ns;

    std::printf("%-30s %10s %10s %10s\n", "shape", "mean ns", "p50 ns",
                "p99 ns");
    std::printf("%-30s %10.0f %10.0f %10.0f\n", "rpc in-process",
                rpc.meanNs, rpc.p50Ns, rpc.p99Ns);
    std::printf("%-30s %10.0f %10.0f %10.0f\n", "rpc socket (UDS)",
                rpc_socket.meanNs, rpc_socket.p50Ns, rpc_socket.p99Ns);
    std::printf("%-30s %9.3fx\n", "in-process/socket p50 ratio",
                ring_vs_socket_p50);

    char json[2048];
    std::snprintf(
        json, sizeof(json),
        "{\n"
        "%s"
        "  \"rpc_iters\": %d,\n"
        "  \"rpc_roundtrip_ring_ns\": %.0f,\n"
        "  \"rpc_roundtrip_ring_p50_ns\": %.0f,\n"
        "  \"rpc_roundtrip_ring_p99_ns\": %.0f,\n"
        "  \"rpc_roundtrip_socket_ns\": %.0f,\n"
        "  \"rpc_roundtrip_socket_p50_ns\": %.0f,\n"
        "  \"rpc_roundtrip_socket_p99_ns\": %.0f,\n"
        "  \"rpc_ring_vs_socket_p50\": %.3f\n"
        "}\n",
        hostJson().c_str(), rpc_iters, rpc.meanNs, rpc.p50Ns, rpc.p99Ns,
        rpc_socket.meanNs, rpc_socket.p50Ns, rpc_socket.p99Ns,
        ring_vs_socket_p50);

    const char *out_path = "BENCH_net.json";
    if (FILE *f = std::fopen(out_path, "w")) {
        std::fputs(json, f);
        std::fclose(f);
        std::printf("\nwrote %s\n", out_path);
    } else {
        std::fprintf(stderr, "cannot write %s\n", out_path);
        return 1;
    }
    return 0;
}
