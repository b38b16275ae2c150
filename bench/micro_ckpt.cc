/**
 * @file
 * Incremental-checkpoint microbenchmark. Two measurements:
 *
 *  1. Stored-bytes reduction on a sparse-write workload: a 2-node
 *     home-based LRC cluster populates a shared array once, then runs
 *     epochs that each touch a handful of words. Every barrier cut
 *     checkpoints; with deltas on, the cut stores only the changed
 *     word runs against the previous image (full anchors every 8th
 *     epoch). The reported ratio full_bytes / delta_bytes is the
 *     whole point of the delta subsystem — the PR's acceptance bar is
 *     >= 5x — and being a byte count it is exactly reproducible
 *     across hosts, so the gate runs it at the regular tolerance.
 *
 *  2. Delta scan/encode throughput: makeDelta over synthetic images
 *     with scattered changes (the SIMD changed-run scan dominates),
 *     plus an applyDelta round-trip check. Informational: absolute
 *     GB/s varies with the host's memory system.
 *
 * Emits BENCH_ckpt.json (tracked); tools/bench_gate.py gates the
 * reduction ratio.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.hh"
#include "core/checkpoint.hh"
#include "core/cluster.hh"
#include "core/shared_array.hh"

using namespace dsm;

namespace {

constexpr int kWords = 65536; // 512 KiB shared array
constexpr int kSparseEpochs = 6;
constexpr int kSparseWords = 16; // touched per sparse epoch

std::uint64_t
runSparseWorkload(bool delta)
{
    ClusterConfig cc;
    cc.nprocs = 2;
    cc.threadsPerNode = 1;
    cc.arenaBytes = 1u << 21;
    cc.pageSize = 1024;
    cc.runtime = RuntimeConfig::parse("LRC-diff");
    cc.homeBasedLrc = true;
    cc.homeMigrateThreshold = 0;
    cc.faultSeed = 1;
    cc.faultMsgDrop = 0;
    cc.checkpointEvery = 1;
    cc.ckptDelta = delta ? 1 : 0;
    cc.ckptAnchorEvery = 8;

    Cluster cluster(cc);
    RunResult result = cluster.run([](Runtime &rt) {
        auto a =
            SharedArray<std::uint64_t>::alloc(rt, kWords, 4, "ckpt");
        const int w = rt.worker();
        const int nw = rt.nworkers();
        rt.barrier(0);
        for (int i = w; i < kWords; i += nw) // dense populate
            a.set(i, static_cast<std::uint64_t>(i));
        rt.barrier(1);
        for (int e = 0; e < kSparseEpochs; ++e) {
            if (w == 0) {
                for (int i = 0; i < kSparseWords; ++i)
                    a.set(i, static_cast<std::uint64_t>(1000 * e + i));
            }
            rt.barrier(static_cast<BarrierId>(2 + e));
        }
    });
    // Stored cost of the final (sparse) cut: the full blob, or the
    // delta blob when the cut was incremental.
    return result.checkpointBytes;
}

struct ScanResult
{
    double gbps = 0;
    double deltaFrac = 0; ///< delta size / image size
};

ScanResult
scanThroughput()
{
    constexpr std::size_t kImage = 32u << 20; // 32 MiB
    constexpr int kReps = 5;
    std::vector<std::byte> prev(kImage);
    for (std::size_t i = 0; i < kImage; ++i)
        prev[i] = static_cast<std::byte>(i * 2654435761u >> 24);
    std::vector<std::byte> cur = prev;
    // Scatter changes across the image: one word per 4 KiB.
    for (std::size_t off = 128; off < kImage; off += 4096)
        cur[off] = static_cast<std::byte>(~static_cast<unsigned>(
            std::to_integer<unsigned>(cur[off])));

    std::vector<std::byte> delta;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < kReps; ++r)
        delta = CheckpointCoordinator::makeDelta(prev, cur, 1);
    const auto t1 = std::chrono::steady_clock::now();

    const std::vector<std::byte> rebuilt =
        CheckpointCoordinator::applyDelta(prev, delta, 1);
    if (rebuilt.size() != cur.size() ||
        std::memcmp(rebuilt.data(), cur.data(), cur.size()) != 0) {
        std::fprintf(stderr, "FAIL: delta round trip corrupted the "
                             "image\n");
        std::abort();
    }

    const double secs =
        std::chrono::duration_cast<std::chrono::duration<double>>(t1 -
                                                                  t0)
            .count();
    ScanResult out;
    // The scan reads both images once per rep.
    out.gbps = 2.0 * kImage * kReps / secs / 1e9;
    out.deltaFrac = static_cast<double>(delta.size()) / kImage;
    return out;
}

} // namespace

int
main()
{
    std::printf("=== micro_ckpt: incremental delta checkpoints ===\n");
    std::printf("sparse workload: %d KiB array, %d sparse epochs of "
                "%d words\n\n",
                kWords * 8 / 1024, kSparseEpochs, kSparseWords);

    const std::uint64_t fullBytes = runSparseWorkload(false);
    const std::uint64_t deltaBytes = runSparseWorkload(true);
    if (deltaBytes == 0) {
        std::fprintf(stderr, "FAIL: delta run stored nothing\n");
        return 1;
    }
    const double reduction =
        static_cast<double>(fullBytes) / static_cast<double>(deltaBytes);

    const ScanResult scan = scanThroughput();

    std::printf("%-30s %12llu\n", "full cut bytes",
                static_cast<unsigned long long>(fullBytes));
    std::printf("%-30s %12llu\n", "delta cut bytes",
                static_cast<unsigned long long>(deltaBytes));
    std::printf("%-30s %11.1fx\n", "stored-bytes reduction", reduction);
    std::printf("%-30s %12.2f\n", "delta scan GB/s", scan.gbps);
    std::printf("%-30s %12.4f\n", "delta/image size fraction",
                scan.deltaFrac);

    const char *out_path = "BENCH_ckpt.json";
    if (FILE *f = std::fopen(out_path, "w")) {
        std::fprintf(
            f,
            "{\n"
            "%s"
            "  \"array_kib\": %d,\n"
            "  \"sparse_epochs\": %d,\n"
            "  \"ckpt_full_bytes\": %llu,\n"
            "  \"ckpt_delta_bytes\": %llu,\n"
            "  \"delta_reduction\": %.2f,\n"
            "  \"delta_scan_gbps\": %.2f,\n"
            "  \"delta_size_fraction\": %.4f\n"
            "}\n",
            hostJson().c_str(), kWords * 8 / 1024, kSparseEpochs,
            static_cast<unsigned long long>(fullBytes),
            static_cast<unsigned long long>(deltaBytes), reduction,
            scan.gbps, scan.deltaFrac);
        std::fclose(f);
        std::printf("\nwrote %s\n", out_path);
    }
    return 0;
}
