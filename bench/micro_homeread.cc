/**
 * @file
 * Read-fan-in microbenchmark of the optimistic lock-free home read
 * path (DSM_OPT_READ): client nodes (4 worker threads each, so the
 * home's service thread stays saturated with outstanding read-only
 * misses) repeatedly cold-miss pages homed at node 0 while the home's
 * own worker threads churn local pages — their interval closes hold
 * the node's core and home mutexes, the exact locks the legacy
 * HomePageRequest path must take, and with several churn threads one
 * close is always scanning under the core lock while the others
 * write-fault in parallel, keeping the lock near-continuously hot.
 * With the version-validated snapshot path on, the home's service
 * thread answers read-only misses without either lock, so client read
 * throughput decouples from the home's local work.
 *
 * Emits BENCH_homeread.json (tracked in the repo) with the on/off
 * throughput ratio; tools/bench_gate.py gates it like the other
 * same-host ratios. Acceptance bar for this PR: >= 1.5x for 4 clients,
 * with optReadsServed > 0 on the fast-path run. On a single-core host
 * wall clock tracks total CPU work and lock waits cost nothing, so the
 * ratio lands near 1.5x there; on multi-core runners the blocked
 * service thread is genuinely idle hardware and the gap widens.
 */

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>

#include "bench_common.hh"
#include "core/cluster.hh"
#include "core/shared_array.hh"

using namespace dsm;

namespace {

constexpr int kClients = 4;
constexpr int kNodes = kClients + 1; // node 0 is the contended home
constexpr int kThreads = 8;          // workers per node
constexpr int kPoolPages = 16;       // pages homed at node 0
constexpr int kIntsPerPage = 1024;   // 4 KiB pages
constexpr int kReadsPerPage = 4;     // misses dominate, not read instr.
constexpr int kChurnPages = 96;      // home pages rewritten per close
constexpr int kChurnClosesPerRound = 6; // per home worker thread
constexpr int kRounds = 100;
constexpr int kReps = 4;           // alternated per mode, summed

struct BenchResult
{
    double seconds = 0;
    std::uint64_t optReadsServed = 0;
    std::uint64_t optReadFallbacks = 0;
};

BenchResult
runFanIn(bool opt_on)
{
    ClusterConfig cc;
    cc.nprocs = kNodes;
    cc.threadsPerNode = kThreads;
    cc.arenaBytes = 1u << 24;
    cc.pageSize = 4096;
    cc.runtime = RuntimeConfig::parse("LRC-diff");
    cc.homeBasedLrc = true;
    cc.homeMigrateThreshold = 0; // the pool must stay pinned at node 0
    cc.optimisticHomeReads = opt_on ? 1 : 0;

    // Layout: pool page j is arena page j * kNodes (round-robin homes
    // put every such page at node 0); the churn pages live past the
    // pool and are also node-0-homed so their interval closes stamp
    // the home state under the home mutex.
    constexpr int kSpanInts =
        (kPoolPages + kChurnPages) * kNodes * kIntsPerPage;

    // Per-worker wall time spent inside the fan-in loop. The round
    // barrier syncs everyone to the slower churn phase, so total run
    // time hides the read-path difference; the fan-in window is the
    // measured quantity.
    std::array<std::atomic<std::uint64_t>, kNodes * kThreads> fanInNs{};

    Cluster cluster(cc);
    RunResult result = cluster.run([&](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, kSpanInts, 4, "fanin");
        const int self = rt.self();
        const int tid = rt.threadId();
        auto poolInt = [](int page, int i) {
            return page * kNodes * kIntsPerPage + i;
        };
        auto churnInt = [](int page, int i) {
            return (kPoolPages + page) * kNodes * kIntsPerPage + i;
        };
        rt.barrier(0);
        for (int round = 0; round < kRounds; ++round) {
            if (self == 0 && tid == 0) {
                // Refresh the pool (sole writer; the barrier
                // publishes the records, the interval close stamps
                // the home state in place).
                for (int p = 0; p < kPoolPages; ++p)
                    for (int i = 0; i < kReadsPerPage; ++i)
                        a.set(poolInt(p, i), round * 100000 + p * 64 + i);
            }
            rt.barrier(1 + 2 * round);
            if (self == 0) {
                // Churn phase: every home worker loops remote lock
                // acquires (manager is node 1, so each acquire closes
                // an interval) over its own slice of the churn pages.
                // One thread's close scans all current twins under
                // the core lock while the siblings write-fault under
                // shard locks only, then queue for their own close.
                for (int c = 0; c < kChurnClosesPerRound; ++c) {
                    // A fresh lock every close, always managed by node
                    // 1 (lock % kNodes == 1): the acquire is a remote
                    // request every time, so it closes an interval on
                    // this app thread — re-acquiring a cached lock
                    // would not. The grant comes from the idle
                    // manager, keeping node 0's service thread out of
                    // the churn entirely.
                    const int lock =
                        1 + kNodes * ((round * kThreads + tid) *
                                          kChurnClosesPerRound +
                                      c);
                    rt.acquire(lock, AccessMode::Write);
                    for (int p = tid; p < kChurnPages; p += kThreads)
                        a.set(churnInt(p, c % kIntsPerPage), c);
                    rt.release(lock);
                }

            } else {
                // Fan-in phase: each worker thread owns a slice of
                // the pool; its first touch of a page is one cold
                // read-only miss against the contended home.
                const auto f0 = std::chrono::steady_clock::now();
                for (int p = tid; p < kPoolPages; p += kThreads) {
                    for (int i = 0; i < kReadsPerPage; ++i) {
                        const int got = a.get(poolInt(p, i));
                        const int want = round * 100000 + p * 64 + i;
                        if (got != want) {
                            std::fprintf(stderr,
                                         "VALIDATION FAILED: node %d "
                                         "round %d page %d word %d: "
                                         "%d != %d\n",
                                         self, round, p, i, got, want);
                            std::abort();
                        }
                    }
                }
                const auto f1 = std::chrono::steady_clock::now();
                fanInNs[rt.worker()].fetch_add(static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        f1 - f0)
                        .count()));
            }
            rt.barrier(2 + 2 * round);
        }
    });

    // Mean fan-in window across the client workers: every worker
    // issues the same number of misses, so the mean window is the
    // per-worker cost of pushing its slice through the home, without
    // the tail amplification a max-over-workers metric picks up from
    // scheduler jitter.
    std::uint64_t sum = 0;
    for (int w = kThreads; w < kNodes * kThreads; ++w)
        sum += fanInNs[w].load();
    const std::uint64_t mean = sum / (kClients * kThreads);

    BenchResult out;
    out.seconds = static_cast<double>(mean) / 1e9;
    out.optReadsServed = result.total.optReadsServed;
    out.optReadFallbacks = result.total.optReadFallbacks;
    return out;
}

} // namespace

int
main()
{
    std::printf("=== micro_homeread: read fan-in against a churning "
                "home, DSM_OPT_READ off vs on ===\n");
    std::printf("%d clients x %d threads x %d pool pages x %d rounds, "
                "%d churn threads at the home\n\n",
                kClients, kThreads, kPoolPages, kRounds, kThreads);

    const double total_reads = static_cast<double>(kClients) *
                               kPoolPages * kReadsPerPage * kRounds;

    // Warm-up (thread spawn, allocator, first faults), then measure
    // alternating repetitions of each mode and sum the fan-in times:
    // single runs are at the mercy of scheduler phase alignment
    // (especially on small hosts), alternation averages it out.
    runFanIn(false);
    BenchResult off{}, on{};
    for (int rep = 0; rep < kReps; ++rep) {
        const BenchResult o = runFanIn(false);
        const BenchResult s = runFanIn(true);
        off.seconds += o.seconds;
        on.seconds += s.seconds;
        on.optReadsServed += s.optReadsServed;
        on.optReadFallbacks += s.optReadFallbacks;
        off.optReadsServed += o.optReadsServed;
    }

    const double rate_off = kReps * total_reads / off.seconds;
    const double rate_on = kReps * total_reads / on.seconds;
    const double speedup = rate_on / rate_off;

    std::printf("%-26s %14s %14s\n", "path", "reads/s", "fan-in s");
    std::printf("%-26s %14.0f %14.3f\n", "locked (opt off)", rate_off,
                off.seconds / kReps);
    std::printf("%-26s %14.0f %14.3f\n", "snapshot (opt on)", rate_on,
                on.seconds / kReps);
    std::printf("%-26s %13.2fx\n", "fan-in speedup", speedup);
    std::printf("optReadsServed=%llu optReadFallbacks=%llu (opt-off "
                "run served %llu)\n",
                static_cast<unsigned long long>(on.optReadsServed),
                static_cast<unsigned long long>(on.optReadFallbacks),
                static_cast<unsigned long long>(off.optReadsServed));
    if (on.optReadsServed == 0) {
        std::fprintf(stderr, "FAIL: fast path never served a read\n");
        return 1;
    }

    char json[1024];
    std::snprintf(
        json, sizeof(json),
        "{\n"
        "%s"
        "  \"clients\": %d,\n"
        "  \"client_threads\": %d,\n"
        "  \"pool_pages\": %d,\n"
        "  \"rounds\": %d,\n"
        "  \"reads_per_sec_locked\": %.0f,\n"
        "  \"reads_per_sec_snapshot\": %.0f,\n"
        "  \"optread_speedup\": %.2f,\n"
        "  \"opt_reads_served\": %llu,\n"
        "  \"opt_read_fallbacks\": %llu\n"
        "}\n",
        hostJson().c_str(), kClients, kThreads, kPoolPages, kRounds,
        rate_off, rate_on, speedup,
        static_cast<unsigned long long>(on.optReadsServed),
        static_cast<unsigned long long>(on.optReadFallbacks));

    const char *out_path = "BENCH_homeread.json";
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
