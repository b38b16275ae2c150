/**
 * @file
 * Shared plumbing for the table-reproduction benches: workload scale
 * selection (DSM_SCALE=test|bench|paper), the 8-node cluster base
 * configuration, paper-reference values for EXPERIMENTS.md
 * comparisons, and the host block of the BENCH_*.json files.
 */

#ifndef DSM_BENCH_COMMON_HH
#define DSM_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "driver/experiment.hh"
#include "driver/table.hh"

namespace dsm {

inline AppParams
benchParams()
{
    const char *scale = std::getenv("DSM_SCALE");
    if (scale && std::string(scale) == "paper")
        return AppParams::paperScale();
    if (scale && std::string(scale) == "test")
        return AppParams::testScale();
    return AppParams::benchScale();
}

inline ClusterConfig
benchCluster()
{
    ClusterConfig cc;
    cc.nprocs = 8;
    cc.arenaBytes = 48u << 20;
    cc.pageSize = 4096;
    if (const char *np = std::getenv("DSM_NPROCS"))
        cc.nprocs = std::atoi(np);
    // threadsPerNode stays 0 here: Cluster resolves it from the
    // DSM_THREADS environment variable (default 1), so every table
    // bench runs at any (nodes x threads) point without recompiling.
    // Fast-path ablations (default on; set to 0 to fall back to the
    // seed behavior for old-vs-new comparisons in the table drivers).
    if (const char *v = std::getenv("DSM_GC"))
        cc.gcAtBarriers = std::atoi(v) != 0;
    if (const char *v = std::getenv("DSM_POOL"))
        cc.pooledBuffers = std::atoi(v) != 0;
    if (const char *v = std::getenv("DSM_DIFF_GAP"))
        cc.diffGapWords = static_cast<std::uint32_t>(std::atoi(v));
    if (const char *v = std::getenv("DSM_NOTICE"))
        cc.piggybackWriteNotices = std::atoi(v) != 0;
    // DSM_SIMD=0 is read by the scan-kernel dispatch itself
    // (mem/wide_scan.cc): it pins the wide fallback process-wide, so a
    // ctest leg covers that tier without going through this file.
    // Home-based LRC (LRC-diff only; timestamping stays homeless).
    if (const char *v = std::getenv("DSM_HOME"))
        cc.homeBasedLrc = std::atoi(v) != 0;
    if (const char *v = std::getenv("DSM_HOME_MIG"))
        cc.homeMigrateThreshold =
            static_cast<std::uint32_t>(std::atoi(v));
    // Epoch window of the home-migration counters (accesses between
    // halvings); 0 restores the legacy undecayed counts.
    if (const char *v = std::getenv("DSM_HOME_DECAY"))
        cc.homeDecayWindow = static_cast<std::uint32_t>(std::atoi(v));
    // The lock fairness bound (DSM_LOCK_FAIRNESS) stays at its -1
    // sentinel here: Cluster resolves it from the environment itself,
    // so any table bench runs at any k without recompiling.
    return cc;
}

/** Human-readable policy point for bench headers: the sharing-policy
 *  knob as Cluster will resolve it for @p cc. */
inline std::string
policyLine(const ClusterConfig &cc)
{
    return "lock fairness k=" + std::to_string(cc.resolvedLockFairness());
}

inline void
printHeader(const char *title, const ClusterConfig &cc)
{
    std::printf("=== %s ===\n", title);
    std::printf("%d nodes, %zu-byte pages, %s\n", cc.nprocs, cc.pageSize,
                cc.cost.toString().c_str());
    std::printf("sharing policy: %s\n", policyLine(cc).c_str());
    std::printf("(set DSM_SCALE=test|bench|paper to change workload "
                "sizes)\n\n");
}

/** Paper Table 3 values (seconds on 8 DECstation-5000/240). */
struct PaperRow
{
    const char *app;
    double oneProc;
    double ec;
    double lrc; ///< < 0: n/a
    const char *ecImpl;
    const char *lrcImpl;
};

inline const std::vector<PaperRow> &
paperTable3()
{
    static const std::vector<PaperRow> kRows = {
        {"SOR", 86.10, 13.23, 13.14, "time", "diff"},
        {"SOR+", 86.10, 13.22, -1.0, "time", "time"},
        {"QS", 47.89, 8.33, 9.66, "diff", "diff"},
        {"Water", 61.21, 18.25, 12.41, "ci", "diff"},
        {"Barnes-Hut", 133.76, 63.07, 37.75, "time", "diff"},
        {"IS", 10.27, 1.81, 1.86, "time", "time"},
        {"3D-FFT", 39.82, 8.32, 9.23, "ci", "diff"},
    };
    return kRows;
}

/** First "model name" line of /proc/cpuinfo, or "unknown". */
inline std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos)
            return line.substr(line.find_first_not_of(' ', colon + 1));
    }
    return "unknown";
}

/** The `"host": {...},` member that opens every BENCH_*.json object
 *  (core count, CPU model, build type), so a number is only compared
 *  with one recorded on the same class of host. */
inline std::string
hostJson()
{
    return "  \"host\": {\n"
           "    \"nproc\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ",\n"
           "    \"cpu_model\": \"" +
           cpuModel() +
           "\",\n"
           "    \"build_type\": \"" DSM_BUILD_TYPE "\"\n"
           "  },\n";
}

} // namespace dsm

#endif // DSM_BENCH_COMMON_HH
