/**
 * @file
 * Cross-protocol conformance: the shared SPMD kernels
 * (conformance_kernels.hh) — a halo-exchange stencil, a distributed
 * task queue, and a migratory counter ring (the Table 3 sharing
 * patterns in miniature) — run under entry consistency, homeless LRC,
 * and home-based LRC over the full (2, 4, 8 nodes) x (1, 2, 4
 * threads-per-node) scenario grid, and the final shared state
 * collected on node 0 must be bit-identical across all three
 * protocols at every grid point. Every kernel is integer-valued,
 * partitioned over *workers* (node x thread), and
 * schedule-independent, so "bit-identical" is exact, not a tolerance
 * — which makes this grid the SMP refactor's model-checking net: any
 * lost write, unmirrored twin, missed invalidation or broken
 * intra-node hand-off shows up as a byte difference.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "conformance_kernels.hh"

namespace dsm {
namespace {

using namespace kernels;

// ---------------------------------------------------------------------
// Harness: run one kernel under one protocol, return node 0's final
// shared state.

struct ProtocolLeg
{
    const char *label;
    const char *config;
    bool home;
    /** Piggyback write notices on fetch replies (default-on fast
     *  path); the *_nonotice legs prove the seed protocol and the
     *  piggybacked one produce bit-identical final state. */
    bool piggyback;
    /** Lock fairness bound k (0 = unbounded local priority). It
     *  changes who is served when, never the values, so every k must
     *  leave the final state bit-identical. */
    int fairness = 0;
};

const ProtocolLeg kLegs[] = {
    {"EC", "EC-diff", false, true},
    {"LRC", "LRC-diff", false, true},
    {"LRC_nonotice", "LRC-diff", false, false},
    {"LRC_time", "LRC-time", false, true},
    {"LRC_time_nonotice", "LRC-time", false, false},
    {"LRC_home", "LRC-diff", true, true},
    {"LRC_home_nonotice", "LRC-diff", true, false},
    {"EC_fair", "EC-diff", false, true, 4},
    {"LRC_fair", "LRC-diff", false, true, 4},
    {"LRC_home_fair", "LRC-diff", true, true, 4},
};

struct KernelCase
{
    const char *name;
    std::function<void(Runtime &)> run;
    std::size_t stateBytes;
    int nprocs;
    int threads;
};

std::vector<std::byte>
runLeg(const ProtocolLeg &leg, const KernelCase &kc)
{
    ClusterConfig cc;
    cc.nprocs = kc.nprocs;
    cc.threadsPerNode = kc.threads;
    cc.arenaBytes = 1u << 20;
    cc.pageSize = 1024;
    cc.runtime = RuntimeConfig::parse(leg.config);
    cc.homeBasedLrc = leg.home;
    cc.piggybackWriteNotices = leg.piggyback;
    // A low threshold makes homes migrate *during* the kernels, so
    // conformance also covers the migration machinery.
    cc.homeMigrateThreshold = 4;
    cc.lockLocalHandoffBound = leg.fairness;
    Cluster cluster(cc);
    cluster.run(kc.run);
    std::vector<std::byte> state(kc.stateBytes);
    std::memcpy(state.data(), cluster.memory(0, 0), kc.stateBytes);
    return state;
}

class ProtocolConformance : public ::testing::TestWithParam<KernelCase>
{};

TEST_P(ProtocolConformance, BitIdenticalFinalState)
{
    const KernelCase &kc = GetParam();
    const std::vector<std::byte> reference = runLeg(kLegs[0], kc);
    for (std::size_t l = 1; l < std::size(kLegs); ++l) {
        const std::vector<std::byte> got = runLeg(kLegs[l], kc);
        ASSERT_EQ(got.size(), reference.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], reference[i])
                << kc.name << " np=" << kc.nprocs << ": "
                << kLegs[l].label << " differs from "
                << kLegs[0].label << " at byte " << i;
        }
    }
}

std::vector<KernelCase>
conformanceCases()
{
    std::vector<KernelCase> cases;
    for (int np : {2, 4, 8}) {
        for (int t : {1, 2, 4}) {
            cases.push_back(
                {"stencil", stencilKernel, stencilBytes(), np, t});
            cases.push_back(
                {"taskqueue", taskQueueKernel, taskQueueBytes(), np, t});
            cases.push_back({"ring", ringKernel, ringBytes(), np, t});
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Kernels, ProtocolConformance,
                         ::testing::ValuesIn(conformanceCases()),
                         [](const auto &info) {
                             return std::string(info.param.name) + "_np" +
                                    std::to_string(info.param.nprocs) +
                                    "x" +
                                    std::to_string(info.param.threads);
                         });

} // namespace
} // namespace dsm
