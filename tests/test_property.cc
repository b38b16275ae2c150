/**
 * @file
 * Property tests sweeping the whole configuration space: a randomized
 * "chaos counter" workload whose invariant (every increment survives)
 * must hold under every model x trapping x collection combination,
 * several page sizes, random schedules, and an unreliable network.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>

#include "core/cluster.hh"
#include "core/diff_index.hh"
#include "core/page_home.hh"
#include "core/shared_array.hh"
#include "util/rng.hh"

namespace dsm {
namespace {

struct ChaosCase
{
    std::string config;
    std::size_t pageSize;
    std::uint64_t seed;
    std::uint64_t lossEveryNth;
    bool homeBased = false;
};

/** Nightly-stress knobs: DSM_CHAOS_SEED offsets every case's seed so
 *  repeated CI iterations explore fresh schedules, and DSM_HOME_MIG
 *  overrides the home-migration threshold (the nightly job sweeps the
 *  4-8 range that exposed the PR 4 lost-update window). */
std::uint64_t
chaosEnvU64(const char *name, std::uint64_t fallback)
{
    if (const char *v = std::getenv(name))
        return std::strtoull(v, nullptr, 10);
    return fallback;
}

std::string
caseName(const ChaosCase &c)
{
    std::string n = c.config + (c.homeBased ? "_home" : "") + "_p" +
                    std::to_string(c.pageSize) + "_s" +
                    std::to_string(c.seed) +
                    (c.lossEveryNth ? "_lossy" : "");
    for (char &ch : n) {
        if (ch == '-')
            ch = '_';
    }
    return n;
}

class ChaosCounter : public ::testing::TestWithParam<ChaosCase>
{};

/**
 * K counter arrays, each protected by (and, under EC, bound to) a
 * lock. Every node performs R rounds; each round picks a pseudo-random
 * lock, increments a pseudo-random slot of its array, and occasionally
 * hits a barrier. Finally every slot's value must equal the number of
 * increments applied to it, which each node tallied locally.
 */
TEST_P(ChaosCounter, NoLostUpdates)
{
    const ChaosCase &c = GetParam();
    constexpr int kLocks = 5;
    constexpr int kSlots = 24;
    constexpr int kRounds = 60;
    const int nprocs = 4;
    const std::uint64_t seed =
        c.seed + 1000 * chaosEnvU64("DSM_CHAOS_SEED", 0);

    ClusterConfig cc;
    cc.nprocs = nprocs;
    cc.arenaBytes = 1u << 20;
    cc.pageSize = c.pageSize;
    cc.runtime = RuntimeConfig::parse(c.config);
    cc.lossEveryNth = c.lossEveryNth;
    cc.homeBasedLrc = c.homeBased;
    // Aggressive migration so home hand-offs happen mid-chaos
    // (nightly stress sweeps DSM_HOME_MIG over 4-8).
    cc.homeMigrateThreshold =
        c.homeBased
            ? static_cast<std::uint32_t>(chaosEnvU64("DSM_HOME_MIG", 6))
            : 0;
    Cluster cluster(cc);

    // Expected tallies are deterministic given the seeds. Workers,
    // not nodes: under DSM_THREADS > 1 every node runs several chaos
    // workers, which makes this the intra-node mixed-lock stressor.
    std::vector<std::uint64_t> expected(kLocks * kSlots, 0);
    for (int p = 0; p < cluster.nworkers(); ++p) {
        Rng rng(seed * 977 + p);
        for (int r = 0; r < kRounds; ++r) {
            const int lock = static_cast<int>(rng.below(kLocks));
            const int slot = static_cast<int>(rng.below(kSlots));
            expected[lock * kSlots + slot]++;
            rng.below(7); // mirrors the barrier dice below
        }
    }

    RunResult result = cluster.run([&](Runtime &rt) {
        const bool ec = rt.clusterConfig().runtime.model == Model::EC;
        std::vector<SharedArray<std::uint64_t>> arrays;
        for (int l = 0; l < kLocks; ++l) {
            arrays.push_back(SharedArray<std::uint64_t>::alloc(
                rt, kSlots, 4, "chaos"));
            if (ec)
                rt.bindLock(100 + l, {arrays.back().wholeRange()});
        }
        rt.barrier(0);

        Rng rng(seed * 977 + rt.worker());
        BarrierId sync_round = 0;
        int since_barrier = 0;
        for (int r = 0; r < kRounds; ++r) {
            const int lock = static_cast<int>(rng.below(kLocks));
            const int slot = static_cast<int>(rng.below(kSlots));
            rt.acquire(100 + lock, AccessMode::Write);
            arrays[lock].set(slot, arrays[lock].get(slot) + 1);
            rt.release(100 + lock);
            // Occasional barriers, decided identically on every node
            // per round index... each node rolls its own dice; barriers
            // must be collective, so use the round index instead.
            rng.below(7);
            if (++since_barrier == 10) {
                rt.barrier(1 + sync_round++);
                since_barrier = 0;
            }
        }
        while (sync_round < kRounds / 10)
            rt.barrier(1 + sync_round++);
        rt.barrier(900);

        // Worker 0 (on node 0) collects every array via the protocol.
        if (rt.worker() == 0) {
            for (int l = 0; l < kLocks; ++l) {
                if (ec) {
                    rt.acquire(100 + l, AccessMode::Read);
                    rt.release(100 + l);
                }
                for (int s = 0; s < kSlots; ++s)
                    arrays[l].get(s);
            }
        }
        rt.barrier(901);
    });

    for (int l = 0; l < kLocks; ++l) {
        for (int s = 0; s < kSlots; ++s) {
            std::uint64_t got;
            std::memcpy(&got,
                        cluster.memory(0, (static_cast<GlobalAddr>(l) *
                                               kSlots +
                                           s) *
                                              8),
                        8);
            ASSERT_EQ(got, expected[l * kSlots + s])
                << "lock " << l << " slot " << s;
        }
    }

    if (c.lossEveryNth) {
        EXPECT_GT(result.total.retransmissions, 0u)
            << "lossy run should have exercised retransmission";
    }
}

std::vector<ChaosCase>
chaosCases()
{
    std::vector<ChaosCase> cases;
    for (const RuntimeConfig &config : RuntimeConfig::all()) {
        for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
            cases.push_back({config.name(), 1024, seed, 0});
        }
        // Cross-page behaviour and the lossy network, one seed each.
        cases.push_back({config.name(), 256, 7, 0});
        cases.push_back({config.name(), 1024, 11, 10});
    }
    // The home-based LRC variant, with migrations mid-run.
    for (std::uint64_t seed : {1ull, 2ull, 3ull})
        cases.push_back({"LRC-diff", 1024, seed, 0, true});
    cases.push_back({"LRC-diff", 256, 7, 0, true});
    cases.push_back({"LRC-diff", 1024, 11, 10, true});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChaosCounter,
                         ::testing::ValuesIn(chaosCases()),
                         [](const auto &info) {
                             return caseName(info.param);
                         });

/**
 * Homeless vs home-based diff application: a randomized multi-writer
 * page history — causally ordered rounds of 1-3 concurrent writers
 * touching disjoint words, with byte-granularity (non-word-aligned)
 * writes and occasional gap-coalesced diffs on single-writer rounds —
 * must converge to the same page bytes whether the diffs are applied
 * in happens-before (sum) order, as the homeless protocol does after
 * collecting a diff chain, or in an adversarially shuffled arrival
 * order through the home's sum-guarded in-place application.
 */
TEST(HomeDiffApplication, ConvergesWithHomelessOrder)
{
    constexpr std::uint32_t kPageBytes = 512;
    constexpr std::uint32_t kPageWords = kPageBytes / 4;

    for (std::uint64_t trial = 0; trial < 60; ++trial) {
        Rng rng(0xd1f5ull * 131 + trial);

        std::vector<std::byte> truth(kPageBytes);
        for (auto &b : truth)
            b = static_cast<std::byte>(rng.below(256));
        const std::vector<std::byte> base = truth;

        struct HistoryDiff
        {
            Diff diff;
            std::uint64_t vtSum;
            std::uint64_t order; ///< tiebreak within equal sums
        };
        std::vector<HistoryDiff> history;

        const int rounds = static_cast<int>(rng.range(2, 6));
        for (int round = 0; round < rounds; ++round) {
            const std::vector<std::byte> twin = truth;
            const int writers = static_cast<int>(rng.range(1, 3));
            // Concurrent writers of a data-race-free program touch
            // disjoint words: partition the page among this round's
            // writers.
            const std::uint32_t band = kPageWords / writers;
            for (int w = 0; w < writers; ++w) {
                std::vector<std::byte> copy = twin;
                const std::uint32_t lo_word = w * band;
                const std::uint32_t hi_word =
                    (w == writers - 1) ? kPageWords : lo_word + band;
                const int nwrites = static_cast<int>(rng.range(1, 6));
                for (int i = 0; i < nwrites; ++i) {
                    // Byte-granularity writes, deliberately unaligned.
                    const std::uint32_t lo = lo_word * 4;
                    const std::uint32_t hi = hi_word * 4;
                    const std::uint32_t off = static_cast<std::uint32_t>(
                        lo + rng.below(hi - lo));
                    const std::uint32_t len =
                        std::min<std::uint32_t>(
                            static_cast<std::uint32_t>(1 +
                                                       rng.below(21)),
                            hi - off);
                    for (std::uint32_t b = 0; b < len; ++b) {
                        copy[off + b] =
                            static_cast<std::byte>(rng.below(256));
                    }
                }
                // Single-writer rounds may coalesce runs across gaps
                // (bridged words carry round-start content, which is
                // exactly what in-order application would leave there).
                DiffScan scan;
                scan.gapWords =
                    (writers == 1)
                        ? static_cast<std::uint32_t>(rng.below(5))
                        : 0;
                Diff d = Diff::create(copy.data(), twin.data(),
                                      kPageBytes, nullptr, scan);
                // Later rounds dominate earlier ones: strictly larger
                // sums. Concurrent writers get arbitrary close sums.
                const std::uint64_t vt_sum =
                    static_cast<std::uint64_t>(round + 1) * 100 +
                    rng.below(10);
                history.push_back(
                    {std::move(d), vt_sum, history.size()});
                // Fold this writer's words into the evolving truth.
                for (std::uint32_t word = lo_word; word < hi_word;
                     ++word) {
                    std::copy_n(copy.begin() + word * 4, 4,
                                truth.begin() + word * 4);
                }
            }
        }

        // Homeless replay: happens-before (sum) order, as the
        // faulting node applies a collected diff chain.
        std::vector<std::size_t> order(history.size());
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (history[a].vtSum != history[b].vtSum)
                          return history[a].vtSum < history[b].vtSum;
                      return history[a].order < history[b].order;
                  });
        std::vector<std::byte> homeless = base;
        for (std::size_t i : order)
            history[i].diff.apply(homeless.data());
        ASSERT_EQ(homeless, truth) << "trial " << trial;

        // Home replay: adversarially shuffled arrival order through
        // the guarded in-place application.
        for (std::size_t i = history.size(); i > 1; --i) {
            std::swap(history[i - 1],
                      history[rng.below(i)]);
        }
        std::vector<std::byte> home = base;
        std::vector<std::uint64_t> word_sums(kPageWords, 0);
        for (const HistoryDiff &h : history)
            applyDiffGuarded(home.data(), word_sums, h.diff, h.vtSum);
        ASSERT_EQ(home, truth) << "trial " << trial;
    }
}

/**
 * Property: the homeless fetch applies a batch grouped by page (each
 * page's diffs in happens-before sum order, duplicates from a second
 * responder dropped unread) and must leave every page's bytes and
 * copy vector time exactly as applying the whole batch in one global
 * sum order would, for batches of several pages and several
 * concurrent writers per page.
 */
TEST(HomelessBatchApplication, PageGroupedOrderMatchesGlobalSumOrder)
{
    constexpr std::uint32_t kPageBytes = 256;
    constexpr std::uint32_t kPageWords = kPageBytes / 4;
    constexpr int kProcs = 4;

    for (std::uint64_t trial = 0; trial < 60; ++trial) {
        Rng rng(0xba7cull * 977 + trial);
        const int npages = static_cast<int>(rng.range(2, 5));
        const PageId first_page = static_cast<PageId>(rng.below(100));

        std::vector<std::vector<std::byte>> base(npages);
        for (auto &page : base) {
            page.resize(kPageBytes);
            for (auto &b : page)
                b = static_cast<std::byte>(rng.below(256));
        }
        std::vector<std::vector<std::byte>> truth = base;

        std::vector<FetchedDiff> batch;
        std::vector<std::uint32_t> intervals(kProcs, 0);
        const int rounds = static_cast<int>(rng.range(2, 6));
        for (int round = 0; round < rounds; ++round) {
            // This round's closing writers; each closes one interval
            // covering the pages it wrote, all with one vector time.
            const int writers = static_cast<int>(rng.range(1, kProcs));
            const int first_writer =
                static_cast<int>(rng.below(kProcs - writers + 1));
            const std::vector<std::vector<std::byte>> twins = truth;
            for (int w = 0; w < writers; ++w) {
                const NodeId proc = first_writer + w;
                const std::uint32_t idx = ++intervals[proc];
                const std::uint64_t vt_sum =
                    static_cast<std::uint64_t>(round + 1) * 100 +
                    rng.below(10);
                // Concurrent writers touch disjoint words: a band each.
                const std::uint32_t band = kPageWords / writers;
                const std::uint32_t lo = w * band * 4;
                const std::uint32_t hi =
                    (w == writers - 1) ? kPageBytes : lo + band * 4;
                for (int pg = 0; pg < npages; ++pg) {
                    if (rng.below(3) == 0)
                        continue; // this interval left the page alone
                    std::vector<std::byte> copy = twins[pg];
                    const int nwrites = static_cast<int>(rng.range(1, 5));
                    for (int i = 0; i < nwrites; ++i) {
                        copy[lo + rng.below(hi - lo)] =
                            static_cast<std::byte>(rng.below(256));
                    }
                    const Diff d = Diff::create(copy.data(),
                                                twins[pg].data(),
                                                kPageBytes);
                    std::copy(copy.begin() + lo, copy.begin() + hi,
                              truth[pg].begin() + lo);
                    FetchedDiff f;
                    f.page = first_page + static_cast<PageId>(pg);
                    f.proc = proc;
                    f.idx = idx;
                    f.vtSum = vt_sum;
                    f.image = d.image();
                    batch.push_back(f);
                    // A second responder sends the same diff again.
                    if (rng.below(4) == 0)
                        batch.push_back(f);
                }
            }
        }
        // Replies arrive from several responders in any order.
        for (std::size_t i = batch.size(); i > 1; --i)
            std::swap(batch[i - 1], batch[rng.below(i)]);

        struct Replica
        {
            std::vector<std::vector<std::byte>> pages;
            std::vector<std::vector<std::uint32_t>> copyVt;
        };
        auto apply_in_order = [&](std::vector<FetchedDiff> order) {
            Replica rep{base, std::vector<std::vector<std::uint32_t>>(
                                  npages,
                                  std::vector<std::uint32_t>(kProcs, 0))};
            for (FetchedDiff &f : order) {
                const int pg = static_cast<int>(f.page - first_page);
                std::uint32_t &seen = rep.copyVt[pg][f.proc];
                if (f.idx <= seen)
                    continue; // duplicate, dropped unread
                Diff::applyImage(f.image, rep.pages[pg].data());
                seen = f.idx;
            }
            return rep;
        };

        // Reference: one global happens-before (sum) order.
        std::vector<FetchedDiff> global = batch;
        std::stable_sort(global.begin(), global.end(),
                         [](const FetchedDiff &a, const FetchedDiff &b) {
                             if (a.vtSum != b.vtSum)
                                 return a.vtSum < b.vtSum;
                             if (a.proc != b.proc)
                                 return a.proc < b.proc;
                             return a.idx < b.idx;
                         });
        std::vector<FetchedDiff> grouped = batch;
        sortForApply(grouped);

        // Grouped: each page's diffs are contiguous and in the global
        // order's per-page sequence.
        for (int pg = 0; pg < npages; ++pg) {
            const PageId page = first_page + static_cast<PageId>(pg);
            std::vector<std::pair<NodeId, std::uint32_t>> want, got;
            for (const FetchedDiff &f : global) {
                if (f.page == page)
                    want.emplace_back(f.proc, f.idx);
            }
            std::size_t runs = 0;
            for (std::size_t i = 0; i < grouped.size(); ++i) {
                if (grouped[i].page != page)
                    continue;
                got.emplace_back(grouped[i].proc, grouped[i].idx);
                if (i == 0 || grouped[i - 1].page != page)
                    ++runs;
            }
            ASSERT_EQ(got, want) << "trial " << trial << " page " << page;
            ASSERT_LE(runs, 1u) << "trial " << trial << " page " << page;
        }

        const Replica by_global = apply_in_order(global);
        const Replica by_page = apply_in_order(grouped);
        ASSERT_EQ(by_page.pages, by_global.pages) << "trial " << trial;
        ASSERT_EQ(by_page.copyVt, by_global.copyVt) << "trial " << trial;
        ASSERT_EQ(by_page.pages, truth) << "trial " << trial;
    }
}

/** Virtual time monotonicity: more lock hops cannot make the modeled
 *  execution cheaper; a lossy network is never faster than a reliable
 *  one for the same schedule. */
TEST(VirtualTimeProperty, LossSlowsExecution)
{
    auto run = [](std::uint64_t loss) {
        ClusterConfig cc;
        cc.nprocs = 4;
        cc.arenaBytes = 1u << 20;
        cc.pageSize = 1024;
        cc.runtime = RuntimeConfig::parse("LRC-diff");
        cc.lossEveryNth = loss;
        Cluster cluster(cc);
        return cluster.run([](Runtime &rt) {
            auto a = SharedArray<int>::alloc(rt, 256);
            rt.barrier(0);
            for (int round = 0; round < 20; ++round) {
                rt.acquire(1, AccessMode::Write);
                a.set(round, round);
                rt.release(1);
                rt.barrier(1 + round);
            }
        });
    };
    RunResult reliable = run(0);
    RunResult lossy = run(4);
    EXPECT_GT(lossy.total.retransmissions, 0u);
    EXPECT_GT(lossy.execTimeNs, reliable.execTimeNs);
}

} // namespace
} // namespace dsm
