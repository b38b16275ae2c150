/**
 * @file
 * Long-run tests for the fast-path memory pipeline: barrier-time
 * garbage collection of interval records and stored diffs (memory
 * stays bounded across many epochs), and the batched diff-fetch
 * protocol (one request per pending writer per miss, with the other
 * invalid pages piggybacked), and the per-page diff index those
 * fetches are served from, checked against the ordered map it
 * replaced.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/cluster.hh"
#include "core/diff_index.hh"
#include "core/shared_array.hh"
#include "util/rng.hh"

namespace dsm {
namespace {

constexpr int kPagesTouched = 4;
constexpr int kIntsPerPage = 256; // 1024-byte pages
constexpr int kEpochs = 40;

ClusterConfig
gcConfig(const std::string &name, int nprocs)
{
    ClusterConfig cc;
    cc.nprocs = nprocs;
    cc.arenaBytes = 1u << 20;
    cc.pageSize = 1024;
    cc.runtime = RuntimeConfig::parse(name);
    // Per-node scripted protocol test: roles key off rt.self(), so the
    // scenario only makes sense with one app thread per node (SMP
    // coverage lives in the worker-parametrized app/conformance/smp
    // suites). Pin T=1 so a DSM_THREADS sweep cannot redefine it.
    cc.threadsPerNode = 1;
    return cc;
}

/**
 * Alternating producer/consumer over several pages, one interval per
 * node per epoch: the interval log grows steadily unless GC runs.
 */
void
epochWorkload(Runtime &rt)
{
    auto a = SharedArray<int>::alloc(rt, kPagesTouched * kIntsPerPage);
    rt.barrier(0);
    for (int round = 1; round <= kEpochs; ++round) {
        const int writer = round % rt.nprocs();
        if (rt.self() == writer) {
            for (int p = 0; p < kPagesTouched; ++p)
                a.set(p * kIntsPerPage + (round % kIntsPerPage),
                      round * 100 + p);
        }
        rt.barrier(2 * round - 1);
        for (int p = 0; p < kPagesTouched; ++p) {
            ASSERT_EQ(a.get(p * kIntsPerPage + (round % kIntsPerPage)),
                      round * 100 + p);
        }
        rt.barrier(2 * round);
    }
}

/** White-box log sizes read straight off the live runtimes. Only
 *  meaningful when the workers ran in this address space, so every
 *  test using these helpers pins cc.transport = "ring" — under a
 *  process-per-node transport the launcher-side runtimes stay
 *  pristine and the bounds would pass (or fail) vacuously. */
std::size_t
totalRecords(Cluster &cluster)
{
    std::size_t total = 0;
    for (int n = 0; n < cluster.nprocs(); ++n) {
        total += dynamic_cast<const LrcRuntime &>(cluster.runtime(n))
                     .intervalRecordCount();
    }
    return total;
}

std::size_t
totalStoredDiffs(Cluster &cluster)
{
    std::size_t total = 0;
    for (int n = 0; n < cluster.nprocs(); ++n) {
        total += dynamic_cast<const LrcRuntime &>(cluster.runtime(n))
                     .diffStoreSize();
    }
    return total;
}

TEST(LrcGc, IntervalAndDiffLogsStayBoundedAcrossEpochs)
{
    ClusterConfig cc = gcConfig("LRC-diff", 2);
    cc.gcAtBarriers = true;
    cc.gcIntervalThreshold = 16;
    cc.transport = "ring"; // white-box log inspection below
    Cluster cluster(cc);
    RunResult result = cluster.run(epochWorkload);

    // GC actually fired and reclaimed storage on every node.
    EXPECT_GT(result.total.gcRounds, 0u);
    EXPECT_GT(result.total.gcRecordsReclaimed, 0u);
    EXPECT_GT(result.total.gcDiffsReclaimed, 0u);

    // What remains is bounded by the threshold plus the records of the
    // epochs since the last collection — far below the ~2 records per
    // epoch an unbounded log accumulates.
    EXPECT_LE(totalRecords(cluster),
              2 * (cc.gcIntervalThreshold + 8));
    EXPECT_LT(totalStoredDiffs(cluster),
              2 * kPagesTouched * (cc.gcIntervalThreshold + 8));
}

TEST(LrcGc, AblationLogsGrowWithoutGc)
{
    ClusterConfig cc = gcConfig("LRC-diff", 2);
    cc.gcAtBarriers = false;
    cc.transport = "ring"; // white-box log inspection below
    Cluster cluster(cc);
    RunResult result = cluster.run(epochWorkload);

    EXPECT_EQ(result.total.gcRounds, 0u);
    EXPECT_EQ(result.total.gcRecordsReclaimed, 0u);
    // Every epoch leaves one interval record per node in every log.
    EXPECT_GE(totalRecords(cluster), 2u * kEpochs);
}

TEST(LrcGc, TimestampingRecordsArePrunedToo)
{
    ClusterConfig cc = gcConfig("LRC-time", 2);
    cc.gcAtBarriers = true;
    cc.gcIntervalThreshold = 16;
    cc.transport = "ring"; // white-box log inspection below
    Cluster cluster(cc);
    RunResult result = cluster.run(epochWorkload);

    EXPECT_GT(result.total.gcRounds, 0u);
    EXPECT_GT(result.total.gcRecordsReclaimed, 0u);
    EXPECT_LE(totalRecords(cluster),
              2 * (cc.gcIntervalThreshold + 8));
}

TEST(LrcGc, SingleNodePrunesItsOwnLog)
{
    ClusterConfig cc = gcConfig("LRC-diff", 1);
    cc.gcAtBarriers = true;
    cc.gcIntervalThreshold = 8;
    cc.transport = "ring"; // white-box log inspection below
    Cluster cluster(cc);
    cluster.run([](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, 64);
        rt.barrier(0);
        for (int round = 1; round <= 30; ++round) {
            a.set(round % 64, round);
            rt.barrier(round);
        }
    });
    EXPECT_LE(totalRecords(cluster), cc.gcIntervalThreshold + 2);
}

// ---------------------------------------------------------------------
// Batched diff fetches.

constexpr int kFanOutRounds = 6;

/** One writer dirties several pages; every other node then reads them
 *  all. The first access miss of a round piggybacks the remaining
 *  invalid pages into the same request pair. */
void
fanOutWorkload(Runtime &rt)
{
    auto a = SharedArray<int>::alloc(rt, kPagesTouched * kIntsPerPage);
    rt.barrier(0);
    for (int round = 1; round <= kFanOutRounds; ++round) {
        if (rt.self() == 0) {
            for (int p = 0; p < kPagesTouched; ++p)
                a.set(p * kIntsPerPage, round * 10 + p);
        }
        rt.barrier(2 * round - 1);
        for (int p = 0; p < kPagesTouched; ++p)
            ASSERT_EQ(a.get(p * kIntsPerPage), round * 10 + p);
        rt.barrier(2 * round);
    }
}

TEST(LrcBatch, BatchingCutsDiffRequestMessages)
{
    constexpr std::uint64_t kReaders = 2;
    Cluster cluster(gcConfig("LRC-diff", 1 + kReaders));
    RunResult result = cluster.run(fanOutWorkload);

    // Each round a reader's notices name one writer (node 0) for all
    // of the pages, so its first miss is one DiffBatchRequest that
    // brings every page current: the other pages ride along and miss
    // no more until the next round.
    EXPECT_EQ(result.total.diffRequestsSent, kReaders * kFanOutRounds);
    EXPECT_EQ(result.total.diffPagesPiggybacked,
              kReaders * kFanOutRounds * (kPagesTouched - 1));
    EXPECT_EQ(result.total.accessMisses, kReaders * kFanOutRounds);
}

TEST(LrcBatch, MultiWriterPagesStayCorrectUnderBatching)
{
    Cluster cluster(gcConfig("LRC-diff", 2));
    cluster.run([](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, 2 * kIntsPerPage);
        rt.barrier(0);
        const int self = rt.self();
        // Concurrent writers on disjoint halves of two pages.
        for (int p = 0; p < 2; ++p) {
            for (int i = 0; i < kIntsPerPage / 2; ++i) {
                a.set(p * kIntsPerPage + self * (kIntsPerPage / 2) + i,
                      self * 10000 + p * 1000 + i);
            }
        }
        rt.barrier(1);
        for (int p = 0; p < 2; ++p) {
            for (int i = 0; i < kIntsPerPage / 2; ++i) {
                ASSERT_EQ(a.get(p * kIntsPerPage + i), p * 1000 + i);
                ASSERT_EQ(a.get(p * kIntsPerPage + kIntsPerPage / 2 + i),
                          10000 + p * 1000 + i);
            }
        }
        rt.barrier(2);
    });
}

// ---------------------------------------------------------------------
// The diff index against a reference: the (page, packTs(proc, idx))-
// ordered map the homeless store used to be, with its map-walk collect,
// full-walk prune and map-order checkpoint section.

struct RefEntry
{
    Diff diff;
    std::uint64_t vtSum = 0;
};
using RefStore = std::map<std::pair<PageId, std::uint64_t>, RefEntry>;

/** The reference reply section: count, then a header per diff newer
 *  than @p req_vt in map order, images appended alongside. */
void
refEncodeNewer(const RefStore &ref, PageId page, const VectorTime &req_vt,
               WireWriter &w, std::vector<Image> &images)
{
    std::vector<const RefStore::value_type *> out;
    for (auto it = ref.lower_bound({page, 0});
         it != ref.end() && it->first.first == page; ++it) {
        if (tsInterval(it->first.second) > req_vt[tsProc(it->first.second)])
            out.push_back(&*it);
    }
    w.putU32(static_cast<std::uint32_t>(out.size()));
    for (const auto *e : out) {
        w.putU16(static_cast<std::uint16_t>(tsProc(e->first.second)));
        w.putU32(tsInterval(e->first.second));
        w.putU64(e->second.vtSum);
        images.push_back(e->second.diff.image());
    }
}

std::uint64_t
refPrune(RefStore &ref, const VectorTime &gc_vt)
{
    std::uint64_t pruned = 0;
    for (auto it = ref.begin(); it != ref.end();) {
        if (tsInterval(it->first.second) <= gc_vt[tsProc(it->first.second)]) {
            it = ref.erase(it);
            ++pruned;
        } else {
            ++it;
        }
    }
    return pruned;
}

std::vector<std::byte>
refSerialize(const RefStore &ref)
{
    WireWriter w;
    w.putU32(static_cast<std::uint32_t>(ref.size()));
    for (const auto &[key, e] : ref) {
        w.putU32(key.first);
        w.putU64(key.second);
        e.diff.encode(w);
        w.putU64(e.vtSum);
    }
    return w.take();
}

std::vector<std::byte>
serialized(const DiffIndex &index)
{
    WireWriter w;
    index.serialize(w);
    return w.take();
}

TEST(DiffIndex, MatchesOrderedMapReference)
{
    constexpr int kProcs = 4;
    constexpr PageId kPages = 6;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        DiffIndex index;
        RefStore ref;
        // Last interval appended per (page, writer): appends only go
        // up, as the protocol guarantees.
        std::map<std::pair<PageId, int>, std::uint32_t> last;
        std::uint32_t max_idx = 1;
        for (int step = 0; step < 400; ++step) {
            const std::uint64_t op = rng.below(10);
            if (op < 6) {
                const PageId page = static_cast<PageId>(rng.below(kPages));
                const int proc = static_cast<int>(rng.below(kProcs));
                std::uint32_t &idx = last[{page, proc}];
                idx += 1 + static_cast<std::uint32_t>(rng.below(3));
                max_idx = std::max(max_idx, idx);
                std::vector<std::byte> twin(64), cur(64);
                for (auto &b : cur)
                    b = std::byte{static_cast<unsigned char>(rng.below(4))};
                const Diff d = Diff::create(cur.data(), twin.data(), 64);
                const std::uint64_t vt_sum = rng.next();
                index.put(page, proc, idx, vt_sum, d);
                ref[{page, packTs(proc, idx)}] = {d, vt_sum};
            } else if (op < 9) {
                // A batch request over a random page set.
                VectorTime req(kProcs);
                for (int p = 0; p < kProcs; ++p) {
                    req[p] = static_cast<std::uint32_t>(
                        rng.below(max_idx + 2));
                }
                WireWriter got, want;
                std::vector<Image> got_images, want_images;
                std::uint64_t got_bytes = 0;
                for (PageId page = 0; page < kPages + 1; ++page) {
                    if (rng.below(2) == 0)
                        continue;
                    got_bytes +=
                        index.encodeNewer(page, req, got, got_images);
                    refEncodeNewer(ref, page, req, want, want_images);
                }
                const std::vector<std::byte> g = got.take();
                const std::vector<std::byte> wnt = want.take();
                ASSERT_EQ(g, wnt) << "seed " << seed << " step " << step;
                ASSERT_EQ(got_images.size(), want_images.size());
                std::uint64_t want_bytes = 0;
                for (std::size_t i = 0; i < got_images.size(); ++i) {
                    // The same stored image, shared — not a copy.
                    EXPECT_EQ(got_images[i].data.get(),
                              want_images[i].data.get());
                    EXPECT_EQ(got_images[i].size, want_images[i].size);
                    want_bytes += want_images[i].size;
                }
                EXPECT_EQ(got_bytes, want_bytes);
            } else {
                VectorTime gc(kProcs);
                for (int p = 0; p < kProcs; ++p)
                    gc[p] = static_cast<std::uint32_t>(rng.below(max_idx));
                ASSERT_EQ(index.pruneThrough(gc), refPrune(ref, gc))
                    << "seed " << seed << " step " << step;
            }
            ASSERT_EQ(index.size(), ref.size());
        }
        const std::vector<std::byte> blob = serialized(index);
        EXPECT_EQ(blob, refSerialize(ref)) << "seed " << seed;

        // A restored index serializes to the same bytes.
        DiffIndex restored;
        WireReader r(blob);
        restored.restoreFrom(r);
        EXPECT_TRUE(r.done());
        EXPECT_EQ(serialized(restored), blob);
    }
}

TEST(DiffIndexDeathTest, OutOfOrderAppendIsRejected)
{
    std::vector<std::byte> twin(64), cur(64, std::byte{1});
    const Diff d = Diff::create(cur.data(), twin.data(), 64);
    EXPECT_DEATH(
        {
            DiffIndex index;
            index.put(3, 1, 5, 10, d);
            index.put(3, 1, 4, 9, d);
        },
        "diff index append out of order");
    EXPECT_DEATH(
        {
            DiffIndex index;
            index.put(3, 1, 5, 10, d);
            index.put(3, 1, 5, 10, d);
        },
        "diff index append out of order");
}

} // namespace
} // namespace dsm
