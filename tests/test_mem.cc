/**
 * @file
 * Unit and property tests for the memory layer: arena, page table,
 * twins, diffs, block timestamps, dirty bitmaps, region table.
 */

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "mem/diff.hh"
#include "mem/dirty_bits.hh"
#include "mem/page_table.hh"
#include "mem/region_table.hh"
#include "mem/shared_arena.hh"
#include "mem/twin_store.hh"
#include "mem/word_ts.hh"
#include "util/rng.hh"

namespace dsm {
namespace {

TEST(SharedArena, AllocAlignsAndAdvances)
{
    SharedArena arena(1 << 16, 4096);
    EXPECT_EQ(arena.alloc(10, 8), 0u);
    EXPECT_EQ(arena.alloc(4, 8), 16u);
    EXPECT_EQ(arena.alloc(1, 64), 64u);
    EXPECT_TRUE(arena.contains(0, 10));
    EXPECT_FALSE(arena.contains(64, 2));
    EXPECT_TRUE(arena.contains(64, 1));
}

TEST(SharedArena, PageMath)
{
    SharedArena arena(8192, 1024);
    EXPECT_EQ(arena.numPages(), 8u);
    EXPECT_EQ(arena.pageOf(0), 0u);
    EXPECT_EQ(arena.pageOf(1023), 0u);
    EXPECT_EQ(arena.pageOf(1024), 1u);
    EXPECT_EQ(arena.pageBase(3), 3072u);
    auto pages = arena.pagesIn(1000, 2000);
    ASSERT_EQ(pages.size(), 3u);
    EXPECT_EQ(pages[0], 0u);
    EXPECT_EQ(pages[2], 2u);
}

TEST(SharedArena, ZeroInitialized)
{
    SharedArena arena(4096, 4096);
    for (std::size_t i = 0; i < 4096; ++i)
        ASSERT_EQ(arena.at(0)[i], std::byte{0});
}

TEST(SharedArena, PagesMaterializeOnFirstTouch)
{
    // Guards against a return to an eagerly zeroed arena: construction
    // must touch no page. The arena stays under one huge page, so the
    // count is exact even where shared memory uses transparent huge
    // pages.
    const std::size_t osPage = static_cast<std::size_t>(::getpagesize());
    const std::size_t pages = 16;
    SharedArena arena(pages * osPage, osPage);
    const auto resident = [&] {
        std::vector<unsigned char> vec(pages);
        EXPECT_EQ(::mincore(arena.at(0), arena.size(), vec.data()), 0);
        std::size_t n = 0;
        for (unsigned char v : vec)
            n += v & 1;
        return n;
    };
    EXPECT_EQ(resident(), 0u);
    arena.at(3 * osPage)[5] = std::byte{1};
    EXPECT_EQ(resident(), 1u);
}

TEST(SharedArena, ForkedChildWriteVisibleToParent)
{
    // The socket tier's node processes hand their final memory back
    // through the mapping itself.
    SharedArena arena(1 << 16, 4096);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        for (std::size_t i = 0; i < 256; ++i)
            arena.at(4096)[i] = static_cast<std::byte>(i ^ 0x5a);
        ::_exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    for (std::size_t i = 0; i < 256; ++i)
        ASSERT_EQ(arena.at(4096)[i], static_cast<std::byte>(i ^ 0x5a));
}

TEST(PageTable, FaultPredicates)
{
    PageTable pt(4, PageAccess::Read);
    EXPECT_FALSE(pt.readFaults(0));
    EXPECT_TRUE(pt.writeFaults(0));
    pt.setAccess(1, PageAccess::None);
    EXPECT_TRUE(pt.readFaults(1));
    EXPECT_TRUE(pt.writeFaults(1));
    pt.setAccess(2, PageAccess::ReadWrite);
    EXPECT_FALSE(pt.writeFaults(2));
    pt.setAll(PageAccess::ReadWrite);
    EXPECT_FALSE(pt.writeFaults(1));
}

TEST(TwinStore, PageLifecycle)
{
    TwinStore twins(8, 64);
    std::vector<std::byte> data(64, std::byte{7});
    twins.makePage(3, data.data());
    EXPECT_TRUE(twins.hasPage(3));
    EXPECT_FALSE(twins.hasPage(2));
    EXPECT_EQ(twins.pageTwin(3)[10], std::byte{7});
    twins.pageTwinMut(3)[10] = std::byte{9};
    EXPECT_EQ(twins.pageTwin(3)[10], std::byte{9});
    twins.dropPage(3);
    EXPECT_FALSE(twins.hasPage(3));
}

TEST(TwinStore, ChurnAllocatesOnlyPeakLiveBuffers)
{
    constexpr std::size_t kPages = 64;
    TwinStore twins(kPages, 32);
    std::vector<std::byte> data(32, std::byte{1});
    Rng rng(0x7717);
    std::vector<PageId> live;
    std::size_t peak = 0;
    for (int step = 0; step < 4000; ++step) {
        // Bias towards growth early, shrinkage late, so the live set
        // rises and falls through several peaks.
        const bool grow = live.empty() ||
                          (live.size() < kPages &&
                           rng.below(100) < (step < 2000 ? 60u : 40u));
        if (grow) {
            PageId p = static_cast<PageId>(rng.below(kPages));
            while (twins.hasPage(p))
                p = (p + 1) % kPages;
            twins.makePage(p, data.data());
            live.push_back(p);
        } else {
            const std::size_t i = rng.below(live.size());
            twins.dropPage(live[i]);
            live[i] = live.back();
            live.pop_back();
        }
        peak = std::max(peak, live.size());
        ASSERT_EQ(twins.numPageTwins(), live.size());
        ASSERT_LE(twins.numPageBuffers(), peak);
    }
    EXPECT_EQ(twins.numPageBuffers(), peak);
    // Clearing keeps the buffers for the next interval.
    twins.clear();
    EXPECT_EQ(twins.numPageTwins(), 0u);
    EXPECT_EQ(twins.numPageBuffers(), peak);
}

TEST(TwinStore, TwinnedPagesMatchesReferenceSet)
{
    constexpr std::size_t kPages = 300;
    TwinStore twins(kPages, 16);
    std::vector<std::byte> data(16, std::byte{2});
    Rng rng(0x5e7);
    std::set<PageId> ref;
    for (int step = 0; step < 3000; ++step) {
        const PageId p = static_cast<PageId>(rng.below(kPages));
        if (ref.count(p)) {
            twins.dropPage(p);
            ref.erase(p);
        } else {
            twins.makePage(p, data.data());
            ref.insert(p);
        }
        // Dropping an untwinned page is a no-op.
        const PageId q = static_cast<PageId>(rng.below(kPages));
        if (!ref.count(q))
            twins.dropPage(q);
        if (step % 37 == 0) {
            const std::vector<PageId> got = twins.twinnedPages();
            ASSERT_EQ(std::set<PageId>(got.begin(), got.end()), ref);
            ASSERT_EQ(got.size(), ref.size());
            for (PageId page = 0; page < kPages; ++page)
                ASSERT_EQ(twins.hasPage(page), ref.count(page) != 0);
        }
    }
}

TEST(TwinStore, SerializeRestoreKeepsBytesAndLiveSet)
{
    constexpr std::size_t kPages = 40;
    constexpr std::size_t kBytes = 48;
    TwinStore twins(kPages, kBytes);
    std::map<PageId, std::vector<std::byte>> ref;
    for (PageId p : {1u, 5u, 17u, 39u}) {
        std::vector<std::byte> bytes(kBytes);
        for (std::size_t i = 0; i < kBytes; ++i)
            bytes[i] = std::byte{static_cast<unsigned char>(p * 7 + i)};
        twins.makePage(p, bytes.data());
        ref[p] = bytes;
    }
    twins.dropPage(5);
    ref.erase(5);
    twins.pageTwinMut(17)[3] = std::byte{0xee};
    ref[17][3] = std::byte{0xee};
    twins.makeRange(9, std::vector<std::byte>(5, std::byte{4}));

    WireWriter w;
    twins.serialize(w);
    const std::vector<std::byte> image = w.take();

    // Restore into a store that already holds other twins.
    TwinStore back(kPages, kBytes);
    std::vector<std::byte> junk(kBytes, std::byte{0x55});
    back.makePage(2, junk.data());
    back.makePage(17, junk.data());
    WireReader r(image);
    back.restoreFrom(r);
    EXPECT_TRUE(r.done());

    const std::vector<PageId> got = back.twinnedPages();
    EXPECT_EQ(std::set<PageId>(got.begin(), got.end()),
              (std::set<PageId>{1, 17, 39}));
    EXPECT_FALSE(back.hasPage(2));
    for (const auto &[p, bytes] : ref) {
        ASSERT_TRUE(back.hasPage(p));
        EXPECT_EQ(std::memcmp(back.pageTwin(p), bytes.data(), kBytes), 0)
            << "page " << p;
    }
    ASSERT_TRUE(back.hasRange(9));
    EXPECT_EQ(back.rangeTwin(9).size(), 5u);
}

TEST(TwinStore, ConcurrentMakeDropOnDistinctPages)
{
    // Each thread owns a disjoint set of pages (the memory shard
    // discipline), and also probes every page with hasPage, which
    // takes no lock.
    const int threads = 4;
    constexpr std::size_t kPerThread = 32;
    constexpr std::size_t kBytes = 64;
    TwinStore twins(threads * kPerThread, kBytes);
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            while (!go.load())
                std::this_thread::yield();
            Rng rng(0xc0c0 + t);
            std::vector<std::byte> src(kBytes,
                                       std::byte{static_cast<unsigned char>(t)});
            const PageId first = static_cast<PageId>(t * kPerThread);
            for (int round = 0; round < 300; ++round) {
                const PageId p = first + static_cast<PageId>(
                                             rng.below(kPerThread));
                if (twins.hasPage(p)) {
                    EXPECT_EQ(twins.pageTwin(p)[kBytes - 1],
                              std::byte{static_cast<unsigned char>(t)});
                    twins.dropPage(p);
                } else {
                    twins.makePage(p, src.data());
                }
                (void)twins.hasPage(static_cast<PageId>(
                    rng.below(threads * kPerThread)));
                if (round % 50 == 0)
                    (void)twins.twinnedPages();
            }
        });
    }
    go = true;
    for (auto &w : workers)
        w.join();
    const std::vector<PageId> live = twins.twinnedPages();
    EXPECT_EQ(live.size(), twins.numPageTwins());
    for (PageId p : live)
        EXPECT_TRUE(twins.hasPage(p));
    EXPECT_LE(twins.numPageBuffers(), threads * kPerThread);
}

TEST(TwinStore, RangeTwins)
{
    TwinStore twins(1, 64);
    twins.makeRange(5, std::vector<std::byte>(16, std::byte{1}));
    EXPECT_TRUE(twins.hasRange(5));
    EXPECT_EQ(twins.rangeTwin(5).size(), 16u);
    twins.dropRange(5);
    EXPECT_FALSE(twins.hasRange(5));
}

/** The runs of @p d, viewed in place in its image. */
std::vector<Diff::Run>
runsOf(const Diff &d)
{
    return {d.runs().begin(), d.runs().end()};
}

TEST(Diff, EmptyWhenIdentical)
{
    std::vector<std::byte> a(128, std::byte{3});
    Diff d = Diff::create(a.data(), a.data(), 128);
    EXPECT_TRUE(d.empty());
    EXPECT_EQ(d.dataBytes(), 0u);
}

TEST(Diff, CapturesChangedRuns)
{
    std::vector<std::byte> twin(64, std::byte{0});
    std::vector<std::byte> cur = twin;
    cur[4] = std::byte{1};
    cur[5] = std::byte{2};
    cur[40] = std::byte{3};
    NodeStats stats;
    Diff d = Diff::create(cur.data(), twin.data(), 64, &stats);
    const std::vector<Diff::Run> runs = runsOf(d);
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0].offset, 4u);
    EXPECT_EQ(runs[0].data.size(), 4u); // word granularity
    EXPECT_EQ(runs[1].offset, 40u);
    EXPECT_EQ(stats.diffsCreated, 1u);

    std::vector<std::byte> dst = twin;
    d.apply(dst.data(), &stats);
    EXPECT_EQ(dst, cur);
    EXPECT_EQ(stats.diffsApplied, 1u);
}

TEST(Diff, HandlesUnalignedTail)
{
    std::vector<std::byte> twin(10, std::byte{0});
    std::vector<std::byte> cur = twin;
    cur[9] = std::byte{5};
    Diff d = Diff::create(cur.data(), twin.data(), 10);
    std::vector<std::byte> dst = twin;
    d.apply(dst.data());
    EXPECT_EQ(dst, cur);
}

TEST(Diff, WireRoundTrip)
{
    std::vector<std::byte> twin(256, std::byte{0});
    std::vector<std::byte> cur = twin;
    for (int i : {0, 1, 2, 3, 100, 101, 255})
        cur[i] = std::byte{static_cast<unsigned char>(i)};
    Diff d = Diff::create(cur.data(), twin.data(), 256);
    WireWriter w;
    d.encode(w);
    auto bytes = w.take();
    EXPECT_EQ(bytes.size(), d.wireBytes());
    WireReader r(bytes);
    Diff back = Diff::decode(r);
    EXPECT_EQ(back, d);
}

/** @p bytes as a received Image: a private shared copy. */
Image
imageOf(const std::vector<std::byte> &bytes)
{
    auto buf = std::make_shared_for_overwrite<std::byte[]>(bytes.size());
    std::memcpy(buf.get(), bytes.data(), bytes.size());
    return {std::shared_ptr<const std::byte>(buf, buf.get()),
            bytes.size()};
}

TEST(Diff, ZeroCopyDecodeOutlivesReply)
{
    std::vector<std::byte> twin(512, std::byte{0});
    std::vector<std::byte> cur = twin;
    for (int i : {3, 64, 65, 200, 201, 202, 203, 204, 511})
        cur[i] = std::byte{static_cast<unsigned char>(i + 1)};
    const Diff original = Diff::create(cur.data(), twin.data(), 512);

    // A received frame body carrying a prefix, the diff image and a
    // suffix; the socket tier's frame decoder hands the image out as a
    // slice of such a buffer.
    WireWriter w;
    w.putU32(0xabcd);
    original.encode(w);
    w.putU32(0x1234);
    const std::vector<std::byte> body = w.take();
    auto reply = std::make_shared_for_overwrite<std::byte[]>(body.size());
    std::memcpy(reply.get(), body.data(), body.size());
    const std::byte *const reply_bytes = reply.get();
    const std::size_t reply_size = body.size();

    Image img{std::shared_ptr<const std::byte>(reply, reply_bytes + 4),
              original.wireBytes()};
    WireReader r(std::span<const std::byte>(reply_bytes, reply_size));
    EXPECT_EQ(r.getU32(), 0xabcdu);
    r.skip(img.size);
    std::vector<std::byte> dst = twin;
    Diff d = Diff::applyImage(img, dst.data());
    EXPECT_EQ(dst, cur);
    EXPECT_EQ(r.getU32(), 0x1234u);
    EXPECT_TRUE(r.done());
    // The runs are views into the reply, not a copy of it.
    const Diff::Run first = *d.runs().begin();
    EXPECT_GT(first.data.data(), reply_bytes);
    EXPECT_LT(first.data.data(), reply_bytes + reply_size);

    // Drop every other handle to the reply buffer; the diff alone
    // keeps it alive.
    std::weak_ptr<std::byte[]> watch = reply;
    reply.reset();
    img = Image();
    EXPECT_FALSE(watch.expired());

    dst = twin;
    d.apply(dst.data());
    EXPECT_EQ(dst, cur);
    WireWriter again;
    d.encode(again);
    auto bytes = again.take();
    WireReader r2(bytes);
    EXPECT_EQ(Diff::decode(r2), original);
    EXPECT_EQ(d, original);

    d = Diff();
    EXPECT_TRUE(watch.expired());
}

TEST(Diff, ImageSharesTheCreatorsBytes)
{
    std::vector<std::byte> twin(256, std::byte{0});
    std::vector<std::byte> cur = twin;
    cur[17] = std::byte{9};
    const Diff d = Diff::create(cur.data(), twin.data(), 256);

    // The in-process fetch path: the responder attaches image(), the
    // fetcher applies and keeps it — one allocation, no copy.
    const Image img = d.image();
    EXPECT_EQ(img.size, d.wireBytes());
    std::vector<std::byte> dst = twin;
    NodeStats stats;
    const Diff back = Diff::applyImage(img, dst.data(), &stats);
    EXPECT_EQ(dst, cur);
    EXPECT_EQ(stats.diffsApplied, 1u);
    EXPECT_EQ(back, d);
    EXPECT_EQ((*back.runs().begin()).data.data(),
              (*d.runs().begin()).data.data());

    // The empty diff has an image too (its static header).
    const Diff empty;
    EXPECT_EQ(empty.image().size, Diff::kHeaderBytes);
    EXPECT_EQ(Diff::applyImage(empty.image(), dst.data()), empty);
    EXPECT_EQ(dst, cur);
}

TEST(ImageBlocks, OneCloseSharesBlocksThatDieWithItsDiffs)
{
    constexpr std::uint32_t kPage = 4096;
    constexpr int kPages = 24;
    Rng rng(0xb10c);
    std::vector<std::byte> twin(kPage);
    for (auto &b : twin)
        b = std::byte{static_cast<unsigned char>(rng.below(256))};

    std::vector<Diff> diffs;
    std::vector<std::vector<std::byte>> curs;
    std::vector<std::byte> big_twin(8 * kPage, std::byte{0});
    std::vector<std::byte> big_cur(8 * kPage, std::byte{1});
    Diff big;
    {
        // One close; its blocks object goes with it.
        ImageBlocks blocks(kPages + 1);
        for (int i = 0; i < kPages; ++i) {
            std::vector<std::byte> cur = twin;
            const int writes = 1 + static_cast<int>(rng.below(60));
            for (int w = 0; w < writes; ++w)
                cur[rng.below(kPage)] ^= std::byte{0x5a};
            diffs.push_back(Diff::create(cur.data(), twin.data(), kPage,
                                         nullptr, {}, &blocks));
            curs.push_back(std::move(cur));
        }
        // An image over a quarter block keeps its own allocation.
        big = Diff::create(big_cur.data(), big_twin.data(), 8 * kPage,
                           nullptr, {}, &blocks);
    }
    ASSERT_GT(big.wireBytes(), ImageBlocks::kBlockBytes / 4);

    std::set<std::shared_ptr<const std::byte>,
             std::owner_less<std::shared_ptr<const std::byte>>>
        owners;
    std::uint64_t image_bytes = 0;
    for (int i = 0; i < kPages; ++i) {
        std::vector<std::byte> dst = twin;
        diffs[i].apply(dst.data());
        EXPECT_EQ(dst, curs[i]) << "page " << i;
        owners.insert(diffs[i].image().data);
        image_bytes += diffs[i].wireBytes();
    }
    // A few blocks, none over the bound, not one allocation per diff.
    EXPECT_LE(owners.size(),
              1 + image_bytes / (ImageBlocks::kBlockBytes / 2));
    EXPECT_LT(owners.size(), static_cast<std::size_t>(kPages));
    EXPECT_EQ(owners.count(big.image().data), 0u);
    std::vector<std::byte> big_dst = big_twin;
    big.apply(big_dst.data());
    EXPECT_EQ(big_dst, big_cur);

    // The blocks live exactly as long as the diffs carved from them.
    std::vector<std::weak_ptr<const std::byte>> watch(owners.begin(),
                                                      owners.end());
    owners.clear();
    diffs.pop_back();
    EXPECT_FALSE(watch.back().expired());
    diffs.clear();
    for (const auto &w : watch)
        EXPECT_TRUE(w.expired());
}

TEST(Diff, EncodedSizeIsWireBytes)
{
    Rng rng(0x5eed);
    for (int trial = 0; trial < 40; ++trial) {
        // Page-sized and unaligned-tail areas.
        const std::uint32_t len =
            trial % 2 ? 4096 : 1 + static_cast<std::uint32_t>(
                                       rng.below(4096));
        std::vector<std::byte> twin(len);
        for (auto &b : twin)
            b = std::byte{static_cast<unsigned char>(rng.below(256))};
        std::vector<std::byte> cur = twin;
        const int nmods = static_cast<int>(rng.below(200));
        for (int i = 0; i < nmods; ++i)
            cur[rng.below(len)] ^= std::byte{0x81};
        cur[len - 1] ^= std::byte{0x42};
        for (std::uint32_t gap : {0u, 8u}) {
            const Diff d = Diff::create(cur.data(), twin.data(), len,
                                        nullptr, {bestScanKernel(), gap});
            WireWriter w;
            d.encode(w);
            EXPECT_EQ(w.size(), d.wireBytes());
            std::uint64_t run_bytes = 0;
            for (const Diff::Run &run : d.runs())
                run_bytes += run.data.size();
            EXPECT_EQ(d.dataBytes(), run_bytes);
            EXPECT_EQ(d.wireBytes(),
                      Diff::kHeaderBytes +
                          d.runCount() * Diff::kRunHeaderBytes +
                          run_bytes);
        }
    }
}

/** An encoded single-run diff of a @p area_len byte area. */
std::vector<std::byte>
handEncodedDiff(std::uint32_t area_len, std::uint32_t offset,
                std::uint32_t size)
{
    WireWriter w;
    w.putU32(area_len);
    w.putU32(1);
    w.putU32(offset);
    w.putU32(size);
    for (std::uint32_t i = 0; i < size; ++i)
        w.putU8(0x7f);
    return w.take();
}

TEST(DiffDeathTest, RunOutOfBoundsIsRejected)
{
    const std::vector<std::byte> bytes = handEncodedDiff(64, 60, 8);
    EXPECT_DEATH(
        {
            WireReader r(bytes);
            Diff::decode(r);
        },
        "diff run out of bounds");
    std::vector<std::byte> dst(64);
    EXPECT_DEATH(Diff::applyImage(imageOf(bytes), dst.data()),
                 "diff run out of bounds");
}

TEST(DiffDeathTest, TruncatedImageIsRejected)
{
    std::vector<std::byte> full = handEncodedDiff(64, 8, 16);
    const std::vector<std::byte> bytes(full.begin(), full.end() - 1);
    EXPECT_DEATH(
        {
            WireReader r(bytes);
            Diff::decode(r);
        },
        "wire underrun");
    std::vector<std::byte> dst(64);
    EXPECT_DEATH(Diff::applyImage(imageOf(bytes), dst.data()),
                 "wire underrun");
}

TEST(DiffDeathTest, ImageWithTrailingBytesIsRejected)
{
    std::vector<std::byte> bytes = handEncodedDiff(64, 8, 16);
    bytes.push_back(std::byte{0});
    std::vector<std::byte> dst(64);
    EXPECT_DEATH(Diff::applyImage(imageOf(bytes), dst.data()),
                 "trailing bytes");
}

/** Property: create+apply reconstructs the modified buffer exactly,
 *  for random modification patterns. */
class DiffProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(DiffProperty, RoundTripRandomBuffers)
{
    Rng rng(GetParam());
    const std::uint32_t len =
        64 + static_cast<std::uint32_t>(rng.below(512));
    std::vector<std::byte> twin(len);
    for (auto &b : twin)
        b = std::byte{static_cast<unsigned char>(rng.below(256))};
    std::vector<std::byte> cur = twin;
    const int nmods = 1 + static_cast<int>(rng.below(40));
    for (int i = 0; i < nmods; ++i) {
        cur[rng.below(len)] =
            std::byte{static_cast<unsigned char>(rng.below(256))};
    }
    Diff d = Diff::create(cur.data(), twin.data(), len);
    std::vector<std::byte> dst = twin;
    d.apply(dst.data());
    EXPECT_EQ(dst, cur);

    // And over the wire.
    WireWriter w;
    d.encode(w);
    auto bytes = w.take();
    WireReader r(bytes);
    Diff back = Diff::decode(r);
    std::vector<std::byte> dst2 = twin;
    back.apply(dst2.data());
    EXPECT_EQ(dst2, cur);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffProperty,
                         ::testing::Range<std::uint64_t>(0, 24));

// ---------------------------------------------------------------------
// Equivalence and property tests for the wide (64-bit) diff scan.

/** Reference scan: straight per-word byte comparison at word
 *  granularity, the seed algorithm restated as simply as possible.
 *  Returns (offset, data) pairs. */
std::vector<std::pair<std::uint32_t, std::vector<std::byte>>>
referenceScan(const std::byte *cur, const std::byte *twin,
              std::uint32_t len)
{
    std::vector<std::pair<std::uint32_t, std::vector<std::byte>>> runs;
    const std::uint32_t words = len / 4;
    auto differs = [&](std::uint32_t w) {
        return std::memcmp(cur + w * 4, twin + w * 4, 4) != 0;
    };
    std::uint32_t w = 0;
    while (w < words) {
        if (differs(w)) {
            const std::uint32_t start = w;
            while (w < words && differs(w))
                ++w;
            runs.emplace_back(start * 4,
                              std::vector<std::byte>(cur + start * 4,
                                                     cur + w * 4));
        } else {
            ++w;
        }
    }
    const std::uint32_t tail = words * 4;
    if (tail < len && std::memcmp(cur + tail, twin + tail, len - tail)) {
        runs.emplace_back(tail,
                          std::vector<std::byte>(cur + tail, cur + len));
    }
    return runs;
}

void
expectMatchesReference(const Diff &d, const std::byte *cur,
                       const std::byte *twin, std::uint32_t len)
{
    auto ref = referenceScan(cur, twin, len);
    ASSERT_EQ(d.runCount(), ref.size());
    auto it = d.runs().begin();
    for (std::size_t i = 0; i < ref.size(); ++i, ++it) {
        const Diff::Run run = *it;
        EXPECT_EQ(run.offset, ref[i].first);
        ASSERT_EQ(run.data.size(), ref[i].second.size());
        EXPECT_TRUE(std::equal(run.data.begin(), run.data.end(),
                               ref[i].second.begin()));
    }
    EXPECT_TRUE(it == d.runs().end());
}

/** Mutation patterns the scan must not mis-coalesce or miss. */
std::vector<std::byte>
adversarialMutate(std::vector<std::byte> cur, int pattern, Rng &rng)
{
    const std::uint32_t len = static_cast<std::uint32_t>(cur.size());
    auto flip = [&](std::uint32_t i) {
        cur[i] = cur[i] ^ std::byte{0xff};
    };
    switch (pattern) {
      case 0: // every other word changed (maximal run count)
        for (std::uint32_t w = 0; w * 4 + 3 < len; w += 2)
            flip(w * 4);
        break;
      case 1: // first and last byte only
        flip(0);
        flip(len - 1);
        break;
      case 2: // everything changed
        for (std::uint32_t i = 0; i < len; ++i)
            flip(i);
        break;
      case 3: // one 8-byte-aligned block boundary straddle
        if (len >= 12)
            for (std::uint32_t i = 6; i < 10; ++i)
                flip(i);
        break;
      case 4: // random scatter
        for (int i = 0; i < 25; ++i)
            flip(static_cast<std::uint32_t>(rng.below(len)));
        break;
      case 5: // tail-only change (non-word lengths)
        flip(len - 1);
        break;
      default:
        break;
    }
    return cur;
}

class DiffScanEquivalence
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(DiffScanEquivalence, WideMatchesReferenceAndNarrow)
{
    Rng rng(GetParam() * 977 + 11);
    // Lengths deliberately include non-word multiples and tiny areas.
    const std::uint32_t len =
        1 + static_cast<std::uint32_t>(rng.below(700));
    std::vector<std::byte> twin(len);
    for (auto &b : twin)
        b = std::byte{static_cast<unsigned char>(rng.below(256))};

    for (int pattern = 0; pattern <= 6; ++pattern) {
        std::vector<std::byte> cur =
            adversarialMutate(twin, pattern, rng);
        Diff wide = Diff::create(cur.data(), twin.data(), len, nullptr,
                                 {ScanKernel::Wide, 0});
        Diff narrow = Diff::create(cur.data(), twin.data(), len, nullptr,
                                   {ScanKernel::Scalar, 0});
        Diff simd = Diff::create(cur.data(), twin.data(), len, nullptr,
                                 {ScanKernel::Simd, 0});
        // Byte-identical diffs: same runs, same payload, same wire form.
        EXPECT_EQ(wide, narrow);
        EXPECT_EQ(simd, narrow);
        expectMatchesReference(wide, cur.data(), twin.data(), len);

        // And both reconstruct the modified buffer.
        std::vector<std::byte> dst = twin;
        wide.apply(dst.data());
        EXPECT_EQ(dst, cur);

        WireWriter w;
        wide.encode(w);
        auto bytes = w.take();
        EXPECT_EQ(bytes.size(), wide.wireBytes());
        WireReader r(bytes);
        EXPECT_EQ(Diff::decode(r), wide);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffScanEquivalence,
                         ::testing::Range<std::uint64_t>(0, 16));

TEST(DiffScan, EmptyDiffOnIdenticalBuffers)
{
    for (std::uint32_t len : {0u, 1u, 3u, 4u, 7u, 64u, 4096u}) {
        std::vector<std::byte> buf(len, std::byte{0x5a});
        Diff d = Diff::create(buf.data(), buf.data(), len);
        EXPECT_TRUE(d.empty());
        EXPECT_EQ(d.wireBytes(), Diff::kHeaderBytes);
        WireWriter w;
        d.encode(w);
        auto bytes = w.take();
        EXPECT_EQ(bytes.size(), d.wireBytes());
        WireReader r(bytes);
        EXPECT_EQ(Diff::decode(r), d);
    }
}

TEST(DiffScan, StatsCountTailAsOneShortWord)
{
    NodeStats stats;
    std::vector<std::byte> buf(10, std::byte{1});
    Diff::create(buf.data(), buf.data(), 10, &stats);
    EXPECT_EQ(stats.diffWordsCompared, Diff::comparedWords(10));
    EXPECT_EQ(stats.diffWordsCompared, 3u); // 2 words + 1 short tail

    stats = NodeStats{};
    Diff::create(buf.data(), buf.data(), 8, &stats);
    EXPECT_EQ(stats.diffWordsCompared, 2u); // no tail, no extra word
}

TEST(DiffGap, CoalescesRunsAcrossSmallGaps)
{
    std::vector<std::byte> twin(64, std::byte{0});
    std::vector<std::byte> cur = twin;
    cur[0] = std::byte{1};  // word 0
    cur[12] = std::byte{2}; // word 3 (gap of 2 words)
    cur[40] = std::byte{3}; // word 10 (gap of 6 words)

    Diff exact = Diff::create(cur.data(), twin.data(), 64, nullptr,
                              {ScanKernel::Wide, 0});
    ASSERT_EQ(exact.runCount(), 3u);

    Diff gap2 = Diff::create(cur.data(), twin.data(), 64, nullptr,
                             {ScanKernel::Wide, 2});
    ASSERT_EQ(gap2.runCount(), 2u);
    EXPECT_EQ(runsOf(gap2)[0].offset, 0u);
    EXPECT_EQ(runsOf(gap2)[0].data.size(), 16u); // words 0..3 + bridge
    EXPECT_LT(gap2.wireBytes(), exact.wireBytes() + 8);

    Diff gap16 = Diff::create(cur.data(), twin.data(), 64, nullptr,
                              {ScanKernel::Wide, 16});
    ASSERT_EQ(gap16.runCount(), 1u);

    // Coalesced diffs still reconstruct exactly (bridged bytes carry
    // the current copy's values).
    for (const Diff *d : {&exact, &gap2, &gap16}) {
        std::vector<std::byte> dst = twin;
        d->apply(dst.data());
        EXPECT_EQ(dst, cur);
    }
}

TEST(DiffGap, RandomizedCoalescedRoundTrip)
{
    Rng rng(123);
    for (int trial = 0; trial < 50; ++trial) {
        const std::uint32_t len =
            16 + static_cast<std::uint32_t>(rng.below(500));
        std::vector<std::byte> twin(len);
        for (auto &b : twin)
            b = std::byte{static_cast<unsigned char>(rng.below(256))};
        std::vector<std::byte> cur = twin;
        const int nmods = 1 + static_cast<int>(rng.below(30));
        for (int i = 0; i < nmods; ++i)
            cur[rng.below(len)] ^= std::byte{0x3c};
        const std::uint32_t gap =
            static_cast<std::uint32_t>(rng.below(8));
        Diff d = Diff::create(cur.data(), twin.data(), len, nullptr,
                              {ScanKernel::Wide, gap});
        std::vector<std::byte> dst = twin;
        d.apply(dst.data());
        EXPECT_EQ(dst, cur);

        WireWriter w;
        d.encode(w);
        auto bytes = w.take();
        WireReader r(bytes);
        EXPECT_EQ(Diff::decode(r), d);
    }
}

TEST(StampChangedWords, WideMatchesNarrowAndStampsExactly)
{
    Rng rng(7);
    const std::uint32_t len = 512;
    std::vector<std::byte> twin(len);
    for (auto &b : twin)
        b = std::byte{static_cast<unsigned char>(rng.below(256))};
    std::vector<std::byte> cur = twin;
    for (int i = 0; i < 30; ++i)
        cur[rng.below(len)] ^= std::byte{0x80};

    BlockTimestamps wide(len / 4);
    BlockTimestamps narrow(len / 4);
    const std::uint64_t value = packTs(3, 9);
    const std::uint64_t nw = stampChangedWords(wide, cur.data(),
                                               twin.data(), len, value,
                                               ScanKernel::Wide);
    const std::uint64_t nn = stampChangedWords(narrow, cur.data(),
                                               twin.data(), len, value,
                                               ScanKernel::Scalar);
    EXPECT_EQ(nw, nn);
    EXPECT_GT(nw, 0u);
    for (std::uint32_t w = 0; w < len / 4; ++w) {
        EXPECT_EQ(wide.get(w), narrow.get(w));
        const bool changed =
            std::memcmp(cur.data() + w * 4, twin.data() + w * 4, 4) != 0;
        EXPECT_EQ(wide.get(w) == value, changed);
    }
}

TEST(BlockTimestamps, CollectRunsByEqualValue)
{
    BlockTimestamps ts(8);
    ts.setRange(1, 3, 7);
    ts.set(4, 9);
    ts.set(6, 7);
    auto runs = ts.collect([](std::uint64_t t) { return t > 5; });
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[0], (::dsm::TsRun{1, 3, 7}));
    EXPECT_EQ(runs[1], (::dsm::TsRun{4, 1, 9}));
    EXPECT_EQ(runs[2], (::dsm::TsRun{6, 1, 7}));
}

TEST(BlockTimestamps, PackUnpack)
{
    const std::uint64_t ts = packTs(5, 1234);
    EXPECT_EQ(tsProc(ts), 5);
    EXPECT_EQ(tsInterval(ts), 1234u);
}

TEST(DirtyBitmap, MarkScanClear)
{
    DirtyBitmap dirty(8192, 1024);
    dirty.markRange(100, 8);
    dirty.markRange(2048, 4);
    EXPECT_TRUE(dirty.pageDirty(0));
    EXPECT_FALSE(dirty.pageDirty(1));
    EXPECT_TRUE(dirty.pageDirty(2));
    auto pages = dirty.dirtyPages();
    ASSERT_EQ(pages.size(), 2u);
    EXPECT_EQ(pages[0], 0u);
    EXPECT_EQ(pages[1], 2u);

    auto runs = dirty.dirtyRunsIn(0, 1024);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].start, 25u); // block 100/4
    EXPECT_EQ(runs[0].length, 2u); // bytes 100..107

    EXPECT_EQ(dirty.countDirtyIn(0, 8192), 3u);
    dirty.clearRange(0, 1024);
    EXPECT_FALSE(dirty.pageDirty(0));
    EXPECT_TRUE(dirty.pageDirty(2));
    dirty.clearAll();
    EXPECT_TRUE(dirty.dirtyPages().empty());
}

TEST(DirtyBitmap, UnalignedRangeCoversWholeWords)
{
    DirtyBitmap dirty(4096, 4096);
    dirty.markRange(6, 1); // byte 6 -> word block 1
    EXPECT_TRUE(dirty.test(1));
    EXPECT_FALSE(dirty.test(0));
    EXPECT_FALSE(dirty.test(2));
}

TEST(RegionTable, LookupAndGranularity)
{
    RegionTable regions;
    regions.add({0, 100, 4, "a"});
    regions.add({128, 64, 8, "b"});
    EXPECT_EQ(regions.find(50)->name, "a");
    EXPECT_EQ(regions.find(100), nullptr);
    EXPECT_EQ(regions.find(128)->name, "b");
    EXPECT_EQ(regions.find(191)->name, "b");
    EXPECT_EQ(regions.find(192), nullptr);
    EXPECT_EQ(regions.blockSizeAt(130), 8u);
    EXPECT_EQ(regions.blockSizeAt(10), 4u);
    EXPECT_EQ(regions.blockSizeAt(5000), 4u);
    EXPECT_EQ(regions.count(), 2u);
}

} // namespace
} // namespace dsm
