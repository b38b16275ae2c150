/**
 * @file
 * Diffs: run-length encodings of the changes to a shared data object
 * (EC) or page (LRC) — Section 5.2 of the paper. A diff is created by
 * comparing the current copy against the twin at word granularity and
 * applied by splatting its runs onto a destination copy.
 *
 * A Diff is one immutable, reference-counted byte image in its wire
 * layout (all fields little-endian u32):
 *
 *     areaLen | nruns | { offset | size | size bytes } x nruns
 *
 * so encode() is a single copy of the image, wireBytes() is its size,
 * and apply() walks it in place. Copying a Diff shares the image.
 *
 * Ownership: an image is immutable once written and is freed when the
 * last Diff or Image viewing it goes away, normally when barrier-time
 * GC prunes the last stored diff of its interval. Three places make
 * images:
 *  - Diff::create with an ImageBlocks (LRC interval close) carves the
 *    images of one close's diffs from a few blocks that those diffs
 *    own together; a block dies with its interval's diffs, which GC
 *    prunes together, so it never pins another interval's memory.
 *  - Diff::create without one, and Diff::decode(r) (home flushes, EC,
 *    checkpoint restore), make one allocation of exact size.
 *  - Diff::applyImage wraps a received Image without copying it.
 * image() hands an image out as a net Image without copying it. The
 * homeless fetch path uses the pair: a responder attaches its stored
 * diffs' images to the batch reply; on the in-process tier the
 * fetcher's stored diff then shares the creator's block, and on the
 * socket tier the receiving frame's image buffer.
 *
 * Checking: a Diff made from outside bytes is always checked before it
 * exists. decode(r) checks every run against the area length ("diff
 * run out of bounds") and against the bytes at hand ("wire underrun")
 * before copying the image. applyImage checks each run the same way
 * just before copying that run's bytes to the destination, in the one
 * pass that applies the image, and rejects trailing bytes after the
 * last run; only then does it return the Diff. So every Diff is safe
 * to walk.
 */

#ifndef DSM_MEM_DIFF_HH
#define DSM_MEM_DIFF_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "mem/wide_scan.hh"
#include "net/serde.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace dsm {

/** How Diff::create scans the copy against the twin. */
struct DiffScan
{
    /**
     * Comparison kernel (mem/wide_scan.hh): the seed per-word memcmp
     * loop (Scalar), the 64-bit/memcmp-chunked walk (Wide), or the
     * explicit AVX2/NEON kernels (Simd, with internal fallback on
     * CPUs without the extension). All emit identical
     * word-granularity runs. Defaults to the best kernel available.
     */
    ScanKernel kernel = bestScanKernel();

    /**
     * Coalesce runs separated by at most this many unchanged words
     * into one run (carrying the unchanged bytes), trading payload
     * bytes for fewer per-run wire headers. 0 keeps runs word-exact.
     *
     * Caution: a coalesced run overwrites the bridged unchanged words
     * on apply, which is only safe when diffs from concurrent writers
     * of the same page cannot interleave within the gap (single-writer
     * pages, or EC's lock-serialized objects).
     */
    std::uint32_t gapWords = 0;
};

/**
 * The image blocks of one LRC interval close. Diff::create carves each
 * diff's image from the current block, and every diff holds its block
 * through an aliasing shared_ptr, so one close makes a few allocations
 * instead of one per diff. Blocks stay at most kBlockBytes (under
 * glibc's mmap threshold, so they come from the heap, not from fresh
 * mappings), and a new block is sized for the images still to come,
 * so a close with one small diff does not pin a whole block. An image
 * larger than a quarter of a block gets its own exact allocation.
 *
 * Make one per close, on the stack: it must not outlive the close, or
 * a later interval's diffs would share an earlier interval's block.
 */
class ImageBlocks
{
  public:
    static constexpr std::size_t kBlockBytes = 64 * 1024;

    /** Blocks for at most @p images images. */
    explicit ImageBlocks(std::size_t images) : left(images) {}

    ImageBlocks(const ImageBlocks &) = delete;
    ImageBlocks &operator=(const ImageBlocks &) = delete;

    /** @p n bytes of image storage; @p out is set to their writable
     *  start. */
    std::shared_ptr<const std::byte> carve(std::size_t n, std::byte *&out);

  private:
    std::shared_ptr<std::byte[]> block;
    std::size_t used = 0;
    std::size_t cap = 0;
    std::size_t left; ///< images still to carve (a sizing hint)
};

class Diff
{
  public:
    /** The empty diff of a zero-length area. */
    Diff() = default;

    // One shared wire layout: encode(), decode() and wireBytes() all
    // derive from these constants.
    static constexpr std::uint32_t kWordBytes = 4;
    /** 4 (area length) + 4 (run count). */
    static constexpr std::uint64_t kHeaderBytes = 8;
    /** Per run: 4 (offset) + 4 (size). */
    static constexpr std::uint64_t kRunHeaderBytes = 8;

    /** Words a scan of @p len bytes compares; the trailing non-word
     *  tail (1-3 bytes) counts as one short word. */
    static constexpr std::uint64_t
    comparedWords(std::uint32_t len)
    {
        return (std::uint64_t{len} + kWordBytes - 1) / kWordBytes;
    }

    /** One run of changed bytes: data.size() bytes at @p offset
     *  within the diffed area, viewed in place in the image. */
    struct Run
    {
        std::uint32_t offset = 0;
        std::span<const std::byte> data;
    };

    /** Forward iterator over the runs of an image. */
    class RunIterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = Run;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = Run;

        RunIterator() = default;
        RunIterator(const std::byte *p, std::uint32_t left)
            : p(p), left(left)
        {}

        Run
        operator*() const
        {
            return {loadU32(p), {p + kRunHeaderBytes, loadU32(p + 4)}};
        }

        RunIterator &
        operator++()
        {
            p += kRunHeaderBytes + loadU32(p + 4);
            --left;
            return *this;
        }

        RunIterator
        operator++(int)
        {
            RunIterator old = *this;
            ++*this;
            return old;
        }

        /** Iterators of one diff compare by runs left to walk. */
        bool
        operator==(const RunIterator &other) const
        {
            return left == other.left;
        }

      private:
        const std::byte *p = nullptr;
        std::uint32_t left = 0;
    };

    /** The runs of a diff, in offset order. */
    struct Runs
    {
        RunIterator first;

        RunIterator begin() const { return first; }
        RunIterator end() const { return {}; }
    };

    /**
     * Build a diff of @p len bytes by comparing @p cur against
     * @p twin word by word (4-byte granularity, as in the paper's
     * twinning implementations; trailing bytes are compared as one
     * short word).
     *
     * @param stats If non-null, diffWordsCompared/diffsCreated are
     *        recorded there.
     * @param scan Scan kernel and run coalescing; the default is
     *        word-exact scanning with the best available kernel.
     * @param blocks If non-null, the image is carved from these
     *        blocks; otherwise it is one allocation of its own.
     */
    static Diff create(const std::byte *cur, const std::byte *twin,
                       std::uint32_t len, NodeStats *stats = nullptr,
                       DiffScan scan = {}, ImageBlocks *blocks = nullptr);

    /** Copy every run onto @p dst (an area of at least length()). */
    void apply(std::byte *dst, NodeStats *stats = nullptr) const;

    bool empty() const { return runCount() == 0; }

    /** Length of the area this diff describes. */
    std::uint32_t length() const { return loadU32(bytes()); }

    std::uint32_t runCount() const { return loadU32(bytes() + 4); }

    Runs
    runs() const
    {
        return {{bytes() + kHeaderBytes, runCount()}};
    }

    /** Total payload bytes carried by the runs. */
    std::uint64_t
    dataBytes() const
    {
        return wireBytes() - kHeaderBytes - runCount() * kRunHeaderBytes;
    }

    /** Modeled wire footprint (runs + offsets + header): the image. */
    std::uint64_t wireBytes() const { return imageLen; }

    void encode(WireWriter &w) const;

    /** Decode a diff into a private copy of its image. */
    static Diff decode(WireReader &r);

    /** The image itself, shared rather than copied: the reference a
     *  message carries out of line. */
    Image image() const;

    /**
     * Apply the received @p img, which must hold exactly one diff
     * image, onto @p dst (an area of at least its length), checking
     * each run against the area length and the image before copying
     * its bytes, and return the diff, which shares @p img's bytes.
     * A malformed image panics; runs before the bad one may already
     * have been copied.
     */
    static Diff applyImage(const Image &img, std::byte *dst,
                           NodeStats *stats = nullptr);

    /** Equal images (same area length, runs and bytes). */
    bool operator==(const Diff &other) const;

  private:
    static constexpr std::byte kEmptyImage[kHeaderBytes] = {};

    static std::uint32_t
    loadU32(const std::byte *p)
    {
        std::uint32_t v;
        std::memcpy(&v, p, sizeof v);
        return v;
    }

    const std::byte *
    bytes() const
    {
        return storage ? storage.get() : kEmptyImage;
    }

    std::shared_ptr<const std::byte> storage; ///< null: kEmptyImage
    std::uint64_t imageLen = kHeaderBytes;
};

} // namespace dsm

#endif // DSM_MEM_DIFF_HH
