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
 * Ownership: Diff::create and Diff::decode(r) (home flushes, EC,
 * checkpoint restore) allocate the image, one allocation of exact
 * size. image() hands the image out as a net Image without copying it,
 * and Diff::fromImage wraps a received Image the same way. The
 * homeless fetch path uses the pair: a responder attaches its stored
 * diffs' images to the batch reply, and on the in-process tier the
 * fetcher's stored diff shares the creator's allocation; on the socket
 * tier it shares the receiving frame's image buffer. Either way the
 * bytes live as long as any diff viewing them, normally until GC
 * prunes the last one. Both decode(r) and fromImage check every run
 * against the area length ("diff run out of bounds") and against the
 * bytes at hand ("wire underrun") before returning, so a received
 * image is always safe to walk.
 */

#ifndef DSM_MEM_DIFF_HH
#define DSM_MEM_DIFF_HH

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
     */
    static Diff create(const std::byte *cur, const std::byte *twin,
                       std::uint32_t len, NodeStats *stats = nullptr,
                       DiffScan scan = {});

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

    /** Wrap the received @p img, which must hold exactly one diff
     *  image; the diff shares @p img's bytes. */
    static Diff fromImage(const Image &img);

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
