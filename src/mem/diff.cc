#include "mem/diff.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "mem/wide_scan.hh"
#include "util/logging.hh"

namespace dsm {

namespace {

void
storeU32(std::byte *p, std::uint32_t v)
{
    std::memcpy(p, &v, sizeof v);
}

/** One uninitialized allocation of @p n image bytes; @p out is set to
 *  its writable start. */
std::shared_ptr<const std::byte>
allocImage(std::size_t n, std::byte *&out)
{
    auto buf = std::make_shared_for_overwrite<std::byte[]>(n);
    out = buf.get();
    return {std::move(buf), out};
}

/**
 * Walk one encoded diff at @p r's position, checking every run against
 * the area length before handing it to @p take(offset, size), which
 * consumes the run's bytes from @p r (a short image panics there with
 * "wire underrun").
 */
template <typename Take>
void
walkRuns(WireReader &r, Take take)
{
    const std::uint32_t area_len = r.getU32();
    const std::uint32_t nruns = r.getU32();
    for (std::uint32_t i = 0; i < nruns; ++i) {
        const std::uint32_t offset = r.getU32();
        const std::uint32_t size = r.getU32();
        DSM_ASSERT(std::uint64_t{offset} + size <= area_len,
                   "diff run out of bounds");
        take(offset, size);
    }
}

/** Check one encoded diff at @p r's position and return the image it
 *  occupies (viewed in place in @p r's buffer). */
std::span<const std::byte>
scanImage(WireReader &r)
{
    const std::span<const std::byte> rest = r.unread();
    walkRuns(r, [&](std::uint32_t, std::uint32_t size) { r.skip(size); });
    return rest.first(rest.size() - r.remaining());
}

} // namespace

std::shared_ptr<const std::byte>
ImageBlocks::carve(std::size_t n, std::byte *&out)
{
    const std::size_t expected = std::max<std::size_t>(left, 1);
    if (left > 0)
        --left;
    if (n > kBlockBytes / 4)
        return allocImage(n, out);
    if (cap - used < n) {
        // Size the block as if the images still to come were as large
        // as this one.
        cap = std::min(kBlockBytes, n * expected);
        block = std::make_shared_for_overwrite<std::byte[]>(cap);
        used = 0;
    }
    out = block.get() + used;
    // Keep the next image's header words 8-byte aligned.
    used = std::min(cap, used + ((n + 7) & ~std::size_t{7}));
    return {block, out};
}

Diff
Diff::create(const std::byte *cur, const std::byte *twin, std::uint32_t len,
             NodeStats *stats, DiffScan scan, ImageBlocks *blocks)
{
    const std::uint32_t words = len / kWordBytes;

    // Byte ranges [first, last) of the runs, collected in one scan so
    // the image can be sized exactly; the scratch vector is per thread
    // and keeps its capacity across diffs.
    thread_local std::vector<std::pair<std::uint32_t, std::uint32_t>> spans;
    spans.clear();
    std::uint64_t data_bytes = 0;

    // Open word run [openStart, openEnd) of content to transmit. With
    // gapWords > 0 a run may bridge short unchanged stretches.
    bool open = false;
    std::uint32_t openStart = 0;
    std::uint32_t openEnd = 0;

    auto emit = [&](std::uint32_t lastByte) {
        const std::uint32_t firstByte = openStart * kWordBytes;
        spans.emplace_back(firstByte, lastByte);
        data_bytes += lastByte - firstByte;
    };

    scanChangedRuns(cur, twin, words, scan.kernel,
                    [&](std::uint32_t w, std::uint32_t e) {
                        if (open && w - openEnd <= scan.gapWords) {
                            openEnd = e;
                            return;
                        }
                        if (open)
                            emit(openEnd * kWordBytes);
                        open = true;
                        openStart = w;
                        openEnd = e;
                    });

    // Trailing bytes (objects need not be word multiples); the tail is
    // compared as one short word and may coalesce with the final run.
    const std::uint32_t tail = words * kWordBytes;
    const bool tail_differs =
        tail < len && std::memcmp(cur + tail, twin + tail, len - tail) != 0;
    if (tail_differs && open && scan.gapWords > 0 &&
        words - openEnd <= scan.gapWords) {
        emit(len);
    } else {
        if (open)
            emit(openEnd * kWordBytes);
        if (tail_differs) {
            openStart = words;
            emit(len);
        }
    }

    Diff d;
    d.imageLen = kHeaderBytes + spans.size() * kRunHeaderBytes + data_bytes;
    std::byte *p = nullptr;
    d.storage = blocks ? blocks->carve(d.imageLen, p)
                       : allocImage(d.imageLen, p);
    storeU32(p, len);
    storeU32(p + 4, static_cast<std::uint32_t>(spans.size()));
    p += kHeaderBytes;
    for (const auto &[first, last] : spans) {
        storeU32(p, first);
        storeU32(p + 4, last - first);
        std::memcpy(p + kRunHeaderBytes, cur + first, last - first);
        p += kRunHeaderBytes + (last - first);
    }

    if (stats) {
        stats->diffWordsCompared += comparedWords(len);
        stats->diffsCreated++;
    }
    return d;
}

void
Diff::apply(std::byte *dst, NodeStats *stats) const
{
    for (const Run &run : runs())
        std::memcpy(dst + run.offset, run.data.data(), run.data.size());
    if (stats)
        stats->diffsApplied++;
}

void
Diff::encode(WireWriter &w) const
{
    w.putBytes(bytes(), wireBytes());
}

Diff
Diff::decode(WireReader &r)
{
    const std::span<const std::byte> src = scanImage(r);
    Diff d;
    d.imageLen = src.size();
    std::byte *p = nullptr;
    d.storage = allocImage(src.size(), p);
    std::memcpy(p, src.data(), src.size());
    return d;
}

Image
Diff::image() const
{
    if (storage)
        return {storage, imageLen};
    // The empty diff's static image, held by no owner.
    return {std::shared_ptr<const std::byte>(std::shared_ptr<void>(),
                                             kEmptyImage),
            imageLen};
}

Diff
Diff::applyImage(const Image &img, std::byte *dst, NodeStats *stats)
{
    // decode(r)'s checks, made run by run as the bytes are copied, so
    // the image is walked once.
    WireReader r(img.bytes());
    walkRuns(r, [&](std::uint32_t offset, std::uint32_t size) {
        r.getBytes(dst + offset, size);
    });
    DSM_ASSERT(r.done(), "diff image has %zu trailing bytes",
               r.remaining());
    if (stats)
        stats->diffsApplied++;
    Diff d;
    d.imageLen = img.size;
    d.storage = img.data;
    return d;
}

bool
Diff::operator==(const Diff &other) const
{
    return wireBytes() == other.wireBytes() &&
           std::memcmp(bytes(), other.bytes(), wireBytes()) == 0;
}

} // namespace dsm
