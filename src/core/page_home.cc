#include "core/page_home.hh"

#include <algorithm>
#include <cstring>

#include "mem/wide_scan.hh"
#include "util/logging.hh"

namespace dsm {

std::uint64_t
applyDiffGuarded(std::byte *dst, std::vector<std::uint64_t> &word_sums,
                 const Diff &diff, std::uint64_t vt_sum, NodeStats *stats,
                 std::byte *shadow)
{
    std::uint64_t words_written = 0;
    for (const Diff::Run &run : diff.runs()) {
        const std::span<const std::byte> data = run.data;
        const std::uint32_t size =
            static_cast<std::uint32_t>(data.size());
        const std::uint32_t first_word = run.offset / Diff::kWordBytes;
        const std::uint32_t nwords =
            (size + Diff::kWordBytes - 1) / Diff::kWordBytes;
        DSM_ASSERT(run.offset % Diff::kWordBytes == 0 &&
                       first_word + nwords <= word_sums.size(),
                   "flush run outside the page");
        for (std::uint32_t k = 0; k < nwords; ++k) {
            const std::uint32_t word = first_word + k;
            if (vt_sum < word_sums[word])
                continue;
            const std::uint32_t byte = k * Diff::kWordBytes;
            const std::uint32_t len = std::min<std::uint32_t>(
                Diff::kWordBytes, size - byte);
            if (shadow &&
                std::memcmp(dst + run.offset + byte,
                            shadow + run.offset + byte, len) != 0) {
                // The open interval rewrote this word locally after
                // the flushed value: the word sums only know committed
                // history (the node's own pre-migration flushes can
                // chase the home role back to it), but the uncommitted
                // write is causally newer — leave both copies alone so
                // it survives into the next diff.
                continue;
            }
            std::memcpy(dst + run.offset + byte, data.data() + byte, len);
            if (shadow) {
                std::memcpy(shadow + run.offset + byte,
                            data.data() + byte, len);
            }
            word_sums[word] = vt_sum;
            ++words_written;
        }
    }
    if (stats)
        stats->diffsApplied++;
    return words_written;
}

std::uint64_t
stampChangedWordSums(std::vector<std::uint64_t> &word_sums,
                     const std::byte *cur, const std::byte *twin,
                     std::uint32_t len, std::uint64_t vt_sum,
                     ScanKernel kernel)
{
    const std::uint32_t words = len / Diff::kWordBytes;
    std::uint64_t stamped = 0;
    scanChangedRuns(cur, twin, words, kernel,
                    [&](std::uint32_t w, std::uint32_t e) {
                        for (std::uint32_t k = w; k < e; ++k) {
                            word_sums[k] = std::max(word_sums[k], vt_sum);
                        }
                        stamped += e - w;
                    });
    // Trailing short word (objects need not be word multiples).
    const std::uint32_t tail = words * Diff::kWordBytes;
    if (tail < len && std::memcmp(cur + tail, twin + tail, len - tail)) {
        word_sums[words] = std::max(word_sums[words], vt_sum);
        ++stamped;
    }
    return stamped;
}

void
PageHomeTable::serialize(WireWriter &w) const
{
    w.putU32(static_cast<std::uint32_t>(overrides.size()));
    for (const auto &[page, mapping] : overrides) {
        w.putU32(page);
        w.putI64(mapping.home);
        w.putU32(mapping.epoch);
    }
    w.putU32(static_cast<std::uint32_t>(states.size()));
    for (const auto &[page, hs] : states) {
        w.putU32(page);
        hs.appliedVt.encode(w);
        w.putU32(static_cast<std::uint32_t>(hs.wordSums.size()));
        for (std::uint64_t sum : hs.wordSums)
            w.putU64(sum);
        w.putU32(static_cast<std::uint32_t>(hs.accessCounts.size()));
        for (std::uint32_t count : hs.accessCounts)
            w.putU32(count);
        w.putU32(hs.windowAccesses);
    }
}

void
PageHomeTable::restoreFrom(WireReader &r)
{
    overrides.clear();
    states.clear();
    const std::uint32_t noverrides = r.getU32();
    for (std::uint32_t i = 0; i < noverrides; ++i) {
        const PageId page = r.getU32();
        Mapping &m = overrides[page];
        m.home = static_cast<NodeId>(r.getI64());
        m.epoch = r.getU32();
    }
    const std::uint32_t nstates = r.getU32();
    for (std::uint32_t i = 0; i < nstates; ++i) {
        const PageId page = r.getU32();
        HomeState &hs = states[page];
        hs.appliedVt = VectorTime::decode(r);
        const std::uint32_t nsums = r.getU32();
        hs.wordSums.resize(nsums);
        for (std::uint32_t s = 0; s < nsums; ++s)
            hs.wordSums[s] = r.getU64();
        const std::uint32_t ncounts = r.getU32();
        hs.accessCounts.resize(ncounts);
        for (std::uint32_t c = 0; c < ncounts; ++c)
            hs.accessCounts[c] = r.getU32();
        hs.windowAccesses = r.getU32();
    }
}

} // namespace dsm
