#include "core/diff_index.hh"

#include <algorithm>
#include <cstring>

#include "mem/word_ts.hh"
#include "util/logging.hh"

namespace dsm {

void
DiffIndex::put(PageId page, NodeId proc, std::uint32_t idx,
               std::uint64_t vt_sum, Diff diff)
{
    std::vector<WriterLog> &writers = pages[page];
    if (writers.size() <= static_cast<std::size_t>(proc))
        writers.resize(static_cast<std::size_t>(proc) + 1);
    WriterLog &log = writers[proc];
    DSM_ASSERT(log.live() == 0 || log.entries.back().idx < idx,
               "diff index append out of order: page %u writer %d "
               "interval %u after %u",
               page, proc, idx, log.entries.back().idx);
    log.entries.push_back({idx, vt_sum, std::move(diff)});
    ++count;
}

std::uint64_t
DiffIndex::encodeNewer(PageId page, const VectorTime &req_vt,
                       WireWriter &w, std::vector<Image> &images) const
{
    const std::size_t first_image = images.size();
    std::uint64_t bytes = 0;
    // The count goes first; patched once the suffixes are known.
    const std::size_t count_at = w.size();
    w.putU32(0);
    const auto it = pages.find(page);
    if (it != pages.end()) {
        for (std::size_t proc = 0; proc < it->second.size(); ++proc) {
            const WriterLog &log = it->second[proc];
            const auto newer = std::upper_bound(
                log.entries.begin() +
                    static_cast<std::ptrdiff_t>(log.head),
                log.entries.end(), req_vt[static_cast<int>(proc)],
                [](std::uint32_t v, const Entry &e) { return v < e.idx; });
            for (auto e = newer; e != log.entries.end(); ++e) {
                w.putU16(static_cast<std::uint16_t>(proc));
                w.putU32(e->idx);
                w.putU64(e->vtSum);
                images.push_back(e->diff.image());
                bytes += e->diff.wireBytes();
            }
        }
    }
    const auto n = static_cast<std::uint32_t>(images.size() - first_image);
    std::memcpy(w.data() + count_at, &n, sizeof n);
    return bytes;
}

std::uint64_t
DiffIndex::pruneThrough(const VectorTime &gc_vt)
{
    std::uint64_t pruned = 0;
    for (auto &[page, writers] : pages) {
        for (std::size_t proc = 0; proc < writers.size(); ++proc) {
            WriterLog &log = writers[proc];
            const std::uint32_t through = gc_vt[static_cast<int>(proc)];
            const std::size_t before = log.head;
            while (log.head < log.entries.size() &&
                   log.entries[log.head].idx <= through) {
                log.entries[log.head].diff = Diff(); // release the image
                ++log.head;
            }
            pruned += log.head - before;
            if (log.head * 2 >= log.entries.size()) {
                log.entries.erase(log.entries.begin(),
                                  log.entries.begin() +
                                      static_cast<std::ptrdiff_t>(
                                          log.head));
                log.head = 0;
            }
        }
    }
    count -= pruned;
    return pruned;
}

void
DiffIndex::clear()
{
    pages.clear();
    count = 0;
}

void
DiffIndex::serialize(WireWriter &w) const
{
    w.putU32(static_cast<std::uint32_t>(count));
    for (const auto &[page, writers] : pages) {
        for (std::size_t proc = 0; proc < writers.size(); ++proc) {
            const WriterLog &log = writers[proc];
            for (std::size_t i = log.head; i < log.entries.size(); ++i) {
                const Entry &e = log.entries[i];
                w.putU32(page);
                w.putU64(packTs(static_cast<int>(proc), e.idx));
                e.diff.encode(w);
                w.putU64(e.vtSum);
            }
        }
    }
}

void
DiffIndex::restoreFrom(WireReader &r)
{
    clear();
    const std::uint32_t n = r.getU32();
    for (std::uint32_t i = 0; i < n; ++i) {
        const PageId page = r.getU32();
        const std::uint64_t key = r.getU64();
        Diff diff = Diff::decode(r);
        const std::uint64_t vt_sum = r.getU64();
        put(page, tsProc(key), tsInterval(key), vt_sum, std::move(diff));
    }
}

void
sortForApply(std::vector<FetchedDiff> &fetched)
{
    std::sort(fetched.begin(), fetched.end(),
              [](const FetchedDiff &a, const FetchedDiff &b) {
                  if (a.page != b.page)
                      return a.page < b.page;
                  if (a.vtSum != b.vtSum)
                      return a.vtSum < b.vtSum;
                  if (a.proc != b.proc)
                      return a.proc < b.proc;
                  return a.idx < b.idx;
              });
}

} // namespace dsm
