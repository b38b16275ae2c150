/**
 * @file
 * Microbenchmark of diff creation: the seed 4-byte memcmp scan
 * (ScanKernel::Scalar) against the 64-bit/memcmp-chunked block scan
 * (ScanKernel::Wide, PR 1) and the explicit AVX2/NEON kernels
 * (ScanKernel::Simd, this PR) on 4 KiB pages across write densities,
 * plus the effect of run coalescing (gapWords) on wire bytes.
 *
 * An informational, ungated round-trip scenario times one diff through
 * the homeless fetch path on the in-process tier — create, take its
 * image (what a batch reply carries by reference), and apply that with
 * Diff::applyImage (which checks each run as it copies it) — at the
 * sparse_64w and dense_1024w shapes.
 *
 * Emits BENCH_diff.json (tracked in the repo) so the diff-creation
 * throughput trajectory is visible across PRs. Acceptance bars:
 * PR 1 asked >= 3x wide-vs-seed on a sparse page; this PR asks
 * >= 1.5x simd-vs-wide on a dense page (where the per-word
 * findSameWord walk dominates the wide path).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "mem/diff.hh"
#include "util/rng.hh"

using namespace dsm;

namespace {

constexpr std::uint32_t kPageBytes = 4096;

struct Scenario
{
    const char *name;
    int changedWords; ///< words modified per 4 KiB page (1024 words)
};

std::vector<std::byte>
randomPage(Rng &rng)
{
    std::vector<std::byte> page(kPageBytes);
    for (auto &b : page)
        b = std::byte{static_cast<unsigned char>(rng.below(256))};
    return page;
}

/**
 * The seed Diff::create, verbatim in structure: per-word memcmp scan
 * and one freshly allocated byte vector per run. The baseline every
 * fast path is measured against.
 */
struct SeedRun
{
    std::uint32_t offset = 0;
    std::vector<std::byte> data;
};

std::vector<SeedRun>
seedCreate(const std::byte *cur, const std::byte *twin, std::uint32_t len)
{
    std::vector<SeedRun> runs;
    const std::uint32_t words = len / 4;
    std::uint32_t i = 0;
    auto wordDiffers = [&](std::uint32_t w) {
        return std::memcmp(cur + w * 4, twin + w * 4, 4) != 0;
    };
    while (i < words) {
        if (wordDiffers(i)) {
            std::uint32_t start = i;
            while (i < words && wordDiffers(i))
                ++i;
            SeedRun run;
            run.offset = start * 4;
            run.data.assign(cur + start * 4, cur + i * 4);
            runs.push_back(std::move(run));
        } else {
            ++i;
        }
    }
    const std::uint32_t tail = words * 4;
    if (tail < len && std::memcmp(cur + tail, twin + tail, len - tail)) {
        SeedRun run;
        run.offset = tail;
        run.data.assign(cur + tail, cur + len);
        runs.push_back(std::move(run));
    }
    return runs;
}

double
seedThroughput(const std::byte *cur, const std::byte *twin, int iters)
{
    volatile std::uint64_t sink = 0;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
        auto runs = seedCreate(cur, twin, kPageBytes);
        sink = sink + runs.size();
    }
    const auto end = std::chrono::steady_clock::now();
    return iters / std::chrono::duration<double>(end - start).count();
}

/** Pages/second for Diff::create under @p scan on @p cur vs @p twin. */
double
throughput(const std::byte *cur, const std::byte *twin, DiffScan scan,
           int iters)
{
    // Warm-up + checksum the result so the compiler keeps the work.
    volatile std::uint64_t sink = 0;
    Diff warm = Diff::create(cur, twin, kPageBytes, nullptr, scan);
    sink = sink + warm.dataBytes();

    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
        Diff d = Diff::create(cur, twin, kPageBytes, nullptr, scan);
        sink = sink + d.dataBytes();
    }
    const auto end = std::chrono::steady_clock::now();
    const double secs =
        std::chrono::duration<double>(end - start).count();
    return iters / secs;
}

/** Pages/second for create -> image -> applyImage. */
double
roundTripThroughput(const std::byte *cur, const std::byte *twin, int iters)
{
    std::vector<std::byte> dst(twin, twin + kPageBytes);
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
        const Diff d = Diff::create(cur, twin, kPageBytes);
        Diff::applyImage(d.image(), dst.data());
    }
    const auto end = std::chrono::steady_clock::now();
    if (std::memcmp(dst.data(), cur, kPageBytes) != 0) {
        std::fprintf(stderr, "round trip did not reproduce the page\n");
        std::exit(1);
    }
    return iters / std::chrono::duration<double>(end - start).count();
}

/** Scatter @p changed_words writes across a copy of @p twin (the
 *  paper's sparse update pattern: SOR boundary rows, Water molecule
 *  fields). */
std::vector<std::byte>
modifiedPage(const std::vector<std::byte> &twin, int changed_words)
{
    std::vector<std::byte> cur = twin;
    Rng mod(7 + changed_words);
    for (int i = 0; i < changed_words; ++i) {
        const std::uint32_t w =
            static_cast<std::uint32_t>(mod.below(kPageBytes / 4));
        cur[w * 4] =
            std::byte{static_cast<unsigned char>(mod.below(255) + 1)};
    }
    return cur;
}

} // namespace

int
main()
{
    Rng rng(42);
    std::vector<std::byte> twin = randomPage(rng);

    const std::vector<Scenario> scenarios = {
        {"clean", 0},         {"sparse_16w", 16},
        {"sparse_64w", 64},   {"quarter_256w", 256},
        {"dense_1024w", 1024},
    };
    const int iters = 200000;

    std::string json = "{\n" + hostJson() + "  \"page_bytes\": 4096,\n";
    json += std::string("  \"cpu_simd\": ") +
            (cpuHasSimdScan() ? "true" : "false") + ",\n";
    json += std::string("  \"best_kernel\": \"") +
            toString(bestScanKernel()) + "\",\n  \"scenarios\": [\n";
    std::printf("=== micro_diff: 4 KiB page, %d iterations, "
                "cpu simd: %s ===\n",
                iters, cpuHasSimdScan() ? "yes" : "no");
    std::printf("%-16s %11s %11s %11s %11s %9s %9s %9s\n", "scenario",
                "seed pg/s", "scalar pg/s", "wide pg/s", "simd pg/s",
                "wide/seed", "simd/seed", "simd/wide");

    bool first = true;
    for (const Scenario &sc : scenarios) {
        const std::vector<std::byte> cur =
            modifiedPage(twin, sc.changedWords);

        const double seed = seedThroughput(cur.data(), twin.data(), iters);
        const double narrow = throughput(cur.data(), twin.data(),
                                         {ScanKernel::Scalar, 0}, iters);
        const double wide = throughput(cur.data(), twin.data(),
                                       {ScanKernel::Wide, 0}, iters);
        const double simd = throughput(cur.data(), twin.data(),
                                       {ScanKernel::Simd, 0}, iters);
        const std::uint64_t wire =
            Diff::create(cur.data(), twin.data(), kPageBytes, nullptr,
                         {ScanKernel::Wide, 0})
                .wireBytes();
        const std::uint64_t wireGap8 =
            Diff::create(cur.data(), twin.data(), kPageBytes, nullptr,
                         {ScanKernel::Wide, 8})
                .wireBytes();

        std::printf("%-16s %11.0f %11.0f %11.0f %11.0f %8.2fx %8.2fx "
                    "%8.2fx\n",
                    sc.name, seed, narrow, wide, simd, wide / seed,
                    simd / seed, simd / wide);

        char row[640];
        std::snprintf(row, sizeof(row),
                      "%s    {\"name\": \"%s\", \"changed_words\": %d, "
                      "\"seed_pages_per_sec\": %.0f, "
                      "\"narrow_pages_per_sec\": %.0f, "
                      "\"wide_pages_per_sec\": %.0f, "
                      "\"simd_pages_per_sec\": %.0f, "
                      "\"speedup_vs_seed\": %.2f, "
                      "\"speedup_simd_vs_seed\": %.2f, "
                      "\"speedup_simd_vs_wide\": %.2f, "
                      "\"wire_bytes\": %llu, "
                      "\"wire_bytes_gap8\": %llu}",
                      first ? "" : ",\n", sc.name, sc.changedWords,
                      seed, narrow, wide, simd, wide / seed,
                      simd / seed, simd / wide,
                      static_cast<unsigned long long>(wire),
                      static_cast<unsigned long long>(wireGap8));
        json += row;
        first = false;
    }
    json += "\n  ],\n";

    // Informational: not read by tools/bench_gate.py.
    std::printf("\n%-16s %11s  (create -> image -> applyImage)\n",
                "round trip", "pg/s");
    json += "  \"roundtrip\": [\n";
    first = true;
    for (const Scenario &sc :
         {Scenario{"sparse_64w", 64}, Scenario{"dense_1024w", 1024}}) {
        const std::vector<std::byte> cur =
            modifiedPage(twin, sc.changedWords);
        const double rt = roundTripThroughput(cur.data(), twin.data(),
                                              iters);
        std::printf("%-16s %11.0f\n", sc.name, rt);
        char row[160];
        std::snprintf(row, sizeof(row),
                      "%s    {\"name\": \"%s\", \"changed_words\": %d, "
                      "\"pages_per_sec\": %.0f}",
                      first ? "" : ",\n", sc.name, sc.changedWords, rt);
        json += row;
        first = false;
    }
    json += "\n  ]\n}\n";

    const char *out_path = "BENCH_diff.json";
    if (FILE *f = std::fopen(out_path, "w")) {
        std::fputs(json.c_str(), f);
        std::fclose(f);
        std::printf("\nwrote %s\n", out_path);
    } else {
        std::fprintf(stderr, "cannot write %s\n", out_path);
        return 1;
    }
    return 0;
}
