/**
 * @file
 * Red-Black Successive Over-Relaxation (Section 2 of the paper).
 *
 * The matrix is banded by rows across processors; each iteration has a
 * red and a black phase separated by barriers. Rows are laid out with
 * all red elements first and all black elements next — the layout the
 * paper describes, which produces LRC's prefetch effect (fetching a
 * neighbour's red half brings the black half on the same page).
 *
 * EC program: read-only locks on neighbour boundary rows, exclusive
 * locks on own boundary rows, and one exclusive lock per band interior
 * (local reacquires after the first iteration). SOR+ declares only the
 * boundary rows shared; band interiors live in private memory.
 */

#include "apps/app.hh"

#include <cmath>

#include "util/logging.hh"

namespace dsm {

namespace {

constexpr double kOmega = 1.2;

/** Physical slot of logical column j within its row (reds first). */
inline int
slotInRow(int i, int j, int cols)
{
    return (i + j) % 2 == 0 ? j / 2 : cols / 2 + j / 2;
}

/** Work units per updated element: 4 loads, 3 adds, 2 mults, store. */
constexpr std::uint64_t kWorkPerElement = 20;

struct SorGeometry
{
    int rows;  ///< interior rows (1..rows); rows 0 and rows+1 constant
    int cols;
    int nprocs;

    int bandLo(int p) const { return 1 + p * rows / nprocs; }
    int bandHi(int p) const { return 1 + (p + 1) * rows / nprocs; }

    /** Is @p i the first or last row of some band? */
    bool
    isBoundary(int i) const
    {
        for (int p = 0; p < nprocs; ++p) {
            if (i == bandLo(p) || i == bandHi(p) - 1)
                return true;
        }
        return false;
    }
};

/** Deterministic nonzero initial value (changes every iteration). */
inline float
initValue(int i, int j, int cols)
{
    if (i == 0)
        return 1.0f;
    return static_cast<float>(((i * cols + j) % 97) + 1) / 97.0f;
}

/**
 * Update the @p color cells of row @p i. Rows are physical layouts
 * (reds first). Returns the updated row content in @p cur.
 */
void
updateRow(int i, int color, int cols, const float *prev, float *cur,
          const float *next)
{
    for (int j = 1; j <= cols - 2; ++j) {
        if ((i + j) % 2 != color)
            continue;
        const float up = prev[slotInRow(i - 1, j, cols)];
        const float down = next[slotInRow(i + 1, j, cols)];
        const float left = cur[slotInRow(i, j - 1, cols)];
        const float right = cur[slotInRow(i, j + 1, cols)];
        float &self = cur[slotInRow(i, j, cols)];
        const float avg = 0.25f * (up + down + left + right);
        self = self + static_cast<float>(kOmega) * (avg - self);
    }
}

class SorApp : public App
{
  public:
    explicit SorApp(bool plus) : plus(plus) {}

    std::string name() const override { return plus ? "SOR+" : "SOR"; }

    SeqResult
    runSequential(const AppParams &params) override
    {
        const int rows = params.sorRows;
        const int cols = params.sorCols;
        DSM_ASSERT(cols % 2 == 0, "SOR needs an even column count");

        reference.assign(static_cast<std::size_t>(rows + 2) * cols, 0.0f);
        for (int i = 0; i <= rows + 1; ++i) {
            for (int j = 0; j < cols; ++j)
                reference[i * cols + slotInRow(i, j, cols)] =
                    initValue(i, j, cols);
        }

        std::uint64_t work = 0;
        for (int iter = 0; iter < params.sorIters; ++iter) {
            for (int color = 0; color < 2; ++color) {
                for (int i = 1; i <= rows; ++i) {
                    updateRow(i, color, cols,
                              &reference[(i - 1) * cols],
                              &reference[i * cols],
                              &reference[(i + 1) * cols]);
                }
                work += static_cast<std::uint64_t>(rows) * (cols / 2) *
                        kWorkPerElement;
            }
        }

        SeqResult result;
        result.workUnits = work;
        result.checksum = fnv1a(reference.data(),
                                reference.size() * sizeof(float));
        return result;
    }

    void
    runNode(Runtime &rt, const AppParams &params) override
    {
        if (rt.clusterConfig().runtime.model == Model::EC)
            runEc(rt, params);
        else
            runLrc(rt, params);
    }

    Verdict validate(Cluster &cluster, const AppParams &params) override;

  private:
    /** Locks: row i -> lock id i; interior lock for band p -> rows+2+p.
     *  Results lock (SOR+ band checksums): rows+2+nprocs. */
    static LockId rowLock(int i) { return static_cast<LockId>(i); }

    LockId
    interiorLock(const SorGeometry &g, int p) const
    {
        return static_cast<LockId>(g.rows + 2 + p);
    }

    LockId
    resultsLock(const SorGeometry &g) const
    {
        return static_cast<LockId>(g.rows + 2 + g.nprocs);
    }

    void runEc(Runtime &rt, const AppParams &params);
    void runLrc(Runtime &rt, const AppParams &params);

    /** Shared allocation layout, identical on every node. */
    struct Layout
    {
        SharedArray<float> grid;      ///< full grid (SOR) or boundary
                                      ///< rows only (SOR+)
        SharedArray<std::uint64_t> bandSums; ///< per-band checksums
        std::vector<int> rowSlot;     ///< row -> index into grid rows;
                                      ///< -1 = private (SOR+)
    };

    Layout
    makeLayout(Runtime &rt, const SorGeometry &g)
    {
        Layout l;
        l.rowSlot.assign(g.rows + 2, -1);
        int shared_rows = 0;
        if (!plus) {
            for (int i = 0; i <= g.rows + 1; ++i)
                l.rowSlot[i] = shared_rows++;
        } else {
            for (int i = 0; i <= g.rows + 1; ++i) {
                if (i == 0 || i == g.rows + 1 || g.isBoundary(i))
                    l.rowSlot[i] = shared_rows++;
            }
        }
        l.grid = SharedArray<float>::alloc(
            rt, static_cast<std::size_t>(shared_rows) * g.cols, 4,
            "sor.grid");
        l.bandSums = SharedArray<std::uint64_t>::alloc(
            rt, g.nprocs, 4, "sor.bandSums");
        return l;
    }

    GlobalAddr
    rowAddr(const Layout &l, const SorGeometry &g, int i) const
    {
        DSM_ASSERT(l.rowSlot[i] >= 0, "row %d is not shared", i);
        return l.grid.addr(static_cast<std::size_t>(l.rowSlot[i]) *
                           g.cols);
    }

    bool plus;
    std::vector<float> reference;
    std::uint64_t finalBarrier = 0;
};

void
SorApp::runLrc(Runtime &rt, const AppParams &params)
{
    const SorGeometry g{params.sorRows, params.sorCols, rt.nworkers()};
    const int cols = g.cols;
    Layout l = makeLayout(rt, g);
    const int self = rt.worker();
    const int lo = g.bandLo(self);
    const int hi = g.bandHi(self);

    // Private interior storage for SOR+; full private mirror is not
    // needed for SOR (reads go to shared memory).
    std::vector<std::vector<float>> priv(g.rows + 2);

    // Identical initialization on every node (data segment idiom).
    for (int i = 0; i <= g.rows + 1; ++i) {
        std::vector<float> row(cols);
        for (int j = 0; j < cols; ++j)
            row[slotInRow(i, j, cols)] = initValue(i, j, cols);
        if (l.rowSlot[i] >= 0)
            rt.initBuf(rowAddr(l, g, i), row.data(), cols);
        if (plus && l.rowSlot[i] < 0 && i >= lo && i < hi)
            priv[i] = row;
        if (plus && (i == lo - 1 || i == hi) && l.rowSlot[i] < 0)
            priv[i] = row; // private neighbour copy (never happens:
                           // neighbour edges are always shared)
    }

    BarrierId next_barrier = 0;
    rt.barrier(next_barrier++);

    std::vector<float> prev_row(cols), cur_row(cols), next_row(cols);
    auto load_row = [&](int i, float *dst) {
        if (l.rowSlot[i] >= 0)
            rt.readBuf(rowAddr(l, g, i), dst, cols);
        else
            std::memcpy(dst, priv[i].data(), cols * sizeof(float));
    };
    auto store_row = [&](int i, int color, const float *src) {
        if (l.rowSlot[i] >= 0) {
            // Only the updated colour half changed; store that half.
            // Colour-0 cells occupy the first half of every row.
            const int start = color == 0 ? 0 : cols / 2;
            rt.writeBuf(rowAddr(l, g, i) + start * sizeof(float),
                        src + start, cols / 2);
        } else {
            std::memcpy(priv[i].data(), src, cols * sizeof(float));
        }
    };

    for (int iter = 0; iter < params.sorIters; ++iter) {
        for (int color = 0; color < 2; ++color) {
            for (int i = lo; i < hi; ++i) {
                load_row(i - 1, prev_row.data());
                load_row(i, cur_row.data());
                load_row(i + 1, next_row.data());
                updateRow(i, color, cols, prev_row.data(),
                          cur_row.data(), next_row.data());
                store_row(i, color, cur_row.data());
            }
            rt.chargeWork(static_cast<std::uint64_t>(hi - lo) *
                          (cols / 2) * kWorkPerElement);
            rt.barrier(next_barrier++);
        }
    }

    // Publish a checksum of my band (bit-exact), then collect on 0.
    std::uint64_t sum = 0;
    for (int i = lo; i < hi; ++i) {
        load_row(i, cur_row.data());
        sum = fnv1a(cur_row.data(), cols * sizeof(float), sum ^ i);
    }
    l.bandSums.set(self, sum);
    rt.barrier(next_barrier++);

    if (self == 0) {
        // Materialize every shared row locally (protocol reads).
        for (int i = 0; i <= g.rows + 1; ++i) {
            if (l.rowSlot[i] >= 0)
                rt.readBuf(rowAddr(l, g, i), cur_row.data(), cols);
        }
        for (int p = 0; p < g.nprocs; ++p)
            l.bandSums.get(p);
    }
    if (rt.worker() == 0)
        finalBarrier = next_barrier; // same value on every worker
    rt.barrier(next_barrier++);
}

void
SorApp::runEc(Runtime &rt, const AppParams &params)
{
    const SorGeometry g{params.sorRows, params.sorCols, rt.nworkers()};
    const int cols = g.cols;
    Layout l = makeLayout(rt, g);
    const int self = rt.worker();
    const int lo = g.bandLo(self);
    const int hi = g.bandHi(self);

    // Bind every shared row to its lock; bind band interiors (SOR only)
    // to one lock per band; bind the checksum array to its own lock.
    for (int i = 0; i <= g.rows + 1; ++i) {
        if (l.rowSlot[i] >= 0) {
            rt.bindLock(rowLock(i),
                        {{rowAddr(l, g, i), cols * sizeof(float)}});
        }
    }
    if (!plus) {
        for (int p = 0; p < g.nprocs; ++p) {
            const int plo = g.bandLo(p);
            const int phi = g.bandHi(p);
            if (phi - plo > 2) {
                const GlobalAddr base = rowAddr(l, g, plo + 1);
                rt.bindLock(interiorLock(g, p),
                            {{base, static_cast<std::uint64_t>(
                                        phi - plo - 2) *
                                        cols * sizeof(float)}});
            }
        }
    }
    rt.bindLock(resultsLock(g), {l.bandSums.wholeRange()});

    std::vector<std::vector<float>> priv(g.rows + 2);
    for (int i = 0; i <= g.rows + 1; ++i) {
        std::vector<float> row(cols);
        for (int j = 0; j < cols; ++j)
            row[slotInRow(i, j, cols)] = initValue(i, j, cols);
        if (l.rowSlot[i] >= 0)
            rt.initBuf(rowAddr(l, g, i), row.data(), cols);
        else if (i >= lo && i < hi)
            priv[i] = row;
    }

    BarrierId next_barrier = 0;
    rt.barrier(next_barrier++);

    const bool has_interior = !plus && hi - lo > 2;
    std::vector<float> prev_row(cols), cur_row(cols), next_row(cols);
    auto load_row = [&](int i, float *dst) {
        if (l.rowSlot[i] >= 0)
            rt.readBuf(rowAddr(l, g, i), dst, cols);
        else
            std::memcpy(dst, priv[i].data(), cols * sizeof(float));
    };
    auto store_half = [&](int i, int color, const float *src) {
        if (l.rowSlot[i] >= 0) {
            const int start = color == 0 ? 0 : cols / 2;
            rt.writeBuf(rowAddr(l, g, i) + start * sizeof(float),
                        src + start, cols / 2);
        } else {
            std::memcpy(priv[i].data(), src, cols * sizeof(float));
        }
    };
    // The up or down row of an update. Rows lo-1 and hi belong to the
    // neighbour bands, whose owners write that phase's colour half of
    // them meanwhile (a read lock does not exclude a sibling's write
    // lock on an SMP node). updateRow reads only the other colour's
    // half of its up and down rows, so copy just that half.
    auto load_adjacent = [&](int i, int color, float *dst) {
        if (i >= lo && i < hi) {
            load_row(i, dst);
            return;
        }
        const int start = color == 0 ? cols / 2 : 0;
        rt.readBuf(rowAddr(l, g, i) + start * sizeof(float), dst + start,
                   cols / 2);
    };

    for (int iter = 0; iter < params.sorIters; ++iter) {
        for (int color = 0; color < 2; ++color) {
            // Read-only locks on the neighbour boundary rows we read.
            rt.acquire(rowLock(lo - 1), AccessMode::Read);
            rt.acquire(rowLock(hi), AccessMode::Read);
            // Exclusive locks on everything we write.
            rt.acquire(rowLock(lo), AccessMode::Write);
            if (hi - 1 != lo)
                rt.acquire(rowLock(hi - 1), AccessMode::Write);
            if (has_interior)
                rt.acquire(interiorLock(g, self), AccessMode::Write);

            for (int i = lo; i < hi; ++i) {
                load_adjacent(i - 1, color, prev_row.data());
                load_row(i, cur_row.data());
                load_adjacent(i + 1, color, next_row.data());
                updateRow(i, color, cols, prev_row.data(),
                          cur_row.data(), next_row.data());
                store_half(i, color, cur_row.data());
            }
            rt.chargeWork(static_cast<std::uint64_t>(hi - lo) *
                          (cols / 2) * kWorkPerElement);

            if (has_interior)
                rt.release(interiorLock(g, self));
            if (hi - 1 != lo)
                rt.release(rowLock(hi - 1));
            rt.release(rowLock(lo));
            rt.release(rowLock(hi));
            rt.release(rowLock(lo - 1));
            rt.barrier(next_barrier++);
        }
    }

    std::uint64_t sum = 0;
    for (int i = lo; i < hi; ++i) {
        load_row(i, cur_row.data());
        sum = fnv1a(cur_row.data(), cols * sizeof(float), sum ^ i);
    }
    rt.acquire(resultsLock(g), AccessMode::Write);
    l.bandSums.set(self, sum);
    rt.release(resultsLock(g));
    rt.barrier(next_barrier++);

    if (self == 0) {
        // Collect: read-only locks bring every shared row current.
        for (int i = 0; i <= g.rows + 1; ++i) {
            if (l.rowSlot[i] < 0)
                continue;
            rt.acquire(rowLock(i), AccessMode::Read);
            rt.release(rowLock(i));
        }
        if (!plus) {
            for (int p = 0; p < g.nprocs; ++p) {
                if (g.bandHi(p) - g.bandLo(p) > 2) {
                    rt.acquire(interiorLock(g, p), AccessMode::Read);
                    rt.release(interiorLock(g, p));
                }
            }
        }
        rt.acquire(resultsLock(g), AccessMode::Read);
        rt.release(resultsLock(g));
    }
    if (rt.worker() == 0)
        finalBarrier = next_barrier; // same value on every worker
    rt.barrier(next_barrier++);
}

Verdict
SorApp::validate(Cluster &cluster, const AppParams &params)
{
    const SorGeometry g{params.sorRows, params.sorCols,
                        cluster.nworkers()};
    const int cols = g.cols;

    // Rebuild the layout bookkeeping (allocation order is fixed).
    std::vector<int> row_slot(g.rows + 2, -1);
    int shared_rows = 0;
    for (int i = 0; i <= g.rows + 1; ++i) {
        if (!plus || i == 0 || i == g.rows + 1 || g.isBoundary(i))
            row_slot[i] = shared_rows++;
    }
    const GlobalAddr grid_base = 0; // first allocation starts at 0

    // 1. Shared rows must match the reference bit-exactly on node 0.
    for (int i = 0; i <= g.rows + 1; ++i) {
        if (row_slot[i] < 0)
            continue;
        const float *got = reinterpret_cast<const float *>(
            cluster.memory(0, grid_base + static_cast<GlobalAddr>(
                                              row_slot[i]) *
                                              cols * sizeof(float)));
        if (std::memcmp(got, &reference[i * cols],
                        cols * sizeof(float)) != 0) {
            return {false, "shared row " + std::to_string(i) +
                               " differs from the reference"};
        }
    }

    // 2. Per-band checksums (covers private interiors in SOR+).
    const GlobalAddr sums_base =
        (grid_base +
         static_cast<GlobalAddr>(shared_rows) * cols * sizeof(float) +
         7) &
        ~GlobalAddr{7};
    for (int p = 0; p < g.nprocs; ++p) {
        std::uint64_t expect = 0;
        for (int i = g.bandLo(p); i < g.bandHi(p); ++i) {
            expect = fnv1a(&reference[i * cols], cols * sizeof(float),
                           expect ^ i);
        }
        std::uint64_t got;
        std::memcpy(&got,
                    cluster.memory(0, sums_base + p * sizeof(got)),
                    sizeof(got));
        if (got != expect) {
            return {false, "band " + std::to_string(p) +
                               " checksum mismatch"};
        }
    }
    return {true, "grid and band checksums match the reference"};
}

} // namespace

std::unique_ptr<App>
makeSorApp(bool plus)
{
    return std::make_unique<SorApp>(plus);
}

} // namespace dsm
