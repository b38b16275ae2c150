/**
 * @file
 * The sharing-policy QS sweep: quicksort — the paper's migratory
 * task-queue application — run repeatedly at one (nodes x threads)
 * point over the one sharing-policy knob left, the lock fairness
 * bound k (DSM_LOCK_FAIRNESS), in {0, 4, 16}, for EC-diff and for
 * homeless and home-based LRC-diff (EC has no home mode). Homes
 * migrate on access counts and flush eagerly; idle polls park.
 *
 * Per cell it reports the mean, min-max range and relative spread of
 * the message count and modeled execution time over DSM_QS_RUNS
 * (default 5) runs, plus the forced remote grants, home migrations
 * and idle parks per run.
 *
 * DSM_NPROCS / DSM_THREADS choose the topology (default 4x2),
 * DSM_SCALE the workload size as in the other tables.
 */

#include <algorithm>
#include <cmath>

#include "bench_common.hh"

using namespace dsm;

namespace {

struct Cell
{
    const char *label;
    const char *runtime;
    bool home;
    int fairness;
};

struct Spread
{
    double mean = 0;
    double lo = 0;
    double hi = 0;
    double sd = 0;

    /** Coefficient of variation, in percent. */
    double
    cvPct() const
    {
        return mean > 0 ? 100.0 * sd / mean : 0.0;
    }
};

Spread
spreadOf(const std::vector<double> &xs)
{
    Spread s;
    s.lo = *std::min_element(xs.begin(), xs.end());
    s.hi = *std::max_element(xs.begin(), xs.end());
    for (double x : xs)
        s.mean += x;
    s.mean /= static_cast<double>(xs.size());
    for (double x : xs)
        s.sd += (x - s.mean) * (x - s.mean);
    s.sd = std::sqrt(s.sd / static_cast<double>(xs.size()));
    return s;
}

std::string
fmt(double v, int digits = 2)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", digits, v);
    return buf;
}

} // namespace

int
main()
{
    AppParams params = benchParams();
    ClusterConfig base = benchCluster();
    if (base.nprocs == 8 && std::getenv("DSM_NPROCS") == nullptr)
        base.nprocs = 4; // default point of the acceptance sweep: 4x2
    if (base.threadsPerNode == 0 && std::getenv("DSM_THREADS") == nullptr)
        base.threadsPerNode = 2;
    printHeader("QS sharing-policy sweep (fairness bound x protocol)",
                base);

    int runs = 5;
    if (const char *v = std::getenv("DSM_QS_RUNS"))
        runs = std::max(2, std::atoi(v));

    const Cell cells[] = {
        {"EC k=0", "EC-diff", false, 0},
        {"EC k=4", "EC-diff", false, 4},
        {"EC k=16", "EC-diff", false, 16},
        {"homeless k=0", "LRC-diff", false, 0},
        {"homeless k=4", "LRC-diff", false, 4},
        {"homeless k=16", "LRC-diff", false, 16},
        {"home k=0", "LRC-diff", true, 0},
        {"home k=4", "LRC-diff", true, 4},
        {"home k=16", "LRC-diff", true, 16},
    };

    Table table({"policy", "NxT", "time mean (s)", "time range",
                 "time cv%", "msgs mean", "msgs range", "msgs cv%",
                 "forced", "migr", "parks"});

    const std::string topo =
        std::to_string(base.nprocs) + "x" +
        std::to_string(base.resolvedThreadsPerNode());
    for (const Cell &cell : cells) {
        std::vector<double> times, msgs;
        std::uint64_t forced = 0, migrations = 0, parks = 0;
        for (int r = 0; r < runs; ++r) {
            ClusterConfig cc = base;
            cc.homeBasedLrc = cell.home;
            cc.lockLocalHandoffBound = cell.fairness;
            ExperimentResult res = runExperiment(
                "QS", RuntimeConfig::parse(cell.runtime), params, cc);
            times.push_back(res.execSeconds());
            msgs.push_back(
                static_cast<double>(res.run.total.messagesSent));
            forced += res.run.total.remoteHandoffsForced;
            migrations += res.run.total.homeMigrations;
            parks += res.run.total.idleParks;
        }
        const Spread ts = spreadOf(times);
        const Spread ms = spreadOf(msgs);
        table.addRow(
            {cell.label, topo, fmt(ts.mean, 3),
             fmt(ts.lo, 3) + "-" + fmt(ts.hi, 3),
             fmt(ts.cvPct(), 1), fmt(ms.mean, 0),
             fmt(ms.lo, 0) + "-" + fmt(ms.hi, 0),
             fmt(ms.cvPct(), 1),
             std::to_string(forced / runs),
             std::to_string(migrations / runs),
             std::to_string(parks / runs)});
    }
    table.print();
    std::printf("\n(means over %d runs each; cv%% is the coefficient "
                "of variation)\n",
                runs);
    return 0;
}
