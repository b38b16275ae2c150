/**
 * @file
 * The threads-per-node scenario axis the SMP refactor opened: every
 * application at equal worker counts spread over different topologies
 * (8 nodes x 1 thread, 4 x 2, 2 x 4) for the best EC and LRC
 * implementations plus home-based LRC — one run, one table. Fewer
 * nodes x more threads trades protocol traffic (messages) for
 * intra-node sharing (lock hand-offs, shared page copies), which is
 * exactly the EC-vs-LRC design space extended by one dimension: EC's
 * per-object update traffic shrinks with node count, while LRC's
 * invalidate protocol loses its prefetch advantage when fewer copies
 * exist.
 *
 * DSM_SCALE selects workload sizes as in the other tables; DSM_TOPOS
 * (e.g. "8x1,4x2,2x4,1x8") overrides the topology list.
 */

#include "bench_common.hh"

using namespace dsm;

int
main()
{
    AppParams params = benchParams();
    ClusterConfig cc = benchCluster();
    printHeader("Table 6: SMP nodes — equal workers, varying "
                "(nodes x threads)",
                cc);

    std::vector<std::pair<int, int>> topologies = {
        {8, 1}, {4, 2}, {2, 4}};
    if (const char *t = std::getenv("DSM_TOPOS")) {
        topologies.clear();
        std::string spec(t);
        std::size_t at = 0;
        while (at < spec.size()) {
            const std::size_t comma = spec.find(',', at);
            const std::string part =
                spec.substr(at, comma == std::string::npos
                                    ? std::string::npos
                                    : comma - at);
            const std::size_t x = part.find('x');
            if (x != std::string::npos) {
                topologies.emplace_back(std::atoi(part.c_str()),
                                        std::atoi(part.c_str() + x + 1));
            }
            if (comma == std::string::npos)
                break;
            at = comma + 1;
        }
    }

    Table table({"Application", "NxT", "EC", "LRC", "LRC-home",
                 "EC msgs", "LRC msgs", "LRCh msgs", "LRC handoffs",
                 "EC forced", "LRC forced", "LRCh migr"});

    cc.homeBasedLrc = false;
    for (const std::string &app : allAppNames()) {
        for (const auto &[np, t] : topologies) {
            ClusterConfig topo_cc = cc;
            topo_cc.nprocs = np;
            topo_cc.threadsPerNode = t;
            ClusterConfig home_cc = topo_cc;
            home_cc.homeBasedLrc = true;

            ModelSweep ec = sweepModel(Model::EC, app, params, topo_cc);
            ModelSweep lrc =
                sweepModel(Model::LRC, app, params, topo_cc);
            ExperimentResult home = runExperiment(
                app, RuntimeConfig::parse("LRC-diff"), params, home_cc);

            const ExperimentResult &be = ec.best();
            const ExperimentResult &bl = lrc.best();
            table.addRow(
                {app, std::to_string(np) + "x" + std::to_string(t),
                 fmtSeconds(be.execSeconds()),
                 fmtSeconds(bl.execSeconds()),
                 fmtSeconds(home.execSeconds()),
                 std::to_string(be.run.total.messagesSent),
                 std::to_string(bl.run.total.messagesSent),
                 std::to_string(home.run.total.messagesSent),
                 std::to_string(
                     bl.run.total.intraNodeLockHandoffs),
                 // Sharing-policy shape: the bounded hand-off fires
                 // on the lock-heavy apps (QS under EC above all),
                 // and last-writer/home migrations show where the
                 // home chased a migratory page.
                 std::to_string(be.run.total.remoteHandoffsForced),
                 std::to_string(bl.run.total.remoteHandoffsForced),
                 std::to_string(home.run.total.homeMigrations)});
        }
    }
    table.print();
    return 0;
}
