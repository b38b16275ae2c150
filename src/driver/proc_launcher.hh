/**
 * @file
 * Process-per-node launcher for the socket transport tiers.
 *
 * Cluster::run on a socket transport forks one child per node. The
 * parent constructed the whole cluster before forking (single
 * threaded — no endpoint has started yet), so every child inherits
 * identical pre-run state: arenas, allocation logs, resolved config.
 * Each child rank rebinds its node's endpoint to a SocketTransport,
 * rendezvouses with its peers through the shared socket directory,
 * runs its worker threads, and dumps its final state — virtual clock,
 * counters, message count — as `<dir>/node-<rank>.result`. The parent
 * reaps the children, loads the dumps back into its own node objects,
 * and assembles the same RunResult an in-process run produces. Node
 * memory travels no dump: every arena is a shared mapping
 * (mem/shared_arena.hh), so a child's writes land in the parent's view
 * of its arena directly, and each child maps the other nodes' arenas
 * PROT_NONE. Every caller of Cluster::run and Cluster::memory thus
 * works unchanged across tiers.
 *
 * An application exception in a child travels back as an error string
 * in the dump plus exit code kAppErrorExit; the parent rethrows it as
 * std::runtime_error, mirroring the in-process rethrow.
 */

#ifndef DSM_DRIVER_PROC_LAUNCHER_HH
#define DSM_DRIVER_PROC_LAUNCHER_HH

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/stats.hh"

namespace dsm {

/** Child exit code signalling "the app threw; see the dump's error
 *  string" (any other nonzero exit is an infrastructure failure). */
constexpr int kAppErrorExit = 42;

/** One node process's dumped outcome. */
struct NodeResult
{
    int rank = -1;
    std::uint64_t clockNs = 0;
    std::uint64_t transportMessages = 0;
    NodeStats stats;
    std::string error; ///< nonempty = the app threw in this child
};

/** Create a fresh private rendezvous directory (mkdtemp under
 *  $TMPDIR or /tmp). */
std::string makeRendezvousDir();

/** Best-effort removal of a rendezvous directory and the launcher's
 *  files in it (sockets, port files, result dumps). */
void removeRendezvousDir(const std::string &dir);

/**
 * Fork @p nnodes children. Returns the child's rank (0-based) in
 * each child, -1 in the parent; the parent's @p pids receives every
 * child's pid. Must be called from a single-threaded process (fork
 * only duplicates the calling thread).
 */
int forkNodeProcesses(int nnodes, std::vector<pid_t> &pids);

/**
 * Reap every child, in rank order. Returns true when all exited 0 or
 * kAppErrorExit; false otherwise, with @p failure describing the first
 * infrastructure failure (signal, unexpected exit code) — the children
 * not yet reaped at that point are SIGKILLed rather than left blocked
 * on the dead node. Ranks that exited kAppErrorExit are appended to
 * @p app_error_ranks.
 */
bool awaitNodeProcesses(const std::vector<pid_t> &pids,
                        std::string &failure,
                        std::vector<int> &app_error_ranks);

/** Serialize @p result to `<dir>/node-<rank>.result` (atomic
 *  write-then-rename). */
void writeNodeResult(const std::string &dir, const NodeResult &result);

/** Load rank @p rank's dump; panics on a missing or corrupt file. */
NodeResult readNodeResult(const std::string &dir, int rank);

} // namespace dsm

#endif // DSM_DRIVER_PROC_LAUNCHER_HH
