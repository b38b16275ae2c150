/**
 * @file
 * Named configurations of the design space the paper explores:
 * consistency model x write trapping x write collection (Table 1).
 * The combination compiler-instrumentation + diffing is excluded, as
 * in the paper, because it would pay the memory overhead of both the
 * software dirty bits and the diffs.
 */

#ifndef DSM_CORE_CONFIG_HH
#define DSM_CORE_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "time/cost_model.hh"

namespace dsm {

enum class Model : std::uint8_t { EC, LRC };

enum class TrapMethod : std::uint8_t
{
    CompilerInstrumentation,
    Twinning,
};

enum class CollectMethod : std::uint8_t
{
    Timestamping,
    Diffing,
};

const char *toString(Model model);
const char *toString(TrapMethod trap);
const char *toString(CollectMethod collect);

struct RuntimeConfig
{
    Model model = Model::LRC;
    TrapMethod trap = TrapMethod::Twinning;
    CollectMethod collect = CollectMethod::Diffing;

    /** Paper-style name: EC-ci, EC-time, EC-diff, LRC-ci, LRC-time,
     *  LRC-diff. */
    std::string name() const;

    /** fatal()s on the excluded ci+diff combination. */
    void validate() const;

    /** Parse a paper-style name; fatal() on unknown names. */
    static RuntimeConfig parse(const std::string &name);

    /** The six legal combinations, in Table 4/5 order. */
    static const std::vector<RuntimeConfig> &all();

    bool operator==(const RuntimeConfig &other) const = default;
};

/** Parameters of a simulated cluster. */
struct ClusterConfig
{
    int nprocs = 8;

    /**
     * Application threads per node (SMP nodes). Every node runs this
     * many SPMD worker threads sharing the node's memory, protocol
     * state and network endpoint; worker w = node * T + threadId
     * partitions the applications. 0 means "default": the DSM_THREADS
     * environment variable if set, else 1. With T == 1 the runtime is
     * observationally identical to the historical one-thread-per-node
     * system (the per-thread clock aliases the node clock and no
     * intra-node queueing ever happens).
     */
    int threadsPerNode = 0;

    RuntimeConfig runtime;
    std::size_t arenaBytes = 16u << 20;
    std::size_t pageSize = 4096;
    CostModel cost;

    /**
     * Simulate an unreliable AAL3/4 substrate: the first transmission
     * of every n-th message is lost and recovered by the modeled
     * retransmission protocol. 0 disables losses.
     */
    std::uint64_t lossEveryNth = 0;

    /**
     * Use the hierarchical (page-level + word-level) dirty bit scheme
     * for LRC-ci (Section 4.1). Disabling it scans the whole shared
     * region at every write collection — the ablation the paper argues
     * against.
     */
    bool hierarchicalDirty = true;

    /**
     * Twin small EC objects eagerly at write-lock acquire (the paper's
     * improvement over the Midway VM implementation, Sections 4.2 and
     * 9). Disabling it models the older scheme's cost: one protection
     * fault per small-object write acquire before the twin is made.
     */
    bool ecEagerSmallTwin = true;

    // --- Fast-path memory pipeline (ablatable against the seed paths).

    /**
     * Coalesce diff runs separated by at most this many unchanged
     * words into one run (fewer per-run wire headers, more payload
     * bytes). 0 keeps runs word-exact — required whenever concurrent
     * writers of one page may interleave within the gap, so it is the
     * only safe general default for LRC's multi-writer protocol.
     */
    std::uint32_t diffGapWords = 0;

    /**
     * Recycle wire payload buffers through the process-wide
     * BufferPool instead of allocating a fresh vector per message.
     * (Page twins recycle their buffers in the TwinStore regardless.)
     */
    bool pooledBuffers = true;

    /**
     * Piggyback write notices (interval records) on LRC fetch replies
     * (diff, timestamp and home-page), TreadMarks-style: a requester
     * advertises its interval-log coverage and the responder appends
     * the records it lacks, so the data a miss brings back cannot be
     * followed by an immediate re-invalidation of the same page for
     * an interval the reply already contained. For the timestamping
     * implementations this also lifts the requester-vector cap on
     * transmitted runs (the piggybacked records supply the ordering
     * knowledge the cap protected). Counted by noticesPiggybacked /
     * reinvalidationsAvoided.
     */
    bool piggybackWriteNotices = true;

    /**
     * Garbage-collect interval records and stored diffs at barriers
     * once the interval log holds at least gcIntervalThreshold
     * records: every node validates its invalid pages before arriving,
     * the manager computes the minimum arrival vector, and departures
     * instruct all nodes to discard records/diffs below it. Keeps
     * long-running LRC executions' memory bounded (TreadMarks-style).
     */
    bool gcAtBarriers = true;
    std::uint32_t gcIntervalThreshold = 256;

    /**
     * Home-based LRC (HLRC-style): every page has a home node
     * (round-robin, migratable) that absorbs diffs eagerly at interval
     * close, so an access miss is exactly one request/reply pair
     * against the home and no diffs are ever stored — the barrier-time
     * diff GC handshake becomes a no-op. Takes effect for LRC with
     * diff collection (LRC-diff); the timestamping implementations
     * remain homeless.
     */
    bool homeBasedLrc = false;

    /**
     * Remote accesses (diff flushes + page fetches) by a single node
     * to a page homed elsewhere before the home migrates to that node.
     * 0 disables migration.
     */
    std::uint32_t homeMigrateThreshold = 64;

    /**
     * Epoch window (in accesses to one homed page) of the migration
     * counters: every homeDecayWindow accesses the per-node counts are
     * halved, so migration reacts to the recent access mix instead of
     * firing on stale history accumulated long ago. 0 restores the
     * legacy undecayed counter.
     */
    std::uint32_t homeDecayWindow = 1024;

    // --- Sharing policy (DESIGN.md §4).

    /**
     * Bounded local-priority lock hand-off (SMP nodes): after at most
     * this many consecutive local grants of one lock (hand-offs to
     * parked siblings and fast-path reacquires alike), a pending
     * remote requester is served before the next local taker.
     * Preserves the zero-message short-circuit for bursts of sibling
     * contention while capping how long a queued remote request can
     * starve (EC's task-queue app degrades unboundedly under pure
     * local-first hand-off at threadsPerNode > 1). 0 = unbounded (the
     * pure local-first policy); -1 = the DSM_LOCK_FAIRNESS
     * environment variable if set, else 0 (resolved once at Cluster
     * construction, so ctest/bench legs can set it without
     * recompiling while tests that pin a value stay pinned). Counted
     * by remoteHandoffsForced / maxLocalHandoffRun.
     */
    int lockLocalHandoffBound = -1;

    // --- Crash tolerance: fault injection + coordinated
    // checkpointing. Same -1 = "resolve from the environment at
    // Cluster construction" convention as lockLocalHandoffBound, so
    // the CI fault legs and the nightly chaos workflow flip them per
    // process
    // while tests that pin values stay pinned. With every knob at its
    // resolved default (no DSM_FAULT_*/DSM_CKPT_* in the environment)
    // the fault layer is never constructed and the hot paths are
    // bit-identical to a build without it (zero-cost abstraction,
    // asserted by the CI micro_net comparison).

    /**
     * Seed of the deterministic fault injector (message-drop
     * decisions). -1 = DSM_FAULT_SEED env if set, else 1.
     */
    long long faultSeed = -1;

    /**
     * Fraction of *droppable* messages (direct request/reply RPCs —
     * never chain-routed lock or home traffic, never Shutdown) the
     * injector discards before they reach the destination inbox, in
     * ppm-style units: the env variable takes a float in [0, 1).
     * Enables the Endpoint deadline + bounded-retransmit machinery.
     * < 0 = DSM_FAULT_MSG_DROP env if set, else 0 (off).
     */
    double faultMsgDrop = -1.0;

    /**
     * Node to chaos-kill at a barrier: the victim's protocol state is
     * wiped and restored from its latest checkpoint, and its parked
     * inbox traffic replays forward. -1 = DSM_FAULT_KILL_NODE env if
     * set, else no kill.
     */
    int faultKillNode = -1;

    /**
     * Barrier-arrival count (per node, 1-based) at which the kill
     * fires. -1 = DSM_FAULT_KILL_EPOCH env if set, else 2 when a kill
     * is armed.
     */
    int faultKillEpoch = -1;

    /**
     * Take a coordinated checkpoint every N barrier cuts (1 = every
     * barrier). 0 = never; -1 = DSM_CKPT_EVERY env if set, else 1
     * when checkpointing is otherwise engaged (a kill is armed or
     * ckptDir is set), else 0.
     */
    int checkpointEvery = -1;

    /**
     * Directory for tier-1 file-backed snapshots (one blob per node
     * per cut + a manifest recording the cut's vector-time frontier).
     * Empty = DSM_CKPT_DIR env if set, else in-memory tier 0 only.
     */
    std::string ckptDir;

    /**
     * Silent-peer outage injection: at this node's checkpoint cut the
     * injector silences it (100% drop of its droppable traffic, both
     * directions, overriding the retransmit attempt immunity — a
     * total outage, unlike the probabilistic faultMsgDrop) for
     * faultOutageMs of wall-clock, then the node is wiped, restored
     * from its latest checkpoint and unsilenced. Survivors detect the
     * outage via the failure detector and degrade (typed
     * PeerUnavailable retries) instead of hanging. -1 =
     * DSM_FAULT_OUTAGE_NODE env if set, else no outage.
     */
    int faultOutageNode = -1;

    /**
     * Barrier-arrival count (per node, 1-based) at which the outage
     * fires. -1 = DSM_FAULT_OUTAGE_EPOCH env if set, else 2 when an
     * outage is armed.
     */
    int faultOutageEpoch = -1;

    /**
     * Outage duration in wall-clock milliseconds; must comfortably
     * exceed the detector deadline so survivors genuinely observe the
     * peer down. -1 = DSM_FAULT_OUTAGE_MS env if set, else 120.
     */
    int faultOutageMs = -1;

    /**
     * Failure-detector liveness deadline in milliseconds: a peer not
     * heard from (message arrival or in-process heartbeat) within the
     * deadline is declared down. 0 disarms the detector. -1 =
     * DSM_FD_DEADLINE_MS env if set, else 50 when an outage is armed,
     * else 0.
     */
    int fdDeadlineMs = -1;

    /**
     * Endpoint retransmit schedule in microseconds: first deadline
     * and exponential-backoff cap. -1 = DSM_FAULT_RTO_FIRST_US /
     * DSM_FAULT_RTO_CAP_US env if set, else the historical 2000 /
     * 500000.
     */
    long long faultRtoFirstUs = -1;
    long long faultRtoCapUs = -1;

    /**
     * Incremental delta checkpoints: between full anchor cuts, a
     * node's snapshot is diffed (SIMD changed-run scan) against the
     * previous cut's image and only the changed runs are stored
     * (checkpointDeltaBytes), with periodic anchors bounding chain
     * length. Restore materializes anchor + deltas and is
     * bit-identical to restoring a full cut. -1 = DSM_CKPT_DELTA env
     * if set, else off (every cut full).
     */
    int ckptDelta = -1;

    /**
     * Anchor cadence for delta chains: every N-th checkpoint of a
     * node is a full cut (N = 1 degenerates to all-full). -1 =
     * DSM_CKPT_ANCHOR env if set, else 8.
     */
    int ckptAnchorEvery = -1;

    // --- Transport tier (DESIGN.md §8). Same env-resolution
    // convention: the empty string means "take DSM_TRANSPORT at
    // Cluster construction, ring when unset".

    /**
     * Which interconnect carries the cluster's messages:
     *  - "ring"   — tier 0, all nodes are threads of this process
     *               sharing in-memory inboxes (the historical
     *               substrate; every feature works here; the name
     *               predates the mutex inbox);
     *  - "socket" — tier 1, Cluster::run forks one process per node
     *               and messages cross Unix-domain sockets as
     *               length-prefixed frames;
     *  - "tcp"    — tier 1 over loopback TCP (ports rendezvous
     *               through the socket directory).
     * In-process-only features (coordinated checkpointing, chaos
     * kill, silent-peer outages, the failure detector) force a
     * documented fallback to "ring" — they reach across node state in
     * ways only one address space allows. Empty = DSM_TRANSPORT env
     * if set, else "ring".
     */
    std::string transport;

    /**
     * Rendezvous directory for the socket tiers (listeners, port
     * files, result dumps). Empty = DSM_SOCKET_DIR env if set, else a
     * fresh mkdtemp directory per run, removed afterwards.
     */
    std::string socketDir;

    /** transport with the empty = "env or ring" default applied and
     *  the in-process-only fallback rules enforced. */
    std::string resolvedTransport() const;

    /** socketDir with the empty = "env or ephemeral" default (empty
     *  result = make a fresh directory per run). */
    std::string resolvedSocketDir() const;

    /** threadsPerNode with the 0 = "env or 1" default applied. */
    int resolvedThreadsPerNode() const;

    /** lockLocalHandoffBound with the -1 = "env or 0" default. */
    int resolvedLockFairness() const;

    /** faultSeed with the -1 = "env or 1" default. */
    std::uint64_t resolvedFaultSeed() const;

    /** faultMsgDrop with the < 0 = "env or 0" default, in [0, 1). */
    double resolvedFaultMsgDrop() const;

    /** faultKillNode with the -1 = "env or none" default (-1 = no
     *  kill). */
    int resolvedFaultKillNode() const;

    /** faultKillEpoch with the -1 = "env, else 2 when armed" default;
     *  0 when no kill is armed. */
    int resolvedFaultKillEpoch() const;

    /** checkpointEvery with the -1 = "env, else engage-on-demand"
     *  default. */
    int resolvedCheckpointEvery() const;

    /** ckptDir with the empty = "env or none" default. */
    std::string resolvedCkptDir() const;

    /** faultOutageNode with the -1 = "env or none" default (-1 = no
     *  outage). */
    int resolvedFaultOutageNode() const;

    /** faultOutageEpoch with the -1 = "env, else 2 when armed"
     *  default; 0 when no outage is armed. */
    int resolvedFaultOutageEpoch() const;

    /** faultOutageMs with the -1 = "env or 120" default. */
    int resolvedFaultOutageMs() const;

    /** Detector deadline in ns; 0 = detector disarmed. */
    std::uint64_t resolvedFdDeadlineNs() const;

    /** Retransmit schedule in ns (first deadline, backoff cap). */
    std::uint64_t resolvedRtoFirstNs() const;
    std::uint64_t resolvedRtoCapNs() const;

    /** ckptDelta with the -1 = "env or off" default. */
    bool resolvedCkptDelta() const;

    /** ckptAnchorEvery with the -1 = "env or 8" default. */
    int resolvedCkptAnchorEvery() const;

    /** True when any fault-injection knob resolves on (drop rate > 0,
     *  a kill armed, or a silent-peer outage armed). */
    bool faultsEngaged() const;
};

} // namespace dsm

#endif // DSM_CORE_CONFIG_HH
