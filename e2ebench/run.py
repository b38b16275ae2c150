#!/usr/bin/env python3
"""End-to-end paper-app benchmark.

Builds the repository's library and the e2ebench driver from source,
runs one workload for a fixed measuring window and prints its metrics.
Run it from the root of a checkout:

    python3 e2ebench/run.py --workload sor-lrc-diff --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end metrics of BENCHMARK.json; with `--trace 1`
they are its per-layer metrics, and a Chrome/Perfetto trace of the
benchmark's own spans is written to .bench_out/. Everything above the
last line is a human-readable report; the full report (host fingerprint,
per-run samples, failures with repro commands) goes to
.bench_out/report-<workload>-seed<seed>-trace<t>.json.

See e2ebench/README.md for the workloads and metric definitions.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DRIVER = os.path.join(BUILD_DIR, "e2ebench")

WORKLOADS = ("sor-lrc-diff", "qs-ec-smp", "water-home-socket")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

# Every run of the benchmark must end within this many seconds once the
# driver is built.
RUN_BUDGET_S = 170.0

# End-to-end figures printed with every execution but registered as
# per-layer metrics in BENCHMARK.json, because they carry no bound.
UNGATED_E2E = ("run_s.tail", "fail_ratio")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="workload seed, passed into AppParams::seed "
                        "(default %d; held-out seed for checking claims: "
                        "%d)" % (DEFAULT_SEED, HELD_OUT_SEED))
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measuring window: app runs start until it is "
                        "used up")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("paper", "test"), default="paper",
                   help="input sizes (test: the smoke-test scale)")
    p.add_argument("--inject", choices=("abort", "hang"),
                   help="self-test: every worker aborts or hangs at "
                        "the start of its runNode, inside Cluster::run")
    return p.parse_args(argv)


def scrub_environment():
    """Drop every DSM_* knob so each one takes the code's default."""
    scrubbed = sorted(k for k in os.environ if k.startswith("DSM_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("DSM_")}
    if scrubbed:
        log("e2ebench: ignoring %s (every knob takes the code's default)"
            % ", ".join(scrubbed))
    return env, scrubbed


def build(env):
    """Configure (once) and build the driver; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, env=env) != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "e2ebench",
           "-j", str(min(4, os.cpu_count() or 1))]
    return subprocess.call(cmd, stdout=sys.stderr, env=env) == 0


def source_fingerprint():
    """git SHA when the checkout is a repository, and always a digest
    of the sources the driver is built from."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    digest = hashlib.sha256()
    for base in ("src", "CMakeLists.txt", "e2ebench"):
        top = os.path.join(ROOT, base)
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return sha or "none (not a git checkout)", digest.hexdigest()[:16]


def cpu_times():
    """The host's aggregate CPU time counters (/proc/stat), or None."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of the host's CPU time that the hypervisor gave to other
    guests between two cpu_times() readings: run-to-run noise that no
    change to the code explains."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else None


def session_members(sid):
    pids = []
    for entry in os.listdir("/proc"):
        try:
            with open("/proc/%s/stat" % entry) as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def kill_session(sid):
    """Kill the driver and every process it started. Run children sit
    in process groups of their own, but all stay in the driver's
    session; wait until none is left."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        members = session_members(sid)
        if not members:
            return
        for pid in members:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.05)


def run_driver(args, env, budget_s):
    """Run the driver; return (header, runs, leftovers) or None.
    `leftovers` counts processes of the driver's session still alive
    after it exited: the driver should have reaped them all."""
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--work-dir", OUT_DIR]
    if args.inject:
        cmd += ["--inject", args.inject]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=budget_s)
    except subprocess.TimeoutExpired:
        kill_session(proc.pid)
        proc.communicate()
        log("e2ebench: driver passed the %.0f s budget" % budget_s)
        return None
    leftovers = len(session_members(proc.pid))
    kill_session(proc.pid)
    if proc.returncode != 0:
        log("e2ebench: driver exited with code %d" % proc.returncode)
        return None
    header, runs = None, []
    for line in out.splitlines():
        if not line.startswith('{"type":'):
            continue
        rec = json.loads(line)
        if rec["type"] == "header":
            header = rec
        else:
            runs.append(rec)
    return header, runs, leftovers


# ----------------------------------------------------------------------
# Statistics


def span_s(pair):
    return (pair[1] - pair[0]) * 1e-9


def tail(samples):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, n). With 20 samples or fewer no percentile at
    or above the median qualifies, and the maximum is reported as the
    100th."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 20:
        return xs[-1], 100.0, n
    k = n - 11
    return xs[k], 100.0 * (k + 1) / n, n


def ratio(num, base):
    return num / base if base else 0.0


def node_sum(rec, field):
    return sum(node[field] for node in rec["nodes"])


def e2e_samples(header, rec):
    rss_kb = (rec["rss_children_kb"] if header["transport"] != "ring"
              else rec["rss_self_kb"])
    return {
        "run_s": span_s(rec["t_run"]),
        "virt_s": rec["exec_ns"] * 1e-9,
        "cpu_s": rec["cpu_user_s"] + rec["cpu_sys_s"],
        "setup_s": span_s(rec["t_setup"]),
        "rss_mb": rss_kb / 1024.0,
    }


def layer_samples(header, rec):
    """Per-layer values of one app run: (value, base) pairs, base None
    for plain counts."""
    s = lambda f: node_sum(rec, f)
    cost = header["cost"]
    threads = header["threads"]
    run_s = span_s(rec["t_run"])
    node_ns = rec["node_ns"]
    slow = max(range(len(node_ns)), key=lambda i: node_ns[i])
    sn = rec["nodes"][slow]
    piggy = s("diffPagesPiggybacked") + s("tsPagesPiggybacked")
    fetch_base = piggy + s("diffRequestsSent") + s("tsRequestsSent")
    bypass_base = s("repliesBypassed") + s("replyBypassRefusals")
    work_s = sn["workUnits"] * cost["workUnitNs"] / threads * 1e-9
    trap_ns = (sn["pageFaults"] * cost["pageFaultNs"]
               + sn["twinWordsCopied"] * cost["perWordTwinNs"]
               + sn["dirtyStores"] * cost["dirtyStoreNs"])
    collect_ns = (sn["diffWordsCompared"] * cost["perWordDiffNs"]
                  + sn["tsWordsScanned"] * cost["perWordScanNs"])
    return {
        "mem.page_faults": (s("pageFaults"), None),
        "mem.twins": (s("twinsCreated"), None),
        "mem.twin_words": (s("twinWordsCopied"), None),
        "mem.diffs_created": (s("diffsCreated"), None),
        "mem.diffs_applied": (s("diffsApplied"), None),
        "mem.diff_words_compared": (s("diffWordsCompared"), None),
        "mem.diff_bytes": (s("diffBytesSent"), None),
        "mem.ts_words_scanned": (s("tsWordsScanned"), None),
        "mem.dirty_stores": (s("dirtyStores"), None),
        "mem.diff_yield": (ratio(s("diffBytesSent"),
                                 4 * s("diffWordsCompared")),
                           4 * s("diffWordsCompared")),
        "core.intervals": (s("intervalsCreated"), None),
        "core.write_notices": (s("writeNoticesSent"), None),
        "core.pages_invalidated": (s("pagesInvalidated"), None),
        "core.access_misses": (s("accessMisses"), None),
        "core.diff_requests": (s("diffRequestsSent"), None),
        "core.piggyback_ratio": (ratio(piggy, fetch_base), fetch_base),
        "core.reinval_avoided": (s("reinvalidationsAvoided"), None),
        "core.gc_rounds": (s("gcRounds"), None),
        "core.gc_records": (s("gcRecordsReclaimed"), None),
        "core.home_flushes": (s("homeFlushesSent"), None),
        "core.page_fetch_rtts": (s("pageFetchRoundTrips"), None),
        "core.home_migrations": (s("homeMigrations"), None),
        "core.updates_sent": (s("updatesSent"), None),
        "core.update_bytes": (s("updateBytesSent"), None),
        "sync.locks": (s("locksAcquired"), None),
        "sync.local_lock_hits": (s("localLockHits"), None),
        "sync.local_hit_ratio": (ratio(s("localLockHits"),
                                       s("locksAcquired")),
                                 s("locksAcquired")),
        "sync.lock_forwards": (s("lockForwards"), None),
        "sync.intra_node_handoffs": (s("intraNodeLockHandoffs"), None),
        "sync.forced_handoffs": (s("remoteHandoffsForced"), None),
        "sync.barriers": (s("barriersEntered"), None),
        "net.msgs": (s("messagesSent"), None),
        "net.mb": (s("bytesSent") / 2.0 ** 20, None),
        "net.msgs_per_s": (s("messagesSent") / run_s, None),
        "net.replies_bypassed": (s("repliesBypassed"), None),
        "net.bypass_refusals": (s("replyBypassRefusals"), None),
        "net.bypass_ratio": (ratio(s("repliesBypassed"), bypass_base),
                             bypass_base),
        "net.idle_polls": (s("idlePolls"), None),
        "net.idle_parks": (s("idleParks"), None),
        "net.coalesced_msgs": (s("messagesCoalesced"), None),
        "net.retransmits": (s("retransmissions") + s("msgRetransmits"),
                            None),
        "time.virt_work_s": (work_s, None),
        "time.virt_other_s": (node_ns[slow] * 1e-9 - work_s, None),
        "time.virt_trap_s": (trap_ns / threads * 1e-9, None),
        "time.virt_collect_s": (collect_ns / threads * 1e-9, None),
        "time.node_skew": (ratio(max(node_ns) - min(node_ns),
                                 max(node_ns)), max(node_ns)),
        "driver.cpu_user_s": (rec["cpu_user_s"], None),
        "driver.cpu_sys_s": (rec["cpu_sys_s"], None),
        "driver.ctx_vol": (rec["ctx_vol"], None),
        "driver.ctx_invol": (rec["ctx_invol"], None),
        "driver.minflt": (rec["minflt"], None),
    }


def worker_samples(rec):
    durs = [span_s(w["t"]) for w in rec["workers"]]
    hi, lo = max(durs), min(durs)
    return {"apps.worker_s.max": hi, "apps.worker_s.min": lo,
            "apps.worker_skew": ratio(hi - lo, hi)}


# ----------------------------------------------------------------------
# Trace


def write_trace(path, header, runs):
    """Chrome/Perfetto trace JSON: one process track for the benchmark
    driver and one per node, one thread track per worker. Every span of
    one app run carries the same run id."""
    t0 = header["t_seq"][0]
    us = lambda ns: (ns - t0) / 1000.0
    events = [{"ph": "M", "pid": 0, "name": "process_name",
               "args": {"name": "e2ebench driver"}},
              {"ph": "M", "pid": 0, "tid": 0, "name": "thread_name",
               "args": {"name": "parent"}}]
    for node in range(header["nodes"]):
        events.append({"ph": "M", "pid": node + 1, "name": "process_name",
                       "args": {"name": "node %d" % node}})
        for t in range(header["threads"]):
            events.append({"ph": "M", "pid": node + 1, "tid": t,
                           "name": "thread_name",
                           "args": {"name": "worker %d" %
                                    (node * header["threads"] + t)}})

    def span(name, pid, tid, pair, args):
        events.append({"ph": "X", "cat": "e2ebench", "name": name,
                       "pid": pid, "tid": tid, "ts": us(pair[0]),
                       "dur": (pair[1] - pair[0]) / 1000.0, "args": args})

    span("sequential reference", 0, 0, header["t_seq"], {})
    for r in runs:
        rec = r["record"]
        if not r["traced"] or not rec or "t_run" not in rec:
            continue
        args = {"run_id": r["index"], "status": r["status"]}
        span("setup", 0, 0, rec["t_setup"], args)
        span("run", 0, 0, rec["t_run"], args)
        span("validate", 0, 0, rec["t_validate"], args)
        for w in rec["workers"]:
            span("runNode", w["node"] + 1, w["thread"], w["t"],
                 dict(args, worker=w["worker"]))
    doc = {"traceEvents": events, "displayTimeUnit": "ms",
           "otherData": {"workload": header["workload"],
                         "seed": header["seed"]}}
    with open(path, "w") as f:
        json.dump(doc, f)


# ----------------------------------------------------------------------


def main(argv):
    args = parse_args(argv)
    env, scrubbed = scrub_environment()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not build(env):
        log("e2ebench: build failed")
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)

    started, cpu0 = time.monotonic(), cpu_times()
    got = run_driver(args, env, RUN_BUDGET_S)
    steal = steal_share(cpu0, cpu_times())
    if got is None:
        return 1
    header, runs, leftovers = got
    if header is None or not runs:
        log("e2ebench: driver produced no runs")
        return 1

    sha, src_digest = source_fingerprint()
    ok = [r for r in runs if r["status"] == "ok"]
    failed = [r for r in runs if r["status"] != "ok"]
    for r in failed:
        rec = r["record"] or {}
        detail = rec.get("error") or rec.get("verdict")
        if detail:
            r["reason"] += ": " + detail
    repro = ("python3 e2ebench/run.py --workload %s --seed %d --seconds 1 "
             "--trace %d --scale %s"
             % (args.workload, args.seed, args.trace, args.scale))
    if args.inject:
        repro += " --inject " + args.inject

    e2e = {k: [] for k in ("run_s", "virt_s", "cpu_s", "setup_s",
                           "rss_mb")}
    layers, bases = {}, {}
    for r in ok:
        for k, v in e2e_samples(header, r["record"]).items():
            e2e[k].append(v)
        for k, (v, base) in layer_samples(header, r["record"]).items():
            layers.setdefault(k, []).append(v)
            bases.setdefault(k, []).append(base)
        if r["traced"]:
            for k, v in worker_samples(r["record"]).items():
                layers.setdefault(k, []).append(v)

    med = lambda xs: statistics.median(xs) if xs else float("nan")
    end_to_end, per_layer, notes = {}, {}, {}
    if ok:
        end_to_end = {
            "run_s.p50": (med(e2e["run_s"]), "s"),
            "virt_s.p50": (med(e2e["virt_s"]), "s"),
            "cpu_s.p50": (med(e2e["cpu_s"]), "s"),
            "setup_s": (med(e2e["setup_s"]), "s"),
            "rss_mb": (med(e2e["rss_mb"]), "MiB"),
        }
        # The tail is reported but not gated: on sor-lrc-diff a window
        # holds too few runs for more than the maximum (README.md).
        value, pct, n = tail(e2e["run_s"])
        per_layer["run_s.tail"] = (value, "s")
        notes["run_s.tail"] = "p%.1f of %d samples" % (pct, n)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for k, xs in layers.items():
            per_layer[k] = (med(xs), units.get(k, "?"))
            base = [b for b in bases.get(k, []) if b is not None]
            if base:
                notes[k] = "base %g" % med(base)
        per_layer["apps.seq_s"] = (span_s(header["t_seq"]), "s")
        traced = [span_s(r["record"]["t_run"]) for r in ok if r["traced"]]
        plain = [span_s(r["record"]["t_run"]) for r in ok if not r["traced"]]
        if traced and plain:
            per_layer["driver.trace_overhead_s"] = (med(traced) - med(plain),
                                                    "s")
            notes["driver.trace_overhead_s"] = (
                "traced p50 over %d runs minus untraced p50 over %d runs"
                % (len(traced), len(plain)))

    fail_ratio = len(failed) / len(runs)
    per_layer["fail_ratio"] = (fail_ratio, "ratio")
    notes["fail_ratio"] = "%d failed of %d attempted" % (len(failed),
                                                         len(runs))

    trace_path = None
    if args.trace:
        trace_path = os.path.join(OUT_DIR, "trace-%s-seed%d.json"
                                  % (args.workload, args.seed))
        write_trace(trace_path, header, runs)

    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "host": {k: header[k] for k in ("nproc", "cpu_model", "build_type",
                                        "compiler", "arena_bytes",
                                        "page_size")},
        "host_steal_share": steal,
        "git_sha": sha, "source_digest": src_digest,
        "scrubbed_env": scrubbed,
        "tmp_dir": header["tmp_dir"],
        "leftover_processes": leftovers,
        "config": {k: header[k] for k in ("app", "runtime", "home_based",
                                          "nodes", "threads", "transport",
                                          "deadline_s")},
        "attempted": len(runs), "failed": len(failed),
        "fail_ratio": fail_ratio,
        "failures": [{"run": r["index"], "reason": r["reason"],
                      "repro": repro} for r in failed],
        "end_to_end": {k: {"value": v, "unit": u}
                       for k, (v, u) in end_to_end.items()},
        "per_layer": {k: {"value": v, "unit": u}
                      for k, (v, u) in sorted(per_layer.items())},
        "notes": notes, "samples": e2e, "trace_file": trace_path,
        "wall_s": time.monotonic() - started,
    }
    with open(os.path.join(OUT_DIR, "report-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as f:
        json.dump(report, f, indent=1)

    print("e2ebench %s seed=%d scale=%s trace=%d: %s %s %dx%d %s" % (
        args.workload, args.seed, args.scale, args.trace, header["app"],
        header["runtime"] + ("-home" if header["home_based"] else ""),
        header["nodes"], header["threads"], header["transport"]))
    print("host: nproc=%d cpu=%s build=%s compiler=%s arena=%d page=%d "
          "git=%s src=%s" % (header["nproc"], header["cpu_model"],
                             header["build_type"], header["compiler"],
                             header["arena_bytes"], header["page_size"],
                             sha, src_digest))
    if steal is not None:
        print("host steal: %.1f%% of CPU time during the execution"
              % (100 * steal))
    if scrubbed:
        print("scrubbed from the environment: %s" % ", ".join(scrubbed))
    if leftovers:
        print("killed %d processes the driver left behind" % leftovers)
    print("fail_ratio %.4f (%d failed of %d attempted)"
          % (fail_ratio, len(failed), len(runs)))
    for r in failed:
        print("  FAILED run %d: %s; repro: %s"
              % (r["index"], r["reason"], repro))
    shown = dict(end_to_end)
    for k in (per_layer if args.trace else UNGATED_E2E):
        if k in per_layer:
            shown[k] = per_layer[k]
    for k in sorted(shown):
        v, u = shown[k]
        print("  %-28s %14.6g %-6s %s" % (k, v, u, notes.get(k, "")))
    if trace_path:
        print("trace: %s" % os.path.relpath(trace_path, ROOT))

    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]
    chosen = per_layer if args.trace else end_to_end
    metrics = {k: {"value": chosen[k][0], "unit": chosen[k][1]}
               for k in wanted if k in chosen}
    correct = (not failed and not leftovers and len(metrics) == len(wanted)
               and all(r["record"]["valid"] for r in ok))
    print(json.dumps({"correct": correct, "attempted": len(runs),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
