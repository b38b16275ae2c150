#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 e2ebench/test_e2ebench.py

- a test-scale smoke of every workload, untraced and traced: every run
  validates, every metric BENCHMARK.json names is printed with its unit,
  and the traced run writes a loadable Chrome/Perfetto trace;
- failure accounting: workers that abort, or hang past the deadline,
  inside Cluster::run (in socket-tier node processes too) are counted
  as failed with a reason and a repro command, and leave no process and
  no rendezvous directory behind; the budget kill reaches processes in
  other process groups;
- socket paths stay short when the work directory's path is long;
- knob hygiene: DSM_* variables are scrubbed and reported;
- the workload names of run.py, the driver and BENCHMARK.json agree.
"""

import glob
import json
import os
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(*args, env=None):
    """Run the benchmark; return (exit code, result line, stdout)."""
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py")]
                       + list(args), cwd=ROOT, capture_output=True,
                       text=True, env=env, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return p.returncode, result, p.stdout


def report(workload, seed, trace):
    with open(os.path.join(run.OUT_DIR, "report-%s-seed%d-trace%d.json"
                           % (workload, seed, trace))) as f:
        return json.load(f)


def rendezvous_leftovers():
    return glob.glob(os.path.join(run.OUT_DIR, "tmp-*", "dsm-cluster-*"))


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        code, res, out = bench("--workload", workload, "--scale", "test",
                               "--seconds", "1", "--trace", str(trace),
                               "--seed", "3")
        self.assertEqual(code, 0, out)
        self.assertTrue(res["correct"], out)
        self.assertGreaterEqual(res["attempted"], 2)
        self.assertEqual(res["failed"], 0)
        kind = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        self.assertEqual(set(res["metrics"]), set(want))
        for name, m in res["metrics"].items():
            self.assertEqual(m["unit"], want[name], name)
            self.assertIsInstance(m["value"], (int, float), name)
        rep = report(workload, 3, trace)
        self.assertEqual(rep["seed"], 3)
        for key in ("nproc", "cpu_model", "build_type", "compiler",
                    "arena_bytes", "page_size"):
            self.assertIn(key, rep["host"])
        self.assertEqual(rep["host"]["build_type"], "Release")
        if not trace:
            for name in want:
                self.assertGreater(res["metrics"][name]["value"], 0, name)
            return
        with open(rep["trace_file"]) as f:
            doc = json.load(f)
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in spans}
        self.assertLessEqual({"setup", "run", "runNode", "validate"}, names)
        # Every other run is traced; each has one runNode span per
        # worker, all tagged with its run id.
        workers = {e["args"]["run_id"] for e in spans
                   if e["name"] == "runNode"}
        self.assertEqual(workers, set(range(0, res["attempted"], 2)))
        per_run = [e for e in spans
                   if e["name"] == "runNode" and e["args"]["run_id"] == 0]
        cfg = rep["config"]
        self.assertEqual(len(per_run), cfg["nodes"] * cfg["threads"])

    def test_workloads(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)


class FailureAccounting(unittest.TestCase):
    def check_clean(self, rep):
        """No process of the driver's session outlived it, and no
        rendezvous directory outlived its run."""
        self.assertEqual(rep["leftover_processes"], 0)
        self.assertEqual(rendezvous_leftovers(), [])
        self.assertFalse(os.path.exists(rep["tmp_dir"]))

    def test_abort_is_counted(self):
        # Ring tier: a worker thread aborts the run process. Socket
        # tier: the node processes abort, and the run process aborts
        # when it finds them dead.
        for workload in ("qs-ec-smp", "water-home-socket"):
            with self.subTest(workload=workload):
                code, res, out = bench("--workload", workload,
                                       "--scale", "test", "--seconds", "1",
                                       "--inject", "abort")
                self.assertNotEqual(code, 0)
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], res["attempted"])
                rep = report(workload, run.DEFAULT_SEED, 0)
                self.assertEqual(rep["fail_ratio"], 1.0)
                for f in rep["failures"]:
                    self.assertIn("--workload %s" % workload, f["repro"])
                    self.assertIn("signal 6", f["reason"])
                self.check_clean(rep)

    def test_deadline_overrun_is_counted(self):
        # The hang is in every node process of the socket tier, after
        # the run process forked them: the deadline kill must reach
        # them all.
        code, res, out = bench("--workload", "water-home-socket",
                               "--scale", "test", "--seconds", "1",
                               "--inject", "hang")
        self.assertNotEqual(code, 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], res["attempted"])
        rep = report("water-home-socket", run.DEFAULT_SEED, 0)
        for f in rep["failures"]:
            self.assertIn("deadline", f["reason"])
        self.check_clean(rep)

    def test_budget_kill_reaches_every_process_group(self):
        # A driver stand-in whose child moves to a process group of its
        # own, as every run child does.
        stand_in = ("import os, time\n"
                    "if os.fork() == 0:\n"
                    "    os.setpgid(0, 0)\n"
                    "time.sleep(600)\n")
        proc = subprocess.Popen([sys.executable, "-c", stand_in],
                                start_new_session=True)
        time.sleep(0.5)
        self.assertGreaterEqual(len(run.session_members(proc.pid)), 2)
        run.kill_session(proc.pid)
        proc.wait()
        self.assertEqual(run.session_members(proc.pid), [])


class SocketPaths(unittest.TestCase):
    def test_long_work_dir(self):
        # Unix socket paths must fit in 108 bytes; a work directory
        # far longer than that must still run the socket tier.
        work = os.path.join(run.OUT_DIR, "long-" + "d" * 150)
        self.assertGreater(len(work), 160)
        p = subprocess.run([run.DRIVER, "--workload", "water-home-socket",
                            "--scale", "test", "--seconds", "0",
                            "--work-dir", work],
                           capture_output=True, text=True, timeout=120)
        self.assertEqual(p.returncode, 0, p.stderr)
        runs = [json.loads(line) for line in p.stdout.splitlines()
                if line.startswith('{"type":"run"')]
        self.assertEqual([r["status"] for r in runs], ["ok"], p.stderr)
        os.rmdir(work)


class KnobHygiene(unittest.TestCase):
    def test_dsm_variables_are_scrubbed_and_reported(self):
        env = dict(os.environ, DSM_REPLY_BYPASS="0")
        code, res, out = bench("--workload", "qs-ec-smp", "--scale", "test",
                               "--seconds", "0", env=env)
        self.assertEqual(code, 0, out)
        self.assertTrue(res["correct"])
        self.assertIn("DSM_REPLY_BYPASS", out)
        rep = report("qs-ec-smp", run.DEFAULT_SEED, 0)
        self.assertEqual(rep["scrubbed_env"], ["DSM_REPLY_BYPASS"])


class Names(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))

    def test_driver_knows_every_workload_and_no_other(self):
        for workload in run.WORKLOADS + ("no-such-workload",):
            p = subprocess.run([run.DRIVER, "--workload", workload,
                                "--scale", "test", "--seconds", "0",
                                "--work-dir", run.OUT_DIR],
                               capture_output=True, text=True)
            known = workload in run.WORKLOADS
            self.assertEqual(p.returncode == 0, known, p.stderr)

    def test_command_and_paths(self):
        self.assertEqual(SPEC["command"], ["python3", "e2ebench/run.py"])
        self.assertEqual(SPEC["paths"], ["e2ebench"])


if __name__ == "__main__":
    # The driver must exist before the tests that call it directly.
    if not run.build(run.scrub_environment()[0]):
        sys.exit("build failed")
    unittest.main()
