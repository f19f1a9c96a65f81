#!/usr/bin/env python3
"""The benchmark's own tests, run at a tiny length (about 15 s).

    python3 specbench/test_specbench.py

Builds specbench the way run.py does, then checks that the metric and
workload names match BENCHMARK.json, that a tampered expected digest
fails the run, that a missing expected-digest directory is an error,
and that the traced run's spans nest and pass the repository's
trace_lint.
"""

import json
import os
import subprocess
import tempfile
import unittest

import run

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
EXPECTED = os.path.join(run.HERE, "expected")
# A seed with no committed digests: the committed ones are for the full
# lengths, not --tiny, so tiny runs use this one unless they write
# their own.
UNCHECKED_SEED = 5
BINARY = None


def bench(workload, expected=EXPECTED, *extra, trace=0,
          seed=UNCHECKED_SEED):
    """Run specbench at tiny length; return (stdout lines, result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--expected",
           expected, "--tiny", *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=120).stdout.splitlines()
    return out, json.loads(out[-1])


def setUpModule():
    global BINARY
    BINARY = run.build()


class Names(unittest.TestCase):
    def test_workloads_match(self):
        names = [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(names, list(run.WORKLOADS))

    def test_metrics_match(self):
        e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            for w in run.WORKLOADS:
                for trace, want in ((0, e2e), (1, layer)):
                    _, res = bench(w, EXPECTED, "--trace-out",
                                   os.path.join(tmp, "t.json"),
                                   trace=trace)
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want, (w, trace))
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)


class ExpectedDigests(unittest.TestCase):
    def write(self, tmp, workload, seed):
        subprocess.run([BINARY, "--workload", workload, "--seed",
                        str(seed), "--expected", tmp, "--tiny",
                        "--write-expected"], check=True,
                       capture_output=True, timeout=120)
        return os.path.join(tmp, workload, f"seed{seed}", "mcf.digest")

    def test_match_passes_and_tamper_fails(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            path = self.write(tmp, "timing_sliced", 3)
            _, res = bench("timing_sliced", tmp, seed=3)
            self.assertTrue(res["correct"])
            self.assertEqual(res["failed"], 0)

            with open(path) as f:
                lines = f.read().splitlines()
            i = next(n for n, l in enumerate(lines)
                     if l.startswith("counter cycles "))
            lines[i] = "counter cycles %d" % (int(lines[i].split()[2]) + 1)
            with open(path, "w") as f:
                f.write("\n".join(lines) + "\n")
            out, res = bench("timing_sliced", tmp, seed=3)
            self.assertFalse(res["correct"])
            self.assertGreaterEqual(res["failed"], 1)
            self.assertTrue(any(l.startswith("FAILED timing_sliced mcf")
                                for l in out))

    def test_unlisted_counters_are_ignored(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            path = self.write(tmp, "sampled", 4)
            with open(path) as f:
                lines = [l for l in f.read().splitlines()
                         if not l.startswith("counter detail.")]
            with open(path, "w") as f:
                f.write("\n".join(lines) + "\n")
            _, res = bench("sampled", tmp, seed=4)
            self.assertTrue(res["correct"])

    def test_seed_without_digests_checks_completion_only(self):
        out, res = bench("timing_sliced")
        self.assertTrue(res["correct"])
        self.assertTrue(any("completed outcome only" in l for l in out))

    def test_missing_expected_dir_is_an_error(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            for seed in (1, UNCHECKED_SEED):
                p = subprocess.run(
                    [BINARY, "--workload", "sampled", "--seed", str(seed),
                     "--seconds", "1", "--expected",
                     os.path.join(tmp, "nonexistent"), "--tiny"],
                    capture_output=True, text=True, timeout=120)
                self.assertEqual(p.returncode, 2, p.stderr)
                self.assertNotIn('"correct"', p.stdout)
                self.assertIn("no expected-digest directory", p.stderr)


class Arguments(unittest.TestCase):
    def check_usage(self, args, why):
        p = subprocess.run([BINARY, "--workload", "sampled", "--expected",
                            EXPECTED, "--tiny", *args],
                           capture_output=True, text=True, timeout=60)
        self.assertEqual(p.returncode, 2)
        self.assertIn(why, p.stderr)

    def test_seconds_is_required(self):
        self.check_usage([], "--seconds is required")

    def test_trace_needs_trace_out(self):
        self.check_usage(["--seconds", "1", "--trace", "1"],
                         "--trace 1 needs --trace-out")


class Spans(unittest.TestCase):
    def test_children_lie_inside_parents(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            path = os.path.join(tmp, "t.json")
            bench("sampled", EXPECTED, "--trace-out", path, trace=1)
            with open(path) as f:
                events = json.load(f)["traceEvents"]
            subprocess.run(["cmake", "--build", run.build_dir(),
                            "--target", "trace_lint"], check=True,
                           capture_output=True)
            subprocess.run([os.path.join(run.build_dir(), "trace_lint"),
                            path], check=True, capture_output=True)
        self.assertTrue(events)
        by_id = {e["args"]["id"]: e for e in events}
        eps = 0.002  # ts and dur are printed to 1 ns
        layers = set()
        for e in events:
            self.assertEqual(e["ph"], "X")
            layers.add(e["cat"])
            parent = e["args"]["parent"]
            if parent < 0:
                continue
            p = by_id[parent]
            self.assertGreaterEqual(e["ts"] + eps, p["ts"], e)
            self.assertLessEqual(e["ts"] + e["dur"],
                                 p["ts"] + p["dur"] + eps, e)
        self.assertTrue({"workloads", "sim", "arch", "branch",
                         "mem"} <= layers)


if __name__ == "__main__":
    unittest.main()
