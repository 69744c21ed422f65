#!/usr/bin/env python3
"""Tests of the perfbench benchmark itself (not of bistpath).

Run from the repository root:

    python3 perfbench/test_perfbench.py

Each test drives run.py in --short mode (a few ops per workload), so the
figures are meaningless; what is checked is the contract: every metric
of BENCHMARK.json is emitted with its unit and direction, the output
gate catches a corrupted digest, and the benchmark refuses to run
without the sources it builds.
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import unittest  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads as W  # noqa: E402

SPEC = json.load(open("BENCHMARK.json"))


def bench(*extra, cwd="."):
    r = subprocess.run([sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "1"]
                       + list(extra), capture_output=True, text=True, cwd=cwd, timeout=300)
    return r


def result(r):
    return json.loads(r.stdout.splitlines()[-1])


class ShortRuns(unittest.TestCase):
    def check_metrics(self, workload, trace):
        r = bench("--workload", workload, "--trace", str(trace), "--short")
        self.assertEqual(r.returncode, 0, r.stderr)
        res = result(r)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], r.stdout)
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(res["metrics"]), {m["name"] for m in declared})
        with open(os.path.join(W.WORK, "detail-%s-1-trace%d.json" % (workload, trace))) as f:
            directions = json.load(f)["directions"]
        for m in declared:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertIn(m["better"], ("higher", "lower"))
            self.assertEqual(directions[m["name"]], m["better"], m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        return res["metrics"]

    def test_synth_cold(self):
        self.check_metrics("synth_cold", 0)
        layers = self.check_metrics("synth_cold", 1)
        # the service and cache layers come from the serve pass it adds
        self.assertEqual(layers["journal.appends_per_job"]["value"], 3)
        self.assertGreater(layers["runner.job_ms"]["value"], 0)
        self.assertGreater(layers["regalloc.ms"]["value"], 0)

    def test_analysis(self):
        self.check_metrics("analysis", 0)
        self.check_metrics("analysis", 1)

    def test_serve_fleet(self):
        self.check_metrics("serve_fleet", 0)
        self.check_metrics("serve_fleet", 1)


class Gate(unittest.TestCase):
    def test_corrupted_digest_fails_the_run(self):
        with open(W.EXPECTED) as f:
            expected = json.load(f)
        victim = W.kind_key(*W.cli_order("synth_cold", 1, 0)[0])
        expected["cli"][victim]["md5"] = "0" * 32
        os.makedirs(W.WORK, exist_ok=True)
        path = os.path.join(W.WORK, "corrupt-expected.json")
        with open(path, "w") as f:
            json.dump(expected, f)
        for trace in ("0", "1"):
            res = result(bench("--workload", "synth_cold", "--trace", trace, "--short",
                               "--expected", path))
            self.assertFalse(res["correct"])
            self.assertGreaterEqual(res["failed"], 1)

    def test_refuses_to_run_without_the_sources(self):
        bare = os.path.join(W.WORK, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy("BENCHMARK.json", bare)
        r = bench("--workload", "synth_cold", "--trace", "0", cwd=bare)
        self.assertNotEqual(r.returncode, 0)
        self.assertFalse(any(line.startswith("{") for line in r.stdout.splitlines()))
        shutil.rmtree(bare)


class Streams(unittest.TestCase):
    def test_orders_depend_only_on_the_seed(self):
        self.assertEqual(W.cli_order("analysis", 5, 1), W.cli_order("analysis", 5, 1))
        self.assertNotEqual(W.cli_order("analysis", 5, 1), W.cli_order("analysis", 6, 1))
        self.assertEqual(sorted(W.cli_order("synth_cold", 3, 0)), sorted(W.cli_kinds("synth_cold")))

    def test_a_third_of_serve_jobs_repeat_after_their_first(self):
        stream = W.serve_stream(7, 0)
        self.assertEqual(len(stream), 3 * len(W.serve_kinds()) // 2)
        seen = {}
        for i, k in enumerate(stream):
            if k in seen:
                self.assertGreaterEqual(i, seen[k] + 2)
            else:
                seen[k] = i
        self.assertEqual(set(stream), set(W.serve_kinds()))
        self.assertNotIn("data/fir32.dfg", {d for d, _, _ in stream})

    def test_two_serve_passes_repeat_every_kind_once(self):
        both = W.serve_stream(7, 0) + W.serve_stream(7, 1)
        self.assertTrue(all(both.count(k) == 3 for k in W.serve_kinds()))


if __name__ == "__main__":
    unittest.main()
