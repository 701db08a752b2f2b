#!/usr/bin/env python3
"""Self-tests of the repository benchmark. Run from the repository root:

    python3 perfbench/test_perfbench.py

Builds perfbench through run.py, then checks the label classifier, the
per-layer event split, output verification and seeded input streams.
Takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

EXE = None
EVENT_COUNTS = ["interconnect.events", "system.op_events", "vmem.events",
                "collective.events", "cluster.events", "serving.events"]


def setUpModule():
    global EXE
    EXE = run.build()


def bench(*args, expected_dir=run.EXPECTED_DIR):
    return subprocess.run([EXE, *args, "--expected-dir", expected_dir],
                          capture_output=True, text=True, cwd=run.ROOT)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[kind]]


class TracedRunTest(unittest.TestCase):
    """One short traced run per workload, shared by the tests below."""

    runs = {}

    @classmethod
    def setUpClass(cls):
        for workload in run.WORKLOADS:
            cls.runs[workload] = bench("--workload", workload,
                                       "--seconds", "0", "--trace", "1")

    def test_classifier_covers_every_emitted_label(self):
        for workload, proc in self.runs.items():
            with self.subTest(workload=workload):
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertNotIn("matches no layer class", proc.stderr)
                r = result(proc)
                self.assertTrue(r["correct"])
                self.assertEqual(
                    r["metrics"]["trace.unattributed_frac"]["value"], 0.0)

    def test_events_equal_sum_of_layer_events(self):
        for workload, proc in self.runs.items():
            with self.subTest(workload=workload):
                m = result(proc)["metrics"]
                self.assertGreater(m["sim.events"]["value"], 0)
                self.assertEqual(m["sim.events"]["value"],
                                 sum(m[k]["value"] for k in EVENT_COUNTS))

    def test_reports_exactly_the_declared_per_layer_metrics(self):
        for workload, proc in self.runs.items():
            with self.subTest(workload=workload):
                self.assertEqual(sorted(result(proc)["metrics"]),
                                 sorted(declared("per_layer")))

    def test_unknown_label_is_unclassified(self):
        proc = subprocess.run(
            [EXE, "--classify", "mcdla_ring.m0.dimms.deliver",
             "op_complete", "request_arrival", "some_new_event"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 1)
        layers = dict(line.split() for line in proc.stdout.splitlines())
        self.assertEqual(layers, {
            "mcdla_ring.m0.dimms.deliver": "interconnect",
            "op_complete": "system",
            "request_arrival": "serving",
            "some_new_event": "-"})


class VerificationTest(unittest.TestCase):

    def test_stored_outputs_verify(self):
        proc = bench("--workload", "cluster_contend", "--seed", "2",
                     "--seconds", "0")
        r = result(proc)
        self.assertTrue(r["correct"], proc.stderr)
        self.assertEqual(r["failed"], 0)
        self.assertEqual(sorted(r["metrics"]), sorted(declared("end_to_end")))
        self.assertEqual(r["metrics"]["verified_ops_frac"]["value"], 1.0)

    def test_perturbed_expected_value_lowers_verified_fraction(self):
        scratch = os.path.join(run.build_dir(), "test_expected")
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(run.EXPECTED_DIR, scratch)
        path = os.path.join(scratch, "cluster_contend.seed1.txt")
        with open(path) as f:
            lines = f.read().splitlines()
        name, start, finish = lines[1].split()
        lines[1] = f"{name} {start} {float(finish) * 1.5!r}"
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")

        proc = bench("--workload", "cluster_contend", "--seed", "1",
                     "--seconds", "0", expected_dir=scratch)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        r = result(proc)
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], 1)
        frac = r["metrics"]["verified_ops_frac"]["value"]
        self.assertAlmostEqual(frac, (r["attempted"] - 1) / r["attempted"])
        self.assertIn(f"op {name} differs", proc.stderr)


class StreamTest(unittest.TestCase):

    def inputs(self, workload, seed):
        proc = bench("--workload", workload, "--seed", str(seed), "--inputs")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return proc.stdout

    def test_seed_changes_generated_streams(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.inputs(workload, 1)
                self.assertEqual(first, self.inputs(workload, 1))
                self.assertNotEqual(first, self.inputs(workload, 2))


if __name__ == "__main__":
    unittest.main()
