"""Tests of the benchmark itself.

Run from the repository root (the first run builds the benchmark):

    python3 -m unittest discover -s perfbench/tests -v
"""

import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Layer metrics that are counts of simulated work: exact for a seed.
COUNTS = ("router.steps", "network.wire_events", "network.nic_steps",
          "network.cycles", "network.ff_cycles", "exp.runs",
          "exp.runs_inferred_sat", "tables.entries_per_router")


def bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=run.ROOT)
    if proc.returncode != 0:
        raise AssertionError("run.py %s failed:\n%s" % (args, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    digests = re.findall(r"digest (\w+)", proc.stdout)
    return result, digests[0], proc.stdout


def counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if k in COUNTS or k.startswith(("workload.", "fault."))}


class MetricNames(unittest.TestCase):
    def test_names_are_unique_well_formed_and_carry_units(self):
        spec = run.spec()
        metrics = spec["end_to_end"] + spec["per_layer"]
        names = [m["name"] for m in metrics]
        self.assertEqual(len(names), len(set(names)))
        for m in metrics:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])


class FailureCounting(unittest.TestCase):
    REF = {"records": ["a", "b"]}

    def test_matching_records_do_not_fail(self):
        runs = [{"records": ["a", "b"], "error": None}]
        self.assertEqual(run.count_failures(runs, self.REF), (2, 0))

    def test_a_throw_fails_every_simulation_of_the_execution(self):
        runs = [{"records": [], "error": "SimulationError"},
                {"records": ["a", "x"], "error": None}]
        self.assertEqual(run.count_failures(runs, self.REF), (4, 3))


class Determinism(unittest.TestCase):
    """The closed-loop faulted workload exercises every count: router
    and NIC steps, wire events, fast-forward, faults and requests."""

    def test_seed_fixes_digest_and_layer_counts(self):
        args = ("--workload", "mesh16_rpc_faults", "--seconds", "1",
                "--trace", "1")
        first, digest1, out = bench("--seed", "1", *args)
        again, digest1b, _ = bench("--seed", "1", *args)
        other, digest2, _ = bench("--seed", "2", *args)
        for result in (first, again, other):
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
        self.assertEqual(set(first["metrics"]),
                         {m["name"] for m in run.spec()["per_layer"]})
        self.assertEqual(digest1, digest1b)
        self.assertEqual(counts(first), counts(again))
        self.assertNotEqual(digest1, digest2)
        self.assertGreater(first["metrics"]["router.steps"]["value"], 0)
        self.assertGreater(first["metrics"]["fault.link_down_events"]
                           ["value"], 0)
        self.assertGreater(first["metrics"]["workload.requests_issued"]
                           ["value"], 0)


class CorruptedReference(unittest.TestCase):
    def test_corrupted_reference_counts_every_run_as_failed(self):
        ref = json.loads((run.STORED_REFERENCES / "mesh16_paper.json")
                         .read_text())
        ref["records"][0] = ref["records"][0].replace(
            '"latency_mean":', '"latency_mean":1')
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "mesh16_paper.json").write_text(json.dumps(ref))
            out = io.StringIO()
            with mock.patch.object(run, "STORED_REFERENCES", Path(tmp)), \
                    contextlib.redirect_stdout(out):
                rc = run.main(["--workload", "mesh16_paper", "--seed", "1",
                               "--seconds", "1", "--trace", "0"])
        self.assertEqual(rc, 0)
        text = out.getvalue()
        result = json.loads(text.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertEqual(result["failed"], result["attempted"])
        frac = float(re.search(r"run_fail_frac\s+(\S+)", text).group(1))
        self.assertGreater(frac, 0.0)


if __name__ == "__main__":
    unittest.main()
