"""Self-test of the benchmark itself (kept out of the package's test suite).

    python3 bench/selftest.py

Checks that BENCHMARK.json and the benchmark agree on names and units, that
the names are well formed, that tracing restores every patched function
and that its self times add up to the traced wall time, that the
closed-form reference matches brute-force enumeration, that a tiny run of
every workload in both modes reports every named metric with no failed
call, and that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import tempfile
import unittest
from pathlib import Path

import run  # sets up the import path to the checkout's src/

import numpy as np

import reference
import tracing
from chan_em.likelihood import brute_force_expected_stats, brute_force_likelihood
from chan_em.markov import ChannelParams
from chan_em.observation import ObservedDataset
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _scratch() -> tempfile.TemporaryDirectory:
    run.WORK_DIR.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.WORK_DIR)


def _run_tiny(workload: str, trace: int) -> dict:
    """Result object of a tiny run, parsed from its last stdout line."""
    sink = io.StringIO()
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0",
            "--trace", str(trace), "--tiny"]
    with contextlib.redirect_stdout(sink):
        code = run.main(argv)
    if code != 0:
        raise AssertionError(f"exit {code}: {sink.getvalue()}")
    return json.loads(sink.getvalue().splitlines()[-1])


def tearDownModule() -> None:
    with contextlib.suppress(OSError):
        run.WORK_DIR.rmdir()


class Names(unittest.TestCase):
    def test_spec_matches_benchmark(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOADS))
        for key, units in (("end_to_end", run.END_TO_END_UNITS),
                           ("per_layer", run.PER_LAYER_UNITS)):
            self.assertEqual({m["name"]: m["unit"] for m in SPEC[key]}, units)

    def test_names_and_units_are_well_formed(self):
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME.pattern + r"\Z")
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertTrue(UNIT.fullmatch(metric["unit"]), metric)
        for workload in SPEC["workloads"]:
            self.assertLessEqual(len(workload["why"]), 200)


class Tracing(unittest.TestCase):
    def test_wrappers_are_restored(self):
        before = tracing.binding_sites()
        tracer = tracing.Tracer()
        with self.assertRaises(RuntimeError):
            with tracer.installed():
                during = tracing.binding_sites()
                raise RuntimeError("leave the context by an exception")
        self.assertEqual(tracing.binding_sites(), before)
        for name, original in before.items():
            self.assertIsNot(during[name], original, name)

    def test_self_times_add_up_to_the_traced_wall(self):
        with _scratch() as scratch:
            workload = WORKLOADS["long-gap"]
            argv = workload.argv(Path(scratch), True) + ["--seed", "3"]
            session = run.Session(workload, argv, Path(scratch))
            tracer = tracing.Tracer()
            wall = session.call(tracer)
        self.assertIsNotNone(wall, session.failures)
        times = tracer.layer_times()
        self.assertAlmostEqual(sum(times.values()), wall, delta=1e-9)
        self.assertGreater(tracer.counts["em.e_step_calls"], 0)


class Reference(unittest.TestCase):
    def test_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            alpha, beta = rng.uniform(0.001, 0.999, size=2)
            gaps = rng.integers(0, 5, size=rng.integers(1, 5))
            times = np.concatenate([[1], 1 + np.cumsum(gaps + 1)])
            states = rng.integers(0, 2, size=len(times))
            dataset = ObservedDataset(times=times, states=states)
            params = ChannelParams(alpha, beta)
            signatures, counts = reference.gap_signatures(times, states)
            n = reference.expected_transitions(signatures, counts, alpha, beta)
            ours = (n[0, 1], n[1, 0], n[0].sum(), n[1].sum())
            oracle = brute_force_expected_stats(dataset, params).as_tuple()
            np.testing.assert_allclose(ours, oracle, rtol=1e-12, atol=1e-12)
            self.assertAlmostEqual(
                reference.log_likelihood(signatures, counts, alpha, beta),
                np.log(brute_force_likelihood(dataset, params)),
                delta=1e-12,
            )


class TinyRuns(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = _run_tiny(workload, trace)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"}
                    )
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 2)
                    self.assertEqual(
                        {n: m["unit"] for n, m in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in SPEC[key]},
                    )
                    if trace == 0:
                        for metric in result["metrics"].values():
                            self.assertGreater(metric["value"], 0)
                    else:
                        self.assertAlmostEqual(
                            result["metrics"]["trace.wall_s"]["value"],
                            sum(result["metrics"][name]["value"] for name in
                                tracing.LAYER_METRICS.values())
                            + result["metrics"]["trace.unattributed_s"]["value"],
                            delta=1e-9,
                        )

    def test_refuses_to_run_without_sources(self):
        with _scratch() as bare:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.ROOT / "bench", Path(bare) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                SPEC["command"] + ["--workload", "long-gap", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
