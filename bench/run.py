"""Benchmark of the chan-em CLI: end-to-end metrics and a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the repository root. Calls the real entry point
(`chan_em.harness.cli.main`, built from `src/`) in this one process, over
and over for `--seconds`, on the workload's inputs made from `--seed`, with
outputs in a scratch directory that is removed afterwards. Every call must
exit 0 and write files byte-identical to the first call's; the first call's
files are then checked against the closed-form reference (see
`workloads.py`). A call that fails any of this counts in `failed`.

`--trace 0` reports the end-to-end metrics: `wall_s` (median time of one
CLI call), `setup_s` (median time to import `chan_em.harness.cli` in a
fresh interpreter) and `peak_rss_mb` (this process's maximum resident set).
`--trace 1` spends half the time on untraced calls and half on traced ones
(see `tracing.py`), and reports per-layer self times and work counts from
the traced call with the median wall time, the tracing overhead, the
gap-length scaling row and the convergence row. Human-readable lines come
first; the last line of standard output is the JSON result. `--out FILE`
also writes the result with the environment it was measured in.
"""

from __future__ import annotations

import os

# The program is single-threaded; keep numpy's BLAS from starting a pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

if not (SRC / "chan_em" / "__init__.py").is_file():
    sys.exit(f"bench: no chan_em sources under {SRC}; run from a repository checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import chan_em  # noqa: E402
from chan_em.em import e_step  # noqa: E402
from chan_em.harness import cli  # noqa: E402
from chan_em.likelihood import incomplete_log_likelihood  # noqa: E402
from chan_em.markov import ChannelParams  # noqa: E402
from chan_em.observation import ObservedDataset  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

if not Path(chan_em.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"bench: imported chan_em from {chan_em.__file__}, not from {SRC}")

MIN_SETUP_SAMPLES = 5
SETUP_CODE = (
    "import time; t = time.perf_counter(); import chan_em.harness.cli; "
    "print(time.perf_counter() - t)"
)
KERNEL_GAPS = (100, 1000, 10000)
KERNEL_REPEATS = 5
KERNEL_PARAMS = ChannelParams(0.002, 0.003)
CONVERGENCE_TOL = 1e-8
CONVERGENCE_CHANNELS = 5

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{name: "s" for name in tracing.LAYER_METRICS.values()},
    **{name: "count" for name in tracing.COUNT_METRICS},
    "observation.max_hidden": "slots",
    "markov.slots_simulated": "slots",
    **{f"likelihood.kernel_s.g{g}": "s" for g in KERNEL_GAPS},
    **{f"em.iterations_to_tol.ch{i}": "count" for i in range(CONVERGENCE_CHANNELS)},
    "em.rel_err_pct": "%",
    "harness.bytes_written": "bytes",
    "harness.files_written": "count",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

NOTES = (
    "Single process, no CPU pinning and no page-cache dropping: times are"
    " medians of repeated in-process calls with warm caches, and vary with"
    " other load on the machine."
)


class Session:
    """Repeated CLI calls of one workload and seed, with their checks."""

    def __init__(self, workload: Workload, argv: list[str], scratch: Path) -> None:
        self.workload = workload
        self.argv = argv
        self.scratch = scratch
        self.attempted = 0
        self.failures: list[str] = []
        self.first_out: Path | None = None
        self.first_digests: dict[str, str] | None = None
        self.passed = 0

    def call(self, tracer: tracing.Tracer | None = None) -> float | None:
        """One CLI call; its wall time, or None when it failed."""
        rep = self.attempted
        self.attempted += 1
        # one output path for every call: it is part of the hashed config
        out = self.scratch / "out"
        shutil.rmtree(out, ignore_errors=True)  # left by a failed call
        argv = self.argv + ["--out", str(out)]
        gc.collect()
        sink = io.StringIO()
        code: int | str
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if tracer is None:
                    start = perf_counter()
                    code = cli.main(argv)
                    wall = perf_counter() - start
                else:
                    with tracer.installed():
                        code, wall = tracer.call(cli.main, argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        except Exception:
            code = traceback.format_exc()
        if code != 0:
            self.failures.append(f"call {rep}: {code}: {sink.getvalue()[-400:]}")
            return None
        digests = {p.name: _sha256(p) for p in sorted(out.iterdir())}
        if tracer is not None:
            tracer.bytes_written = sum(Path(p).stat().st_size for p in tracer.written)
        if self.first_digests is None:
            self.first_out = out.rename(self.scratch / "first")
            self.first_digests = digests
        else:
            shutil.rmtree(out)
            if digests != self.first_digests:
                self.failures.append(f"call {rep}: outputs differ from the first call")
                return None
        self.passed += 1
        return wall

    def repeat(
        self,
        seconds: float,
        min_calls: int,
        traced: bool = False,
        between: Callable[[], None] | None = None,
    ) -> list:
        """Call until `seconds` have passed and at least `min_calls` were made.

        Returns the wall times of the calls that passed, paired with their
        tracers when traced. `between` runs after every call.
        """
        done = []
        start = perf_counter()
        calls = 0
        while calls < min_calls or perf_counter() - start < seconds:
            tracer = tracing.Tracer() if traced else None
            wall = self.call(tracer)
            calls += 1
            if wall is not None:
                done.append((wall, tracer) if traced else wall)
            if between is not None:
                between()
        return done

    def check_outputs(self, config) -> float | None:
        """Check the first call's files; returns the run's relative error."""
        if self.first_out is None:
            return None
        try:
            problems, rel_err = self.workload.check(self.first_out, config)
        except Exception:
            # malformed output: report it as a failed check
            problems, rel_err = [traceback.format_exc()], None
        if problems:
            self.failures.extend(problems)
            # every passing call wrote the same bytes, so all of them are wrong
            self.passed = 0
        return rel_err

    @property
    def failed(self) -> int:
        return self.attempted - self.passed


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def measure_setup() -> float:
    """Import time of the CLI module in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(done.stdout)


def kernel_scaling(seed: int) -> dict[str, float]:
    """Median time of one e_step plus one incomplete_log_likelihood on three
    observations separated by two gaps of g hidden slots, per g."""
    rng = np.random.default_rng(seed)
    out = {}
    for g in KERNEL_GAPS:
        dataset = ObservedDataset(
            times=np.array([1, g + 2, 2 * g + 3]), states=rng.integers(0, 2, size=3)
        )
        dataset.gap_histogram
        times = []
        for _ in range(KERNEL_REPEATS):
            start = perf_counter()
            e_step(dataset, KERNEL_PARAMS)
            incomplete_log_likelihood(dataset, KERNEL_PARAMS)
            times.append(perf_counter() - start)
        out[f"likelihood.kernel_s.g{g}"] = statistics.median(times)
    return out


def iterations_to_tol(reports: list) -> dict[str, int]:
    """First iteration whose step max(|d alpha|, |d beta|) is under the
    tolerance, per recorded run: iterations run + 1 if never, 0 if the
    workload records no trajectory for that channel."""
    out = {}
    for i in range(CONVERGENCE_CHANNELS):
        name = f"em.iterations_to_tol.ch{i}"
        trajectory = reports[i].trajectory if i < len(reports) else None
        if trajectory is None:
            out[name] = 0
            continue
        steps = trajectory.steps
        out[name] = next(
            (
                b.iteration
                for a, b in zip(steps, steps[1:])
                if max(abs(b.alpha - a.alpha), abs(b.beta - a.beta)) < CONVERGENCE_TOL
            ),
            steps[-1].iteration + 1,
        )
    return out


def environment() -> dict:
    """Machine and software the figures were measured on."""
    env = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "chan_em": chan_em.__version__,
        "git_sha": _git_sha(),
        "notes": NOTES,
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.partition(":")[2].strip()
                break
    with contextlib.suppress(OSError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = (
                (index / name).read_text().strip() for name in ("level", "type", "size")
            )
            env["caches"][f"L{level} {kind}"] = size
    return env


def _git_sha() -> str | None:
    """HEAD commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(session: Session, config, seconds: float):
    """wall_s, setup_s and peak_rss_mb, with tracing off."""
    # set-up samples interleave with the calls, so that both see the same
    # spells of other load on the machine
    setup: list[float] = []
    walls = session.repeat(
        seconds, min_calls=3, between=lambda: setup.append(measure_setup())
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rel_err = session.check_outputs(config)
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(measure_setup())
    metrics = {
        "wall_s": statistics.median(walls) if walls else 0.0,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, rel_err, {"wall_s": walls, "setup_s": setup}


def per_layer(session: Session, config, seconds: float, seed: int):
    """Per-layer metrics from the traced call with the median wall time."""
    untraced = session.repeat(seconds / 2, min_calls=2)
    traced = session.repeat(seconds / 2, min_calls=2, traced=True)
    rel_err = session.check_outputs(config)
    metrics: dict = dict.fromkeys(PER_LAYER_UNITS, 0)
    if traced:
        traced.sort(key=lambda pair: pair[0])
        wall, tracer = traced[(len(traced) - 1) // 2]
        work = (tracer.counts, tracer.bytes_written)
        if any((other.counts, other.bytes_written) != work for _, other in traced):
            session.failures.append("work counts differ between traced calls")
            session.passed = 0
        times = tracer.layer_times()
        metrics.update({name: times[name] for name in tracing.LAYER_METRICS.values()})
        metrics.update(tracer.counts)
        metrics.update(iterations_to_tol(tracer.reports))
        metrics["harness.bytes_written"] = tracer.bytes_written
        metrics["harness.files_written"] = len(tracer.written)
        metrics["trace.wall_s"] = wall
        metrics["trace.unattributed_s"] = times["unattributed"]
        metrics["trace.spans"] = len(tracer.spans)
        if untraced:
            metrics["trace.overhead_s"] = statistics.median(
                w for w, _ in traced
            ) - statistics.median(untraced)
    metrics.update(kernel_scaling(seed))
    metrics["em.rel_err_pct"] = 0.0 if rel_err is None else rel_err
    samples = {"untraced_wall_s": untraced, "traced_wall_s": [w for w, _ in traced]}
    return metrics, rel_err, samples


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out", help="also write the full result to this JSON file")
    parser.add_argument(
        "--tiny", action="store_true", help="small inputs, for the self-test"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        argv = workload.argv(scratch, args.tiny) + ["--seed", str(args.seed)]
        config, _ = cli.resolve_config(cli.build_parser().parse_args(argv))
        session = Session(workload, argv, scratch)
        if args.trace:
            metrics, rel_err, samples = per_layer(
                session, config, args.seconds, args.seed
            )
        else:
            metrics, rel_err, samples = end_to_end(session, config, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    env = environment()
    print(f"workload {workload.name} (seed {args.seed}): {workload.why}")
    print(f"environment: {json.dumps(env)}")
    for name, values in samples.items():
        print(f"{name} samples ({len(values)}): {values}")
    for failure in session.failures:
        print(f"FAILED: {failure}")
    print(f"error_rate = {session.failed / session.attempted} (failed/attempted)")
    print(f"rel_err_pct = {rel_err} % (None: the command fits nothing)")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    if args.out:
        record = {
            "workload": workload.name,
            "why": workload.why,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "argv": session.argv,
            "environment": env,
            "samples": samples,
            "failures": session.failures,
            "rel_err_pct": rel_err,
            "result": result,
        }
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
