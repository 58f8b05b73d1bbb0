"""Closed-loop benchmark of walshriesz: build a Riesz product and certify it.

Run from the repository root:

    python3 benchmarks/run.py --workload desk-d13 --seed 1 --seconds 15 --trace 0

One client runs one unit of work at a time, and the next unit starts when
the previous one ends, until --seconds have passed (at least one unit).
The library is imported from ./src, never from an installed copy. Every
unit's outputs are checked; a failed check or a crash counts the unit as
failed, prints its witness, and the loop goes on.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
and traced units (at least one of each) and prints the per-layer metrics
of the traced ones, with the tracing overhead. The last line of standard
output is the JSON result; results, environment (nproc, Python, numpy,
BLAS, git commit) and spans are also written to .bench_work/results/.
The run refuses to start while WALSH_HELSON_THREADS is set.

Harness tests: python -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracing import PER_LAYER, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# set-up is measured in fresh interpreters; the median of these is setup_s
SETUP_SAMPLES = 7

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("certify_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("positivity_coverage", "share", "higher"),
]

_SETUP_PROBE = """\
import pathlib, sys
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.WORKLOADS[sys.argv[3]].prepare(pathlib.Path(sys.argv[4]), int(sys.argv[5]))
"""


@dataclass
class Outcome:
    wall: float
    traced: bool
    coverage: float | None
    witness: str | None


def closed_loop(unit, pins, seconds, tracer=None, log=print) -> list[Outcome]:
    """Run units back to back until `seconds` have passed.

    With a tracer, even-numbered units run untraced and odd-numbered ones
    traced, so at least two units run.
    """
    from workloads import UnitFailure, check_files

    outcomes: list[Outcome] = []
    reference: dict[str, str] = {}
    min_units = 1 if tracer is None else 2
    deadline = time.perf_counter() + seconds
    while len(outcomes) < min_units or time.perf_counter() < deadline:
        index = len(outcomes)
        traced = tracer is not None and index % 2 == 1
        coverage = witness = None
        wall = 0.0
        try:
            if traced:
                tracer.unit = index
            with tracer.installed() if traced else contextlib.nullcontext():
                start = time.perf_counter()
                try:
                    output = unit()
                finally:
                    wall = time.perf_counter() - start
            digests = check_files(output, pins, reference)
            reference = reference or digests
            coverage = output.coverage
        except UnitFailure as exc:
            witness = str(exc)
        except Exception:  # noqa: BLE001 - a crashing unit is a failed unit, not a crashed run
            witness = traceback.format_exc(limit=-2).strip()
        if witness is not None:
            log(f"unit {index} {'traced' if traced else 'untraced'} FAILED: {witness}")
        outcomes.append(Outcome(wall, traced, coverage, witness))
    return outcomes


def measure_setup(workload: str, seed: int, work: Path) -> list[float]:
    """Wall time of fresh interpreters that import the library and prepare a unit.

    No timeout: with one, the wait polls at up to 50 ms steps and the
    samples come out quantized to them.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH_DIR),
             workload, str(work), str(seed)],
            cwd=ROOT,
            check=True,
        )
        samples.append(time.perf_counter() - start)
    return samples


def end_to_end_metrics(outcomes: list[Outcome], setup: list[float]) -> dict[str, float]:
    coverage = [o.coverage for o in outcomes if o.coverage is not None]
    return {
        "setup_s": statistics.median(setup),
        "certify_s": statistics.median(o.wall for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "positivity_coverage": min(coverage, default=0.0),
    }


def per_layer_metrics(outcomes: list[Outcome], tracer: Tracer) -> dict[str, float]:
    traced = [
        tracer.unit_metrics(i, o.wall) for i, o in enumerate(outcomes) if o.traced
    ]
    values = {
        name: statistics.median(m.get(name, 0.0) for m in traced)
        for name, _, _ in PER_LAYER
    }
    values["trace.overhead_s"] = statistics.median(
        o.wall for o in outcomes if o.traced
    ) - statistics.median(o.wall for o in outcomes if not o.traced)
    return values


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "git_commit": git_commit(ROOT),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if "WALSH_HELSON_THREADS" in os.environ:
        print("error: unset WALSH_HELSON_THREADS; the benchmark runs the default"
              " single-threaded sweeps", file=sys.stderr)
        return 2
    if not (SRC / "walshriesz" / "__init__.py").is_file():
        print(f"error: no walshriesz sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import walshriesz
    import workloads

    if not Path(walshriesz.__file__).resolve().is_relative_to(SRC):
        print(f"error: walshriesz imported from {walshriesz.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r};"
              f" choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment()
    print("environment:", json.dumps(env))
    work = WORK / f"{workload.name}-{os.getpid()}"
    try:
        setup = [] if args.trace else measure_setup(workload.name, args.seed, work)
        unit = workload.prepare(work, args.seed)
        tracer = Tracer() if args.trace else None
        outcomes = closed_loop(unit, workload.pins, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values, specs = per_layer_metrics(outcomes, tracer), PER_LAYER
    else:
        values, specs = end_to_end_metrics(outcomes, setup), END_TO_END
    metrics = {name: {"value": values[name], "unit": u} for name, u, _ in specs}
    failed = sum(o.witness is not None for o in outcomes)
    sampled = sum(o.traced for o in outcomes) if args.trace else len(outcomes)
    print(f"workload {workload.name}: {workload.why}")
    print(f"fail_frac = {failed}/{len(outcomes)}; medians over {sampled} units")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']!r} {metric['unit']}")

    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {
        **result,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_samples": setup,
        "units": [o.__dict__ for o in outcomes],
        "spans": tracer.span_records() if tracer else [],
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
