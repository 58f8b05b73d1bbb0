"""The benchmark's workloads: one unit of work each, with its output checks.

A unit builds a Riesz product and certifies it. Every unit checks its
outputs and raises `UnitFailure`, whose message is the witness, when one
is wrong. Units call the library through module attributes (`cli.main`,
`wr.build_measure`), so the tracer's wrappers see every call.

The workload seed goes to every `--seed` / `seed=` of a unit. Only the
sampled positivity certificate past the exhaustive cap depends on it, so
measure CSVs are the same for every seed and their sha256 is pinned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import walshriesz as wr
from walshriesz import cli


class UnitFailure(Exception):
    """An output check failed; the message is the witness."""


@dataclass
class UnitOutput:
    coverage: float  # smallest share of atoms checked at every order
    files: dict[str, Path] = field(default_factory=dict)  # outputs to hash


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[Path, int], Callable[[], UnitOutput]]
    pins: dict[str, str]  # sha256 of outputs that must never change


def expect(condition: bool, witness: str) -> None:
    if not condition:
        raise UnitFailure(witness)


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_files(output: UnitOutput, pins: dict[str, str], reference: dict[str, str]) -> dict[str, str]:
    """Hash the unit's files against the pins and the run's first unit."""
    digests = {name: sha256(path) for name, path in output.files.items()}
    for name, digest in digests.items():
        want = pins.get(name) or reference.get(name)
        expect(
            want is None or digest == want,
            f"{name}: sha256 {digest} differs from {want}",
        )
    return digests


def run_cli(argv: list[str]) -> None:
    """One in-process CLI call; a nonzero exit is a failed unit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    expect(
        code == 0,
        f"{argv[0]} exited {code}: {err.getvalue().strip() or out.getvalue().strip()}",
    )


def load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# the steps units are made of
# ---------------------------------------------------------------------------

def build_walsh(work: Path, seed: int, options: list[str]) -> float:
    """build-walsh-measure into work/measure.csv; returns positivity coverage."""
    manifest_path = work / "manifest.json"
    run_cli(
        [
            "build-walsh-measure",
            *options,
            "--out", str(work / "measure.csv"),
            "--manifest", str(manifest_path),
            "--seed", str(seed),
        ]
    )
    certs = load_json(manifest_path)["certificates"]
    positivity, psi = certs["positivity"], certs["psi_sum"]
    expect(positivity["passed"], f"positivity failed: min {positivity['global_min']}")
    expect(psi["passed"], "psi-sum certificate failed")
    expect(
        psi["exact_total"] <= psi["bound_total"],
        f"psi sum {psi['exact_total']} above bound {psi['bound_total']}",
    )
    expect(certs["singularity"]["strictly_decreasing"], "Hellinger not strictly decreasing")
    ortho = certs["orthogonality"]
    expect(ortho is None or ortho["passed"], f"orthogonality failed: {ortho}")
    if positivity["exhaustive"]:
        return 1.0
    return positivity["sampling"]["atoms"] / (1 << positivity["depth"])


def recheck(work: Path, seed: int) -> None:
    """theorem1-check on work/measure.csv: the dense re-check route."""
    report_path = work / "report.json"
    run_cli(
        [
            "theorem1-check",
            "--in", str(work / "measure.csv"),
            "--report", str(report_path),
            "--seed", str(seed),
        ]
    )
    report = load_json(report_path)
    for key in ("all_prefixes_nonneg", "inequality_holds", "p3"):
        expect(report[key], f"theorem1-check {key} false, witness {report['witness']}")
    shifted = report["shifted_bounds"]
    expect(shifted is not None and shifted["all_hold"], f"shifted bounds failed: {shifted}")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

DESK_BUILD = ["--psi", "preset:logpow,p=1", "--stages", "3", "--cap", "14"]
EXHAUSTIVE_BUILD = [
    "--psi", "preset:logpow,p=1", "--budget-scale", "6", "--stages", "4", "--cap", "16",
]


def prepare_desk(work: Path, seed: int):
    """The README's command-line block at its defaults."""
    work.mkdir(parents=True, exist_ok=True)
    s = str(seed)

    def unit() -> UnitOutput:
        coverage = build_walsh(work, seed, DESK_BUILD)
        recheck(work, seed)
        manifest, measure = str(work / "manifest.json"), str(work / "measure.csv")
        run_cli(["singularity-report", "--state", manifest,
                 "--out", str(work / "singularity.csv"), "--seed", s])
        run_cli(["report", "--manifest", manifest, "--measure", measure,
                 "--out-dir", str(work / "plots"), "--seed", s])
        run_cli(["build-trig-measure", "--psi", "preset:logpow,p=1", "--stages", "2",
                 "--grid-oversample", "16", "--out", str(work / "trig.csv"),
                 "--manifest", str(work / "trig.json"), "--seed", s])
        trig_certs = load_json(work / "trig.json")["certificates"]
        expect(trig_certs["passed"], f"cosine certificate failed: {trig_certs}")
        run_cli(["rs-pair", "--level", "4", "--out", str(work / "pair.csv"), "--seed", s])
        files = {
            name: work / name
            for name in ("measure.csv", "trig.csv", "singularity.csv", "pair.csv")
        }
        files.update({f"plots/{p.name}": p for p in sorted((work / "plots").glob("*.csv"))})
        return UnitOutput(coverage, files)

    return unit


def prepare_exhaustive(work: Path, seed: int):
    """Write path (sparse support scan) then read path (dense decomposition)."""
    work.mkdir(parents=True, exist_ok=True)

    def unit() -> UnitOutput:
        coverage = build_walsh(work, seed, EXHAUSTIVE_BUILD)
        recheck(work, seed)
        return UnitOutput(coverage, {"measure.csv": work / "measure.csv"})

    return unit


def prepare_deep(work: Path, seed: int):
    """The library quickstart at the depth-22 ladder rung."""
    work.mkdir(parents=True, exist_ok=True)
    psi = wr.PsiSpec.power(1.0)
    budget = wr.SummabilityBudget(scale=6.0)
    out = work / "measure.csv"

    def unit() -> UnitOutput:
        state = wr.build_measure(psi, 6, budget)
        cert = wr.verify_all_partial_sums(state, seed=seed)
        # sign only: an exhaustive certificate may find a lower minimum
        expect(cert.passed and cert.global_min >= 0.0,
               f"positivity failed: min {cert.global_min}, margins {cert.stage_margins}")
        report = wr.psi_sum_report(state, psi, budget)
        expect(report.ok and report.exact_total <= report.bound_total,
               f"psi sum {report.exact_total} above bound {report.bound_total}")
        wr.export_measure(state, out)
        orders = 1 << cert.depth
        atoms = orders if cert.exhaustive else cert.sampling["atoms"]
        return UnitOutput(atoms / orders, {"measure.csv": out})

    return unit


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk-d13",
            "README command-line block at defaults: every layer runs, none dominates,"
            " so per-call overhead and fixed costs show; the only workload that runs trig",
            prepare_desk,
            {
                "measure.csv": "29494ef4b1dd1c200155d80a87a806bb3e3bac09e1c452cb21fce1652616ed54",
                "trig.csv": "c7c88220d947e49a8f74ef8c43145ffb21b028c80e2e76696f00a98a96e79e35",
            },
        ),
        Workload(
            "exhaustive-d16",
            "all 2^16 atoms checked twice: riesz's sparse scan on the write path,"
            " martingale's dense decomposition on the CSV read path",
            prepare_exhaustive,
            {"measure.csv": "8ad7cfb729fbd1a082904718ec389370c9a430a206e4bcc07f91ff6244623129"},
        ),
        Workload(
            "deep-d22",
            "largest spectrum (523,260 terms): sampled positivity, psi sums and export"
            " at depth 22; shows coverage 4094/2^22 and spectrum-layer costs",
            prepare_deep,
            {"measure.csv": "b874df9bced9caca124e9d6562c8c4ba8a51e996fbbf3a1d1c48a6c110b930de"},
        ),
    )
}
