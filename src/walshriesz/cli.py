"""Command-line front door.

Commands: rs-pair, build-walsh-measure, build-trig-measure,
theorem1-check, singularity-report, report.

Exit codes: 0 all certificates pass, 1 certificate failure (witness in
the report), 2 usage or configuration error, 3 I/O error.  A state too
large to certify or export is a configuration error: a stage with no
admissible level, or a block, past coordinate 1023 (the certificates
count atoms in float64), an orthogonality group on more than 24
coordinates, an export past coordinate 63 (int64 Walsh indices) or past
riesz.SPECTRUM_LIMIT terms, a series CSV past walsh.THEOREM1_DEPTH_LIMIT.
build-walsh-measure runs positivity, psi sums and singularity at any
depth, then orthogonality on each group of factors' own atoms, then the
export; each refuses before it allocates anything, and before the
manifest is written, so a refused build writes no file.  All output
files are written atomically (temp file + rename), but for a target
that exists and is not a regular file, such as /dev/null or a FIFO,
which is written in place; every JSON file is strict JSON: a non-finite
figure is written as the string "nan", "inf" or "-inf".  Commands take
flags only.
No command draws random numbers: every positivity certificate is exact
over every order on every atom, at every depth.  --seed is only
recorded in manifests and reports, and --cap is parsed and ignored;
both are kept because benchmarks/workloads.py passes them.
report exits 2, before writing anything, when the measure CSV's term
count is not the manifest product's, or its psi fails the hypothesis.

theorem1-check decides positivity, p3 and the shifted bounds for the
series exactly as its float64 coefficients hold it.  One float64
prefix-extrema pass over the series, O(k 2^k) for each dyadic block
N_k = c[2^k:2^(k+1)] holding a nonzero coefficient and O(2^k) for each
block of zeros, proves every verdict whose value lies outside its
rounding allowance (K+1) 2^-52 ||S||_A; only when some value lies within
it does one exact pass run, the package's segment merge over int64
limbs holding the coefficients' dyadic expansion.  The
report lists the routes that ran under `positivity_routes` and the
arithmetic that decided under `decided_by`.  Each size limit is checked
where its memory would be allocated, and exits 2 naming what it would
hold: `walsh.series_from_csv` refuses a series deeper than
walsh.THEOREM1_DEPTH_LIMIT from its rows, before its dense coefficients
exist, and `martingale.check_positivity_equivalence` refuses, just
before an exact merge (the exact pass, or a failure's witness) would
allocate its limb tables, limbs taking more memory than a 2-limb series
at the depth limit, naming the limbs and the bytes; a series that the
float pass decides as a pass builds no limbs.  A non-finite coefficient
exits 3, naming its line.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import hashlib
import json
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from . import martingale, riesz, trig
from .rudin_shapiro import build_pair
from .walsh import (
    SeriesFormatError,
    WalshSeries,
    _atomic_open,
    _write_csv,
    series_from_csv,
)

DEFAULT_SEED = 1729

EXIT_OK = 0
EXIT_CERT = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _atomic_write_text(path: str, text: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(text)


def _emit_csv(out: str, header, rows) -> None:
    """CSV to stdout for `-`, else atomically to the file."""
    if out == "-":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        _write_csv(out, header, rows)


def _fmt(x: float) -> str:
    return repr(float(x))


def _json_text(value) -> str:
    """`value` as indented strict JSON: read back, each non-finite float,
    which JSON has no number for, becomes the string "nan", "inf" or
    "-inf"."""
    strict = json.loads(json.dumps(value), parse_constant=lambda name: repr(float(name)))
    return json.dumps(strict, indent=2, allow_nan=False) + "\n"


def _config_hash(args: argparse.Namespace) -> str:
    payload = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()


def _versions() -> dict:
    return {
        "walshriesz": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


class _UsageError(Exception):
    pass


class _IOFailure(Exception):
    pass


def _gauge(args) -> tuple[riesz.PsiSpec, riesz.SummabilityBudget]:
    """--psi and --budget-scale; a psi failing the hypothesis, or a scale
    that is not finite and positive, exits 2."""
    try:
        psi = riesz.PsiSpec.parse(args.psi).validate()
    except ValueError as exc:  # PsiHypothesisError included
        raise _UsageError(str(exc)) from None
    try:
        return psi, riesz.SummabilityBudget(scale=args.budget_scale)
    except ValueError as exc:
        raise _UsageError(f"--budget-scale: {exc}") from None


def _manifest_header(args, psi: riesz.PsiSpec) -> dict:
    """What every build manifest starts with: the command, how it was
    called, the versions, and the gauge."""
    return {
        "command": args.command,
        "argv": list(args.argv),
        "config_hash": _config_hash(args),
        "seed": args.seed,
        "versions": _versions(),
        "psi": psi.descriptor,
        "budget_scale": args.budget_scale,
    }


def _certificate(report) -> dict:
    """A report dataclass as a dict, its verdict `ok` renamed `passed`
    and moved last."""
    data = dataclasses.asdict(report)
    data["passed"] = data.pop("ok")
    return data


# ---------------------------------------------------------------------------
# rs-pair
# ---------------------------------------------------------------------------

def _cmd_rs_pair(args) -> int:
    try:
        pair = build_pair(args.level)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    rows = [(n, int(p), int(q)) for n, (p, q) in enumerate(zip(pair.p, pair.q))]
    _emit_csv(args.out, ["n", "p", "q"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# build-walsh-measure
# ---------------------------------------------------------------------------

def _cmd_build_walsh(args) -> int:
    print(f"seed: {args.seed}")
    psi, budget = _gauge(args)

    t0 = time.perf_counter()
    try:
        state = riesz.build_measure(psi, args.stages, budget)
    except (riesz.LevelSelectionError, ValueError) as exc:  # stages, the level rule
        raise _UsageError(str(exc)) from None
    build_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    positivity = riesz.verify_all_partial_sums(state)
    psi_report = riesz.psi_sum_report(state, psi, budget)
    singular = martingale.singularity_report(state)
    ortho = martingale.verify_product_orthogonality(state) if state.stages >= 2 else None
    verify_s = time.perf_counter() - t0

    certificates = {
        "positivity": dataclasses.asdict(positivity),
        "psi_sum": _certificate(psi_report),
        "singularity": {
            "hellinger": list(singular.hellinger),
            "hellinger_direct": list(singular.hellinger_direct),
            "concentration": [
                {str(d): v for d, v in row.items()} for row in singular.concentration
            ],
            "strictly_decreasing": all(
                b < a for a, b in zip(singular.hellinger, singular.hellinger[1:])
            ),
        },
        "orthogonality": None if ortho is None else _certificate(ortho),
    }
    passed = (
        positivity.passed
        and psi_report.ok
        and certificates["singularity"]["strictly_decreasing"]
        and (ortho is None or ortho.ok)
    )

    t0 = time.perf_counter()
    riesz.export_measure(state, args.out)
    manifest = {
        **_manifest_header(args, psi),
        **riesz.state_manifest(state),
        "certificates": certificates,
        "timings": {
            "build_s": build_s,
            "verify_s": verify_s,
        },
    }
    manifest["timings"]["export_s"] = time.perf_counter() - t0
    if args.manifest:
        _atomic_write_text(args.manifest, _json_text(manifest))

    status = "pass" if passed else "FAIL"
    print(
        f"{status}: {state.stages} stages, {state.used_coordinates} coordinates,"
        f" min partial sum {positivity.global_min:.6f},"
        f" psi sum {psi_report.exact_total:.6e} <= {psi_report.bound_total:.6e}"
    )
    return EXIT_OK if passed else EXIT_CERT


# ---------------------------------------------------------------------------
# build-trig-measure
# ---------------------------------------------------------------------------

def _cmd_build_trig(args) -> int:
    print(f"seed: {args.seed}")
    psi, budget = _gauge(args)
    t0 = time.perf_counter()
    try:
        state, certs = trig.build_trig_measure(
            psi, args.stages, budget, oversample=args.grid_oversample
        )
    except (riesz.LevelSelectionError, ValueError) as exc:  # stages, oversample
        raise _UsageError(str(exc)) from None
    build_s = time.perf_counter() - t0

    trig.trig_export(state, args.out)
    if args.manifest:
        manifest = {
            **_manifest_header(args, psi),
            "flatness_constant": trig.CTRIG,
            "stages": [
                {"level": f.level, "amplitude": f.amplitude} for f in state.factors
            ],
            "certificates": dataclasses.asdict(certs),
            "timings": {"build_s": build_s},
        }
        _atomic_write_text(args.manifest, _json_text(manifest))
    status = "pass" if certs.passed else "FAIL"
    print(
        f"{status}: {len(state.factors)} stages, top frequency {state.max_freq},"
        f" grid min {certs.grid_min_partial:.6f}"
        f" (Bernstein slack {certs.bernstein_slack:.3e})"
    )
    return EXIT_OK if certs.passed else EXIT_CERT


# ---------------------------------------------------------------------------
# theorem1-check
# ---------------------------------------------------------------------------

def _shifted_bound_sweep(series: WalshSeries, equiv: martingale.EquivalenceReport) -> dict:
    """The shifted prefix bound at every level kj, for m = 0 and m = 2^kj - 1.

    For k >= kj the checked prefix is all of w_m N_kj, whose modulus is
    |N_kj| for every m, so these checks cover every (m, k); the two
    multipliers still exercise the reindexing.  The m = 0 verdicts, one
    per level, are the exact `equiv.p3`: M_(kj+1) = M_kj +- N_kj >= 0 on
    the two halves of each atom gives |N_kj| <= M_kj <= 2 M_kj.  The sweep
    runs only when every partial sum is nonnegative, so p3 holds.  For
    kj >= 1, `martingale.check_shifted_bound` checks m = 2^kj - 1 in
    float64 with the float pass's allowance as `tol`, K - 1 calls: a
    failure would prove the bound false (see `martingale._allowance`),
    and a pass, maybe within the allowance, is settled by p3.  A series
    whose sums pass float64's range has an infinite allowance, so its
    calls, which may overflow, run with numpy's overflow warnings off.

    `checked` counts the entries, 2K - 1: the K restatements of p3 and
    the K - 1 float64 calls, which check |N_kj| <= 2 M_kj again.  So it
    counts verdicts listed, not independent inequalities.
    """
    slack = equiv.routes[0].rounding_slack
    with np.errstate(over="ignore", invalid="ignore"):
        held = [equiv.p3] * series.depth + [
            martingale.check_shifted_bound(series, kj, (1 << kj) - 1, kj, tol=slack)
            for kj in range(1, series.depth)]
    return {"checked": len(held), "all_hold": all(held)}


def _cmd_theorem1_check(args) -> int:
    try:
        series = series_from_csv(args.infile)
    except OSError as exc:
        raise _IOFailure(f"cannot read {args.infile}: {exc}") from None
    except SeriesFormatError as exc:
        raise _IOFailure(f"{args.infile}: {exc}") from None

    equiv = martingale.check_positivity_equivalence(series)
    shifted = _shifted_bound_sweep(series, equiv) if equiv.all_prefixes_nonneg else None
    report = {
        "input": args.infile,
        "seed": args.seed,
        "depth": series.depth,
        "all_prefixes_nonneg": equiv.all_prefixes_nonneg,
        "inequality_holds": equiv.inequality_holds,
        "witness": None if equiv.witness is None else dataclasses.asdict(equiv.witness),
        "p3": equiv.p3,
        "shifted_bounds": shifted,
        "envelope": martingale.dyadic_block_envelope(series),
        "decided_by": equiv.decided_by,
        "positivity_routes": [
            {
                "name": route.name,
                "arithmetic": route.arithmetic,
                "minimum": route.minimum,
                "verdict": route.verdict,
                "rounding_slack": route.rounding_slack,
                "coverage": {"atoms": route.atoms, "orders": route.orders},
            }
            for route in equiv.routes
        ],
    }
    text = _json_text(report)
    if args.report and args.report != "-":
        _atomic_write_text(args.report, text)
    else:
        sys.stdout.write(text)
    # the sweep runs exactly when every partial sum is nonnegative
    ok = equiv.all_prefixes_nonneg and equiv.p3 and shifted["all_hold"]
    return EXIT_OK if ok else EXIT_CERT


# ---------------------------------------------------------------------------
# singularity-report / report
# ---------------------------------------------------------------------------

def _load_manifest(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise _IOFailure(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise _IOFailure(f"bad JSON in {path}: {exc}") from None


@contextlib.contextmanager
def _rebuilding(path: str):
    """Rebuild a state from the manifest read from `path`: a KeyError,
    TypeError or ValueError in the block exits 2, naming the manifest."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise _UsageError(f"cannot rebuild state from {path}: {exc}") from None


# conc50, conc90, conc99
_CONC_COLUMNS = [f"conc{round(100 * d)}" for d in martingale.CONCENTRATION_FRACTIONS]


def _singularity_rows(report: martingale.SingularityReport):
    return [
        (k, _fmt(h), *(_fmt(conc[d]) for d in martingale.CONCENTRATION_FRACTIONS))
        for k, (h, conc) in enumerate(zip(report.hellinger, report.concentration))
    ]


def _cmd_singularity_report(args) -> int:
    manifest = _load_manifest(args.state)
    with _rebuilding(args.state):
        state = riesz.state_from_manifest(manifest)
    rows = _singularity_rows(martingale.singularity_report(state))
    _emit_csv(args.out, ["k", "hellinger", *_CONC_COLUMNS], rows)
    return EXIT_OK


def _cmd_report(args) -> int:
    manifest = _load_manifest(args.manifest)
    try:
        spectrum = riesz.load_spectrum_csv(args.measure)
    except OSError as exc:
        raise _IOFailure(f"cannot read {args.measure}: {exc}") from None
    except SeriesFormatError as exc:
        raise _IOFailure(f"{args.measure}: {exc}") from None
    with _rebuilding(args.manifest):
        state = riesz.state_from_manifest(manifest)
        psi = riesz.PsiSpec.parse(manifest["psi"]).validate()
        budget = riesz.SummabilityBudget(scale=float(manifest["budget_scale"]))
    if len(spectrum) != state.support_size:
        raise _UsageError(
            f"{args.measure} has {len(spectrum):,} terms, but the product in"
            f" {args.manifest} has {state.support_size:,}"
        )
    # computed before the first file is written: both may refuse the state
    rows = _singularity_rows(martingale.singularity_report(state))
    psi_report = riesz.psi_sum_report(state, psi, budget)

    os.makedirs(args.out_dir, exist_ok=True)
    _write_csv(
        os.path.join(args.out_dir, "envelope.csv"),
        ["k", "max_abs_coeff"],
        [(k, _fmt(v)) for k, v in martingale.dyadic_block_envelope(spectrum)],
    )
    _write_csv(
        os.path.join(args.out_dir, "hellinger.csv"), ["k", "hellinger"], [r[:2] for r in rows]
    )
    _write_csv(
        os.path.join(args.out_dir, "concentration.csv"),
        ["k", *_CONC_COLUMNS],
        [r[:1] + r[2:] for r in rows],
    )

    terms = zip(psi_report.stage_exact, psi_report.stage_bounds, psi_report.budget_terms or ())
    _write_csv(
        os.path.join(args.out_dir, "psi_terms.csv"),
        ["k", "exact", "bound", "budget_term"],
        [(k, _fmt(e), _fmt(b), _fmt(t)) for k, (e, b, t) in enumerate(terms, start=1)],
    )
    print(f"wrote 4 CSV files to {args.out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------

@functools.cache  # one parser per process: nothing changes it once built
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walshriesz",
        description="Build and verify Walsh and cosine product measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="recorded only, nothing is random (kept because"
                            f" benchmarks/workloads.py passes it; default {DEFAULT_SEED})")

    p = sub.add_parser("rs-pair", help="emit a Rudin-Shapiro sign pair as CSV")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", default="-", help="output CSV path, or - for stdout")
    common(p)
    p.set_defaults(func=_cmd_rs_pair)

    p = sub.add_parser("build-walsh-measure",
                       help="build the Walsh product measure and certify it")
    p.add_argument("--psi", default="preset:logpow,p=1")
    p.add_argument("--stages", type=int, default=3)
    p.add_argument("--cap", type=int, default=14,
                   help="ignored: the positivity certificate is exact at every depth"
                        " (kept because benchmarks/workloads.py passes it)")
    p.add_argument("--budget-scale", type=float, default=2.25,
                   help="stage budget is scale * 2^-k (default: 3 stages in 13 coordinates)")
    p.add_argument("--out", default="measure.csv")
    p.add_argument("--manifest", default="manifest.json")
    common(p)
    p.set_defaults(func=_cmd_build_walsh)

    p = sub.add_parser("build-trig-measure",
                       help="build the cosine product measure and certify it")
    p.add_argument("--psi", default="preset:logpow,p=1")
    p.add_argument("--stages", type=int, default=2)
    p.add_argument("--grid-oversample", type=int, default=16)
    p.add_argument("--budget-scale", type=float, default=2.25)
    p.add_argument("--out", default="trig.csv")
    p.add_argument("--manifest", default=None)
    common(p)
    p.set_defaults(func=_cmd_build_trig)

    p = sub.add_parser("theorem1-check", help="verify positivity machinery on a series CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--report", default=None, help="JSON report path, or - for stdout (the default)")
    common(p)
    p.set_defaults(func=_cmd_theorem1_check)

    p = sub.add_parser("singularity-report",
                       help="Hellinger and concentration table from a manifest")
    p.add_argument("--state", required=True, help="manifest JSON of a built measure")
    p.add_argument("--out", default="-")
    common(p)
    p.set_defaults(func=_cmd_singularity_report)

    p = sub.add_parser("report", help="emit plot-data CSVs for a built measure")
    p.add_argument("--manifest", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--out-dir", default="report")
    common(p)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
        args.argv = argv
        return args.func(args)
    except (_UsageError, riesz.CoordinateBudgetError) as exc:  # bad input, or past a size limit
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (_IOFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # noqa: BLE001 - surface invariant failures cleanly
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_CERT


def _entry(command: str):
    def runner() -> None:
        raise SystemExit(main([command, *sys.argv[1:]]))

    return runner


rs_pair_main = _entry("rs-pair")
build_walsh_measure_main = _entry("build-walsh-measure")
build_trig_measure_main = _entry("build-trig-measure")
theorem1_check_main = _entry("theorem1-check")
singularity_report_main = _entry("singularity-report")
report_main = _entry("report")


if __name__ == "__main__":
    raise SystemExit(main())
