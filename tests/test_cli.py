"""CLI behavior: exit codes, file outputs, determinism, parser reuse."""

import hashlib
import json
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import walshriesz as wr
from walshriesz import WalshSeries, cli, martingale, riesz, walsh


def run(argv):
    return cli.main(argv)


def test_rs_pair_stdout(capsys):
    assert run(["rs-pair", "--level", "2", "--out", "-"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "n,p,q"
    assert out[1:] == ["0,1,1", "1,1,1", "2,1,-1", "3,-1,1"]


def test_rs_pair_file(tmp_path):
    path = tmp_path / "pair.csv"
    assert run(["rs-pair", "--level", "3", "--out", str(path)]) == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 9


def test_build_walsh_full_run(tmp_path, capsys):
    out = tmp_path / "measure.csv"
    manifest = tmp_path / "manifest.json"
    code = run(
        [
            "build-walsh-measure",
            "--psi", "preset:logpow,p=1",
            "--stages", "3",
            "--cap", "14",
            "--out", str(out),
            "--manifest", str(manifest),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "seed: 1729" in printed
    data = json.loads(manifest.read_text())
    assert data["certificates"]["positivity"]["passed"]
    assert data["certificates"]["positivity"]["exhaustive"]
    assert data["certificates"]["psi_sum"]["passed"]
    assert data["certificates"]["orthogonality"]["passed"]
    assert [s["level"] for s in data["stages"]] == [0, 0, 10]
    # amplitudes survive the JSON roundtrip bit for bit
    a3 = data["stages"][2]["amplitude"]
    assert a3 == (0.5 / (2 + 2**0.5)) * 2.0 ** (-5)


def test_build_walsh_rejects_quadratic(tmp_path, capsys):
    code = run(
        [
            "build-walsh-measure",
            "--psi", "preset:quadratic",
            "--stages", "1",
            "--out", str(tmp_path / "m.csv"),
            "--manifest", str(tmp_path / "m.json"),
        ]
    )
    assert code == 2
    assert "hypothesis" in capsys.readouterr().err


def test_build_walsh_unbuildable_level_is_usage_error(tmp_path, monkeypatch, capsys):
    # levels 0, 0, 2 and 25: positivity, psi sums and singularity read the
    # factors off their levels, but orthogonality would read the last one
    # on the 2^26 atoms of its block, and refuses before allocating them;
    # no file is written
    monkeypatch.chdir(tmp_path)
    budget = wr.SummabilityBudget(4.0)
    assert [f.level for f in wr.build_measure(wr.PsiSpec.logpow(1.0), 4, budget).factors] == [0, 0, 2, 25]
    calls = spy(monkeypatch, CERTIFIED_THEN_EXPORTED)
    assert run(["build-walsh-measure", "--budget-scale", "4", "--stages", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: an orthogonality group on the 26 coordinates 6..31:")
    assert "536,870,912 bytes, past the limit of 16,777,216 atoms" in err
    assert calls == [name for _, name in CERTIFIED_THEN_EXPORTED[:4]]
    assert not list(tmp_path.iterdir())


def test_cap_is_parsed_and_ignored(tmp_path):
    # the heads' depths choose the positivity method; --cap is still
    # accepted, in or out of [0, 20], and changes no output
    outputs = []
    for cap in ([], ["--cap", "0"], ["--cap", "21"]):
        measure, manifest = tmp_path / "m.csv", tmp_path / "m.json"
        args = ["build-walsh-measure", "--out", str(measure), "--manifest", str(manifest)]
        assert run(args + cap) == 0
        data = json.loads(manifest.read_text())
        assert data["certificates"]["positivity"]["method"] == "exact"
        outputs.append((measure.read_bytes(), data["certificates"], data["stages"]))
    assert outputs[0] == outputs[1] == outputs[2]


def test_manifest_blocks_run_to_coordinate_1023(tmp_path, capsys):
    # singularity builds no Walsh index, so a block on coordinate 64 is
    # reported; past coordinate 1023 the manifest exits 2 and nothing is
    # written.  The caps older manifests recorded are ignored
    stage = {"level": 0, "block": [64], "amplitude": 0.5 / wr.FLATNESS_CONSTANT}
    manifest = tmp_path / "manifest.json"
    out = tmp_path / "singularity.csv"
    argv = ["singularity-report", "--state", str(manifest), "--out", str(out)]
    older = {"exhaustive_cap": 21, "max_coordinates": 64, "stages": [stage]}
    manifest.write_text(json.dumps(older))
    assert run(argv) == 0
    assert out.read_text().splitlines()[0] == "k,hellinger,conc50,conc90,conc99"
    out.unlink()
    stage["block"] = [1024]
    manifest.write_text(json.dumps({"stages": [stage]}))
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"cannot rebuild state from {manifest}" in err and "past coordinate 1023" in err
    assert not out.exists()


def test_build_walsh_cap_gate(tmp_path):
    # --cap gates nothing: a cap below every head's depth still gives the
    # exact certificate over every order and atom
    args = [
        "build-walsh-measure",
        "--psi", "preset:logpow,p=1",
        "--stages", "3",
        "--cap", "1",
        "--out", str(tmp_path / "m.csv"),
        "--manifest", str(tmp_path / "m.json"),
    ]
    assert run(args) == 0
    positivity = json.loads((tmp_path / "m.json").read_text())["certificates"]["positivity"]
    assert positivity["method"] == "exact"
    assert positivity["exhaustive"] and positivity["passed"]
    assert "sampling" not in positivity and "rounding_slack" not in positivity


def test_determinism_same_seed(tmp_path):
    files = []
    for tag in ("a", "b"):
        out = tmp_path / f"measure_{tag}.csv"
        assert (
            run(
                [
                    "build-walsh-measure",
                    "--psi", "preset:logpow,p=1",
                    "--stages", "3",
                    "--seed", "99",
                    "--out", str(out),
                    "--manifest", str(tmp_path / f"manifest_{tag}.json"),
                ]
            )
            == 0
        )
        files.append(out.read_bytes())
    assert files[0] == files[1]


def test_theorem1_check_pass_and_fail(tmp_path, capsys):
    out = tmp_path / "measure.csv"
    run(
        [
            "build-walsh-measure",
            "--psi", "preset:power,delta=1",
            "--budget-scale", "1.0",
            "--stages", "3",
            "--out", str(out),
            "--manifest", str(tmp_path / "m.json"),
        ]
    )
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    assert (
        run(["theorem1-check", "--in", str(out), "--report", str(report_path)]) == 0
    )
    report = json.loads(report_path.read_text())
    assert report["all_prefixes_nonneg"] and report["p3"]
    size = 1 << report["depth"]
    # the float pass decides: its minimum lies far past its allowance
    (maximal,) = report["positivity_routes"]
    assert maximal == {
        "name": "maximal function",
        "arithmetic": "float64",
        "minimum": maximal["minimum"],
        "verdict": "pass",
        "rounding_slack": maximal["rounding_slack"],
        "coverage": {"atoms": size, "orders": size},
    }
    assert report["decided_by"] == "float64"
    assert 0.0 < maximal["rounding_slack"] < 1e-12 < maximal["minimum"]
    # two multipliers per level kj, one at kj = 0
    assert report["shifted_bounds"] == {"checked": 2 * report["depth"] - 1, "all_hold": True}
    assert len(report["envelope"]) == report["depth"]

    bad = tmp_path / "bad.csv"
    bad.write_text("n,coeff\n0,1.0\n1,-1.5\n")
    assert run(["theorem1-check", "--in", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["witness"] == {
        "kind": "prefix",
        "where": 2,
        "atom": 0,
        "value": -0.5,
    }


def sweep(series):
    """`cli._shifted_bound_sweep` as theorem1-check runs it, on the m = 0
    verdicts and allowance of `check_positivity_equivalence`."""
    return cli._shifted_bound_sweep(series, martingale.check_positivity_equivalence(series))


def test_shifted_bound_sweep_negative_control():
    # |N_0| = 3 > 2 M_0 = 2: the bound fails, as it may without positivity
    assert sweep(WalshSeries.from_coeffs([1.0, 3.0])) == {
        "checked": 1,
        "all_hold": False,
    }
    # the failure sits at the top level, after positive ones
    series = WalshSeries.from_coeffs([1.0, 0.5, 0.25, 0.0, 3.0, 0.0, 0.0, 0.0])
    assert sweep(series) == {"checked": 5, "all_hold": False}


def test_theorem1_check_io_errors(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run(["theorem1-check", "--in", str(empty)]) == 3
    assert "line 1" in capsys.readouterr().err

    mangled = tmp_path / "mangled.csv"
    mangled.write_text("n,coeff\n0,1.0\n2,zebra\n")
    assert run(["theorem1-check", "--in", str(mangled)]) == 3
    assert "line 3" in capsys.readouterr().err

    assert run(["theorem1-check", "--in", str(tmp_path / "missing.csv")]) == 3

    # non-finite coefficients are malformed rows, named by line
    for rows, line in (
        ("0,nan\n", 2),
        ("0,1.0\n1,0.5\n2,nan\n3,0.1\n", 4),
        ("0,1.0\n1,inf\n", 3),
        ("0,1.0\n1,-Infinity\n", 3),
    ):
        bad = tmp_path / "non_finite.csv"
        bad.write_text("n,coeff\n" + rows)
        assert run(["theorem1-check", "--in", str(bad)]) == 3
        err = capsys.readouterr().err
        assert f"line {line}" in err and "not finite" in err


def traced_run(argv):
    """`run(argv)` and its tracemalloc peak."""
    tracemalloc.start()
    try:
        code = run(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_theorem1_check_refuses_depth_before_allocating(tmp_path, capsys):
    # the reader refuses a series past the depth limit from its rows,
    # before the 2^24 float64 coefficients exist
    deep = tmp_path / "deep.csv"
    deep.write_text(f"n,coeff\n0,1.0\n{(1 << 24) - 1},0.5\n")
    code, peak = traced_run(["theorem1-check", "--in", str(deep)])
    assert code == 2
    assert peak < 1 << 20
    err = capsys.readouterr().err
    limit = walsh.THEOREM1_DEPTH_LIMIT
    assert limit == 23
    assert f"depth 24 is past the dense-series limit {limit}" in err
    assert f"{8 << 24:,} bytes" in err
    assert not hasattr(cli, "THEOREM1_DEPTH_LIMIT") and not hasattr(cli, "_exact_route_check")


def test_theorem1_check_refuses_wide_exponents_before_allocating(tmp_path, capsys):
    # 1e-300 and 1.0 take 19 int64 limbs per value (1050 bits in units of
    # 2^-1049, and a sign bit): at depth 20 that is past the bytes of a
    # 2-limb series at the depth limit.  The float pass proves the series
    # negative, and the witness's exact bisection is refused before its
    # first limb table exists
    wide = tmp_path / "wide.csv"
    wide.write_text(f"n,coeff\n0,1e-300\n{(1 << 20) - 1},-1.0\n")
    code, peak = traced_run(["theorem1-check", "--in", str(wide)])
    assert code == 2
    assert peak < 64 << 20
    err = capsys.readouterr().err
    width = -(-1051 // walsh._LIMB_BITS)
    assert width == 19
    assert f"{width} int64 limbs per value" in err
    assert f"{width * martingale._EXACT_BYTES_PER_ATOM << 20:,} bytes at depth 20" in err
    assert f"{martingale._EXACT_BYTES_PER_ATOM * martingale._EXACT_LIMB_ATOMS:,} bytes of a 2-limb series" in err
    assert martingale._EXACT_LIMB_ATOMS == 2 << walsh.THEOREM1_DEPTH_LIMIT

    # every partial sum of 1.0 and 1e-300 is at least 1 - 1e-300: the
    # float pass decides, and no limb is built
    wide.write_text(f"n,coeff\n0,1.0\n{(1 << 20) - 1},1e-300\n")
    assert run(["theorem1-check", "--in", str(wide)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["decided_by"] == "float64" and report["all_prefixes_nonneg"]

    # shallow, the same limbs fit: the float pass decides 1 +- 1e-300, and
    # the witness of 1e-300 -+ 1 is bisected exactly over 19 limbs
    shallow = tmp_path / "shallow.csv"
    shallow.write_text("n,coeff\n0,1.0\n1,1e-300\n")
    assert run(["theorem1-check", "--in", str(shallow)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["positivity_routes"][0]["minimum"] == 1.0
    shallow.write_text("n,coeff\n0,1e-300\n1,-1.0\n")
    assert run(["theorem1-check", "--in", str(shallow)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["witness"] == {"kind": "prefix", "where": 2, "atom": 0, "value": -1.0}


def test_theorem1_check_exact_route_decides_at_rounding_scale(tmp_path, capsys):
    # exact minimum 0; the float64 pass dips to -5.6e-17, inside its allowance
    coeffs = [
        0.3739205990475317, 0.005180237545479943, 0.04410103486582448,
        0.04229973453151192, 0.032419044882653514, 0.012267349702376584,
        -0.24801367261064516, 0.06209387915278364,
    ]
    path = tmp_path / "rounding.csv"
    path.write_text("n,coeff\n" + "".join(f"{n},{c!r}\n" for n, c in enumerate(coeffs)))
    assert run(["theorem1-check", "--in", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    # the exact pass decides both sides of the equivalence, one predicate
    assert report["all_prefixes_nonneg"] and report["inequality_holds"] and report["p3"]
    assert report["decided_by"] == "integer-dyadic"
    assert [r["verdict"] for r in report["positivity_routes"]] == ["within rounding", "pass"]
    assert report["positivity_routes"][1]["minimum"] == 0.0


@pytest.mark.parametrize("rows", [
    "0,1e308\n1,1e308\n",                           # S_2 is 0 or 2e308
    "0,1.7e308\n1,1e308\n2,3e307\n3,3e307\n",      # 2 M_1 overflows in the sweep
], ids=["depth1", "sweep"])
def test_theorem1_check_past_float64_sums(tmp_path, capsys, rows):
    # ||S||_A passes float64's range, so the float pass's allowance is inf
    # and the exact pass decides; the float sums that overflow on the way
    # warn nothing (pytest fails on any warning, and CI runs the command
    # under PYTHONWARNINGS=error::RuntimeWarning)
    path = tmp_path / "big.csv"
    path.write_text("n,coeff\n" + rows)
    assert run(["theorem1-check", "--in", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_prefixes_nonneg"] and report["p3"] and report["shifted_bounds"]["all_hold"]
    assert report["decided_by"] == "integer-dyadic"
    assert report["positivity_routes"][0]["rounding_slack"] == "inf"


def strict_json(text):
    """`text` read as JSON, refusing NaN, Infinity and -Infinity, which
    Python's json writes by default but JSON has no number for."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_theorem1_check_report_is_strict_json_past_float64_sums(tmp_path, capsys):
    # the float pass's sums overflow both ways, so its minimum is NaN and
    # its allowance inf: the report writes them as strings, and the exact
    # pass's minimum fails the series
    path = tmp_path / "over.csv"
    path.write_text("n,coeff\n0,1.7e308\n1,1.7e308\n2,1.7e308\n3,1.7e308\n7,1e308\n")
    assert run(["theorem1-check", "--in", str(path)]) == 1
    report = strict_json(capsys.readouterr().out)
    walk, exact = report["positivity_routes"]
    assert (walk["minimum"], walk["rounding_slack"]) == ("nan", "inf")
    assert report["decided_by"] == "integer-dyadic" and exact["minimum"] == -1.7e308
    assert report["witness"]["value"] == -1.7e308 and not report["all_prefixes_nonneg"]


def test_readme_command_block_writes_strict_json(tmp_path, monkeypatch):
    # every JSON file the commands of README.md's command-line block
    # write parses with NaN and Infinity refused
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    for line in block.replace("\\\n", " ").splitlines():
        if line.strip() and not line.startswith("#"):
            assert run(shlex.split(line)) == 0, line
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.json"))
    assert written == ["manifest.json", "report.json", "trig.json"]
    for name in written:
        strict_json((tmp_path / name).read_text())


def test_theorem1_check_report_agrees_with_itself_within_rounding(tmp_path, capsys):
    # S_3 = 1 - 2^-54 r_1 - r_2 is -2^-54 on atom 0, where the float64
    # pass reads 0: every verdict is the exact pass's, and all fail
    path = tmp_path / "dip.csv"
    path.write_text("n,coeff\n0,1.0\n1,-5.551115123125783e-17\n2,-1.0\n3,0.0\n")
    assert run(["theorem1-check", "--in", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["all_prefixes_nonneg"] and not report["inequality_holds"] and not report["p3"]
    assert report["witness"] == {"kind": "prefix", "where": 3, "atom": 0, "value": -(2.0**-54)}
    assert report["decided_by"] == "integer-dyadic" and report["shifted_bounds"] is None


def test_theorem1_check_report_dash_is_stdout(tmp_path, monkeypatch, capsys):
    # like rs-pair and singularity-report --out -, and like no --report
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.csv").write_text("n,coeff\n0,1.0\n1,0.5\n2,-0.25\n3,0.25\n")
    assert run(["theorem1-check", "--in", "s.csv"]) == 0
    default = capsys.readouterr().out
    assert run(["theorem1-check", "--in", "s.csv", "--report", "-"]) == 0
    assert capsys.readouterr().out == default
    assert json.loads(default)["all_prefixes_nonneg"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]


def test_theorem1_check_walks_the_martingale_once(tmp_path, monkeypatch, capsys):
    # the float route's one prefix-extrema pass over the whole series
    # decides p3 too; check_p3 is not run again
    extrema, calls = martingale.prefix_extrema, []
    monkeypatch.setattr(martingale, "prefix_extrema", lambda c: calls.append(1) or extrema(c))
    for rows, code, p3 in (("0,1.0\n1,0.5\n2,-0.25\n3,0.25\n", 0, True),
                           ("0,1.0\n1,-2.0\n", 1, False)):
        (tmp_path / "s.csv").write_text("n,coeff\n" + rows)
        calls.clear()
        assert run(["theorem1-check", "--in", str(tmp_path / "s.csv")]) == code
        assert json.loads(capsys.readouterr().out)["p3"] is p3
        assert len(calls) == 1


def test_theorem1_check_reads_the_limb_width_once(tmp_path, monkeypatch, capsys):
    # the limb width is read only for an exact merge, once: not on a
    # series the float pass decides as a pass; once for the exact pass,
    # for a float-decided failure's witness, and for both on a failure
    # only the exact pass can decide
    width, calls = martingale._limb_width, []
    monkeypatch.setattr(martingale, "_limb_width", lambda c: calls.append(1) or width(c))
    for rows, code, decided_by, reads in (
            ("0,1.0\n1,0.5\n", 0, "float64", 0),
            ("0,1.0\n1,-1.0\n", 0, "integer-dyadic", 1),
            ("0,1.0\n1,-2.0\n", 1, "float64", 1),
            ("0,1.0\n1,-5.551115123125783e-17\n2,-1.0\n3,0.0\n", 1, "integer-dyadic", 1)):
        (tmp_path / "s.csv").write_text("n,coeff\n" + rows)
        calls.clear()
        assert run(["theorem1-check", "--in", str(tmp_path / "s.csv")]) == code
        assert json.loads(capsys.readouterr().out)["decided_by"] == decided_by
        assert len(calls) == reads


def t1_series(name, path):
    """The d13 and d16 measures, and seeded depth-16 series: dense, zero
    in some dyadic blocks (the float pass decides), and zero in some
    blocks with an exact minimum of 0 (the exact pass decides)."""
    if name in ("d13", "d16"):
        psi, stages, scale = {"d13": (1.0, 3, 2.25), "d16": (1.0, 4, 6.0)}[name]
        wr.export_measure(wr.build_measure(wr.PsiSpec.logpow(psi), stages, wr.SummabilityBudget(scale)), path)
        return
    rng = np.random.default_rng(16)
    if name == "at-zero16":
        c = rng.integers(-(1 << 10), 1 << 10, 1 << 16) << rng.integers(0, 21, 1 << 16)
    else:
        c = rng.uniform(-1, 1, 1 << 16) * 2.0 ** -rng.integers(0, 21, 1 << 16)
    if name != "dense16":
        for k in (2, 3, 5, 6, 7, 9, 10, 11, 13):
            c[1 << k : 2 << k] = 0
    c[0] = 0
    c[0] = -wr.prefix_extrema(c)[2].min() if name == "at-zero16" else np.sum(np.abs(c)) + 1.0
    wr.series_to_csv(WalshSeries(16, c * 2.0**-30 if name == "at-zero16" else c), path)


@pytest.mark.parametrize("name", ["d13", "d16", "dense16", "sparse16", "at-zero16"])
def test_theorem1_check_report_is_that_of_the_single_merge(tmp_path, monkeypatch, capsys, name):
    # the merge by dyadic blocks, which skips blocks of +0.0, against one
    # merge over each whole table: the report, text for text
    t1_series(name, tmp_path / "s.csv")
    reports = []
    for single in (False, True):
        if single:
            monkeypatch.setattr(walsh, "_block_merge", walsh._segment_merge)
        code = run(["theorem1-check", "--in", str(tmp_path / "s.csv")])
        reports.append((code, capsys.readouterr().out))
    assert reports[0] == reports[1]
    report = json.loads(reports[0][1])
    assert report["shifted_bounds"]["all_hold"] and report["decided_by"] == (
        "integer-dyadic" if name == "at-zero16" else "float64")


# theorem1-check's exit code and the sha256 of its report text on each
# `t1_series`, read as s.csv
T1_REPORT_PINS = {
    "d13": (0, "46800955f188dd0d6b7d4f390f3cc7ba7becdb54a787bf35a8478d2c873bb636"),
    "d16": (0, "451b10b3f42970f90e85edd1b3dd1a1bc3d9972ba3b862a300b8ad1d70aa689e"),
    "dense16": (0, "90ae42a17166fcacea59467b46e197d7d974ca3fb5697d60fc1d2fde32179b81"),
    "sparse16": (0, "cbf7ddce6b62e05d8fb060912895dca03da77f0324aed433bac09197e950e9e2"),
    "at-zero16": (0, "651fcff9408fa6c3186b3c6cea13252c4948704f455f833817814c70d870efb3"),
}


@pytest.mark.parametrize("name", list(T1_REPORT_PINS))
def test_theorem1_check_report_text_is_pinned(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    t1_series(name, tmp_path / "s.csv")
    code = run(["theorem1-check", "--in", "s.csv"])
    assert (code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()) == T1_REPORT_PINS[name]


def test_verify_alias(tmp_path):
    # theorem1-check is the command's only name: `verify` is no command
    out = tmp_path / "m.csv"
    run(
        [
            "build-walsh-measure",
            "--psi", "preset:power,delta=1",
            "--budget-scale", "1.0",
            "--stages", "2",
            "--out", str(out),
            "--manifest", str(tmp_path / "m.json"),
        ]
    )
    assert run(["theorem1-check", "--in", str(out)]) == 0
    with pytest.raises(SystemExit) as info:
        run(["verify", "--in", str(out)])
    assert info.value.code == 2
    assert not hasattr(cli, "verify_main")


def test_parser_is_built_once_and_reused(tmp_path):
    # the second call's defaults are the parser's own, not the first
    # call's flags
    first = tmp_path / "first.json"
    argv = ["build-walsh-measure", "--psi", "preset:power,delta=1", "--budget-scale", "1.0",
            "--stages", "2", "--out", str(tmp_path / "first.csv"), "--manifest", str(first)]
    assert run(argv) == 0
    second = tmp_path / "second.json"
    assert run(["build-walsh-measure", "--out", str(tmp_path / "second.csv"),
                "--manifest", str(second)]) == 0
    assert cli._build_parser() is cli._build_parser()
    manifest = json.loads(first.read_text())
    assert (len(manifest["stages"]), manifest["budget_scale"]) == (2, 1.0)
    manifest = json.loads(second.read_text())
    assert (len(manifest["stages"]), manifest["budget_scale"]) == (3, 2.25)
    assert manifest["psi"] == "preset:logpow,p=1"


def test_singularity_report_rows(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    run(
        [
            "build-walsh-measure",
            "--psi", "preset:logpow,p=1",
            "--stages", "3",
            "--out", str(tmp_path / "m.csv"),
            "--manifest", str(manifest),
        ]
    )
    capsys.readouterr()
    assert run(["singularity-report", "--state", str(manifest), "--out", "-"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,hellinger,conc50,conc90,conc99"
    assert len(lines) == 5  # k = 0..3
    assert lines[1].startswith("0,1.0,0.5,0.9,0.99")


def test_singularity_report_empty_product(tmp_path, capsys):
    manifest = tmp_path / "empty.json"
    manifest.write_text(json.dumps({"stages": []}))
    assert run(["singularity-report", "--state", str(manifest), "--out", "-"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1] == "0,1.0,0.5,0.9,0.99"


def test_report_outputs(tmp_path):
    out = tmp_path / "measure.csv"
    manifest = tmp_path / "manifest.json"
    run(
        [
            "build-walsh-measure",
            "--psi", "preset:logpow,p=1",
            "--stages", "3",
            "--out", str(out),
            "--manifest", str(manifest),
        ]
    )
    rep = tmp_path / "rep"
    assert (
        run(
            [
                "report",
                "--manifest", str(manifest),
                "--measure", str(out),
                "--out-dir", str(rep),
            ]
        )
        == 0
    )
    envelope = (rep / "envelope.csv").read_text().strip().splitlines()
    assert len(envelope) == 1 + 13  # one row per dyadic block
    hellinger = (rep / "hellinger.csv").read_text().strip().splitlines()
    assert len(hellinger) == 1 + 4  # k = 0..stages
    psi_terms = (rep / "psi_terms.csv").read_text().strip().splitlines()
    assert len(psi_terms) == 1 + 3  # one row per stage
    conc = (rep / "concentration.csv").read_text().strip().splitlines()
    assert len(conc) == 1 + 4


def test_report_fails_psi_sums_past_their_budget(tmp_path, capsys):
    # levels 0, 0, 1, 2 under `power delta=1` meet their psi bounds, but
    # not the budget terms 0.01 * 2^-k: report writes its four CSVs, as
    # the builds write theirs, and exits 1 with a FAIL line
    state = wr.empty_state()
    for level in (0, 0, 1, 2):
        state = wr.add_factor(state, level)
    manifest, measure = tmp_path / "manifest.json", tmp_path / "measure.csv"
    manifest.write_text(json.dumps({"psi": "preset:power,delta=1", "budget_scale": 0.01,
                                    **wr.state_manifest(state)}))
    wr.export_measure(state, measure)
    rep = tmp_path / "rep"
    assert run(["report", "--manifest", str(manifest), "--measure", str(measure),
                "--out-dir", str(rep)]) == 1
    assert sorted(p.name for p in rep.iterdir()) == [
        "concentration.csv", "envelope.csv", "hellinger.csv", "psi_terms.csv"]
    psi_terms = (rep / "psi_terms.csv").read_text().splitlines()
    assert psi_terms[1].endswith(",0.005") and len(psi_terms) == 1 + 4
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"wrote 4 CSV files to {rep}" and out[1].startswith("FAIL: psi sum ")


def test_report_envelope_accepts_sparse_measure(tmp_path):
    # the envelope reads the measure sparsely, past the dense 2^26 limit;
    # the manifest's product, one level-1 factor, has its three terms
    manifest = tmp_path / "manifest.json"
    state = wr.add_factor(wr.empty_state(), 1)
    manifest.write_text(json.dumps({"psi": "preset:power,delta=1", "budget_scale": 1.0,
                                    **wr.state_manifest(state)}))
    measure = tmp_path / "sparse.csv"
    measure.write_text(f"n,coeff\n0,1.0\n3,-0.25\n{1 << 30},0.125\n")
    rep = tmp_path / "rep"
    args = ["report", "--manifest", str(manifest), "--measure", str(measure)]
    assert run(args + ["--out-dir", str(rep)]) == 0
    envelope = (rep / "envelope.csv").read_text().splitlines()
    assert len(envelope) == 1 + 31
    assert envelope[2] == "1,0.25" and envelope[-1] == "30,0.125"


def test_report_refuses_measure_of_another_build(tmp_path, capsys):
    # a 2-stage measure against a 3-stage manifest: 4 terms, not 4,100
    for stages in ("2", "3"):
        argv = ["build-walsh-measure", "--stages", stages,
                "--out", str(tmp_path / f"m{stages}.csv"),
                "--manifest", str(tmp_path / f"m{stages}.json")]
        assert run(argv) == 0
    capsys.readouterr()
    out_dir = tmp_path / "rep"
    argv = ["report", "--manifest", str(tmp_path / "m3.json"),
            "--measure", str(tmp_path / "m2.csv"), "--out-dir", str(out_dir)]
    assert run(argv) == 2
    assert "m2.csv has 4 terms, but the product in" in capsys.readouterr().err
    assert not out_dir.exists()


def test_report_refuses_nan_budget_scale(tmp_path, capsys):
    state = wr.add_factor(wr.empty_state(), 0)
    manifest, measure = tmp_path / "manifest.json", tmp_path / "measure.csv"
    manifest.write_text(json.dumps({"psi": "preset:logpow,p=1", "budget_scale": float("nan"),
                                    **wr.state_manifest(state)}))
    wr.export_measure(state, measure)
    out_dir = tmp_path / "rep"
    argv = ["report", "--manifest", str(manifest), "--measure", str(measure)]
    assert run(argv + ["--out-dir", str(out_dir)]) == 2
    assert "budget scale nan is not finite and positive" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["build-walsh-measure", "build-trig-measure"])
@pytest.mark.parametrize("scale", ["nan", "-1", "0", "inf"])
def test_budget_scale_must_be_finite_and_positive(tmp_path, capsys, command, scale):
    argv = [command, "--budget-scale", scale, "--out", str(tmp_path / "out.csv"),
            "--manifest", str(tmp_path / "manifest.json")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --budget-scale: ") and "not finite and positive" in err
    assert not list(tmp_path.iterdir())


def test_psi_sums_below_the_normal_range_are_refused(tmp_path, capsys):
    # at p = 1000 every stage's psi sum and bound underflow to 0.0, a
    # comparison that says nothing: the build exits 2, naming stage 1,
    # before writing anything
    argv = ["build-walsh-measure", "--psi", "preset:logpow,p=1000", "--stages", "3",
            "--out", str(tmp_path / "out.csv"), "--manifest", str(tmp_path / "manifest.json")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stage 1 psi sum 0.0 or its bound 0.0 is below float64's normal range")
    assert not list(tmp_path.iterdir())


def test_trig_psi_sums_below_the_normal_range_are_refused(tmp_path, capsys):
    # psi(x) = x^2 / (1 + ln(1/x))^1000 underflows to 0.0 below x = 0.01
    # (it raised OverflowError once): the cosine build refuses the zero
    # sums as the Walsh build does, naming stage 1, before writing anything
    argv = ["build-trig-measure", "--psi", "preset:logpow,p=1000", "--out", str(tmp_path / "out.csv"),
            "--manifest", str(tmp_path / "manifest.json")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stage 1 psi sum 0.0 or its bound 0.0 is below float64's normal range")
    assert not list(tmp_path.iterdir())


def test_build_trig_cli(tmp_path):
    out = tmp_path / "trig.csv"
    manifest = tmp_path / "trig.json"
    code = run(
        [
            "build-trig-measure",
            "--psi", "preset:logpow,p=1",
            "--stages", "2",
            "--grid-oversample", "16",
            "--out", str(out),
            "--manifest", str(manifest),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "frequency,coeff"
    assert lines[1] == "0,1.0"
    data = json.loads(manifest.read_text())
    assert data["certificates"]["passed"]
    assert data["certificates"]["stage_supports_disjoint"]


def test_build_trig_cli_fails_coarse_grid(tmp_path, capsys):
    # at 4x oversampling the Bernstein slack exceeds the grid minimum
    out = tmp_path / "trig.csv"
    manifest = tmp_path / "trig.json"
    code = run(
        [
            "build-trig-measure",
            "--grid-oversample", "4",
            "--out", str(out),
            "--manifest", str(manifest),
        ]
    )
    assert code == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("FAIL")
    certs = json.loads(manifest.read_text())["certificates"]
    assert not certs["passed"]
    assert certs["grid_min_partial"] < certs["bernstein_slack"]


def deep_manifest(directory, psi="preset:logpow,p=1"):
    """The manifest of a one-factor state on coordinate 27."""
    state = wr.add_factor(wr.empty_state(), 0, wr.BlockSpec((27,)))
    path = directory / "deep.json"
    path.write_text(json.dumps({"psi": psi, "budget_scale": 1.0, **wr.state_manifest(state)}))
    return path


def test_deep_build_certifies_every_stage(tmp_path, monkeypatch):
    # the depth-27 build (9,141,660 terms) runs every certificate, and
    # orthogonality reads each factor on its own block's atoms; the
    # export is stubbed, so no 300 MB file is written
    exported = []
    monkeypatch.setattr(riesz, "export_measure", lambda state, path: exported.append(state))
    argv = ["build-walsh-measure", "--psi", "preset:logpow,p=2", "--budget-scale", "100",
            "--stages", "7", "--out", str(tmp_path / "m.csv"),
            "--manifest", str(tmp_path / "m.json")]
    assert run(argv) == 0
    (state,) = exported
    assert state.used_coordinates == 27 and state.support_size == 9_141_660
    certificates = json.loads((tmp_path / "m.json").read_text())["certificates"]
    assert certificates["positivity"]["passed"] and certificates["psi_sum"]["passed"]
    assert certificates["singularity"]["strictly_decreasing"]
    assert certificates["orthogonality"]["passed"]
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


def test_singularity_report_on_a_depth_624_manifest(tmp_path, capsys):
    # ten stages up to level 396: the rebuild and the report read the
    # factors off their levels
    state = wr.build_measure(wr.PsiSpec.power(1.0), 10, wr.SummabilityBudget(6.0))
    manifest = tmp_path / "deep.json"
    manifest.write_text(json.dumps(wr.state_manifest(state)))
    assert run(["singularity-report", "--state", str(manifest), "--out", "-"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,hellinger,conc50,conc90,conc99" and len(lines) == 1 + 11


def test_report_refuses_a_gauge_the_builds_refuse(tmp_path, capsys):
    # psi = x^2 fails the hypothesis, so both builds exit 2 on it: so does
    # report, naming the manifest, before writing anything
    state = wr.add_factor(wr.empty_state(), 0)
    manifest, measure = tmp_path / "manifest.json", tmp_path / "measure.csv"
    manifest.write_text(json.dumps({"psi": "preset:quadratic", "budget_scale": 1.0,
                                    **wr.state_manifest(state)}))
    wr.export_measure(state, measure)
    out_dir = tmp_path / "rep"
    argv = ["report", "--manifest", str(manifest), "--measure", str(measure)]
    assert run(argv + ["--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert f"cannot rebuild state from {manifest}: psi 'preset:quadratic' violates the hypothesis" in err
    assert not out_dir.exists()


def test_bad_manifest_exits_2(tmp_path, capsys):
    # an unknown psi key, and a stage level of the wrong JSON type
    manifest = deep_manifest(tmp_path, psi="preset:logpow,q=1")
    measure = tmp_path / "measure.csv"
    measure.write_text("n,coeff\n0,1.0\n")
    out_dir = tmp_path / "report"
    argv = ["report", "--manifest", str(manifest), "--measure", str(measure)]
    assert run(argv + ["--out-dir", str(out_dir)]) == 2
    assert "takes no parameter 'q'" in capsys.readouterr().err
    assert not out_dir.exists()
    manifest.write_text(json.dumps({"stages": [{"level": None, "block": [1]}]}))
    assert run(["singularity-report", "--state", str(manifest), "--out", "-"]) == 2
    assert "cannot rebuild state" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["singularity-report", "report"])
@pytest.mark.parametrize("field", ["level", "coordinate"])
@pytest.mark.parametrize("value", [float("inf"), 1.5, True, "1"], ids=["Infinity", "1.5", "true", "string-1"])
def test_manifest_levels_and_coordinates_must_be_integers(tmp_path, capsys, command, field, value):
    # a JSON Infinity, float, bool or string where an integer belongs
    # exits 2, naming the manifest and the stage, and writes nothing
    state = wr.add_factor(wr.empty_state(), 0, wr.BlockSpec((1,)))
    data = {"psi": "preset:logpow,p=1", "budget_scale": 1.0, **wr.state_manifest(state)}
    if field == "level":
        data["stages"][0]["level"] = value
    else:
        data["stages"][0]["block"] = [value]
    manifest = tmp_path / "bad.json"
    manifest.write_text(json.dumps(data))
    measure = tmp_path / "measure.csv"
    measure.write_text(f"n,coeff\n0,1.0\n1,{state.factors[0].amplitude!r}\n")
    out = tmp_path / "out"
    if command == "report":
        argv = ["report", "--manifest", str(manifest), "--measure", str(measure), "--out-dir", str(out)]
    else:
        argv = ["singularity-report", "--state", str(manifest), "--out", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"cannot rebuild state from {manifest}: stage 1:" in err and repr(value) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "measure.csv"]


@pytest.mark.parametrize("value", [True, "2.25"], ids=["true", "string"])
def test_report_refuses_a_budget_scale_that_is_not_a_number(tmp_path, capsys, value):
    # a JSON bool or string where the budget scale belongs exits 2, naming
    # the field, and writes nothing: float() would read true as 1.0
    state = wr.add_factor(wr.empty_state(), 0)
    manifest, measure = tmp_path / "manifest.json", tmp_path / "measure.csv"
    manifest.write_text(json.dumps({"psi": "preset:logpow,p=1", "budget_scale": value,
                                    **wr.state_manifest(state)}))
    wr.export_measure(state, measure)
    argv = ["report", "--manifest", str(manifest), "--measure", str(measure)]
    assert run(argv + ["--out-dir", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert f"cannot rebuild state from {manifest}: budget_scale {value!r} must be a number" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "measure.csv"]


@pytest.mark.parametrize("command", ["singularity-report", "report"])
@pytest.mark.parametrize("value", [True, "0.14644660940672624"], ids=["true", "string"])
def test_manifest_amplitudes_must_be_numbers(tmp_path, capsys, command, value):
    # a JSON bool or string where a stage amplitude belongs exits 2,
    # naming the stage and the field, and writes nothing
    state = wr.add_factor(wr.empty_state(), 0)
    data = {"psi": "preset:logpow,p=1", "budget_scale": 1.0, **wr.state_manifest(state)}
    data["stages"][0]["amplitude"] = value
    manifest, measure = tmp_path / "bad.json", tmp_path / "measure.csv"
    manifest.write_text(json.dumps(data))
    wr.export_measure(state, measure)
    out = tmp_path / "out"
    if command == "report":
        argv = ["report", "--manifest", str(manifest), "--measure", str(measure), "--out-dir", str(out)]
    else:
        argv = ["singularity-report", "--state", str(manifest), "--out", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"cannot rebuild state from {manifest}: stage 1: amplitude {value!r} must be a number" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "measure.csv"]


@pytest.mark.parametrize("field", ["budget_scale", "amplitude"])
def test_manifest_integers_past_float64_exit_2(tmp_path, capsys, field):
    # a JSON integer that float64 cannot hold is bad input, not an
    # internal error
    state = wr.add_factor(wr.empty_state(), 0)
    data = {"psi": "preset:logpow,p=1", "budget_scale": 1.0, **wr.state_manifest(state)}
    if field == "budget_scale":
        data["budget_scale"] = 10**400
    else:
        data["stages"][0]["amplitude"] = 10**400
    manifest, measure = tmp_path / "bad.json", tmp_path / "measure.csv"
    manifest.write_text(json.dumps(data))
    wr.export_measure(state, measure)
    argv = ["report", "--manifest", str(manifest), "--measure", str(measure), "--out-dir", str(tmp_path / "out")]
    assert run(argv) == 2
    assert f"cannot rebuild state from {manifest}: int too large to convert to float" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "measure.csv"]


def test_report_past_the_dense_depth_limit_writes_its_files(tmp_path):
    # the singularity rows come from value histograms, so a depth-27 state
    # is reported like any other
    manifest = deep_manifest(tmp_path)
    measure = tmp_path / "measure.csv"
    measure.write_text(f"n,coeff\n0,1.0\n{1 << 26},0.125\n")
    out_dir = tmp_path / "report"
    argv = ["report", "--manifest", str(manifest), "--measure", str(measure)]
    assert run(argv + ["--out-dir", str(out_dir)]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "concentration.csv", "envelope.csv", "hellinger.csv", "psi_terms.csv"]
    assert len((out_dir / "hellinger.csv").read_text().splitlines()) == 1 + 2  # k = 0, 1


def test_singularity_report_past_the_dense_depth_limit(tmp_path, capsys):
    # a depth-27 state: its rows come from value histograms
    assert run(["singularity-report", "--state", str(deep_manifest(tmp_path)), "--out", "-"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,hellinger,conc50,conc90,conc99" and len(lines) == 3


# the build's certificates in the order they run, then the export
CERTIFIED_THEN_EXPORTED = ((riesz, "verify_all_partial_sums"), (riesz, "psi_sum_report"),
                           (martingale, "singularity_report"),
                           (martingale, "verify_product_orthogonality"), (riesz, "export_measure"))


def spy(monkeypatch, targets):
    """The names of the (module, name) targets, appended as each is called."""
    calls = []
    for module, name in targets:
        def wrapper(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize(
    ("argv", "message", "ran"),
    [
        (["build-trig-measure", "--stages", "4"], "stages 4 outside [0, 2]", ()),
        (["build-trig-measure", "--stages", "3"], "stages 3 outside [0, 2]", ()),
        (["build-trig-measure", "--grid-oversample", "0"], "oversample 0 below 1", ()),
        (["rs-pair", "--level", "21"], "level 21 outside [0, 20]", ()),
        (["build-walsh-measure", "--stages", "-1"], "stage count -1 is negative", ()),
        # psi presets take their own keys, and finite numbers only
        (["build-walsh-measure", "--psi", "preset:logpow,q=1"],
         "psi preset 'logpow' takes no parameter 'q'", ()),
        (["build-walsh-measure", "--psi", "preset:logpow,p=nan"],
         "psi parameter p=nan is not finite", ()),
        (["build-trig-measure", "--psi", "preset:power,delta=inf"],
         "psi parameter delta=inf is not finite", ()),
        # levels stop at the longest flat polynomial built, 2^12
        (["build-trig-measure", "--budget-scale", "0.25", "--stages", "1"],
         "no admissible trig level <= 4096 for stage 1", ()),
        # depth 42 builds and runs every certificate from the factors and
        # each factor's own atoms; the export then refuses its spectrum
        # before allocating it, and before the manifest is written
        (["build-walsh-measure", "--psi", "preset:power,delta=1", "--budget-scale", "6",
          "--stages", "7"],
         "274,339,462,140 terms, past the limit of 16,777,216", CERTIFIED_THEN_EXPORTED),
    ],
    ids=["trig-stages4", "trig-stages3", "trig-oversample0", "rs-level21", "walsh-stages-1",
         "walsh-psi-unknown-key", "walsh-psi-nan", "trig-psi-inf", "trig-level-past-flat",
         "walsh-spectrum-past-limit"],
)
def test_bad_input_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, argv, message, ran):
    calls = spy(monkeypatch, CERTIFIED_THEN_EXPORTED)
    out = tmp_path / "out.csv"
    manifest = tmp_path / "manifest.json"
    extra = ["--manifest", str(manifest)] if argv[0].startswith("build-") else []
    assert run(argv + ["--out", str(out)] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert list(tmp_path.iterdir()) == []
    assert calls == [name for _, name in ran]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        run(["build-walsh-measure", "--stages", "many"])
    assert info.value.code == 2
