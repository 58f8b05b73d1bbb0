"""CLI behavior: exit codes, file outputs, determinism, parser reuse."""

import json
import tracemalloc

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
    # stage 4 would need a level past the largest flat polynomial built (20)
    monkeypatch.chdir(tmp_path)
    code = run(
        [
            "build-walsh-measure",
            "--budget-scale", "4",
            "--stages", "4",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert "stage 4" in err and "<= 20" in err
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


def test_coordinate_past_63_is_usage_error(tmp_path, capsys):
    # a manifest block past coordinate 63, whose Walsh index would not fit
    # in int64, exits 2; the caps older manifests recorded are ignored
    stage = {"level": 0, "block": [64], "amplitude": 0.5 / wr.FLATNESS_CONSTANT}
    manifest = tmp_path / "manifest.json"
    out = tmp_path / "singularity.csv"
    argv = ["singularity-report", "--state", str(manifest), "--out", str(out)]
    manifest.write_text(json.dumps({"stages": [stage]}))
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err and "past coordinate 63" in err
    assert not out.exists()
    stage["block"] = [3]
    older = {"exhaustive_cap": 21, "max_coordinates": 64, "stages": [stage]}
    manifest.write_text(json.dumps(older))
    assert run(argv) == 0


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
    # the float walk decides: its minimum lies far past its allowance
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


def test_theorem1_check_refuses_depth_before_allocating(tmp_path, capsys):
    deep = tmp_path / "deep.csv"
    deep.write_text(f"n,coeff\n0,1.0\n{(1 << 26) - 1},0.5\n")
    tracemalloc.start()
    try:
        code = run(["theorem1-check", "--in", str(deep)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20
    err = capsys.readouterr().err
    limit = cli.THEOREM1_DEPTH_LIMIT
    assert f"depth 26 is past theorem1-check's limit {limit}" in err
    assert f"{cli._EXACT_BYTES_PER_ATOM << 26:,} bytes" in err
    # the same check= hook takes a series at the limit
    check = cli._exact_route_check("at_limit.csv")
    assert check(limit, np.array([1.0, 0.5])) is None
    with pytest.raises(cli._UsageError, match=f"depth {limit + 1} is past"):
        check(limit + 1, np.array([1.0, 0.5]))


def test_theorem1_check_refuses_wide_exponents_before_allocating(tmp_path, capsys):
    # 1.0 and 1e-300 take 19 int64 limbs per value (1050 bits in units of
    # 2^-1049, and a sign bit): at depth 20 that is past the bytes of a
    # 2-limb series at the depth limit, refused from the rows
    wide = tmp_path / "wide.csv"
    wide.write_text(f"n,coeff\n0,1.0\n{(1 << 20) - 1},1e-300\n")
    tracemalloc.start()
    try:
        code = run(["theorem1-check", "--in", str(wide)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20
    err = capsys.readouterr().err
    width = -(-1051 // walsh._LIMB_BITS)
    assert width == 19
    assert f"{width} int64 limbs per value" in err
    assert f"{width * cli._EXACT_BYTES_PER_ATOM << 20:,} bytes at depth 20" in err
    assert f"{cli._EXACT_BYTES_PER_ATOM * cli._EXACT_LIMB_ATOMS:,} bytes of a 2-limb series" in err
    assert cli._EXACT_LIMB_ATOMS == 2 << cli.THEOREM1_DEPTH_LIMIT

    # shallow, the same limbs are read: the walk decides 1 +- 1e-300, and
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
    # exact minimum 0; the float64 walk dips to -5.6e-17, inside its allowance
    coeffs = [
        0.3739205990475317, 0.005180237545479943, 0.04410103486582448,
        0.04229973453151192, 0.032419044882653514, 0.012267349702376584,
        -0.24801367261064516, 0.06209387915278364,
    ]
    path = tmp_path / "rounding.csv"
    path.write_text("n,coeff\n" + "".join(f"{n},{c!r}\n" for n, c in enumerate(coeffs)))
    assert run(["theorem1-check", "--in", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    # the exact walk decides both sides of the equivalence, one predicate
    assert report["all_prefixes_nonneg"] and report["inequality_holds"] and report["p3"]
    assert report["decided_by"] == "integer-dyadic"
    assert [r["verdict"] for r in report["positivity_routes"]] == ["within rounding", "pass"]
    assert report["positivity_routes"][1]["minimum"] == 0.0


def test_theorem1_check_report_agrees_with_itself_within_rounding(tmp_path, capsys):
    # S_3 = 1 - 2^-54 r_1 - r_2 is -2^-54 on atom 0, where the float64
    # walk reads 0: every verdict is the exact walk's, and all fail
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
    # the float route's one walk decides p3 too; check_p3 is not walked again
    walk, calls = martingale._martingale_walk, []
    monkeypatch.setattr(martingale, "_martingale_walk", lambda c: calls.append(1) or walk(c))
    for rows, code, p3 in (("0,1.0\n1,0.5\n2,-0.25\n3,0.25\n", 0, True),
                           ("0,1.0\n1,-2.0\n", 1, False)):
        (tmp_path / "s.csv").write_text("n,coeff\n" + rows)
        calls.clear()
        assert run(["theorem1-check", "--in", str(tmp_path / "s.csv")]) == code
        assert json.loads(capsys.readouterr().out)["p3"] is p3
        assert len(calls) == 1


def test_theorem1_check_reads_the_limb_width_once(tmp_path, monkeypatch, capsys):
    # the read-time check's limb width serves the positivity check too, on
    # a series the float walk decides and on one only the exact walk can
    width, calls = martingale._limb_width, []
    monkeypatch.setattr(martingale, "_limb_width", lambda c: calls.append(1) or width(c))
    for rows, decided_by in (("0,1.0\n1,0.5\n", "float64"),
                             ("0,1.0\n1,-1.0\n", "integer-dyadic")):
        (tmp_path / "s.csv").write_text("n,coeff\n" + rows)
        calls.clear()
        assert run(["theorem1-check", "--in", str(tmp_path / "s.csv")]) == 0
        assert json.loads(capsys.readouterr().out)["decided_by"] == decided_by
        assert len(calls) == 1


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


def bad_inputs(directory):
    """The input files the bad-input cases name, by placeholder."""
    return {"{deep}": str(deep_manifest(directory))}


def test_deep_build_is_refused_before_any_certificate(tmp_path, monkeypatch, capsys):
    # the depth-27 build (9,141,660 terms) is refused for the dense
    # diagnostics before the certificates and psi sums run
    def never(*args, **kwargs):
        raise AssertionError("ran past the size checks")

    for name in ("verify_all_partial_sums", "psi_sum_report", "export_measure"):
        monkeypatch.setattr(riesz, name, never)
    argv = ["build-walsh-measure", "--psi", "preset:logpow,p=2", "--budget-scale", "100",
            "--stages", "7", "--out", str(tmp_path / "m.csv"),
            "--manifest", str(tmp_path / "m.json")]
    assert run(argv) == 2
    assert "depth 27 is past the dense diagnostics' limit 24" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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


def test_report_past_depth_limit_exits_2_and_writes_nothing(tmp_path, capsys):
    manifest = deep_manifest(tmp_path)
    measure = tmp_path / "measure.csv"
    measure.write_text(f"n,coeff\n0,1.0\n{1 << 26},0.125\n")
    out_dir = tmp_path / "report"
    argv = ["report", "--manifest", str(manifest), "--measure", str(measure)]
    assert run(argv + ["--out-dir", str(out_dir)]) == 2
    assert "depth 27 is past the dense diagnostics'" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["build-trig-measure", "--stages", "4"], "stages 4 outside [0, 2]"),
        (["build-trig-measure", "--stages", "3"], "stages 3 outside [0, 2]"),
        (["build-trig-measure", "--grid-oversample", "0"], "oversample 0 below 1"),
        (["rs-pair", "--level", "21"], "level 21 outside [0, 20]"),
        (["build-walsh-measure", "--stages", "-1"], "stage count -1 is negative"),
        # psi presets take their own keys, and finite numbers only
        (["build-walsh-measure", "--psi", "preset:logpow,q=1"],
         "psi preset 'logpow' takes no parameter 'q'"),
        (["build-walsh-measure", "--psi", "preset:logpow,p=nan"],
         "psi parameter p=nan is not finite"),
        (["build-trig-measure", "--psi", "preset:power,delta=inf"],
         "psi parameter delta=inf is not finite"),
        # levels stop at the longest flat polynomial built, 2^12
        (["build-trig-measure", "--budget-scale", "0.25", "--stages", "1"],
         "no admissible trig level <= 4096 for stage 1"),
        # depth 42 builds and certifies from the factors alone; its spectrum
        # is refused before the psi sums or the export allocate it
        (["build-walsh-measure", "--psi", "preset:power,delta=1", "--budget-scale", "6",
          "--stages", "7"],
         "274,339,462,140 terms, past the limit of 16,777,216"),
        # a depth-27 state would need about 10 GB of dense diagnostics
        (["singularity-report", "--state", "{deep}"], "depth 27 is past the dense diagnostics'"),
    ],
    ids=["trig-stages4", "trig-stages3", "trig-oversample0", "rs-level21", "walsh-stages-1",
         "walsh-psi-unknown-key", "walsh-psi-nan", "trig-psi-inf", "trig-level-past-flat",
         "walsh-spectrum-past-limit", "singularity-past-depth-limit"],
)
def test_bad_input_exits_2_and_writes_nothing(
    tmp_path, tmp_path_factory, capsys, argv, message
):
    out = tmp_path / "out.csv"
    manifest = tmp_path / "manifest.json"
    extra = ["--manifest", str(manifest)] if argv[0].startswith("build-") else []
    inputs = bad_inputs(tmp_path_factory.mktemp("input"))
    argv = [inputs.get(a, a) for a in argv]
    assert run(argv + ["--out", str(out)] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert list(tmp_path.iterdir()) == []


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        run(["build-walsh-measure", "--stages", "many"])
    assert info.value.code == 2
