"""CLI behavior: exit codes, file outputs, determinism, config files."""

import json

import pytest

from walshriesz import WalshSeries, cli


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
            "--max-coordinates", "60",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert "stage 4" in err and "<= 20" in err
    assert not list(tmp_path.iterdir())


def test_cap_past_dense_limit_is_usage_error(tmp_path, capsys):
    args = [
        "build-walsh-measure",
        "--cap", "21",
        "--out", str(tmp_path / "m.csv"),
        "--manifest", str(tmp_path / "m.json"),
    ]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err and "limit 20" in err
    assert not list(tmp_path.iterdir())
    manifest = tmp_path / "cap21.json"
    manifest.write_text(json.dumps({"exhaustive_cap": 21, "stages": []}))
    assert run(["singularity-report", "--state", str(manifest), "--out", "-"]) == 2
    assert "limit 20" in capsys.readouterr().err


def test_build_walsh_cap_gate(tmp_path, capsys):
    # past the cap the build is certified from per-factor bounds, no flag needed
    args = [
        "build-walsh-measure",
        "--psi", "preset:logpow,p=1",
        "--stages", "3",
        "--cap", "5",
        "--out", str(tmp_path / "m.csv"),
        "--manifest", str(tmp_path / "m.json"),
    ]
    assert run(args) == 0
    positivity = json.loads((tmp_path / "m.json").read_text())["certificates"]["positivity"]
    assert positivity["method"] == "per-factor"
    assert positivity["exhaustive"] and positivity["passed"]
    assert "sampling" not in positivity


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


def test_shifted_bound_sweep_negative_control():
    # |N_0| = 3 > 2 M_0 = 2: the bound fails, as it may without positivity
    assert cli._shifted_bound_sweep(WalshSeries.from_coeffs([1.0, 3.0])) == {
        "checked": 1,
        "all_hold": False,
    }
    # the failure sits at the top level, after positive ones
    series = WalshSeries.from_coeffs([1.0, 0.5, 0.25, 0.0, 3.0, 0.0, 0.0, 0.0])
    assert cli._shifted_bound_sweep(series) == {"checked": 5, "all_hold": False}


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


def test_verify_alias(tmp_path):
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
    assert run(["verify", "--in", str(out)]) == 0


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
    # the envelope reads the measure sparsely, past the dense 2^26 limit
    manifest = tmp_path / "manifest.json"
    run(
        [
            "build-walsh-measure",
            "--psi", "preset:power,delta=1",
            "--budget-scale", "1.0",
            "--stages", "2",
            "--out", str(tmp_path / "m.csv"),
            "--manifest", str(manifest),
        ]
    )
    measure = tmp_path / "sparse.csv"
    measure.write_text(f"n,coeff\n0,1.0\n3,-0.25\n{1 << 30},0.125\n")
    rep = tmp_path / "rep"
    args = ["report", "--manifest", str(manifest), "--measure", str(measure)]
    assert run(args + ["--out-dir", str(rep)]) == 0
    envelope = (rep / "envelope.csv").read_text().splitlines()
    assert len(envelope) == 1 + 31
    assert envelope[2] == "1,0.25" and envelope[-1] == "30,0.125"


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


def test_config_file_supplies_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"stages": 2, "psi": "preset:power,delta=1",
                               "budget_scale": 1.0,
                               "out": str(tmp_path / "m.csv"),
                               "manifest": str(tmp_path / "m.json")}))
    assert run(["build-walsh-measure", "--config", str(cfg)]) == 0
    data = json.loads((tmp_path / "m.json").read_text())
    assert len(data["stages"]) == 2


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_flag": 1}))
    assert run(["build-walsh-measure", "--config", str(cfg)]) == 2
    assert "no_such_flag" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        run(["build-walsh-measure", "--stages", "many"])
    assert info.value.code == 2
