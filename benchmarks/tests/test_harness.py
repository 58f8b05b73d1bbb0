"""Tests of the benchmark harness on a tiny 6-coordinate build.

Run from the repository root: python -m pytest benchmarks/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from walshriesz import riesz  # noqa: E402

TINY_BUILD = ["--psi", "preset:power,delta=1", "--budget-scale", "1", "--stages", "3"]


def tiny_unit(work: Path, corrupt_first: bool = False):
    work.mkdir(parents=True, exist_ok=True)
    calls = []

    def unit():
        coverage = workloads.build_walsh(work, 7, TINY_BUILD)
        if corrupt_first and not calls:
            with open(work / "measure.csv", "a") as fh:
                fh.write("64,not-a-number\n")
        calls.append(riesz.add_factor)
        workloads.recheck(work, 7)
        return workloads.UnitOutput(coverage, {"measure.csv": work / "measure.csv"})

    return unit, calls


def library_functions():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "walshriesz" or name.startswith("walshriesz.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def traced_run(tmp_path, corrupt_first=False):
    unit, calls = tiny_unit(tmp_path, corrupt_first)
    tracer = tracing.Tracer()
    log = []
    outcomes = run.closed_loop(unit, {}, 0, tracer, log=log.append)
    return tracer, outcomes, calls, log


def test_wrappers_installed_during_traced_units_and_restored(tmp_path):
    before = library_functions()
    original = riesz.add_factor
    tracer, outcomes, calls, _ = traced_run(tmp_path)
    assert [o.traced for o in outcomes] == [False, True]
    assert calls[0] is original and calls[1] is not original
    after = library_functions()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_wrappers_restored_when_a_unit_raises():
    before = library_functions()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("unit crashed")
    after = library_functions()
    assert all(after[key] is before[key] for key in before)


def test_spans_nest_and_self_times_are_nonnegative(tmp_path):
    tracer, outcomes, _, _ = traced_run(tmp_path)
    assert all(o.witness is None for o in outcomes)
    spans = tracer.spans
    names = {s.name for s in spans}
    assert {"cli.build-walsh-measure", "cli.theorem1-check",
            "riesz.add_factor", "riesz.product_values"} <= names
    for i, span in enumerate(spans):
        assert span.unit == 1
        assert span.self_s >= 0.0
        if span.parent is not None:
            parent = spans[span.parent]
            assert span.parent < i
            assert parent.start <= span.start <= span.end <= parent.end
    assert any(s.parent is not None for s in spans)

    metrics = tracer.unit_metrics(1, outcomes[1].wall)
    top = sum(s.duration for s in spans if s.parent is None)
    assert sum(s.self_s for s in spans) <= top + 1e-9
    assert metrics["trace.untimed_s"] >= 0.0
    assert metrics["riesz.verify_all_partial_sums.atoms"] == 64
    assert metrics["riesz.verify_all_partial_sums.orders"] == 64
    assert metrics["walsh.sign_vector.calls"] > 0
    assert metrics["martingale.check_shifted_bound.calls"] > 0


def test_corrupted_csv_is_a_failed_unit_and_the_run_goes_on(tmp_path):
    _, outcomes, _, log = traced_run(tmp_path, corrupt_first=True)
    assert len(outcomes) == 2
    assert "theorem1-check exited 3" in outcomes[0].witness
    assert "not-a-number" in outcomes[0].witness
    assert outcomes[1].witness is None and outcomes[1].coverage == 1.0
    assert len(log) == 1 and "FAILED" in log[0]


def test_changed_output_fails_the_pin(tmp_path):
    out = tmp_path / "measure.csv"
    out.write_text("n,coeff\n0,1.0\n")
    output = workloads.UnitOutput(1.0, {"measure.csv": out})
    digest = workloads.check_files(output, {}, {})["measure.csv"]
    out.write_text("n,coeff\n0,1.5\n")
    with pytest.raises(workloads.UnitFailure, match="measure.csv"):
        workloads.check_files(output, {"measure.csv": digest}, {})
    with pytest.raises(workloads.UnitFailure, match="measure.csv"):
        workloads.check_files(output, {}, {"measure.csv": digest})


def test_refuses_to_start_with_thread_knob_set(monkeypatch, capsys):
    monkeypatch.setenv("WALSH_HELSON_THREADS", "2")
    argv = ["--workload", "desk-d13", "--seed", "1", "--seconds", "1"]
    assert run.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "WALSH_HELSON_THREADS" in err


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()
    ]
