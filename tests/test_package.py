"""Package-wide guards: configuration comes from arguments only, the
construction's constants are not arguments, and no certificate draws
random numbers."""

import dataclasses
import inspect
import re
import sys
from pathlib import Path

import pytest

import walshriesz
from walshriesz import cli, martingale, riesz, trig
from walshriesz.rudin_shapiro import _MAX_PAIR_LEVEL, build_pair

SRC = Path(walshriesz.__file__).parent


def test_no_environment_knobs():
    readers = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if re.search(r"\b(environ|getenv)\b", path.read_text())
    ]
    assert readers == []
    assert not hasattr(walshriesz, "thread_cap")
    assert "thread_cap" not in walshriesz.__all__


def test_no_argparse_internals():
    # the CLI reads its flags through argparse's public API only
    users = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if re.search(r"\._actions\b|_SubParsersAction", path.read_text())
    ]
    assert users == []


def test_console_scripts_are_cli_commands(monkeypatch, capsys):
    # every [project.scripts] entry names a runner in walshriesz.cli for
    # the command of its own name; a regex reads the file, as Python 3.10
    # has no tomllib
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    scripts = re.findall(r'^([\w-]+)\s*=\s*"([\w.]+):(\w+)"', section, re.M)
    assert len(scripts) == len(re.findall(r"^\s*[^#\s]", section, re.M)) > 0
    for name, module, attr in scripts:
        assert module == "walshriesz.cli", name
        runner = getattr(cli, attr)
        monkeypatch.setattr(sys, "argv", [name, "--help"])
        with pytest.raises(SystemExit) as info:
            runner()
        assert info.value.code == 0, name
        assert capsys.readouterr().out.startswith(f"usage: walshriesz {name} "), name


def test_no_random_numbers():
    drawers = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if re.search(r"np\.random|default_rng", path.read_text())
    ]
    assert drawers == []


def test_construction_constants_are_not_parameters():
    # C = 2 + sqrt2, the buildable level range and the concentration
    # fractions are fixed: manifests record and rebuild with them only
    def params(fn):
        return set(inspect.signature(fn).parameters)

    for fn in (riesz.make_factor, riesz.add_factor, riesz.choose_next_level,
               trig.build_trig_flat, trig._choose_trig_level, trig.build_trig_measure):
        assert "c" not in params(fn), fn.__name__
    for fn in (riesz.build_measure, riesz.choose_next_level, trig.build_trig_measure):
        assert "level_cap" not in params(fn), fn.__name__
    assert "deltas" not in params(martingale.singularity_report)
    assert "deltas" not in {f.name for f in dataclasses.fields(martingale.SingularityReport)}
    # the level rule has no cap: level 20 bounds only the pairs built as arrays
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if "_MAX_PAIR_LEVEL" in path.read_text()] == ["rudin_shapiro.py"]
    assert _MAX_PAIR_LEVEL == 20 and len(build_pair(_MAX_PAIR_LEVEL).p) == 1 << 20
    with pytest.raises(ValueError, match=r"level 21 outside \[0, 20\]"):
        build_pair(_MAX_PAIR_LEVEL + 1)


def test_product_state_is_its_factors():
    # the depth chooses the positivity method and coordinate 63 is a fixed
    # bound, so neither is a parameter of the state or of its builders
    assert [f.name for f in dataclasses.fields(riesz.RieszProductState)] == ["factors"]
    assert not inspect.signature(riesz.empty_state).parameters
    assert list(inspect.signature(riesz.build_measure).parameters) == ["psi", "stages", "budget"]
    assert riesz.state_manifest(riesz.empty_state()) == {
        "flatness_constant": riesz.FLATNESS_CONSTANT,
        "stages": [],
    }


def test_series_checks_take_only_the_series():
    # each size limit is checked where its memory would be allocated, so
    # neither the reader nor the positivity check takes a hook or a
    # caller's limb width
    assert list(inspect.signature(walshriesz.series_from_csv).parameters) == ["source"]
    assert list(inspect.signature(martingale.check_positivity_equivalence).parameters) == ["series"]
