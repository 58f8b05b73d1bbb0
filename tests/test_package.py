"""Package-wide guards: configuration comes from arguments only, the
construction's constants are not arguments, and no certificate draws
random numbers."""

import dataclasses
import inspect
import re
from pathlib import Path

import walshriesz
from walshriesz import martingale, riesz, trig
from walshriesz.rudin_shapiro import _MAX_PAIR_LEVEL

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
    assert "level_cap" not in params(riesz.build_measure) | params(trig.build_trig_measure)
    assert "deltas" not in params(martingale.singularity_report)
    assert "deltas" not in {f.name for f in dataclasses.fields(martingale.SingularityReport)}
    cap = inspect.signature(riesz.choose_next_level).parameters["level_cap"].default
    assert cap == _MAX_PAIR_LEVEL == 20


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
