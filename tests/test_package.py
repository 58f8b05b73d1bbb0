"""Package-wide guards: configuration comes from arguments only, and no
certificate draws random numbers."""

import re
from pathlib import Path

import walshriesz

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
