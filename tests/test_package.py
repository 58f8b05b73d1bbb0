"""Package-wide guards: configuration comes from arguments only."""

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
