"""The README's library tour runs as written against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    tour = re.search(r"## Library tour\s*```python\n(.*?)```", text, re.DOTALL)
    assert tour is not None, "README.md has no python block under 'Library tour'"
    exec(compile(tour.group(1), str(README), "exec"), {})
