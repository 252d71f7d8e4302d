"""The README's Python quick start runs, and its values are the ones its comments show."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The first ``python`` block under the README's "Quick start" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs_and_matches_its_fraction_comments():
    block = quick_start()
    namespace: dict = {}
    exec(block, namespace)
    matches = (re.fullmatch(r"(.*?)#\s*(Fraction\(.*\))\s*", line) for line in block.splitlines())
    claims = [match.groups() for match in matches if match]
    assert len(claims) == 3
    for expression, shown in claims:
        assert repr(eval(expression, namespace)) == shown, expression
