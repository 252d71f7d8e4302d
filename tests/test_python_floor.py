"""The oldest Python the package claims (``requires-python = ">=3.10"``), checked offline."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for top in ("src", "tests", "perfbench", "demos") for path in (ROOT / top).rglob("*.py"))


def test_the_walk_finds_the_package_the_tests_the_benchmark_and_the_demos():
    tops = {path.relative_to(ROOT).parts[0] for path in SOURCES}
    assert tops == {"src", "tests", "perfbench", "demos"}
    assert ROOT / "src" / "possbox" / "cli.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_every_source_file_parses_as_python_3_10(path):
    """Catches syntax newer than 3.10 (``except*``, PEP 695 generics, ...) on any interpreter.

    It does not catch standard-library APIs newer than 3.10, such as
    ``tomllib`` or ``datetime.UTC``: those parse fine and fail only at run
    time on 3.10 itself.
    """
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
