"""The golden transcript of the command line: its cases, how one runs, how the files are written.

``tests/golden/*.json`` holds one group of cases per file.  A CLI case is
the argv of ``possbox`` and the document it reads on stdin, with the
stdout, stderr and exit code they gave; a demo case is a script under
``demos/`` with its stdout.  ``test_golden.py`` replays every case
in-process and compares the bytes.

Text that argparse or another standard module words (help, usage errors,
the limit on integer digits) is marked ``stdlib_text`` with the Python
version that wrote it; on another version only its shape is compared.

Write the files from the source tree of the commit under comparison, never
from the change being checked::

    python tests/golden_corpus.py --tree PATH

``PATH`` is a checkout or an unpacked ``git archive``.  The script uses the
standard library alone: it imports ``possbox`` from ``PATH/src``, runs the
demos of ``PATH/demos`` and rewrites ``tests/golden/`` beside itself.

Replay the files against the checkout holding this script, with the same
comparison as ``test_golden.py`` and no pytest, on any installed Python::

    python tests/golden_corpus.py --check

It names each case that differs and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import runpy
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
REPO = GOLDEN.parents[1]
PYTHON = "{}.{}".format(*sys.version_info)

# ------------------------------------------------------------------ models

BOXES = {
    "tied": {"classes": [["b", "a"], ["c"], ["e", "d"]], "lower": ["1/4", "1/2", "1"], "upper": ["1/2", "3/4", "1"]},
    "zero-one": {"classes": [["a"], ["b"], ["c"], ["d"]], "lower": ["0", "0", "1", "1"], "upper": ["0", "1", "1", "1"]},
    "maxitive": {"classes": [["a"], ["b"], ["c"]], "lower": ["0", "0", "1"], "upper": ["1/2", "4/5", "1"]},
    "general": {"classes": [["a"], ["b"], ["c"]], "lower": ["1/5", "2/5", "1"], "upper": ["1/2", "4/5", "1"]},
    "mixed": {"classes": [["a"], ["b"], ["c"]], "lower": ["0.25", "1/3", "1"], "upper": ["2/7", "1/2", "1"]},
}
#: Events asked of each box: the empty event, one label, and labels in two runs.
EVENTS = {
    "tied": ("", "a", "a,e"),
    "zero-one": ("", "b", "a,c"),
    "maxitive": ("", "b", "a,c"),
    "general": ("", "b", "a,c"),
    "mixed": ("", "b", "a,c"),
}
PIS = {
    "tied": {"pi": {"z": "1/2", "y": "1", "x": "1/2", "w": "0"}},
    "two-point": {"pi": {"x1": "1/2", "x2": "1"}},
    "flat": {"pi": {"b": "1", "a": "1"}},
}
MARGINALS = {
    "two": {"marginals": [{"u": "1/2", "v": "1"}, {"s": "3/10", "t": "1"}]},
    "three": {"marginals": [{"u": "1/2", "v": "1", "w": "1/2"}, {"s": "1"}, {"p": "1/4", "q": "1"}]},
}
COMMANDS = (
    "validate", "upper", "lower", "is-maxitive", "to-possibility",
    "from-possibility", "decompose", "bounds", "joint", "verify",
)
DEMOS = ("conjunction", "conversions", "credal_oracle", "maxitivity", "multivariate", "natural_extension")


def _formats(name: str, argv: list[str], stdin: str = "") -> list[dict]:
    """The case in text and in ``--json``."""
    return [
        {"name": name, "argv": argv, "stdin": stdin},
        {"name": name + " --json", "argv": [*argv, "--json"], "stdin": stdin},
    ]


def _stdlib(name: str, argv: list[str], stdin: str = "") -> dict:
    return {"name": name, "argv": argv, "stdin": stdin, "stdlib_text": True}


def _bounds() -> list[dict]:
    cases = []
    for box, doc in BOXES.items():
        for command in ("upper", "lower", "bounds"):
            for event in EVENTS[box]:
                for complement in ((), ("--complement",)):
                    argv = [command, "--event", event, *complement]
                    name = f"{command} {box} event={event!r}" + "".join(" " + flag for flag in complement)
                    cases += _formats(name, argv, json.dumps(doc))
    return cases


def _models() -> list[dict]:
    cases = []
    for box, doc in BOXES.items():
        for command in ("is-maxitive", "to-possibility", "decompose", "validate"):
            cases += _formats(f"{command} {box}", [command], json.dumps(doc))
    for name, doc in PIS.items():
        cases += _formats(f"from-possibility {name}", ["from-possibility"], json.dumps(doc))
        cases += _formats(f"validate pi {name}", ["validate"], json.dumps(doc))
    for name, doc in MARGINALS.items():
        for rule in ("frechet", "independent", "rsi"):
            cases += _formats(f"joint {name} {rule}", ["joint", "--rule", rule], json.dumps(doc))
    everything = {**BOXES["tied"], **PIS["tied"], **MARGINALS["two"]}
    cases += _formats("validate all three models", ["validate"], json.dumps(everything))
    cases += _formats("validate chain alone", ["validate"], json.dumps({"classes": [["a"], ["b"]]}))
    cases += _formats("upper --input - reads stdin", ["upper", "--input", "-", "--event", "a"], json.dumps(BOXES["general"]))
    return cases


def _input_errors() -> list[dict]:
    box = BOXES["general"]
    bad_boxes = {
        "short vector": {**box, "lower": ["0", "1"]},
        "value outside": {**box, "upper": ["1/2", "6/5", "1"]},
        "decreasing": {**box, "lower": ["1/2", "1/5", "1"]},
        "lower exceeds upper": {**box, "lower": ["3/5", "3/5", "1"]},
        "top below 1": {**box, "lower": ["1/5", "2/5", "9/10"], "upper": ["1/2", "4/5", "9/10"]},
        "bool value": {**box, "lower": [False, "2/5", "1"]},
        "bad number": {**box, "lower": ["x", "2/5", "1"]},
        "division by zero": {**box, "lower": ["1/0", "2/5", "1"]},
        "1e400": {**box, "lower": ["1e400", "2/5", "1"]},
        "1e5000": {**box, "lower": ["1e5000", "2/5", "1"]},
    }
    bad_models = {
        "not an object": [],
        "no model": {},
        "classes not lists": {"classes": "ab", "lower": ["1"], "upper": ["1"]},
        "list label": {"classes": [[["a"]]], "lower": ["1"], "upper": ["1"]},
        "int label": {"classes": [[1], [2]], "lower": ["0", "1"], "upper": ["1", "1"]},
        "no classes": {"classes": []},
        "empty class": {"classes": [["a"], []], "lower": ["0", "1"], "upper": ["1", "1"]},
        "duplicate label": {"classes": [["a", "b"], ["c", "b", "a"]], "lower": ["0", "1"], "upper": ["1", "1"]},
        "lower missing": {"classes": [["a"]], "upper": ["1"]},
        **bad_boxes,
    }
    cases = [
        {"name": f"validate {name}", "argv": ["validate"], "stdin": json.dumps(doc)} for name, doc in bad_models.items()
    ]
    cases += [
        {"name": "upper without --event", "argv": ["upper"], "stdin": json.dumps(box)},
        {"name": "upper unknown label", "argv": ["upper", "--event", "b,z,y"], "stdin": json.dumps(box)},
        {"name": "lower unknown label --complement", "argv": ["lower", "--event", "z", "--complement"], "stdin": json.dumps(box)},
        {"name": "bounds without --event", "argv": ["bounds", "--json"], "stdin": json.dumps(box)},
        {"name": "to-possibility of a pi", "argv": ["to-possibility"], "stdin": json.dumps(PIS["tied"])},
        {"name": "from-possibility of a box", "argv": ["from-possibility"], "stdin": json.dumps(box)},
        {"name": "joint of a box", "argv": ["joint", "--rule", "frechet"], "stdin": json.dumps(box)},
        {"name": "cannot read", "argv": ["validate", "--input", "no/such/dir/doc.json"]},
        {"name": "invalid JSON", "argv": ["validate"], "stdin": '{"classes": ['},
        {"name": "not UTF-8", "argv": ["validate"], "stdin": b"\xff\xfe".decode("utf-8", "surrogateescape")},
        _stdlib("long integer", ["validate"], '{"pi": {"a": ' + "1" * 5000 + "}}"),
        {"name": "pi not an object", "argv": ["validate"], "stdin": json.dumps({"pi": ["1"]})},
        {"name": "pi value outside", "argv": ["validate"], "stdin": json.dumps({"pi": {"a": "2", "b": "1"}})},
        {"name": "pi without 1", "argv": ["validate"], "stdin": json.dumps({"pi": {"a": "1/2"}})},
        {"name": "pi tiny decimal", "argv": ["validate"], "stdin": json.dumps({"pi": {"a": "1e-99999999", "b": "1"}})},
        {"name": "marginals empty", "argv": ["validate"], "stdin": json.dumps({"marginals": []})},
        {"name": "marginal not an object", "argv": ["validate"], "stdin": json.dumps({"marginals": [{"a": "1"}, "b"]})},
        {"name": "bad marginal", "argv": ["validate"], "stdin": json.dumps({"marginals": [{"a": "1"}, {"b": "3"}]})},
        {
            "name": "joint label with separator",
            "argv": ["joint", "--rule", "frechet"],
            "stdin": json.dumps({"marginals": [{"a|b": "1", "a": "1/2"}, {"c": "1", "b|c": "1"}]}),
        },
    ]
    for flag, value in (("--max-classes", "0"), ("--max-classes", "-1"), ("--grid", "0"), ("--grid", "-3")):
        cases.append({"name": f"verify {flag} {value}", "argv": ["verify", "--suite", "oracle", flag, value]})
    for suite, size in (("maxitive", "11"), ("conjunction", "9")):
        argv = ["verify", "--suite", suite, "--max-classes", size, "--grid", "1"]
        cases.append({"name": f"verify {suite} past its ceiling", "argv": argv})
    return cases


def _argv_errors() -> list[dict]:
    return [
        _stdlib("no command", []),
        _stdlib("unknown command", ["bogus"]),
        _stdlib("unknown flag", ["upper", "--bogus"]),
        _stdlib("newline in flag", ["upper", "--bo\ngus"]),
        _stdlib("long flag", ["upper", "--" + "x" * 5000]),
        _stdlib("joint without rule", ["joint"]),
        _stdlib("joint unknown rule", ["joint", "--rule", "bogus"]),
        _stdlib("verify without suite", ["verify"]),
        _stdlib("verify unknown suite", ["verify", "--suite", "bogus"]),
        _stdlib("verify non-int grid", ["verify", "--suite", "oracle", "--grid", "x"]),
        _stdlib("verify long grid value", ["verify", "--suite", "oracle", "--grid", "x" * 5000]),
        _stdlib("verify reads no document", ["verify", "--suite", "oracle", "--input", "x"]),
    ]


def _help() -> list[dict]:
    return [_stdlib("--help", ["--help"])] + [_stdlib(f"{command} --help", [command, "--help"]) for command in COMMANDS]


def _suites() -> list[dict]:
    """Every suite of the tree under comparison, in its table's order, at sizes 2 and 3."""
    from possbox.verify import SUITES

    cases = []
    for size in ("2", "3"):
        for suite in SUITES:
            if suite == "multivariate" and size == "3":
                continue  # about 2 s; the default run is pinned by test_acceptance.py
            argv = ["verify", "--suite", suite, "--max-classes", size, "--grid", size]
            name = f"verify {suite} {size}/{size}"
            # --json prints the same report; once per suite is enough.
            cases += _formats(name, argv) if size == "2" else [{"name": name, "argv": argv, "stdin": ""}]
    return cases


def _demos() -> list[dict]:
    return [{"name": f"demo {demo}", "demo": f"{demo}.py"} for demo in DEMOS]


GROUPS = {
    "bounds": _bounds,
    "models": _models,
    "input-errors": _input_errors,
    "argv-errors": _argv_errors,
    "help": _help,
    "suites": _suites,
    "demos": _demos,
}

# ------------------------------------------------------------------- replay


def run_case(case: dict, tree: Path) -> dict:
    """Run one case in this process and return what it printed and its exit code.

    A CLI case goes through ``possbox.cli.main`` as imported now, with its
    document on stdin (a string, its undecodable bytes kept as lone
    surrogates) and an 80-column terminal for help.  A demo case runs
    ``tree/demos/<script>`` as ``__main__``.
    """
    out, err = io.StringIO(), io.StringIO()
    if "demo" in case:
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(tree / "demos" / case["demo"]), run_name="__main__")
        return {"stdout": out.getvalue()}
    from possbox.cli import main

    raw = case.get("stdin", "").encode("utf-8", "surrogateescape")
    saved = sys.stdin, os.environ.get("COLUMNS")
    sys.stdin = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(case["argv"])
            except SystemExit as exc:  # argparse: help, or a usage error
                code = exc.code
    finally:
        sys.stdin = saved[0]
        if saved[1] is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved[1]
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def differs(case: dict) -> bool:
    """Whether a recorded case, replayed against this checkout, gives other output."""
    got = run_case(case, REPO)
    if case.get("stdlib_text", PYTHON) != PYTHON:
        # The standard library words this text, and its wording moves
        # between Python versions; compare its shape only.
        return (
            got["exit"] != case["exit"]
            or (got["stdout"] == "") != (case["stdout"] == "")
            or got["stderr"].count("\n") != case["stderr"].count("\n")
        )
    return got != {key: case[key] for key in got}


def load() -> dict[str, list[dict]]:
    """Every group of the committed corpus, by file stem."""
    return {path.stem: json.loads(path.read_text(encoding="utf-8")) for path in sorted(GOLDEN.glob("*.json"))}


def _import_from(tree: Path) -> None:
    """Import ``possbox`` from ``tree/src`` and from nowhere else."""
    sys.path.insert(0, str(tree / "src"))
    import possbox

    if tree / "src" not in Path(possbox.__file__).resolve().parents:
        raise SystemExit(f"possbox was imported from {possbox.__file__}, not from {tree / 'src'}")


def write(tree: Path) -> None:
    """Run every case against ``tree`` and rewrite the corpus files."""
    _import_from(tree)
    GOLDEN.mkdir(exist_ok=True)
    for group, build in GROUPS.items():
        cases = []
        for case in build():
            if case.pop("stdlib_text", False):
                case["stdlib_text"] = PYTHON
            cases.append({**case, **run_case(case, tree)})
        names = [case["name"] for case in cases]
        if len(set(names)) != len(names):
            raise SystemExit(f"duplicate case names in group {group}")
        text = json.dumps(cases, indent=1) + "\n"
        (GOLDEN / f"{group}.json").write_text(text, encoding="utf-8")
        print(f"{group}: {len(cases)} cases")


def check() -> int:
    """Replay the committed corpus against this checkout; the number of cases that differ."""
    _import_from(REPO)
    failed = 0
    for group, cases in load().items():
        differing = [case["name"] for case in cases if differs(case)]
        print(f"{group}: {len(cases)} cases, {len(differing)} differ")
        for name in differing:
            print(f"  {name}")
        failed += len(differing)
    return failed


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite tests/golden/ from a source tree, or replay it.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--tree", type=Path, help="checkout holding src/possbox and demos/; rewrite the corpus from it")
    mode.add_argument("--check", action="store_true", help="replay the corpus against this checkout; exit 1 if a case differs")
    args = parser.parse_args()
    if args.check:
        sys.exit(1 if check() else 0)
    write(args.tree.resolve())
