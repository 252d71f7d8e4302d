"""Replay the golden transcript of the command line and the demos.

Each case in ``tests/golden/`` runs in-process, through ``possbox.cli.main``
or as a demo script, and must print the recorded bytes and exit with the
recorded code.  ``golden_corpus.py`` says how the files are written.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden_corpus import PYTHON, load, run_case

REPO = Path(__file__).resolve().parents[1]
CORPUS = load()


def test_corpus_holds_every_group():
    assert sorted(CORPUS) == ["argv-errors", "bounds", "demos", "help", "input-errors", "models", "suites"]


def _differs(case: dict) -> bool:
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


@pytest.mark.parametrize("group", sorted(CORPUS))
def test_group_replays_byte_identical(group):
    differing = [case["name"] for case in CORPUS[group] if _differs(case)]
    assert differing == []


def test_tied_labels_print_the_same_in_a_process_under_two_hash_seeds():
    case = next(case for case in CORPUS["models"] if case["name"] == "to-possibility tied --json")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    for seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-m", "possbox.cli", *case["argv"]],
            input=case["stdin"],
            capture_output=True,
            text=True,
            env=dict(env, PYTHONHASHSEED=seed),
            timeout=60,
        )
        assert (done.stdout, done.stderr, done.returncode) == (case["stdout"], case["stderr"], case["exit"]), seed
