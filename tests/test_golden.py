"""Replay the golden transcript of the command line and the demos.

Each case in ``tests/golden/`` runs in-process, through ``possbox.cli.main``
or as a demo script, and must print the recorded bytes and exit with the
recorded code.  ``golden_corpus.py`` says how the files are written.
"""

import pytest
from conftest import run_process
from golden_corpus import differs, load

CORPUS = load()


def test_corpus_holds_every_group():
    assert sorted(CORPUS) == ["argv-errors", "bounds", "demos", "help", "input-errors", "models", "suites"]


@pytest.mark.parametrize("group", sorted(CORPUS))
def test_group_replays_byte_identical(group):
    differing = [case["name"] for case in CORPUS[group] if differs(case)]
    assert differing == []


#: Models whose labels tie on a value; the ``three`` marginals' vectors hold several points.
TIED_CASES = (
    "to-possibility tied --json",
    "decompose tied --json",
    "from-possibility tied --json",
    "joint three frechet --json",
)


def test_tied_labels_print_the_same_in_a_process_under_two_hash_seeds():
    cases = [case for case in CORPUS["models"] if case["name"] in TIED_CASES]
    assert sorted(case["name"] for case in cases) == sorted(TIED_CASES)
    for case in cases:
        for seed in ("0", "1"):
            done = run_process(case["argv"], stdin=case["stdin"], PYTHONHASHSEED=seed)
            got = (done.stdout, done.stderr, done.returncode)
            assert got == (case["stdout"], case["stderr"], case["exit"]), (case["name"], seed)
