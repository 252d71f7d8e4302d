import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import possbox
from possbox import Chain, MarginalFamily, PBox, PossibilityDistribution, oracle
from possbox.chain import class_subsets
from possbox.verify import default_chain, iter_chain_pboxes

#: Chains with tied classes: more labels, so more of the oracle's mass
#: variables, than classes.
TIED_CHAINS = (
    Chain([["a", "b"], ["c"]]),
    Chain([["a"], ["b", "c", "d"]]),
    Chain([["a", "b"], ["c"], ["d", "e"]]),
)


@pytest.fixture(scope="session")
def grid4_boxes() -> tuple[PBox, ...]:
    """Every grid-4 box of at most four classes (611), then those on :data:`TIED_CHAINS` (15 + 15 + 105)."""
    boxes = [box for m in range(1, 5) for box in iter_chain_pboxes(default_chain(m), 4)]
    return tuple(boxes + [box for chain in TIED_CHAINS for box in iter_chain_pboxes(chain, 4)])


@pytest.fixture
def write_doc(tmp_path):
    """Write a JSON document under ``tmp_path``; return its path."""
    def _write(doc, name="doc.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return _write


@pytest.fixture
def chain3() -> Chain:
    return Chain([["a"], ["b"], ["c"]])


@pytest.fixture
def p1(chain3: Chain) -> PBox:
    """Maxitive box: zero lower vector below the top."""
    return PBox(chain3, ["0", "0", "1"], ["1/2", "4/5", "1"])


@pytest.fixture
def p2(chain3: Chain) -> PBox:
    """Non-maxitive box: both vectors take values strictly inside (0, 1)."""
    return PBox(chain3, ["1/5", "2/5", "1"], ["1/2", "4/5", "1"])


@pytest.fixture
def q(chain3: Chain) -> PBox:
    """Box with a 0-1 upper vector."""
    return PBox(chain3, ["0", "2/5", "1"], ["0", "1", "1"])


@pytest.fixture
def r(chain3: Chain) -> PBox:
    """Box with both vectors 0-1 and distinct zero prefixes."""
    return PBox(chain3, ["0", "0", "1"], ["0", "1", "1"])


@pytest.fixture
def precise(chain3: Chain) -> PBox:
    """Degenerate 0-1 box: all mass forced onto the middle class."""
    return PBox(chain3, ["0", "1", "1"], ["0", "1", "1"])


def cover_classes(runs):
    """The class indices a cover's runs span, ascending: ``l + 1 .. r`` for each run ``(l, r]``."""
    return tuple(i for left, right in runs for i in range(left + 1, right + 1))


def every_event(labels):
    """Every event over ``labels``: the subsets of the sorted labels in :func:`class_subsets` order."""
    listed = sorted(labels)
    return [frozenset(listed[j] for j in subset) for subset in class_subsets(len(listed))]


def forbid_lp(patch):
    """Have ``patch`` make the oracle fail whoever poses a linear program."""

    def refuse(*args, **kwargs):
        raise AssertionError("an LP was posed")

    patch.setattr(oracle, "Region", refuse)
    patch.setattr(oracle, "simplex_max", refuse)


def public_names():
    """``possbox.__all__`` and the public attributes of the model classes, as ``Class.name``."""
    names = set(possbox.__all__)
    for cls in (Chain, PBox, PossibilityDistribution, MarginalFamily):
        names.update(f"{cls.__name__}.{name}" for name in dir(cls) if not name.startswith("_"))
    return names


def run_process(argv, timeout=60, python=("-m", "possbox.cli"), stdin=None, **env):
    """``python -m possbox.cli`` (or other ``python`` arguments) in a fresh process fed ``stdin``, with a time limit."""
    source = str(Path(possbox.__file__).resolve().parents[1])
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *python, *argv], input=stdin, capture_output=True, text=True, env=env, timeout=timeout
    )
