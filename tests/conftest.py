import pytest

from possbox import Chain, PBox
from possbox.chain import class_subsets


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


def cover_classes(cover):
    """The class indices a cover's runs span, ascending: ``l + 1 .. r`` for each run ``(l, r]``."""
    return tuple(i for left, right in cover.runs for i in range(left + 1, right + 1))


def every_event(labels):
    """Every event over ``labels``: the subsets of the sorted labels in :func:`class_subsets` order."""
    listed = sorted(labels)
    return [frozenset(listed[j] for j in subset) for subset in class_subsets(len(listed))]
