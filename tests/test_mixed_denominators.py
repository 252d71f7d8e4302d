"""Natural extension on boxes whose values mix several denominators.

``PBox`` computes on integer numerators over the lcm of all its
denominators.  The sweeps elsewhere use one grid, where that lcm is the
grid itself; here each box mixes thirds, quarters, sevenths, decimal
strings and large pairwise coprime denominators, and every event is
compared with a ``Fraction``-only gap loop written out below.
"""

import random
from fractions import Fraction

import pytest
from conftest import every_event

from possbox import Chain, PBox
from possbox.oracle import credal_lower, credal_upper

#: Two primes and a power of 3: pairwise coprime, and coprime to 3, 4, 7 and 20.
LARGE = (2**61 - 1, 10**9 + 7, 3**40)

#: Value strings, each read by ``exact`` in the form it is written in.
POOL = (
    "0",
    "1/3",
    "2/3",
    "1/4",
    "3/4",
    "2/7",
    "5/7",
    "0.15",
    "0.6",
    "1e-1",
    "1/2",
    *(f"{d // k}/{d}" for d, k in zip(LARGE, (3, 2, 5))),
    *(f"{d - 1}/{d}" for d in LARGE),
    "1",
)

#: Class sizes of the chains swept, tied classes included.
SHAPES = (
    (1,),
    (1, 1),
    (2, 1),
    (1, 1, 1),
    (1, 2, 1),
    (2, 1, 2),
    (1, 1, 1, 1),
    (2, 1, 1, 2),
    (1, 1, 1, 1, 1),
    (1, 2, 1, 1, 1),
)

BOXES_PER_SHAPE = 6


def gap_loop_upper(classes, lower, upper, event):
    """Upper probability by the ``Fraction`` gap loop, from the document alone.

    The runs of consecutive classes the event hits are found here; each gap
    before a run, and the gap after the last one, forces
    ``max(0, lower[left end of the next run] - upper[right end of the previous])``,
    with both vectors read as 0 below the bottom class.
    """
    m = len(classes)
    hit = [any(label in event for label in cls) for cls in classes]
    runs = []
    for i in range(m):
        if hit[i] and (i == 0 or not hit[i - 1]):
            runs.append([i - 1, i])
        elif hit[i]:
            runs[-1][1] = i

    def at(vec, i):
        return Fraction(0) if i < 0 else Fraction(vec[i])

    forced = Fraction(0)
    prev_right = -1
    for left, right in (*runs, (m - 1, None)):
        gap = at(lower, left) - at(upper, prev_right)
        if gap > 0:
            forced += gap
        prev_right = right
    return 1 - forced


def mixed_box(rng, sizes):
    """A document on classes of ``sizes`` whose vectors are drawn from ``POOL``."""
    classes = []
    for i, size in enumerate(sizes):
        classes.append([f"c{i}{chr(ord('a') + k)}" for k in range(size)])
    lower, upper = [], []
    for _ in range(len(sizes) - 1):
        pair = sorted(rng.sample(POOL, 2), key=Fraction)
        # Running maxima keep both vectors non-decreasing and lower <= upper.
        lower.append(max([pair[0], *lower[-1:]], key=Fraction))
        upper.append(max([pair[1], *upper[-1:]], key=Fraction))
    return classes, [*lower, "1"], [*upper, "1"]


def mixed_boxes():
    rng = random.Random(20240611)
    return [(sizes, *mixed_box(rng, sizes)) for sizes in SHAPES for _ in range(BOXES_PER_SHAPE)]


MIXED = mixed_boxes()


def test_the_boxes_mix_denominators():
    denominators = {Fraction(v).denominator for _, _, lo, up in MIXED for v in lo + up}
    assert {3, 4, 7, 20} <= denominators
    assert any(d in denominators for d in LARGE)
    assert any(
        len({Fraction(v).denominator for v in lo + up} - {1}) >= 3 for _, _, lo, up in MIXED
    )


def box_ids(boxes):
    return [f"{''.join(map(str, sizes))}-{i}" for i, (sizes, *_) in enumerate(boxes)]


@pytest.mark.parametrize("sizes, classes, lower, upper", MIXED, ids=box_ids(MIXED))
def test_upper_and_lower_match_the_fraction_gap_loop(sizes, classes, lower, upper):
    box = PBox(Chain(classes), lower, upper)
    labels = box.chain.labels
    for event in every_event(labels):
        expected = gap_loop_upper(classes, lower, upper, event)
        assert box.upper(event) == expected, (lower, upper, sorted(event))
        assert box.lower(event) == 1 - gap_loop_upper(classes, lower, upper, labels - event)
    assert box.lower_cdf == tuple(Fraction(v) for v in lower)
    assert box.upper_cdf == tuple(Fraction(v) for v in upper)


SMALL = [box for box in MIXED if len(box[0]) <= 3]


@pytest.mark.parametrize("sizes, classes, lower, upper", SMALL, ids=box_ids(SMALL))
def test_upper_and_lower_match_the_oracle(sizes, classes, lower, upper):
    box = PBox(Chain(classes), lower, upper)
    for event in every_event(box.chain.labels):
        assert box.upper(event) == credal_upper(box, event), (lower, upper, sorted(event))
        assert box.lower(event) == credal_lower(box, event), (lower, upper, sorted(event))


def test_runs_from_the_bottom_the_top_class_alone_and_the_empty_event():
    # Common denominator 420 * (2**61 - 1); the answers come back in lowest terms.
    d = LARGE[0]
    classes = [["a"], ["b", "b2"], ["c"], ["d"]]
    lower = ["1/4", "0.3", f"{d // 2}/{d}", "1"]
    upper = ["1/3", "2/3", "5/7", "1"]
    box = PBox(Chain(classes), lower, upper)
    # A run starting at class 0 reads lower at the sentinel, 0.
    assert box.upper({"a"}) == Fraction(1, 3)
    assert box.upper({"a", "b"}) == Fraction(2, 3)
    assert box.upper({"a", "c"}) == Fraction(5, 7)
    assert box.upper({"a", "d"}) == 1 - (Fraction(d // 2, d) - Fraction(1, 3))
    # The top class alone: the one gap below it is forced by lower at class 2.
    assert box.upper({"d"}) == 1 - Fraction(d // 2, d)
    assert box.lower({"d"}) == Fraction(2, 7)
    # The empty event has no runs: the last gap spans the whole chain.
    assert box.upper(frozenset()) == 0
    assert box.lower(frozenset()) == 0
    assert box.upper({"a", "b2", "c", "d"}) == box.lower({"a", "b", "b2", "c", "d"}) == 1
    for event in ({"a"}, {"a", "c"}, {"a", "d"}, {"d"}, frozenset(), {"b", "d"}):
        value = box.upper(event)
        assert value == gap_loop_upper(classes, lower, upper, event)
        assert type(value) is Fraction
