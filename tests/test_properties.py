"""Property-based checks over randomly drawn small instances.

The exhaustive sweeps in possbox.verify cover fixed grids; these tests let
hypothesis explore the same invariants from a different angle (shrinking
towards minimal counterexamples instead of enumerating).
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import cover_classes

from possbox import (
    Chain,
    PBox,
    PossibilityDistribution,
    credal_upper,
    exhaustive_max_preserving,
    is_maxitive,
    pbox_to_possibility,
    possibility_to_pbox,
)

GRID8 = tuple(Fraction(k, 8) for k in range(9))


@st.composite
def grid_pboxes(draw, max_m: int = 4):
    m = draw(st.integers(1, max_m))
    chain = Chain([[f"x{i}"] for i in range(m)])
    upper = sorted(draw(st.lists(st.sampled_from(GRID8), min_size=m, max_size=m)))
    upper[-1] = Fraction(1)
    lower = []
    running = Fraction(0)
    for i in range(m):
        running = max(running, min(draw(st.sampled_from(GRID8)), upper[i]))
        lower.append(running)
    lower[-1] = Fraction(1)
    return PBox(chain, lower, upper)


@st.composite
def boxes_with_events(draw, max_m: int = 4):
    box = draw(grid_pboxes(max_m))
    labels = sorted(box.chain.labels)
    mask_a = draw(st.integers(0, 2 ** len(labels) - 1))
    mask_b = draw(st.integers(0, 2 ** len(labels) - 1))
    event_a = frozenset(x for k, x in enumerate(labels) if mask_a >> k & 1)
    event_b = frozenset(x for k, x in enumerate(labels) if mask_b >> k & 1)
    return box, event_a, event_b


@st.composite
def grid_distributions(draw, max_size: int = 5):
    size = draw(st.integers(1, max_size))
    values = [draw(st.sampled_from(GRID8)) for _ in range(size)]
    values[draw(st.integers(0, size - 1))] = Fraction(1)
    return PossibilityDistribution({f"e{k}": v for k, v in enumerate(values)})


@settings(derandomize=True)
@given(boxes_with_events())
def test_bounds_are_ordered_and_conjugate(case):
    box, event_a, _ = case
    lower = box.lower(event_a)
    upper = box.upper(event_a)
    assert 0 <= lower <= upper <= 1
    assert lower == 1 - box.upper(box.chain.complement(event_a))


@settings(derandomize=True)
@given(boxes_with_events())
def test_monotone_and_subadditive(case):
    box, event_a, event_b = case
    union = event_a | event_b
    assert box.upper(event_a) <= box.upper(union)
    assert box.lower(event_a) <= box.lower(union)
    assert box.upper(union) <= box.upper(event_a) + box.upper(event_b)


@settings(derandomize=True)
@given(boxes_with_events())
def test_lower_superadditive_on_disjoint(case):
    box, event_a, event_b = case
    disjoint_b = event_b - event_a
    assert box.lower(event_a | disjoint_b) >= box.lower(event_a) + box.lower(disjoint_b)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(boxes_with_events(max_m=3))
def test_formula_agrees_with_credal_oracle(case):
    box, event_a, _ = case
    assert box.upper(event_a) == credal_upper(box, event_a)


@settings(derandomize=True)
@given(boxes_with_events())
def test_minimal_cover_properties(case):
    box, event_a, _ = case
    chain = box.chain
    cover = chain.minimal_cover(event_a)
    classes = cover_classes(cover)
    covered = frozenset().union(*(chain.classes[i] for i in classes))
    assert event_a <= covered
    assert classes == chain.classes_hit(event_a)
    assert chain.minimal_cover(covered) == cover


@settings(derandomize=True, max_examples=60, deadline=None)
@given(grid_pboxes(max_m=3))
def test_maxitivity_decision_matches_semantics(box):
    semantic = exhaustive_max_preserving(box)
    assert is_maxitive(box) == semantic
    pi = pbox_to_possibility(box)
    assert (pi is not None) == semantic


@settings(derandomize=True)
@given(grid_distributions(), st.integers(0, 2**5 - 1))
def test_possibility_round_trip(pi, mask):
    box = possibility_to_pbox(pi)
    labels = sorted(pi.labels)
    event = frozenset(x for k, x in enumerate(labels) if mask >> k & 1 and k < len(labels))
    assert box.upper(event) == pi.measure(event)
    rebuilt = pbox_to_possibility(box)
    assert rebuilt is not None
    assert all(rebuilt[x] == pi[x] for x in labels)


@settings(derandomize=True)
@given(grid_pboxes())
def test_interval_forms_match_general_route(box):
    # The paper's interval formula, kept here as the reference: the order
    # interval spanning classes lo..hi has upper probability
    # upper(hi) - lower(lo - 1), and an interval spanning no class has 0.
    chain = box.chain
    for i, cls in enumerate(chain.classes):
        assert box.singleton_upper(sorted(cls)[0]) == box.upper(cls)
        for j in range(i + 1, chain.m):
            # (x, y], [x, y], (x, y) and [x, y) for x in class i and y in class j.
            for lo in (i + 1, i):
                for hi in (j, j - 1):
                    value = box.upper(chain.class_range_labels(lo, hi))
                    if lo <= hi:
                        assert value == box.upper_at(hi) - box.lower_at(lo - 1)
                    else:
                        assert value == 0
