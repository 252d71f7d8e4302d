from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from conftest import TIED_CHAINS, every_event
from test_contract import BAD_BOXES, assert_refusal
from test_rationals import Text

import possbox.rationals
from possbox import Chain, PBox
from possbox.rationals import MAX_DIGITS, exact
from possbox.verify import default_chain


#: ``(chain, lower, upper)`` written with repeats, other spellings of equal
#: values, non-strings among strings, and strings shared by both vectors.
MIXED_SPELLINGS = (
    (TIED_CHAINS[0], ["1/2", "1"], ["1/2", 1]),
    (TIED_CHAINS[1], [Fraction(1, 2), "1"], [" 1/2 ", "1"]),
    (TIED_CHAINS[2], ["1/2", "0.5", "1"], ["2/4", "3/4", "1.0"]),
    (default_chain(4), ["0", "0.25", "1/4", 1], ["1/2", "0.5", "2/4", "1"]),
    (default_chain(4), ["1/4", "1/4", "1/2", "1"], ["1/2", "1/2", "1", "1"]),
)


@pytest.mark.parametrize("chain, lower, upper", MIXED_SPELLINGS)
def test_a_box_reading_strings_once_equals_one_read_entry_by_entry(chain, lower, upper):
    box = PBox(chain, lower, upper)
    by_entry = [tuple(exact(v) for v in vec) for vec in (lower, upper)]
    assert [box.lower_cdf, box.upper_cdf] == by_entry
    for q in box.lower_cdf + box.upper_cdf:
        assert type(q) is Fraction and gcd(q.numerator, q.denominator) == 1
    reference = PBox(chain, *by_entry)
    for event in every_event(chain.labels):
        assert (box.upper(event), box.lower(event)) == (reference.upper(event), reference.lower(event))


def test_a_build_reads_each_distinct_string_once_and_keeps_nothing(chain3, monkeypatch):
    calls = []

    def counted(value):
        calls.append(value)
        return exact(value)

    monkeypatch.setattr(possbox.rationals, "exact", counted)
    lower, upper = ["0", "0", "1"], ["1/2", "0.5", "1"]
    for _ in range(2):
        calls.clear()
        PBox(chain3, lower, upper)
        assert calls == ["0", "1", "1/2", "0.5"]
    calls.clear()
    PBox(chain3, [0, Fraction(0), "1"], [Fraction(1, 2), 1, "1"])
    assert calls == [0, Fraction(0), "1", Fraction(1, 2), 1]


#: ``(lower, upper, the exact error line)``: bad strings that repeat, or sit in
#: both vectors; the first in the caller's order, lower before upper, is named.
REPEATED_BAD_STRINGS = (
    (["0", "x", "x"], ["1", "1", "1"], "not an exact rational: 'x'"),
    (["0", "1/0", "x"], ["x", "1/0", "1"], "not an exact rational: '1/0'"),
    (["0", "0", "q"], ["p", "q", "1"], "not an exact rational: 'q'"),
    (["0", "0", "1"], ["1e2000", "1e2000", "1"], f"refusing '1e2000': length or exponent over {MAX_DIGITS}"),
    (["0", "3/2", "3/2"], ["3/2", "3/2", "1"], "lower[1] = 3/2 outside [0, 1]"),
)


@pytest.mark.parametrize("lower, upper, message", REPEATED_BAD_STRINGS)
def test_the_first_bad_string_is_named_when_it_repeats(chain3, lower, upper, message):
    for _ in range(2):  # nothing read in one build is kept for the next
        with pytest.raises(ValueError) as raised:
            PBox(chain3, lower, upper)
        assert str(raised.value) == message


LONG_VALUE = "1" + "0" * 39 + "... (401 characters)"


#: The constructor's refusals are the box-* rows of test_contract.REFUSALS;
#: this one keeps the id it had among them when they were listed here.
@pytest.mark.parametrize(
    "lower, upper, message",
    [pytest.param(*BAD_BOXES["box-long-value"], id=f"lower6-upper6-upper[1] = {LONG_VALUE} outside [0, 1]")],
)
def test_constructor_error_lines(chain3, lower, upper, message):
    assert_refusal(lambda: PBox(chain3, lower, upper), message)


def test_error_lines_cut_long_values(chain3):
    # In either vector the line keeps the head of a long value and counts its characters.
    assert_refusal(lambda: PBox(chain3, ["0", "0", "1"], ["1/2", "1e400", "1"]), f"upper[1] = {LONG_VALUE} outside [0, 1]")
    assert_refusal(lambda: PBox(chain3, ["0", "1e400", "1"], ["1/2", "1", "1"]), f"lower[1] = {LONG_VALUE} outside [0, 1]")


def refused_first(lower, upper):
    """The line a box on three classes is refused with, its checks run in order, or ``None``.

    The order: range then monotonicity of lower, the same of upper, lower
    <= upper index by index, then the top class.
    """
    for name, vec in (("lower", lower), ("upper", upper)):
        outside = next((i for i, v in enumerate(vec) if not 0 <= v <= 1), None)
        if outside is not None:
            return f"{name}[{outside}] = {vec[outside]} outside [0, 1]"
        if any(b < a for a, b in zip(vec, vec[1:])):
            return f"{name} cumulative vector must be non-decreasing"
    crossed = next((i for i in range(3) if lower[i] > upper[i]), None)
    if crossed is not None:
        return f"lower[{crossed}] = {lower[crossed]} exceeds upper[{crossed}] = {upper[crossed]}"
    if lower[2] != 1 or upper[2] != 1:
        return "both cumulative vectors must equal 1 at the top class"
    return None


def test_every_small_box_is_built_or_refused_for_its_first_fault(chain3):
    # 125 x 125 pairs of vectors over five values, two of them outside [0, 1].
    vectors = list(product(("-1/2", "0", "1/2", "1", "3/2"), repeat=3))
    wrong = []
    for lower in vectors:
        for upper in vectors:
            try:
                PBox(chain3, lower, upper)
                line = None
            except ValueError as exc:
                line = str(exc)
            expected = refused_first([Fraction(v) for v in lower], [Fraction(v) for v in upper])
            if line != expected:
                wrong.append((lower, upper, line, expected))
    assert wrong == []


@pytest.mark.parametrize("lower, upper, line", [*BAD_BOXES.values(), (["0", "1/2", "1"], ["1/2", "0.5", "1"], None)])
def test_a_str_subclass_builds_and_is_refused_as_a_str(chain3, lower, upper, line):
    # A build keys only exact str values, so it reads each of these through exact entry by entry.
    as_text = [[Text(v) if isinstance(v, str) else v for v in vec] for vec in (lower, upper)]
    if line is None:
        assert PBox(chain3, *as_text) == PBox(chain3, lower, upper)
    else:
        assert_refusal(lambda: PBox(chain3, *as_text), line)


def test_exact_bounds_decimal_strings():
    assert exact(f"1e-{MAX_DIGITS}") == Fraction(1, 10**MAX_DIGITS)
    assert exact("0." + "0" * (MAX_DIGITS - 3) + "1") == Fraction(1, 10 ** (MAX_DIGITS - 2))
    # One digit past either bound is refused: rows exact-*-exponent and exact-many-digits of test_contract.REFUSALS.


def test_cumulative_accessors(p1):
    assert p1._lower_at(-1) == 0
    assert p1._upper_at(-1) == 0
    assert p1._upper_at(1) == Fraction(4, 5)
    assert p1._lower_at(2) == 1


def test_upper_frozen_values(p1):
    assert p1.upper({"a"}) == Fraction(1, 2)
    assert p1.upper({"b"}) == Fraction(4, 5)
    assert p1.upper({"a", "b"}) == Fraction(4, 5)
    assert p1.upper({"a", "c"}) == 1
    assert p1.upper({"a", "b", "c"}) == 1
    assert p1.upper(frozenset()) == 0


def test_lower_frozen_values(p1):
    assert p1.lower({"a"}) == 0
    assert p1.lower({"c"}) == Fraction(1, 5)
    assert p1.lower({"b", "c"}) == Fraction(1, 2)
    assert p1.lower({"a", "b", "c"}) == 1


def test_upper_on_down_and_up_sets_matches_vectors(p2):
    # On events of the form [bottom, x] the upper value is the upper
    # cumulative vector itself; on (y, top] it is one minus the lower vector.
    chain = p2.chain
    for i in range(chain.m):
        down = chain.class_range_labels(0, i)
        assert p2.upper(down) == p2.upper_cdf[i]
        up = chain.class_range_labels(i + 1, chain.m - 1)
        if up:
            assert p2.upper(up) == 1 - p2.lower_cdf[i]


def test_interval_forms_by_class_range(p2):
    # An order interval is the event of the classes it spans.  With a, b, c
    # the classes 0, 1, 2, (a, b] and (a, c) both span class 1 alone, and
    # [a, b] and [a, c) both span classes 0..1.
    span = p2.chain.class_range_labels
    # (a, b] takes the cumulative gap directly.
    assert p2.upper(span(1, 1)) == Fraction(4, 5) - Fraction(1, 5)
    # [a, b] reaches one class further down.
    assert p2.upper(span(0, 1)) == Fraction(4, 5)


def test_open_interval_between_adjacent_points_is_empty(p2):
    # (a, b) contains no class at all, so its upper value must be zero even
    # though the cumulative gap between the endpoints is positive.
    assert p2.chain.class_range_labels(1, 0) == frozenset()
    assert p2.upper(p2.chain.class_range_labels(1, 0)) == 0


def test_singleton_upper(p2):
    assert p2.upper({"a"}) == Fraction(1, 2)
    assert p2.upper({"b"}) == Fraction(4, 5) - Fraction(1, 5)
    assert p2.upper({"c"}) == Fraction(3, 5)


def test_upper_is_monotone_and_subadditive(p2):
    events = every_event(p2.chain.labels)
    for small in events:
        for large in events:
            if small <= large:
                assert p2.upper(small) <= p2.upper(large)
                assert p2.lower(small) <= p2.lower(large)
            union = small | large
            assert p2.upper(union) <= p2.upper(small) + p2.upper(large)


def test_multi_element_class_shares_class_value():
    chain = Chain([["a", "b"], ["c"]])
    box = PBox(chain, ["1/4", "1"], ["3/4", "1"])
    assert box.upper({"a"}) == box.upper({"b"}) == box.upper({"a", "b"})
    assert box.lower({"a"}) == box.lower({"b"}) == 0
    assert box.lower({"a", "b"}) == Fraction(1, 4)


def test_single_class_chain():
    chain = Chain([["only"]])
    box = PBox(chain, ["1"], ["1"])
    assert box.upper({"only"}) == 1
    assert box.lower({"only"}) == 1
    assert box.upper(frozenset()) == 0


def test_box_equality_hash_and_repr():
    # The benchmark compares each pass's results, which hold boxes, by !=.
    chain = Chain([["b", "a"], ["c"]])
    half = PBox(chain, ["0.5", "1"], ["1", "1"])
    same = PBox(chain, ["1/2", "1"], ["1", "1"])
    assert half == same
    with pytest.raises(TypeError, match="unhashable"):
        hash(half)
    assert half != PBox(chain, ["1/4", "1"], ["1", "1"])
    assert half != PBox(chain, ["1/2", "1"], ["3/4", "1"])
    assert half != PBox(Chain([["a"], ["b", "c"]]), ["1/2", "1"], ["1", "1"])
    assert repr(chain) == "Chain({a, b}, {c})"
    assert repr(half) == "PBox(Chain({a, b}, {c}), lower=(1/2, 1), upper=(1, 1))"


def test_hit_class_sum_equals_the_cover_by_runs(grid4_boxes):
    # Every event of every grid-4 box with m <= 4, and of the tied chains whose
    # events cut their tied classes: upper against the cover by runs.
    wrong = []
    for box in grid4_boxes:
        for event in every_event(box.chain.labels):
            if box.upper(event) != box.upper_on_union(event):
                wrong.append((box, event))
    assert (len(grid4_boxes), wrong) == (611 + 15 + 15 + 105, [])


def test_upper_and_lower_name_the_first_unknown_label_and_read_an_iterator_once(p2):
    # The first-unknown-label rows of test_contract.REFUSALS name 'z' of ["a", "z", "y"].
    assert p2.upper(iter(["a", "c"])) == p2.upper({"a", "c"})
    assert p2.upper_on_union(iter(["a", "c"])) == p2.upper({"a", "c"})
    assert p2.lower(label for label in "ab") == p2.lower({"a", "b"})
