from fractions import Fraction

import pytest
from conftest import every_event

from possbox import Chain, PBox
from possbox.rationals import MAX_DIGITS, ONE, exact


def test_constructor_rejects_bad_vectors(chain3):
    with pytest.raises(ValueError):
        PBox(chain3, ["0", "1"], ["1/2", "4/5", "1"])  # wrong length
    with pytest.raises(ValueError):
        PBox(chain3, ["0", "0", "1"], ["1/2", "2/5", "1"])  # not non-decreasing
    with pytest.raises(ValueError):
        PBox(chain3, ["0", "9/10", "1"], ["1/2", "4/5", "1"])  # lower > upper
    with pytest.raises(ValueError):
        PBox(chain3, ["0", "0", "4/5"], ["1/2", "4/5", "1"])  # top must be 1
    with pytest.raises(ValueError):
        PBox(chain3, ["0", "0", "1"], ["1/2", "4/5", "2"])  # out of range


#: ``(lower, upper, the exact error line)`` on the chain a < b < c.  The
#: checks run in one order: lengths, then range and monotonicity of lower,
#: then of upper, then lower <= upper index by index, then the top class.
BAD_BOXES = (
    (["0", "1"], ["1/2", "4/5", "1"], "cumulative vectors must have one entry per class (expected 3, got 2 lower / 3 upper)"),
    (["0", "0", "1"], ["1", "1", "1", "1"], "cumulative vectors must have one entry per class (expected 3, got 3 lower / 4 upper)"),
    (["0", "-1/2", "1"], ["1/2", "2", "1"], "lower[1] = -1/2 outside [0, 1]"),
    (["0", "0.25", "1.5"], ["-0.1", "4/5", "1"], "lower[2] = 3/2 outside [0, 1]"),
    (["0", "0", "1"], ["1/2", "1.0e1", "1"], "upper[1] = 10 outside [0, 1]"),
    (["0", "0", "1"], ["1/2", "21/20", "1"], "upper[1] = 21/20 outside [0, 1]"),
    (["0", "0", "1"], ["1/2", "1e400", "1"], "upper[1] = 1" + "0" * 39 + "... (401 characters) outside [0, 1]"),
    (["1/2", "1/3", "1"], ["1/2", "4/5", "7/5"], "lower cumulative vector must be non-decreasing"),
    (["0", "0", "1"], ["1/2", "2/5", "1"], "upper cumulative vector must be non-decreasing"),
    (["0", "1/4", "1"], ["0.5", "0.25", "1"], "upper cumulative vector must be non-decreasing"),
    (["1/2", "0.9", "1"], ["1/3", "4/5", "1"], "lower[0] = 1/2 exceeds upper[0] = 1/3"),
    (["0", "0.9", "1"], ["2/7", "4/5", "1"], "lower[1] = 9/10 exceeds upper[1] = 4/5"),
    (["0", "0", "4/5"], ["1/2", "4/5", "1"], "both cumulative vectors must equal 1 at the top class"),
    (["0", "0", "0.99"], ["1/2", "4/5", "0.99"], "both cumulative vectors must equal 1 at the top class"),
)


@pytest.mark.parametrize("lower, upper, message", BAD_BOXES)
def test_constructor_error_lines(chain3, lower, upper, message):
    with pytest.raises(ValueError) as raised:
        PBox(chain3, lower, upper)
    assert str(raised.value) == message


def test_constructor_rejects_floats(chain3):
    with pytest.raises(ValueError):
        PBox(chain3, [0.0, 0.0, 1.0], ["1/2", "4/5", "1"])


def test_exact_bounds_decimal_strings():
    assert exact(f"1e-{MAX_DIGITS}") == Fraction(1, 10**MAX_DIGITS)
    assert exact("0." + "0" * (MAX_DIGITS - 3) + "1") == Fraction(1, 10 ** (MAX_DIGITS - 2))
    for text in (f"1e-{MAX_DIGITS + 1}", f"1E+0{MAX_DIGITS + 1}", "1" * (MAX_DIGITS + 1)):
        with pytest.raises(ValueError, match=f"length or exponent over {MAX_DIGITS}"):
            exact(text)


def test_error_lines_cut_long_values(chain3):
    with pytest.raises(ValueError) as raised:
        PBox(chain3, ["0", "0", "1"], ["1/2", "1e400", "1"])
    assert str(raised.value) == (
        "upper[1] = 1" + "0" * 39 + "... (401 characters) outside [0, 1]"
    )


def test_cumulative_accessors(p1):
    assert p1.lower_at(-1) == 0
    assert p1.upper_at(-1) == 0
    assert p1.upper_at(1) == Fraction(4, 5)
    assert p1.lower_at(2) == 1


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
    assert p2.singleton_upper("a") == Fraction(1, 2)
    assert p2.singleton_upper("b") == Fraction(4, 5) - Fraction(1, 5)
    assert p2.singleton_upper("c") == Fraction(3, 5)


def test_upper_is_monotone_and_subadditive(p2):
    events = every_event(p2.chain.labels)
    for small in events:
        for large in events:
            if small <= large:
                assert p2.upper(small) <= p2.upper(large)
                assert p2.lower(small) <= p2.lower(large)
            union = small | large
            assert p2.upper(union) <= p2.upper(small) + p2.upper(large)


def test_lower_is_conjugate_of_upper(p2):
    for event in (frozenset(), {"a"}, {"b"}, {"a", "c"}, {"a", "b", "c"}):
        complement = p2.chain.complement(event)
        assert p2.lower(event) == 1 - p2.upper(complement)


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
    assert half == same and hash(half) == hash(same)
    assert half != PBox(chain, ["1/4", "1"], ["1", "1"])
    assert half != PBox(chain, ["1/2", "1"], ["3/4", "1"])
    assert half != PBox(Chain([["a"], ["b", "c"]]), ["1/2", "1"], ["1", "1"])
    assert repr(chain) == "Chain({a, b}, {c})"
    assert repr(half) == "PBox(Chain({a, b}, {c}), lower=(1/2, 1), upper=(1, 1))"


def test_hit_class_sum_and_missed_class_complement_equal_the_label_set_routes(grid4_boxes):
    # Every event of every grid-4 box with m <= 4, and of the tied chains whose
    # events cut their tied classes: upper against the cover by runs, lower
    # against the upper value of the complement's label set.
    wrong = []
    for box in grid4_boxes:
        chain = box.chain
        for event in every_event(chain.labels):
            by_labels = ONE - box.upper(chain.complement(event))
            if box.upper(event) != box.upper_on_union(event) or box.lower(event) != by_labels:
                wrong.append((box, event))
    assert (len(grid4_boxes), wrong) == (611 + 15 + 15 + 105, [])


def test_upper_and_lower_name_the_first_unknown_label_and_read_an_iterator_once(p2):
    for bound in (p2.upper, p2.lower, p2.upper_on_union):
        with pytest.raises(ValueError, match="^unknown label 'z'$"):
            bound(["a", "z", "y"])
    assert p2.upper(iter(["a", "c"])) == p2.upper({"a", "c"})
    assert p2.upper_on_union(iter(["a", "c"])) == p2.upper({"a", "c"})
    assert p2.lower(label for label in "ab") == p2.lower({"a", "b"})
