"""The library's input contract, over every public name.

A wrong type gets Python's own exception, a bad value of the right type a
one-line ``ValueError``, no input a silent answer, and every object a
constructor accepts a working ``repr``.
"""

import ast
from decimal import Decimal
from fractions import Fraction
from inspect import signature
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import forbid_lp, public_names

import possbox
from possbox import Chain, MarginalFamily, PBox, PossibilityDistribution, combine_rectangle, conjunction_bounds
from possbox import conjunction_decompose, credal_intersection_equal, joint_frechet, least_conservative_check
from possbox import possibility_to_pbox, upper_01_both, upper_01_lower, upper_01_upper, zero_one_possibility
from possbox import oracle, zero_one_profile
from possbox.oracle import simplex_max
from possbox.pbox import pbox_document
from possbox.possibility import pi_document
from possbox.rationals import MAX_DIGITS, exact
from possbox.verify import grid_values, run_suite

CHAIN = Chain([["a"], ["b"], ["c"]])
BOX = PBox(CHAIN, ["0", "0", "1"], ["0", "1", "1"])  # both vectors 0-1: every 0-1 form applies
PI = PossibilityDistribution({"a": "1/2", "b": "1"})
FAMILY = MarginalFamily([PI, PI])
PI_LOWER, PI_UPPER = conjunction_decompose(BOX)
#: A right input for each parameter name of the public surface.
VALID = {
    "classes": [["a"], ["b"]],
    "chain": CHAIN,
    "lower": ["0", "0", "1"],
    "upper": ["1/2", "1", "1"],
    "box": BOX,
    "event": ["a"],
    "labels": ["a"],
    "lo": 0,
    "hi": 1,
    "indices": [0],
    "values": {"a": "1"},
    "pi": PI,
    "pi_one": PI_LOWER,
    "pi_two": PI_UPPER,
    "marginals": [PI],
    "family": FAMILY,
    "joint": joint_frechet(FAMILY),
    "rectangle": [["a"], ["b"]],
    "rule": "frechet",
}


def zoo():
    """Inputs wrong for every argument of every public name, the generator fresh on each call."""
    bad = [None, 7, -5, True, 0.5, float("nan"), Decimal("0.5"), b"ab", "ab", [[["a"]]], {5, 7}]
    return bad + [(i for i in range(5, 8)), object(), 10**5000]


def bound(name):
    """A public name, a method bound to the instance above."""
    owner, _, attr = name.rpartition(".")
    instances = dict(Chain=CHAIN, PBox=BOX, PossibilityDistribution=PI, MarginalFamily=FAMILY)
    return getattr(instances.get(owner, possbox), attr)


def required(function):
    return [p.name for p in signature(function).parameters.values() if p.default is p.empty]


# ZeroOneProfile is a record that zero_one_profile fills from a box already checked.
TAKING_INPUT = [n for n in sorted(public_names() - {"ZeroOneProfile"}) if callable(bound(n)) and required(bound(n))]


@pytest.mark.parametrize("name", TAKING_INPUT)
def test_each_argument_refuses_every_wrong_input(name):
    function = bound(name)
    valid = [VALID[param] for param in required(function)]
    repr(function(*valid))  # right inputs answer, and the answer shows
    faults = []
    for k in range(len(valid)):
        for bad in zoo():
            try:
                answer = function(*valid[:k], bad, *valid[k + 1 :])
            except ValueError as exc:
                # One line, worded by the library: not Python's refusal to print a long int.
                if "\n" in str(exc) or "integer string conversion" in str(exc):
                    faults.append((k, type(bad), exc))
            except (TypeError, AttributeError, IndexError):
                pass
            except Exception as exc:  # noqa: BLE001 - outside the contract
                faults.append((k, type(bad), exc))
            else:
                faults.append((k, type(bad), "answered", answer))
    assert faults == []


STRING_EVENT = "event {!r} is a string, not a list of labels"
RULE = "unknown combination rule 'comonotone' (expected one of ('frechet', 'independent'))"
MAPPING = "a possibility distribution needs a mapping, not a {}"
LABEL = "label of type {} is neither a string nor a tuple of strings"
RANGE = "class range {}..{} does not index a chain of 3 classes"
DICT = "pi is a dict, not a PossibilityDistribution"
STRING_RECTANGLE = "rectangle 'ab' is a string, not a list of events"
NOT_EXACT = "refusing {}: pass an int, Fraction, or string like '4/5' or '0.8'"
IDENTITY = "constraints are not the rows the region was built from"
OFF_SPACE = "joint does not live on this family's product space"
TWO = Chain([["a"], ["b"]])
P1 = PBox(CHAIN, ["0", "0", "1"], ["1/2", "4/5", "1"])  # 0-1 lower vector only
P2 = PBox(CHAIN, ["1/5", "2/5", "1"], ["1/2", "4/5", "1"])  # neither vector 0-1
Q = PBox(CHAIN, ["0", "2/5", "1"], ["0", "1", "1"])  # 0-1 upper vector only
# "ab" is a label here, so reading the string as its characters would answer.
AB = PossibilityDistribution({"a": "1/2", "b": 1, "ab": "1/4"})
SPLIT = PossibilityDistribution({("a", "b|c"): 1, ("a|b", "c"): 1})
KEY_TWICE = "labels ('a', 'b|c') and ('a|b', 'c') both write the key 'a|b|c'"
EVENT_ASKS = (CHAIN.classes_hit, CHAIN.event, CHAIN.complement, BOX.upper, BOX.lower)
ROWS = [([1], "<=", Fraction(1, 2))]
REGION = oracle.Region(1, ROWS)
#: ``(lower, upper, line)`` on a < b < c.  The checks run in one order:
#: lengths, then range and monotonicity of lower, then of upper, then
#: lower <= upper index by index, then the top class.  A value is read once
#: however often it is written, and a bool is refused after an equal number.
BAD_BOXES = {
    "box-short-lower": (["0", "1"], ["1/2", "4/5", "1"], "cumulative vectors must have one entry per class (expected 3, got 2 lower / 3 upper)"),
    "box-long-upper": (["0", "0", "1"], ["1", "1", "1", "1"], "cumulative vectors must have one entry per class (expected 3, got 3 lower / 4 upper)"),
    "box-lower-below-0": (["0", "-1/2", "1"], ["1/2", "2", "1"], "lower[1] = -1/2 outside [0, 1]"),
    "box-lower-above-1": (["0", "0.25", "1.5"], ["-0.1", "4/5", "1"], "lower[2] = 3/2 outside [0, 1]"),
    "box-upper-exponent": (["0", "0", "1"], ["1/2", "1.0e1", "1"], "upper[1] = 10 outside [0, 1]"),
    "box-upper-above-1": (["0", "0", "1"], ["1/2", "21/20", "1"], "upper[1] = 21/20 outside [0, 1]"),
    "box-long-value": (["0", "0", "1"], ["1/2", "1e400", "1"], "upper[1] = 1" + "0" * 39 + "... (401 characters) outside [0, 1]"),
    "box-lower-decreasing": (["1/2", "1/3", "1"], ["1/2", "4/5", "7/5"], "lower cumulative vector must be non-decreasing"),
    "box-upper-decreasing": (["0", "0", "1"], ["1/2", "2/5", "1"], "upper cumulative vector must be non-decreasing"),
    "box-upper-decreasing-decimals": (["0", "1/4", "1"], ["0.5", "0.25", "1"], "upper cumulative vector must be non-decreasing"),
    "box-crossed-first": (["1/2", "0.9", "1"], ["1/3", "4/5", "1"], "lower[0] = 1/2 exceeds upper[0] = 1/3"),
    "box-crossed-middle": (["0", "0.9", "1"], ["2/7", "4/5", "1"], "lower[1] = 9/10 exceeds upper[1] = 4/5"),
    "box-lower-top": (["0", "0", "4/5"], ["1/2", "4/5", "1"], "both cumulative vectors must equal 1 at the top class"),
    "box-both-tops": (["0", "0", "0.99"], ["1/2", "4/5", "0.99"], "both cumulative vectors must equal 1 at the top class"),
    "box-floats": ([0.0, 0.0, 1.0], ["1/2", "4/5", "1"], NOT_EXACT.format("float 0.0")),
    "box-bool-after-strings": (["0", "1", "1"], ["1", "1", True], NOT_EXACT.format("bool True")),
    "box-bool-after-numbers": ([0, Fraction(1), 1], [Fraction(1), "1", True], NOT_EXACT.format("bool True")),
    "box-bool-in-lower": (["0", "1", True], ["1", "1", "1"], NOT_EXACT.format("bool True")),
}
#: ``(values, line)``: each value is checked as it is read, so the first
#: label with either fault in the caller's order is named, whichever the fault.
BAD_DISTRIBUTIONS = {
    "pi-not-normal": ({"a": "1/2", "b": "99/100"}, "a possibility distribution must attain the value 1"),
    "pi-above-1": ({"a": "1", "b": "3/2"}, "value 3/2 for 'b' outside [0, 1]"),
    "pi-first-out-of-range": ({"c": "-1/3", "a": "1", "b": "3/2"}, "value -1/3 for 'c' outside [0, 1]"),
    "pi-float": ({"a": 0.5, "b": 1}, NOT_EXACT.format("float 0.5")),
    "pi-range-before-syntax": ({"a": "2", "b": "x"}, "value 2 for 'a' outside [0, 1]"),
    "pi-syntax-before-range": ({"a": "x", "b": "2"}, "not an exact rational: 'x'"),
    "pi-repeated-range": ({"a": "1", "b": "3/2", "c": "3/2"}, "value 3/2 for 'b' outside [0, 1]"),
    "pi-repeated-range-and-syntax": ({"a": "1/2", "b": "1/2", "c": "2", "d": "x", "e": "2"}, "value 2 for 'c' outside [0, 1]"),
    "pi-repeated-syntax": ({"a": "1/2", "b": "x", "c": "2", "d": "x"}, "not an exact rational: 'x'"),
    "pi-bool-after-equal": ({"a": "1", "b": 1, "c": True}, NOT_EXACT.format("bool True")),
}
#: Joints off the product space of FAMILY: two other spaces of four points,
#: one sharing two of them, and one point more.
OFF_SPACE_JOINTS = {
    "three-marginals": joint_frechet(MarginalFamily([PI, PI, PossibilityDistribution({"w": "1"})])),
    "other-labels": joint_frechet(MarginalFamily([PI, PossibilityDistribution({"a": "1/2", "x": "1"})])),
    "extra-point": PossibilityDistribution({**dict(VALID["joint"].items()), ("w", "w"): "1/2"}),
}


def before_any_lp(function, *args):
    """``function(*args)`` with the oracle refusing to pose a linear program."""
    with pytest.MonkeyPatch.context() as patch:
        forbid_lp(patch)
        return function(*args)


#: Each refusal the library words itself, with its exact line; a list label
#: gets Python's own ``TypeError``, worded by version.
REFUSALS = {
    "chain-no-class": (lambda: Chain([]), "a chain needs at least one class"),
    "chain-empty-class": (lambda: Chain([["a"], []]), "class 1 is empty"),
    "chain-label-twice": (lambda: Chain([["a"], ["a"]]), "label 'a' appears in more than one class"),
    "chain-string-class": (lambda: Chain(["ab", ["c"]]), "class 0 is a string, not a list of labels"),
    "chain-strings": (lambda: Chain(["mon", "tue"]), "class 0 is a string, not a list of labels"),
    "chain-bytes-label": (lambda: Chain([[b"a"]]), "class 0: " + LABEL.format("bytes")),
    "chain-int-label": (lambda: Chain([{1, 2}]), "class 0: " + LABEL.format("int")),
    "chain-none-label": (lambda: Chain([["a"], [None]]), "class 1: " + LABEL.format("NoneType")),
    "chain-list-label": (lambda: Chain([[["a"]]]), "class 0: " + LABEL.format("list")),
    "chain-mixed-tuple-label": (lambda: Chain([["a"], [("b", 1)]]), "class 1: " + LABEL.format("tuple")),
    "chain-nested-tuple-label": (lambda: Chain([[(("a", "a"), "a")]]), "class 0: " + LABEL.format("tuple")),
    # Where position carries meaning, a set or a mapping would be read in hash order.
    "chain-set-of-classes": (lambda: Chain({("a",), ("b",), ("c",)}), "classes is a set, not a list of classes"),
    "chain-dict-of-classes": (lambda: Chain({("a",): 1, ("b",): 2}), "classes is a dict, not a list of classes"),
    "set-lower-vector": (lambda: PBox(CHAIN, {"0", "1/4", "1"}, ["1/2", "1/2", "1"]), "lower is a set, not a list of values"),
    "frozenset-upper-vector": (lambda: PBox(TWO, ["0", "1"], frozenset({"1/2", "1"})), "upper is a frozenset, not a list of values"),
    "dict-upper-vector": (lambda: PBox(TWO, ["0", "1"], {"1/2": 0, "1": 1}), "upper is a dict, not a list of values"),
    "set-rectangle": (
        lambda: combine_rectangle(FAMILY, {frozenset({"a"}), frozenset({"b"})}, "frechet"), "rectangle is a set, not a list of events"
    ),
    "dict-rectangle": (
        lambda: combine_rectangle(FAMILY, {frozenset({"a"}): 0, frozenset({"b"}): 1}, "frechet"), "rectangle is a dict, not a list of events"
    ),
    **{f"string-{ask.__name__}": (lambda ask=ask: ask("ac"), STRING_EVENT.format("ac")) for ask in EVENT_ASKS},
    "string-of-a-label-classes_hit": (lambda: Chain([["ab"], ["c"]]).classes_hit("ab"), STRING_EVENT.format("ab")),
    "string-of-a-label-measure": (lambda: AB.measure("ab"), STRING_EVENT.format("ab")),
    "string-of-a-label-rectangle": (
        lambda: combine_rectangle(MarginalFamily([AB]), ["ab"], "frechet"), STRING_EVENT.format("ab")
    ),
    "long-string": (
        lambda: CHAIN.event("x" * 500), f"event '{'x' * 39}... (502 characters) is a string, not a list of labels"
    ),
    "event-unknown-label": (lambda: CHAIN.event(["a", "z"]), "unknown label 'z'"),
    "classes-hit-unknown-label": (lambda: CHAIN.classes_hit(["z"]), "unknown label 'z'"),
    "measure-unknown-label": (lambda: PI.measure({"z"}), "unknown label 'z'"),
    "pi-unknown-label": (lambda: PI["z"], "unknown label 'z'"),
    # The first unknown label in the caller's order is the one named.
    **{
        f"first-unknown-label-{ask.__name__}": (lambda ask=ask: ask(["a", "z", "y"]), "unknown label 'z'")
        for ask in (P2.upper, P2.lower, P2.upper_on_union)
    },
    "first-unknown-label-bounds": (lambda: conjunction_bounds(P2, ["a", "z", "y"]), "unknown label 'z'"),
    **{f"list-label-{ask.__name__}": (lambda ask=ask: ask([["a"]]), TypeError) for ask in (*EVENT_ASKS, PI.measure)},
    "list-label-bounds": (lambda: conjunction_bounds(BOX, [["a"]]), TypeError),
    "range-below": (lambda: CHAIN.class_range_labels(-5, 1), RANGE.format(-5, 1)),
    "range-above": (lambda: CHAIN.class_range_labels(0, 3), RANGE.format(0, 3)),
    "range-past-top": (lambda: CHAIN.class_range_labels(4, 2), RANGE.format(4, 2)),
    "range-past-bottom": (lambda: CHAIN.class_range_labels(0, -2), RANGE.format(0, -2)),
    "range-bool-lo": (lambda: CHAIN.class_range_labels(True, 2), RANGE.format(True, 2)),
    "range-bool-hi": (lambda: CHAIN.class_range_labels(0, False), RANGE.format(0, False)),
    "string-lower-vector": (lambda: PBox(TWO, "01", "11"), "lower is a string, not a list of values"),
    "string-upper-vector": (lambda: PBox(TWO, ["0", "1"], "11"), "upper is a string, not a list of values"),
    **{name: (lambda lower=lower, upper=upper: PBox(CHAIN, lower, upper), line) for name, (lower, upper, line) in BAD_BOXES.items()},
    **{
        f"exact-{text.strip()}": (lambda text=text: exact(text), f"not an exact rational: {text!r}")
        for text in ("1/0", "1/00", " -3/000 ")
    },
    "exact-small-exponent": (lambda: exact(f"1e-{MAX_DIGITS + 1}"), f"refusing '1e-{MAX_DIGITS + 1}': length or exponent over {MAX_DIGITS}"),
    "exact-large-exponent": (lambda: exact(f"1E+0{MAX_DIGITS + 1}"), f"refusing '1E+0{MAX_DIGITS + 1}': length or exponent over {MAX_DIGITS}"),
    "exact-many-digits": (
        lambda: exact("1" * (MAX_DIGITS + 1)),
        f"refusing '{'1' * 39}... ({MAX_DIGITS + 3} characters): length or exponent over {MAX_DIGITS}",
    ),
    # PBox refuses lower > upper, so the stand-in skips its validation.
    "profile-crossed": (
        lambda: zero_one_profile(SimpleNamespace(lower_cdf=(Fraction(1, 2), 1), upper_cdf=(0, 1))),
        "lower cumulative vector exceeds the upper one at class 0",
    ),
    "upper_01_lower-of-q": (lambda: upper_01_lower(Q, ["a"]), "lower cumulative vector is not 0-1-valued"),
    "upper_01_upper-of-p1": (lambda: upper_01_upper(P1, ["a"]), "upper cumulative vector is not 0-1-valued"),
    "upper_01_both-of-p2": (lambda: upper_01_both(P2, ["a"]), "both cumulative vectors must be 0-1-valued"),
    "zero_one_possibility-of-p1": (lambda: zero_one_possibility(P1), "both cumulative vectors must be 0-1-valued"),
    "pi-empty": (lambda: PossibilityDistribution({}), "a possibility distribution needs a non-empty domain"),
    "pi-of-str": (lambda: PossibilityDistribution("ab"), MAPPING.format("str")),
    "pi-of-list": (lambda: PossibilityDistribution([("a", 1)]), MAPPING.format("list")),
    "pi-of-int": (lambda: PossibilityDistribution(5), MAPPING.format("int")),
    "pi-label-before-value": (lambda: PossibilityDistribution({"a": "1", None: "x"}), LABEL.format("NoneType")),
    "pi-long-int-label": (lambda: PossibilityDistribution({"a": "1", 10**5000: "1"}), LABEL.format("int")),
    "pi-none-label": (lambda: PossibilityDistribution({None: "1"}), LABEL.format("NoneType")),
    "pi-bytes-label": (lambda: PossibilityDistribution({b"a": "1"}), LABEL.format("bytes")),
    "pi-mixed-tuple-label": (lambda: PossibilityDistribution({("a", 1): "1"}), LABEL.format("tuple")),
    **{name: (lambda values=values: PossibilityDistribution(values), line) for name, (values, line) in BAD_DISTRIBUTIONS.items()},
    "pbox-from-dict": (lambda: possibility_to_pbox({"a": "1/2", "b": "1"}), DICT),
    "pbox-from-ones": (lambda: possibility_to_pbox({"a": "1", "b": "1.0"}), DICT),
    "key-twice-pi_document": (lambda: pi_document(SPLIT), KEY_TWICE),
    "key-twice-pbox_document": (lambda: pbox_document(possibility_to_pbox(SPLIT)), KEY_TWICE),
    "family-empty": (lambda: MarginalFamily([]), "a marginal family needs at least one marginal"),
    # A lone distribution iterates its labels.
    "family-of-pi": (lambda: MarginalFamily(PI), "marginal 0 is a str, not a PossibilityDistribution"),
    "family-of-dict": (lambda: MarginalFamily([PI, {"a": 1}]), "marginal 1 is a dict, not a PossibilityDistribution"),
    # A joint of a joint would key its points on nested tuples, which no label may be.
    "family-of-joint": (
        lambda: MarginalFamily([PI, VALID["joint"]]), "marginal 1 has the point key ('a', 'a'): a joint is not a marginal"
    ),
    "rectangle-short": (
        lambda: combine_rectangle(FAMILY, [{"a"}], "frechet"), "rectangle has 1 components, family has 2"
    ),
    "string-rectangle": (lambda: combine_rectangle(MarginalFamily([PI]), "ab", "frechet"), STRING_RECTANGLE),
    "string-rectangle-of-two": (lambda: combine_rectangle(FAMILY, "ab", "frechet"), STRING_RECTANGLE),
    "rectangle-rule": (lambda: combine_rectangle(FAMILY, [{"a"}, {"b"}], "comonotone"), RULE),
    "check-rule": (lambda: least_conservative_check(FAMILY, VALID["joint"], "comonotone"), RULE),
    **{
        f"check-{name}-{rule}": (lambda joint=joint, rule=rule: least_conservative_check(FAMILY, joint, rule), OFF_SPACE)
        for name, joint in OFF_SPACE_JOINTS.items()
        for rule in ("frechet", "independent")
    },
    "simplex-float": (lambda: simplex_max(1, [([1.0], "<=", 0.5)], [1]), NOT_EXACT.format("float 1.0")),
    # 0.1 the float is 3602879701896397/36028797018963968, not 1/10.
    "simplex-float-rhs": (lambda: simplex_max(1, [([1], "<=", 0.1)], [1]), NOT_EXACT.format("float 0.1")),
    "simplex-float-coefficient": (lambda: simplex_max(1, [([0.5], "<=", 1)], [1]), NOT_EXACT.format("float 0.5")),
    "simplex-float-cost": (lambda: simplex_max(1, [([1], "<=", 1)], [0.5]), NOT_EXACT.format("float 0.5")),
    # A JSON true is not the number 1, in a row or in the objective.
    "simplex-bool-coefficient": (lambda: simplex_max(1, [([True], "<=", 1)], [1]), NOT_EXACT.format("bool True")),
    "simplex-bool-cost": (lambda: simplex_max(1, [([1], "<=", 1)], [True]), NOT_EXACT.format("bool True")),
    "simplex-narrow-row": (
        lambda: simplex_max(2, [([1], "<=", 1)], [1, 0]), "constraint width does not match the variable count"
    ),
    "simplex-wide-objective": (
        lambda: simplex_max(1, [([1], "<=", 1)], [1, 0]), "objective width exceeds the variable count"
    ),
    "simplex-sense": (lambda: simplex_max(1, [([1], "<", 1)], [1]), "unknown constraint sense '<'"),
    # A region answers only for its own row objects: equal rows that are other objects are refused too.
    "region-more-variables": (lambda: simplex_max(2, ROWS, [1], region=REGION), IDENTITY),
    "region-rows-twice": (lambda: simplex_max(1, ROWS * 2, [1], region=REGION), IDENTITY),
    "region-equal-rows": (lambda: simplex_max(1, [([1], "<=", Fraction(1, 2))], [1], region=REGION), IDENTITY),
    "region-float-rows": (lambda: simplex_max(1, [([1.0], "<=", 0.5)], [1], region=REGION), IDENTITY),
    "region-float-cost": (lambda: simplex_max(1, ROWS, [0.5], region=REGION), NOT_EXACT.format("float 0.5")),
    # Refused before any LP.  True and 1.0 would read as class 1, and "01" would fail in sorting.
    "class-index-past-top": (lambda: before_any_lp(oracle.credal_upper_classes, P1, (3,)), "class index 3 out of range"),
    **{
        f"class-index-{shown}": (
            lambda bad=bad: before_any_lp(oracle.credal_upper_classes, P1, bad), f"class index {shown} is not an int"
        )
        for bad, shown in (([True], "True"), ([1.0], "1.0"), ("01", "'0'"), ([0, None], "None"))
    },
    "intersection-other-labels": (
        lambda: before_any_lp(credal_intersection_equal, P1, PossibilityDistribution({x: 1 for x in "abc"}), PI),
        "distributions must share the box's element set",
    ),
    "grid-zero": (lambda: grid_values(0), "grid denominator must be at least 1"),
    "suite-unknown": (
        lambda: run_suite("no-such-suite"),
        "unknown suite 'no-such-suite' (expected one of ['conjunction', 'maxitive', 'multivariate', 'oracle', 'roundtrip'])",
    ),
    "suite-no-classes": (lambda: run_suite("oracle", 0, None), "--max-classes must be at least 1 (got 0)"),
    "suite-no-grid": (lambda: run_suite("oracle", None, 0), "--grid must be at least 1 (got 0)"),
    "suite-negative-classes": (lambda: run_suite("oracle", -1, 2), "--max-classes must be at least 1 (got -1)"),
}


def assert_refusal(call, line):
    """``call()`` raises a ``ValueError`` reading ``line``, or, for ``line`` ``TypeError``, Python's own."""
    with pytest.raises(TypeError if line is TypeError else ValueError) as raised:
        call()
    if isinstance(line, str):
        assert str(raised.value) == line
    else:
        assert "unhashable type: 'list'" in str(raised.value)


@pytest.mark.parametrize("call, line", REFUSALS.values(), ids=REFUSALS)
def test_each_refusal_has_its_line(call, line):
    assert_refusal(call, line)


def test_a_chain_of_point_keys_shows_and_orders_its_labels():
    # Strings keep their order within a class (the golden corpus fixes it); tuples follow.
    chain = Chain([["b", ("a", "c"), "a", ("a",)], [("a", "b")]])
    assert repr(chain) == "Chain({a, b, (a), (a, c)}, {(a, b)})"
    assert chain.labels_by_class() == ((0, "a"), (0, "b"), (0, ("a",)), (0, ("a", "c")), (1, ("a", "b")))
    box = possibility_to_pbox(PossibilityDistribution({"a": 1, ("b", "c"): 1}))
    assert pbox_document(box)["classes"] == [["a", "b|c"]]


#: ``(file, function, reason)`` for each ``pytest.raises(ValueError ...)``
#: outside this file: its point is more than the line, which REFUSALS holds.
KEPT_OUT = [
    ("test_cli.py", "test_joint_refuses_a_product_space_past_the_ceiling_before_building_it",
     "fail-fast guard: a lost MAX_POINTS fails here before the command line builds 2**40 points"),
    ("test_multivariate.py", "_constructor_message", "the constructor's line, which _build_joint must repeat"),
    ("test_multivariate.py", "test_build_joint_checks_each_value_with_the_constructor_messages",
     "a value past 1: _build_joint's line is the constructor's"),
    ("test_multivariate.py", "test_build_joint_checks_each_value_with_the_constructor_messages",
     "no value 1: _build_joint's line is the constructor's"),
    ("test_oracle.py", "test_exponential_functions_refuse_one_past_their_ceiling_at_once",
     "each ceiling refuses at once, under no_lp"),
    ("test_pbox.py", "test_the_first_bad_string_is_named_when_it_repeats",
     "two builds: nothing read in one is kept for the next"),
]


def value_error_sites(node, function):
    """``function`` once for each ``pytest.raises(ValueError ...)`` under ``node``, named by its innermost def."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from value_error_sites(child, child.name)
            continue
        if isinstance(child, ast.Call) and ast.unparse(child.func).endswith("raises") and child.args:
            if "ValueError" in ast.unparse(child.args[0]):
                yield function
        yield from value_error_sites(child, function)


def test_every_worded_refusal_outside_the_table_is_kept_out_for_a_reason():
    found = [
        (path.name, function)
        for path in sorted(Path(__file__).parent.glob("*.py"))
        if path.name != Path(__file__).name
        for function in value_error_sites(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    ]
    assert found == [(name, function) for name, function, _ in KEPT_OUT]
