"""The library's input contract, over every public name.

A wrong type gets Python's own exception, a bad value of the right type a
one-line ``ValueError``, no input a silent answer, and every object a
constructor accepts a working ``repr``.
"""

from decimal import Decimal
from inspect import signature

import pytest
from conftest import public_names

import possbox
from possbox import Chain, MarginalFamily, PBox, PossibilityDistribution, combine_rectangle, conjunction_bounds
from possbox import conjunction_decompose, joint_frechet, least_conservative_check, possibility_to_pbox

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


STRING_EVENT = "event 'ac' is a string, not a list of labels"
RULE = "unknown combination rule 'comonotone' (expected one of ('frechet', 'independent'))"
MAPPING = "a possibility distribution needs a mapping, not a {}"
LABEL = "label of type {} is neither a string nor a tuple of strings"
RANGE = "class range {}..{} does not index a chain of 3 classes"
DICT = "pi is a dict, not a PossibilityDistribution"
STRING_RECTANGLE = "rectangle 'ab' is a string, not a list of events"
TWO = Chain([["a"], ["b"]])
EVENT_ASKS = (CHAIN.classes_hit, CHAIN.event, CHAIN.complement, BOX.upper, BOX.lower)
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
    **{f"string-{ask.__name__}": (lambda ask=ask: ask("ac"), STRING_EVENT) for ask in EVENT_ASKS},
    "long-string": (
        lambda: CHAIN.event("x" * 500), f"event '{'x' * 39}... (502 characters) is a string, not a list of labels"
    ),
    "event-unknown-label": (lambda: CHAIN.event(["a", "z"]), "unknown label 'z'"),
    "classes-hit-unknown-label": (lambda: CHAIN.classes_hit(["z"]), "unknown label 'z'"),
    "measure-unknown-label": (lambda: PI.measure({"z"}), "unknown label 'z'"),
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
    "pi-empty": (lambda: PossibilityDistribution({}), "a possibility distribution needs a non-empty domain"),
    "pi-of-str": (lambda: PossibilityDistribution("ab"), MAPPING.format("str")),
    "pi-of-list": (lambda: PossibilityDistribution([("a", 1)]), MAPPING.format("list")),
    "pi-of-int": (lambda: PossibilityDistribution(5), MAPPING.format("int")),
    "pi-label-before-value": (lambda: PossibilityDistribution({"a": "1", None: "x"}), LABEL.format("NoneType")),
    "pi-long-int-label": (lambda: PossibilityDistribution({"a": "1", 10**5000: "1"}), LABEL.format("int")),
    "pi-none-label": (lambda: PossibilityDistribution({None: "1"}), LABEL.format("NoneType")),
    "pi-bytes-label": (lambda: PossibilityDistribution({b"a": "1"}), LABEL.format("bytes")),
    "pi-mixed-tuple-label": (lambda: PossibilityDistribution({("a", 1): "1"}), LABEL.format("tuple")),
    "pbox-from-dict": (lambda: possibility_to_pbox({"a": "1/2", "b": "1"}), DICT),
    "pbox-from-ones": (lambda: possibility_to_pbox({"a": "1", "b": "1.0"}), DICT),
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
}


@pytest.mark.parametrize("call, line", REFUSALS.values(), ids=REFUSALS)
def test_each_refusal_has_its_line(call, line):
    with pytest.raises(TypeError if line is TypeError else ValueError) as raised:
        call()
    if isinstance(line, str):
        assert str(raised.value) == line
    else:
        assert "unhashable type: 'list'" in str(raised.value)


def test_a_chain_of_point_keys_shows_and_orders_its_labels():
    # Strings keep their order within a class (the golden corpus fixes it); tuples follow.
    chain = Chain([["b", ("a", "c"), "a", ("a",)], [("a", "b")]])
    assert repr(chain) == "Chain({a, b, (a), (a, c)}, {(a, b)})"
    assert chain.labels_by_class() == ((0, "a"), (0, "b"), (0, ("a",)), (0, ("a", "c")), (1, ("a", "b")))
