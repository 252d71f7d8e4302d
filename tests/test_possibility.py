import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import TIED_CHAINS, every_event

import possbox
from possbox import (
    Chain,
    PBox,
    PossibilityDistribution,
    conjunction_bounds,
    conjunction_decompose,
    pbox_to_possibility,
    possibility_to_pbox,
    zero_one_possibility,
)
from possbox.possibility import value_levels
from possbox.rationals import ZERO
from possbox.verify import default_chain, iter_chain_pboxes


def test_distribution_validation():
    with pytest.raises(ValueError):
        PossibilityDistribution({})
    with pytest.raises(ValueError, match="^a possibility distribution must attain the value 1$"):
        PossibilityDistribution({"a": "1/2", "b": "99/100"})
    with pytest.raises(ValueError, match=r"^value 3/2 for 'b' outside \[0, 1\]$"):
        PossibilityDistribution({"a": "1", "b": "3/2"})
    # The first value out of range in the caller's order is the one named.
    with pytest.raises(ValueError, match=r"^value -1/3 for 'c' outside \[0, 1\]$"):
        PossibilityDistribution({"c": "-1/3", "a": "1", "b": "3/2"})
    with pytest.raises(ValueError):
        PossibilityDistribution({"a": 0.5, "b": 1})
    # Each value is checked as it is read: the first label with either fault
    # in the caller's order is the one named, whichever the fault.
    with pytest.raises(ValueError, match=r"^value 2 for 'a' outside \[0, 1\]$"):
        PossibilityDistribution({"a": "2", "b": "x"})
    with pytest.raises(ValueError, match=r"^not an exact rational: 'x'$"):
        PossibilityDistribution({"a": "x", "b": "2"})


def test_distribution_queries():
    pi = PossibilityDistribution({"a": "1/2", "b": "1"})
    assert pi["a"] == Fraction(1, 2)
    assert len(pi) == 2
    assert "a" in pi and "z" not in pi
    assert pi.measure({"a"}) == Fraction(1, 2)
    assert pi.measure({"a", "b"}) == 1
    assert pi.measure(frozenset()) == 0
    with pytest.raises(ValueError):
        pi["z"]
    with pytest.raises(ValueError):
        pi.measure({"z"})


def test_measure_is_the_first_largest_value_on_large_prime_denominators():
    # Neighbouring values over 2**61 - 1 and 10**9 + 7, whose cross products
    # pass 64 bits, one value held twice by two objects, and the top value 1.
    p, q = 2**61 - 1, 10**9 + 7
    rng = random.Random(5)
    values = []
    for _ in range(5):
        k = rng.randrange(p)
        values += [Fraction(k, p), Fraction(k * q // p, q), Fraction(k * q // p + 1, q)]
    values += [Fraction(values[0].numerator, p), Fraction(1)]
    pi = PossibilityDistribution({f"v{j}": v for j, v in enumerate(values)})
    labels = list(pi)
    for event in every_event(labels[:10]) + [labels, labels[::-1]]:
        best = max((pi[label] for label in event), default=ZERO)
        assert pi.measure(event) is best, event
    # The tie goes to the first of the two in the event's order.
    assert pi.measure(["v0", "v15"]) is pi["v0"] and pi.measure(["v15", "v0"]) is pi["v15"]


def test_measure_caps_complement_at_one():
    # At least one of an event and its complement always has measure one.
    pi = PossibilityDistribution({"a": "1/4", "b": "1/2", "c": "1"})
    for event in every_event(pi.labels):
        rest = pi.labels - event
        assert max(pi.measure(event), pi.measure(rest)) == 1


def test_pbox_to_possibility_frozen(p1, p2):
    pi = pbox_to_possibility(p1)
    assert pi is not None
    assert pi["a"] == Fraction(1, 2)
    assert pi["b"] == Fraction(4, 5)
    assert pi["c"] == 1
    assert pbox_to_possibility(p2) is None


def test_pbox_to_possibility_matches_upper_everywhere(p1, q, r, precise):
    for box in (p1, q, r, precise):
        pi = pbox_to_possibility(box)
        assert pi is not None
        for event in every_event(box.chain.labels):
            assert pi.measure(event) == box.upper(event)


def test_pbox_to_possibility_follows_singleton_upper(p1, q, monkeypatch):
    # Each element's value is PBox.singleton_upper, not a second copy of it.
    # Values below 1 move up by 1/128; those at 1 stay, so the result is normalized.
    original = PBox.singleton_upper

    def nudged(box, x):
        value = original(box, x)
        return value if value == 1 else value + Fraction(1, 128)

    before = [pbox_to_possibility(box) for box in (p1, q)]
    monkeypatch.setattr(PBox, "singleton_upper", nudged)
    for box, pi in zip((p1, q), before):
        moved = pbox_to_possibility(box)
        assert list(moved) == list(pi)
        assert [moved[x] for x in pi] == [v if v == 1 else v + Fraction(1, 128) for _, v in pi.items()]
    assert pbox_to_possibility(p1)["a"] == Fraction(1, 2) + Fraction(1, 128)


def test_pbox_to_possibility_reads_only_the_cumulative_vectors(monkeypatch):
    # Conversion must not re-check the max-decomposition identity on the
    # 2^m unions of classes; no closed-form upper value may be asked for.
    def refuse(*_args, **_kwargs):
        raise AssertionError("pbox_to_possibility evaluated an upper probability")

    monkeypatch.setattr(PBox, "upper", refuse)
    monkeypatch.setattr(PBox, "upper_on_union", refuse)
    m = 12
    chain = Chain([[f"x{i}"] for i in range(m)])
    upper = [Fraction(i + 1, m) for i in range(m)]
    box = PBox(chain, ["0"] * (m - 1) + ["1"], upper)
    pi = pbox_to_possibility(box)
    assert pi is not None
    assert [pi[f"x{i}"] for i in range(m)] == upper


def test_possibility_to_pbox_two_point():
    pi = PossibilityDistribution({"x1": "1/2", "x2": "1"})
    box = possibility_to_pbox(pi)
    assert box.chain.classes == (frozenset({"x1"}), frozenset({"x2"}))
    assert box.lower_cdf == (0, 1)
    assert box.upper_cdf == (Fraction(1, 2), 1)


def test_possibility_to_pbox_groups_equal_levels():
    pi = PossibilityDistribution({"a": "1/2", "b": "1/2", "c": "1"})
    box = possibility_to_pbox(pi)
    assert box.chain.classes == (frozenset({"a", "b"}), frozenset({"c"}))
    assert box.upper_cdf == (Fraction(1, 2), 1)


def test_value_levels_sort_values_and_keep_the_given_label_order():
    pi = PossibilityDistribution({"c": "1/2", "a": "1", "b": "1/2", "d": "0"})
    half = Fraction(1, 2)
    assert value_levels(pi, ["b", "a", "c", "d"]) == ((0, ("d",)), (half, ("b", "c")), (1, ("a",)))
    assert value_levels(pi, pi) == ((0, ("d",)), (half, ("c", "b")), (1, ("a",)))
    box = possibility_to_pbox(pi)
    assert box.chain.classes == tuple(frozenset(labels) for _, labels in value_levels(pi, pi))
    assert box.upper_cdf == (0, half, 1)


def test_possibility_round_trip_examples():
    samples = [
        {"a": "1", "b": "1"},
        {"a": "1/4", "b": "1/2", "c": "1"},
        {"a": "1", "b": "1/3", "c": "1", "d": "2/3"},
    ]
    for raw in samples:
        pi = PossibilityDistribution(raw)
        box = possibility_to_pbox(pi)
        assert box.chain.labels == pi.labels
        for event in every_event(pi.labels):
            assert box.upper(event) == pi.measure(event)


def test_zero_one_possibility_frozen(r, precise):
    pi = zero_one_possibility(r)
    assert (pi["a"], pi["b"], pi["c"]) == (0, 1, 1)
    pi = zero_one_possibility(precise)
    assert (pi["a"], pi["b"], pi["c"]) == (0, 1, 0)


def test_zero_one_possibility_requires_both_vectors(p1):
    with pytest.raises(ValueError):
        zero_one_possibility(p1)


def test_vacuous_box_gives_vacuous_possibility(chain3):
    vacuous = PBox(chain3, ["0", "0", "1"], ["1", "1", "1"])
    pi = zero_one_possibility(vacuous)
    assert all(pi[label] == 1 for label in sorted(pi.labels))


def test_conjunction_decompose_frozen(p1, p2):
    pi_one, pi_two = conjunction_decompose(p1)
    assert [pi_one[x] for x in "abc"] == [1, 1, 1]
    assert [pi_two[x] for x in "abc"] == [Fraction(1, 2), Fraction(4, 5), 1]

    pi_one, pi_two = conjunction_decompose(p2)
    assert [pi_one[x] for x in "abc"] == [1, Fraction(4, 5), Fraction(3, 5)]
    assert [pi_two[x] for x in "abc"] == [Fraction(1, 2), Fraction(4, 5), 1]


def test_conjunction_bounds_sandwich(p2):
    for event in every_event(p2.chain.labels):
        approx_lower, approx_upper = conjunction_bounds(p2, event)
        assert approx_lower <= p2.lower(event)
        assert p2.upper(event) <= approx_upper


def assert_bounds_are_the_decomposition_measures(box):
    pi_one, pi_two = conjunction_decompose(box)
    for event in every_event(box.chain.labels):
        rest = box.chain.labels - event
        approx_upper = min(pi_one.measure(event), pi_two.measure(event))
        approx_lower = max(1 - pi_one.measure(rest), 1 - pi_two.measure(rest))
        assert conjunction_bounds(box, event) == (approx_lower, approx_upper), (box, event)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_conjunction_bounds_are_the_decomposition_measures_on_every_grid_box(m):
    for box in iter_chain_pboxes(default_chain(m), 4):
        assert_bounds_are_the_decomposition_measures(box)


def test_conjunction_bounds_are_the_decomposition_measures_on_tied_classes():
    # Every event of five labels, the empty and full ones and those that
    # cut a tied class among them, on every grid box with three classes.
    tied = TIED_CHAINS[-1]
    for box in iter_chain_pboxes(default_chain(3), 4):
        assert_bounds_are_the_decomposition_measures(PBox(tied, box.lower_cdf, box.upper_cdf))


def test_conjunction_bounds_on_end_events_and_cut_classes():
    box = PBox(TIED_CHAINS[-1], ["1/4", "1/2", "1"], ["1/2", "3/4", "1"])
    assert conjunction_bounds(box, []) == (0, 0)
    assert conjunction_bounds(box, "abcde") == (1, 1)
    # {b, c} cuts the bottom class, so its complement {a, d, e} hits both end classes.
    assert conjunction_bounds(box, {"b", "c"}) == (0, Fraction(3, 4))
    assert conjunction_bounds(box, {"a", "b", "c"}) == (Fraction(1, 2), Fraction(3, 4))
    with pytest.raises(ValueError, match="^unknown label 'z'$"):
        conjunction_bounds(box, ["a", "z", "y"])


def test_conjunction_upper_gap_on_middle_class(p2):
    # The outer approximation can be strictly conservative: on the middle
    # singleton the exact upper value is 3/5 while each possibility measure
    # alone only forces 4/5.
    approx_lower, approx_upper = conjunction_bounds(p2, {"b"})
    assert approx_upper == Fraction(4, 5)
    assert p2.upper({"b"}) == Fraction(3, 5)
    assert approx_lower == 0 == p2.lower({"b"})


BUILT_FROM_A_BOX = """
from possbox import Chain, PBox, conjunction_decompose, pbox_to_possibility, zero_one_possibility
chain = Chain([["c", "a", "b"], ["e", "d"]])
box = PBox(chain, ["0", "1"], ["1/2", "1"])
print(pbox_to_possibility(box))
print(zero_one_possibility(PBox(chain, ["0", "1"], ["0", "1"])))
print(*conjunction_decompose(box), sep="\\n")
"""


def test_distributions_built_from_a_box_list_labels_the_same_under_any_hash_seed():
    source = str(Path(possbox.__file__).resolve().parents[1])
    outputs = set()
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", BUILT_FROM_A_BOX], capture_output=True, text=True, env=env, timeout=60
        )
        assert (done.returncode, done.stderr) == (0, ""), seed
        outputs.add(done.stdout)
    (printed,) = outputs
    # Class by class, sorted within a class.
    assert printed.splitlines() == [
        f"PossibilityDistribution({{'a': {a}, 'b': {a}, 'c': {a}, 'd': {d}, 'e': {d}}})"
        for a, d in (("1/2", "1"), ("0", "1"), ("1", "1"), ("1/2", "1"))
    ]
