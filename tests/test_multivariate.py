from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import prod

import pytest

from possbox import (
    MarginalFamily,
    PossibilityDistribution,
    combine_rectangle,
    joint_frechet,
    joint_independent,
    joint_rsi_outer,
    least_conservative_check,
)
from possbox.multivariate import _build_joint
from possbox.verify import _canonical_marginals


@pytest.fixture
def family_2x2():
    return MarginalFamily(
        [
            PossibilityDistribution({"u": "1/2", "v": "1"}),
            PossibilityDistribution({"s": "3/10", "t": "1"}),
        ]
    )


def test_family_points_and_scores(family_2x2):
    points = list(family_2x2.points())
    assert ("u", "s") in points and len(points) == 4
    # The score z is the Fréchet joint.
    frechet = joint_frechet(family_2x2)
    assert frechet[("u", "s")] == Fraction(1, 2)
    assert frechet[("u", "t")] == 1
    assert frechet[("v", "s")] == 1


def test_joint_frozen_values(family_2x2):
    frechet = joint_frechet(family_2x2)
    independent = joint_independent(family_2x2)
    rsi = joint_rsi_outer(family_2x2)
    assert frechet[("u", "s")] == Fraction(1, 2)
    assert independent[("u", "s")] == Fraction(1, 4)
    assert rsi[("u", "s")] == Fraction(51, 100)
    for point in family_2x2.points():
        assert frechet[point] == max(pi[x] for pi, x in zip(family_2x2.marginals, point))


def test_joints_are_normalized(family_2x2):
    for build in (joint_frechet, joint_independent, joint_rsi_outer):
        joint = build(family_2x2)
        assert max(joint[point] for point in family_2x2.points()) == 1


def test_independent_never_exceeds_frechet(family_2x2):
    frechet = joint_frechet(family_2x2)
    independent = joint_independent(family_2x2)
    for point in family_2x2.points():
        assert independent[point] <= frechet[point]


def test_combine_rectangle_frozen(family_2x2):
    rect = ({"u"}, {"s"})
    assert combine_rectangle(family_2x2, rect, "frechet") == Fraction(3, 10)
    assert combine_rectangle(family_2x2, rect, "independent") == Fraction(3, 20)
    full = ({"u", "v"}, {"s", "t"})
    assert combine_rectangle(family_2x2, full, "frechet") == 1
    assert combine_rectangle(family_2x2, full, "independent") == 1
    assert combine_rectangle(family_2x2, (set(), {"s"}), "frechet") == 0


UNKNOWN_RULE = r"unknown combination rule 'comonotone' \(expected one of \('frechet', 'independent'\)\)"


def test_combine_rectangle_rejects_unknown_rule(family_2x2):
    with pytest.raises(ValueError, match=UNKNOWN_RULE):
        combine_rectangle(family_2x2, ({"u"}, {"s"}), "comonotone")


def test_family_and_rectangle_error_lines(family_2x2):
    with pytest.raises(ValueError, match="^a marginal family needs at least one marginal$"):
        MarginalFamily([])
    with pytest.raises(ValueError, match="^rectangle has 1 components, family has 2$"):
        combine_rectangle(family_2x2, ({"u"},), "frechet")


def test_least_conservative_check_rejects_unknown_rule(family_2x2):
    with pytest.raises(ValueError, match=UNKNOWN_RULE):
        least_conservative_check(family_2x2, joint_frechet(family_2x2), "comonotone")


def test_least_conservative_check(family_2x2):
    frechet = joint_frechet(family_2x2)
    independent = joint_independent(family_2x2)
    assert least_conservative_check(family_2x2, frechet, "frechet")
    assert least_conservative_check(family_2x2, independent, "independent")
    # The minimum rule's joint dominates rectangles priced by the product
    # rule, but it is not the least conservative one doing so.
    assert not least_conservative_check(family_2x2, frechet, "independent")
    assert not least_conservative_check(family_2x2, independent, "frechet")


def test_both_joints_pass_both_rules_on_zero_one_marginals():
    # With every value 0 or 1 the score z equals z ** n, so the two joints
    # coincide and each is canonical for either rule.
    family = MarginalFamily(
        [
            PossibilityDistribution({"u": "0", "v": "1"}),
            PossibilityDistribution({"s": "1", "t": "0", "r": "1"}),
            PossibilityDistribution({"w": "1"}),
        ]
    )
    for joint in (joint_frechet(family), joint_independent(family)):
        for rule in ("frechet", "independent"):
            assert least_conservative_check(family, joint, rule)


def test_least_conservative_check_rejects_mismatched_space(family_2x2):
    other = MarginalFamily(
        [
            PossibilityDistribution({"u": "1/2", "v": "1"}),
            PossibilityDistribution({"s": "3/10", "t": "1"}),
            PossibilityDistribution({"w": "1"}),
        ]
    )
    # Two other product spaces of four points, one sharing two of them, and one point more.
    renamed = MarginalFamily([*family_2x2.marginals[:1], PossibilityDistribution({"s": "3/10", "x": "1"})])
    extra = PossibilityDistribution({**dict(joint_frechet(family_2x2).items()), ("w", "w"): "1/2"})
    for joint in (joint_frechet(other), joint_frechet(renamed), extra):
        for rule in ("frechet", "independent"):
            with pytest.raises(ValueError, match="^joint does not live on this family's product space$"):
                least_conservative_check(family_2x2, joint, rule)


def test_rsi_between_the_two_regimes():
    # Below one half on every coordinate the product joint sits strictly
    # below the outer bound ...
    low = MarginalFamily(
        [
            PossibilityDistribution({"u": "2/5", "v": "1"}),
            PossibilityDistribution({"s": "2/5", "t": "1"}),
        ]
    )
    independent = joint_independent(low)
    rsi = joint_rsi_outer(low)
    assert independent[("u", "s")] == Fraction(4, 25)
    assert rsi[("u", "s")] == Fraction(16, 25)
    assert independent[("u", "s")] < rsi[("u", "s")]
    # ... while at a point with some coordinate at one the order flips.
    for point in (("u", "t"), ("v", "s"), ("v", "t")):
        assert rsi[point] <= independent[point]


def test_rsi_projection_is_outer_bound():
    # Projecting the outer joint back onto a coordinate inflates every
    # value strictly inside (0, 1); the bound is not tight marginally.
    family = MarginalFamily(
        [
            PossibilityDistribution({"u": "2/5", "v": "1"}),
            PossibilityDistribution({"s": "2/5", "t": "1"}),
        ]
    )
    rsi = joint_rsi_outer(family)
    for i, domain in enumerate(family.domains):
        for label in domain:
            marginal_value = family.marginals[i][label]
            projected = max(
                rsi[point] for point in family.points() if point[i] == label
            )
            assert projected >= marginal_value
            if 0 < marginal_value < 1:
                assert projected > marginal_value


def test_single_marginal_family_keeps_values():
    family = MarginalFamily([PossibilityDistribution({"a": "1/3", "b": "1"})])
    frechet = joint_frechet(family)
    independent = joint_independent(family)
    rsi = joint_rsi_outer(family)
    for point in family.points():
        value = family.marginals[0][point[0]]
        assert frechet[point] == value
        assert independent[point] == value
        assert rsi[point] == value


def test_three_marginal_frozen_point():
    family = MarginalFamily(
        [
            PossibilityDistribution({"u": "1/2", "v": "1"}),
            PossibilityDistribution({"s": "3/10", "t": "1"}),
            PossibilityDistribution({"w": "1/4", "x": "1"}),
        ]
    )
    point = ("u", "s", "w")
    assert joint_frechet(family)[point] == Fraction(1, 2)
    assert joint_independent(family)[point] == Fraction(1, 8)
    assert joint_rsi_outer(family)[point] == 1 - Fraction(27, 64)


def test_rectangles_are_dominated_by_joint_measures():
    family = MarginalFamily(
        [
            PossibilityDistribution({"u": "1/2", "v": "1"}),
            PossibilityDistribution({"s": "3/10", "t": "1"}),
        ]
    )
    frechet = joint_frechet(family)
    independent = joint_independent(family)
    domains = [list(d) for d in family.domains]
    subsets = []
    for bits in range(1, 2 ** len(domains[0])):
        subsets.append([x for k, x in enumerate(domains[0]) if bits >> k & 1])
    for first in subsets:
        for bits in range(1, 2 ** len(domains[1])):
            second = [x for k, x in enumerate(domains[1]) if bits >> k & 1]
            rect_points = list(product(first, second))
            for joint, rule in ((frechet, "frechet"), (independent, "independent")):
                measure = max(joint[p] for p in rect_points)
                assert measure >= combine_rectangle(family, (first, second), rule)


def _enumerated_rectangle_vectors(family):
    """Measure vectors of every rectangle of non-empty events, by enumeration."""
    events = [
        [combo for k in range(1, len(domain) + 1) for combo in combinations(domain, k)]
        for domain in family.domains
    ]
    return Counter(
        tuple(m.measure(event) for m, event in zip(family.marginals, rect))
        for rect in product(*events)
    )


def _rectangle_count(family):
    """The multivariate suite's count of rectangles: one per tuple of non-empty events."""
    return prod(2 ** len(domain) - 1 for domain in family.domains)


def test_rectangle_vectors_match_enumeration_on_the_suite_pool():
    # The suite checks rectangle dominance once per vector of family.vectors()
    # and counts the rectangles from the domain sizes alone.
    pool = _canonical_marginals(3, 4)
    assert len(pool) ** 2 == 441
    for chosen in product(pool, repeat=2):
        family = MarginalFamily(chosen)
        table = _enumerated_rectangle_vectors(family)
        assert set(table) == {values for values, *_ in family.vectors()}
        assert sum(table.values()) == _rectangle_count(family)


def test_vectors_partition_the_product_points_on_the_suite_pool():
    pool = _canonical_marginals(3, 4)
    for chosen in product(pool, repeat=2):
        family = MarginalFamily(chosen)
        table = family.vectors()
        assert family.vectors() is table
        seen = [point for *_, points in table for point in points]
        assert sorted(seen) == sorted(family.points())
        assert len(seen) == len(set(seen))
        for values, z, w, points in table:
            assert points and (z, w) == (max(values), min(values))
            for point in points:
                assert tuple(m[x] for m, x in zip(family.marginals, point)) == values


def test_vectors_match_the_rectangle_vectors():
    family = MarginalFamily(
        [
            PossibilityDistribution({"a": "0", "b": "1/2", "c": "1/2", "d": "1"}),
            PossibilityDistribution({"t": "1", "s": "0", "u": "1"}),
        ]
    )
    vectors = [values for values, *_ in family.vectors()]
    assert vectors == sorted(_enumerated_rectangle_vectors(family))
    assert family.vectors()[2][3] == (("b", "s"), ("c", "s"))


def test_building_a_family_visits_no_product_point():
    # 2**40 product points: only vectors(), joints and their checks visit them.
    family = MarginalFamily([PossibilityDistribution({"a": "1/2", "b": 1})] * 40)
    assert family.n == 40
    assert combine_rectangle(family, [{"a"}] * 40, "frechet") == Fraction(1, 2)


def test_rectangle_vectors_with_ties_and_zero():
    family = MarginalFamily(
        [
            PossibilityDistribution({"a": "0", "b": "1/2", "c": "1/2", "d": "1"}),
            PossibilityDistribution({"s": "0", "t": "1", "u": "1"}),
            PossibilityDistribution({"w": "1"}),
        ]
    )
    table = _enumerated_rectangle_vectors(family)
    assert set(table) == {values for values, *_ in family.vectors()}
    assert sum(table.values()) == _rectangle_count(family) == 15 * 7
    half = Fraction(1, 2)
    # 1/2 is the top of the events {b}, {c}, {b, c} and the same three with a.
    assert table[(half, 1, 1)] == 6 * 6
    assert table[(0, 0, 1)] == 1
    assert len(table) == 3 * 2 * 1


#: Marginals mixing thirds, sevenths, a decimal and large coprime denominators,
#: with ties so that vectors hold several points.
MIXED_MARGINALS = (
    PossibilityDistribution({"a": "1/3", "b": "2/7", "c": "1", "d": "1/3"}),
    PossibilityDistribution({"s": "0.15", "t": "1", "u": "999999937/1000000007", "v": "0.15"}),
    PossibilityDistribution(
        {"x": "1/3", "y": "12345678901/2305843009213693951", "z": "1", "w": "999999937/1000000007"}
    ),
)
MIXED_FAMILIES = [
    MarginalFamily(chosen) for n in (1, 2, 3) for chosen in product(MIXED_MARGINALS, repeat=n)
]


def _point_values(family, point):
    return [pi[x] for pi, x in zip(family.marginals, point)]


@pytest.mark.parametrize("family", MIXED_FAMILIES, ids=lambda family: f"n{family.n}")
def test_joints_on_mixed_denominators_match_a_per_point_reference(family):
    n = family.n
    frechet, independent, rsi = joint_frechet(family), joint_independent(family), joint_rsi_outer(family)
    canonical_for_both = True
    for point in family.points():
        values = _point_values(family, point)
        assert frechet[point] == max(values)
        assert independent[point] == max(values) ** n
        assert rsi[point] == 1 - (1 - min(values)) ** n
        canonical_for_both = canonical_for_both and max(values) == max(values) ** n
    assert least_conservative_check(family, frechet, "frechet")
    assert least_conservative_check(family, independent, "independent")
    assert least_conservative_check(family, frechet, "independent") == canonical_for_both
    assert least_conservative_check(family, independent, "frechet") == canonical_for_both
    assert canonical_for_both == (n == 1)


def _constructor_message(values):
    with pytest.raises(ValueError) as raised:
        PossibilityDistribution(values)
    return str(raised.value)


@pytest.mark.parametrize(
    "family", [family for family in MIXED_FAMILIES if family.n > 1], ids=lambda family: f"n{family.n}"
)
def test_build_joint_checks_each_value_with_the_constructor_messages(family):
    above = Fraction(3, 2)
    # The first vector with w < z holds the first 3/2, at its first point.
    label = next(points[0] for _, z, w, points in family.vectors() if w < z)
    with pytest.raises(ValueError) as raised:
        _build_joint(family, lambda z, w: above if w < z else z)
    assert str(raised.value) == _constructor_message({label: above})
    assert str(raised.value).startswith("value 3/2 for ")

    halved = {point: max(_point_values(family, point)) / 2 for point in family.points()}
    with pytest.raises(ValueError) as raised:
        _build_joint(family, lambda z, w: z / 2)
    assert str(raised.value) == _constructor_message(halved) == "a possibility distribution must attain the value 1"
