"""Joint possibility distributions built from marginal ones.

Given marginals on finite spaces, the product point ``x = (x_1, .., x_n)``
gets the score ``z(x) = max_i pi_i(x_i)``; all joints here are functions of
that score.  Three constructions are provided: the Fréchet joint ``z`` (no
dependence assumption), the independent-style joint ``z ** n``, and an outer
approximation for random-set independence ``1 - max_i (1 - pi_i(x_i)) ** n``.
Rectangle combination rules and a least-conservative check relate the first
two joints to the bounds they are meant to dominate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Hashable, Iterable, Iterator, Sequence

from possbox.possibility import PossibilityDistribution
from possbox.rationals import ONE, ZERO

#: Rectangle combination rules: name -> function of per-marginal measures.
RULES = ("frechet", "independent")


def _rule_combine(rule: str, values: Sequence[Fraction]) -> Fraction:
    if rule == "frechet":
        return min(values)
    if rule == "independent":
        out = ONE
        for v in values:
            out *= v
        return out
    raise ValueError(f"unknown combination rule {rule!r} (expected one of {RULES})")


class MarginalFamily:
    """An ordered family of marginal possibility distributions.

    Domains are kept in a deterministic (sorted) order so that product
    points enumerate identically across runs.
    """

    __slots__ = ("marginals", "domains")

    def __init__(self, marginals: Iterable[PossibilityDistribution]):
        self.marginals = tuple(marginals)
        if not self.marginals:
            raise ValueError("a marginal family needs at least one marginal")
        self.domains = tuple(tuple(sorted(m.labels, key=repr)) for m in self.marginals)

    @property
    def n(self) -> int:
        return len(self.marginals)

    def points(self) -> Iterator[tuple]:
        """All product points, in deterministic order."""
        return product(*self.domains)

    def coordinate_values(self, point: Sequence[Hashable]) -> tuple[Fraction, ...]:
        if len(point) != self.n:
            raise ValueError(f"point has {len(point)} coordinates, family has {self.n}")
        return tuple(m[x] for m, x in zip(self.marginals, point))

    def z_value(self, point: Sequence[Hashable]) -> Fraction:
        """Score of a product point: the largest marginal value among its coordinates."""
        return max(self.coordinate_values(point))


def _build_joint(family: MarginalFamily, score) -> PossibilityDistribution:
    values = {}
    for point in family.points():
        values[point] = score(family.coordinate_values(point))
    return PossibilityDistribution(values)


def joint_frechet(family: MarginalFamily) -> PossibilityDistribution:
    """Joint making no dependence assumption: the score ``z`` itself.

    >>> pi1 = PossibilityDistribution({"u": "1/2", "v": 1})
    >>> pi2 = PossibilityDistribution({"s": "3/10", "t": 1})
    >>> joint_frechet(MarginalFamily([pi1, pi2]))[("u", "s")]
    Fraction(1, 2)
    """
    return _build_joint(family, lambda vals: max(vals))


def joint_independent(family: MarginalFamily) -> PossibilityDistribution:
    """Joint for independent sources: ``z ** n``.

    >>> pi1 = PossibilityDistribution({"u": "1/2", "v": 1})
    >>> pi2 = PossibilityDistribution({"s": "3/10", "t": 1})
    >>> joint_independent(MarginalFamily([pi1, pi2]))[("u", "s")]
    Fraction(1, 4)
    """
    n = family.n
    return _build_joint(family, lambda vals: max(vals) ** n)


def joint_rsi_outer(family: MarginalFamily) -> PossibilityDistribution:
    """Outer bound for random-set independence: ``1 - max_i (1 - pi_i) ** n``.

    >>> pi1 = PossibilityDistribution({"u": "1/2", "v": 1})
    >>> pi2 = PossibilityDistribution({"s": "3/10", "t": 1})
    >>> joint_rsi_outer(MarginalFamily([pi1, pi2]))[("u", "s")]
    Fraction(51, 100)
    """
    n = family.n
    return _build_joint(family, lambda vals: ONE - max((ONE - v) ** n for v in vals))


#: Joint constructions by name (the command line's ``joint --rule`` choices).
JOINTS = {
    "frechet": joint_frechet,
    "independent": joint_independent,
    "rsi": joint_rsi_outer,
}


def combine_rectangle(
    family: MarginalFamily, rectangle: Sequence[Iterable[Hashable]], rule: str
) -> Fraction:
    """Combined bound for a rectangle ``A_1 x .. x A_n`` of marginal events.

    Applies the rule (minimum or product) to the marginal possibility
    measures of the components; an empty component gives 0 under either
    rule.

    >>> pi1 = PossibilityDistribution({"u": "1/2", "v": 1})
    >>> pi2 = PossibilityDistribution({"s": "3/10", "t": 1})
    >>> family = MarginalFamily([pi1, pi2])
    >>> combine_rectangle(family, [{"u"}, {"s"}], "frechet")
    Fraction(3, 10)
    >>> combine_rectangle(family, [{"u"}, {"s"}], "independent")
    Fraction(3, 20)
    """
    rect = list(rectangle)
    if len(rect) != family.n:
        raise ValueError(f"rectangle has {len(rect)} components, family has {family.n}")
    values = [m.measure(component) for m, component in zip(family.marginals, rect)]
    return _rule_combine(rule, values)


def _nonempty_subsets(domain: Sequence[Hashable]) -> list[tuple[Hashable, ...]]:
    out = []
    k = len(domain)
    for mask in range(1, 1 << k):
        out.append(tuple(domain[i] for i in range(k) if mask >> i & 1))
    return out


def least_conservative_check(
    family: MarginalFamily, joint: PossibilityDistribution, rule: str
) -> bool:
    """Is ``joint`` the least conservative cumulative bound for ``rule``?

    Two conditions are verified exhaustively:

    * *Canonical form per score level.*  At every product point the joint
      must equal the rule applied to the point's score ``z`` in each
      argument (``z`` for the minimum rule, ``z ** n`` for the product
      rule).  Any smaller value at an occupied level is ruled out because a
      rectangle whose component measures all reach ``z`` would then exceed
      the joint's cumulative value at that level; any larger value is not
      least conservative.
    * *Rectangle dominance.*  For every rectangle of marginal events the
      joint's possibility measure must reach the rule's combined bound.
      Once the first condition holds, the joint is a monotone function of
      the score, so its measure of a rectangle is that function at the
      rectangle's best score -- which is the componentwise maximum of the
      per-marginal measures.

    Returns ``False`` as soon as either condition fails (for instance when
    checking one rule's joint against the other rule).  Raises for an
    unknown rule or a joint living on a different product space.
    """
    if rule not in RULES:
        raise ValueError(f"unknown combination rule {rule!r} (expected one of {RULES})")
    n = family.n
    points = list(family.points())
    if set(points) != set(joint.labels):
        raise ValueError("joint does not live on this family's product space")

    for point in points:
        z = family.z_value(point)
        canonical = z if rule == "frechet" else z**n
        if joint[point] != canonical:
            return False

    subset_measures = [
        {subset: m.measure(subset) for subset in _nonempty_subsets(domain)}
        for m, domain in zip(family.marginals, family.domains)
    ]
    for rect in product(*(list(table) for table in subset_measures)):
        values = [table[component] for table, component in zip(subset_measures, rect)]
        best_score = max(values)
        joint_measure = best_score if rule == "frechet" else best_score**n
        if joint_measure < _rule_combine(rule, values):
            return False
    return True
