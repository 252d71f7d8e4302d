"""Joint possibility distributions built from marginal ones.

Given marginals on finite spaces, the product point ``x = (x_1, .., x_n)``
has the coordinate values ``pi_i(x_i)``, with largest ``z(x) = max_i pi_i(x_i)``
(the score) and smallest ``w(x) = min_i pi_i(x_i)``.  Three constructions are
provided: the Fréchet joint ``z`` (no dependence assumption), the
independent-style joint ``z ** n``, and an outer approximation for random-set
independence ``1 - (1 - w) ** n``.  Rectangle combination rules and a
least-conservative check relate the first two joints to the bounds they are
meant to dominate.

Every joint value, and every rectangle's combined bound, depends on a point
or a rectangle only through its vector of marginal values.  A
:class:`MarginalFamily` groups each marginal's labels by value once, and
:meth:`MarginalFamily.vectors` lists each such vector with the product
points that have it; the joints, :func:`least_conservative_check` and the
``multivariate`` verification suite all read that one grouping.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod
from typing import Hashable, Iterable, Iterator, Sequence

from possbox.possibility import PossibilityDistribution, value_levels
from possbox.rationals import ONE

#: Rectangle combination rules: name -> function of per-marginal measures.
RULES = {"frechet": min, "independent": prod}


def _check_rule(rule: str) -> None:
    if rule not in RULES:
        raise ValueError(f"unknown combination rule {rule!r} (expected one of {tuple(RULES)})")


class MarginalFamily:
    """An ordered family of marginal possibility distributions.

    Domains are kept in a deterministic (sorted) order so that product
    points enumerate identically across runs.  Each marginal's labels are
    also grouped by value once, here: ``levels[i]`` lists marginal ``i``'s
    distinct values in ascending order, each with its labels in domain
    order.
    """

    __slots__ = ("marginals", "domains", "levels")

    def __init__(self, marginals: Iterable[PossibilityDistribution]):
        self.marginals = tuple(marginals)
        if not self.marginals:
            raise ValueError("a marginal family needs at least one marginal")
        self.domains = tuple(tuple(sorted(m.labels, key=repr)) for m in self.marginals)
        self.levels = tuple(value_levels(m, domain) for m, domain in zip(self.marginals, self.domains))

    @property
    def n(self) -> int:
        return len(self.marginals)

    def points(self) -> Iterator[tuple]:
        """All product points, in deterministic order."""
        return product(*self.domains)

    def vectors(self) -> Iterator[tuple[tuple[Fraction, ...], Iterator[tuple]]]:
        """Each vector of coordinate values, with the product points that have it.

        Vectors come in lexicographic order, each component running over
        its marginal's distinct values in ascending order; a vector's points
        come in :meth:`points` order.  Together the points are every product
        point, each once.  The points are an iterator, read once.

        >>> pi1 = PossibilityDistribution({"u": "1/2", "v": 1, "w": "1/2"})
        >>> pi2 = PossibilityDistribution({"s": 1})
        >>> for values, points in MarginalFamily([pi1, pi2]).vectors():
        ...     print([str(v) for v in values], list(points))
        ['1/2', '1'] [('u', 's'), ('w', 's')]
        ['1', '1'] [('v', 's')]
        """
        for combo in product(*self.levels):
            yield tuple(v for v, _ in combo), product(*(labels for _, labels in combo))


def _build_joint(family: MarginalFamily, score) -> PossibilityDistribution:
    values = dict.fromkeys(family.points())
    for vector, points in family.vectors():
        value = score(vector)
        for point in points:
            values[point] = value
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
    """Outer bound for random-set independence: ``1 - (1 - w) ** n``.

    >>> pi1 = PossibilityDistribution({"u": "1/2", "v": 1})
    >>> pi2 = PossibilityDistribution({"s": "3/10", "t": 1})
    >>> joint_rsi_outer(MarginalFamily([pi1, pi2]))[("u", "s")]
    Fraction(51, 100)
    """
    n = family.n
    return _build_joint(family, lambda vals: ONE - (ONE - min(vals)) ** n)


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
    _check_rule(rule)
    return RULES[rule](m.measure(component) for m, component in zip(family.marginals, rect))


def least_conservative_check(
    family: MarginalFamily, joint: PossibilityDistribution, rule: str
) -> bool:
    """Is ``joint`` the least conservative cumulative bound for ``rule``?

    Checks the *canonical form per score level*: at every product point the
    joint must equal the rule applied to the point's score ``z`` in each
    argument (``z`` for the minimum rule, ``z ** n`` for the product rule).
    Any smaller value at an occupied level is ruled out because a rectangle
    whose component measures all reach ``z`` would then exceed the joint's
    cumulative value at that level; any larger value is not least
    conservative.  Every point of ``joint`` is read.

    *Rectangle dominance* (the joint's measure of every rectangle of
    marginal events reaches the rule's combined bound) then holds without a
    further check.  The canonical joint is a monotone function of the
    score, so its measure of a rectangle with component measures ``v`` is
    that function at the rectangle's best score ``max v``: ``max v`` or
    ``(max v) ** n``.  Every ``v_i`` lies in ``[0, 1]``, so
    ``max v >= min v`` and ``(max v) ** n >= prod v``.

    Returns ``False`` at the first point off the canonical form (for
    instance when checking one rule's joint against the other rule).
    Raises for an unknown rule or a joint living on a different product
    space.
    """
    _check_rule(rule)
    n = family.n
    if set(family.points()) != joint.labels:
        raise ValueError("joint does not live on this family's product space")

    for values, points in family.vectors():
        z = max(values)
        canonical = z if rule == "frechet" else z**n
        for point in points:
            if joint[point] != canonical:
                return False
    return True
