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
or a rectangle only through its vector of marginal values.
:meth:`MarginalFamily.vectors` lists each such vector with its largest
value ``z``, its smallest value ``w`` and the product points that have it,
in one table built on the first call, and refused past
:data:`MAX_POINTS` points before anything is built: the three joints,
:func:`least_conservative_check` and the ``multivariate`` verification
suite all read that table.  A joint works out its value once per vector and
checks each distinct value once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod
from typing import Hashable, Iterable, Iterator, Sequence

from possbox.chain import _refuse_unordered
from possbox.possibility import PossibilityDistribution, value_levels
from possbox.rationals import ONE, shown

#: Most product points a family's :meth:`~MarginalFamily.vectors` table may
#: cover: the product of the domain sizes.  A joint holds a value per point,
#: and the command line prints each, so the work and the output grow with it:
#: ``possbox joint --rule rsi`` on 2**14 points (14 two-label marginals) took
#: 0.35 s in-process and wrote 0.69 MB on a shared 2-vCPU host (Python 3.11),
#: 2**16 points took 1.7 s and 3.0 MB.
MAX_POINTS = 2**14

#: Rule name -> (rectangle combination, least-conservative joint value at score z of n marginals).
RULES = {"frechet": (min, lambda z, n: z), "independent": (prod, lambda z, n: z**n)}


def _rule(rule: str):
    if rule not in RULES:
        raise ValueError(f"unknown combination rule {shown(rule, repr)} (expected one of {tuple(RULES)})")
    return RULES[rule]


class MarginalFamily:
    """An ordered family of marginal possibility distributions.

    Domains are kept in a deterministic (sorted) order so that product
    points enumerate identically across runs.  A joint, keyed on tuples, is
    refused as a marginal.  Building a family visits no product point;
    :meth:`vectors` does, once.
    """

    __slots__ = ("marginals", "domains", "_vectors")

    def __init__(self, marginals: Iterable[PossibilityDistribution]):
        self.marginals = tuple(marginals)
        if not self.marginals:
            raise ValueError("a marginal family needs at least one marginal")
        for i, m in enumerate(self.marginals):
            if not isinstance(m, PossibilityDistribution):
                raise ValueError(f"marginal {i} is a {type(m).__name__}, not a PossibilityDistribution")
            joint_key = next((label for label in m if isinstance(label, tuple)), None)
            if joint_key is not None:
                raise ValueError(f"marginal {i} has the point key {shown(joint_key, repr)}: a joint is not a marginal")
        self.domains = tuple(tuple(sorted(m.labels, key=repr)) for m in self.marginals)
        self._vectors = None

    def points(self) -> Iterator[tuple]:
        """All product points, in deterministic order."""
        return product(*self.domains)

    def vectors(self) -> tuple[tuple[tuple[Fraction, ...], Fraction, Fraction, tuple[tuple, ...]], ...]:
        """Each vector of coordinate values as ``(values, z, w, points)``.

        ``z`` and ``w`` are the largest and the smallest of ``values``, and
        ``points`` the product points that have the vector, in
        :meth:`points` order; together the points are every product point,
        each once.  Vectors come in lexicographic order, each component
        running over its marginal's distinct values in ascending order.  The
        table is built on the first call, which groups each marginal's
        labels by value; later calls return the same table.  A family of
        more than :data:`MAX_POINTS` product points raises ``ValueError``
        before anything is built.

        >>> pi1 = PossibilityDistribution({"u": "1/2", "v": 1, "w": "1/2"})
        >>> pi2 = PossibilityDistribution({"s": "3/10", "t": 1})
        >>> for values, z, w, points in MarginalFamily([pi1, pi2]).vectors()[:2]:
        ...     print([str(v) for v in values], str(z), str(w), points)
        ['1/2', '3/10'] 1/2 3/10 (('u', 's'), ('w', 's'))
        ['1/2', '1'] 1 1/2 (('u', 't'), ('w', 't'))
        """
        if self._vectors is None:
            points = 1
            for domain in self.domains:
                points *= len(domain)
                if points > MAX_POINTS:
                    raise ValueError(f"the product space has more than MAX_POINTS = {MAX_POINTS} points")
            table = []
            for combo in product(*map(value_levels, self.marginals, self.domains)):
                values = tuple(v for v, _ in combo)
                points = tuple(product(*(labels for _, labels in combo)))
                table.append((values, max(values), min(values), points))
            self._vectors = tuple(table)
        return self._vectors


def _build_joint(family: MarginalFamily, score) -> PossibilityDistribution:
    """The joint whose value at a product point is ``score(z, w)`` of the point's vector.

    The score is worked out once per vector and each distinct value is
    checked once (:meth:`PossibilityDistribution._checked`), with the
    constructor's messages naming the first point of the first vector that
    has the value.  The labels keep :meth:`MarginalFamily.points` order.
    """
    table = family.vectors()
    values = dict.fromkeys(family.points())
    distinct: dict[tuple[int, int], tuple[Fraction, tuple]] = {}
    for _, z, w, points in table:
        value = score(z, w)
        for point in points:
            values[point] = value
        distinct.setdefault((value.numerator, value.denominator), (value, points[0]))
    return PossibilityDistribution._checked(values, distinct.values())


def joint_frechet(family: MarginalFamily) -> PossibilityDistribution:
    """Joint making no dependence assumption: the score ``z`` itself.

    >>> pi1 = PossibilityDistribution({"u": "1/2", "v": 1})
    >>> pi2 = PossibilityDistribution({"s": "3/10", "t": 1})
    >>> joint_frechet(MarginalFamily([pi1, pi2]))[("u", "s")]
    Fraction(1, 2)
    """
    return _build_joint(family, lambda z, w: z)


def joint_independent(family: MarginalFamily) -> PossibilityDistribution:
    """Joint for independent sources: ``z ** n``.

    >>> pi1 = PossibilityDistribution({"u": "1/2", "v": 1})
    >>> pi2 = PossibilityDistribution({"s": "3/10", "t": 1})
    >>> joint_independent(MarginalFamily([pi1, pi2]))[("u", "s")]
    Fraction(1, 4)
    """
    n = len(family.marginals)
    return _build_joint(family, lambda z, w: z**n)


def joint_rsi_outer(family: MarginalFamily) -> PossibilityDistribution:
    """Outer bound for random-set independence: ``1 - (1 - w) ** n``.

    >>> pi1 = PossibilityDistribution({"u": "1/2", "v": 1})
    >>> pi2 = PossibilityDistribution({"s": "3/10", "t": 1})
    >>> joint_rsi_outer(MarginalFamily([pi1, pi2]))[("u", "s")]
    Fraction(51, 100)
    """
    n = len(family.marginals)
    return _build_joint(family, lambda z, w: ONE - (ONE - w) ** n)


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
    if isinstance(rectangle, str):
        raise ValueError(f"rectangle {shown(rectangle, repr)} is a string, not a list of events")
    _refuse_unordered(rectangle, "rectangle", "events")
    rect = list(rectangle)
    if len(rect) != len(family.marginals):
        raise ValueError(f"rectangle has {len(rect)} components, family has {len(family.marginals)}")
    return _rule(rule)[0](m.measure(component) for m, component in zip(family.marginals, rect))


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
    conservative.  Every point of ``joint`` is read, and compared with the
    canonical value as a numerator and denominator pair (``joint`` may hold
    any exact rationals in lowest terms, ``int`` included).

    *Rectangle dominance* (the joint's measure of every rectangle of
    marginal events reaches the rule's combined bound) then holds without a
    further check.  The canonical joint is a monotone function of the
    score, so its measure of a rectangle with component measures ``v`` is
    that function at the rectangle's best score ``max v``: ``max v`` or
    ``(max v) ** n``.  Every ``v_i`` lies in ``[0, 1]``, so
    ``max v >= min v`` and ``(max v) ** n >= prod v``.

    Returns ``False`` at the first point off the canonical form (for
    instance when checking one rule's joint against the other rule).
    Raises for an unknown rule, a family past :data:`MAX_POINTS`, or a
    joint living on a different product space.
    """
    least = _rule(rule)[1]
    n = len(family.marginals)
    table = family.vectors()
    if sum(len(row[3]) for row in table) != len(joint) or not all(map(joint.__contains__, family.points())):
        raise ValueError("joint does not live on this family's product space")

    for _, z, _, points in table:
        canonical = least(z, n)
        num, den = canonical.numerator, canonical.denominator
        for point in points:
            value = joint[point]
            if value.numerator != num or value.denominator != den:
                return False
    return True
