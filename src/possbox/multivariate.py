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
:data:`MAX_POINTS` points before anything is built.  Its values are kept
as numerators over one integer denominator ``d``, and the three joints,
:func:`least_conservative_check` and the ``multivariate`` suite work out
``z``, ``z ** n`` and ``d ** n - (d - w) ** n`` on them, one
:class:`~fractions.Fraction` per distinct value.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm, prod
from typing import Hashable, Iterable, Iterator, Sequence

from possbox.chain import _refuse_unordered
from possbox.possibility import PossibilityDistribution
from possbox.rationals import shown

#: Most product points a family's :meth:`~MarginalFamily.vectors` table may
#: cover: the product of the domain sizes.  A joint holds a value per point,
#: and the command line prints each, so the work and the output grow with it:
#: ``possbox joint --rule rsi`` on 2**14 points (14 two-label marginals) took
#: 0.13 s in-process and wrote 0.69 MB on a shared 2-vCPU host (Python 3.11.7),
#: 2**16 points took 0.37 s and 3.0 MB (best of five each).
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

    __slots__ = ("marginals", "domains", "_integers", "_vectors")

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
        self.domains = tuple(m._sorted_levels()[0] for m in self.marginals)
        self._integers = self._vectors = None

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
        table is built on the first call, from :meth:`_integer_vectors`;
        later calls return the same table.  A family of more than
        :data:`MAX_POINTS` product points raises ``ValueError`` before
        anything is built.

        >>> pi1 = PossibilityDistribution({"u": "1/2", "v": 1, "w": "1/2"})
        >>> pi2 = PossibilityDistribution({"s": "3/10", "t": 1})
        >>> for values, z, w, points in MarginalFamily([pi1, pi2]).vectors()[:2]:
        ...     print([str(v) for v in values], str(z), str(w), points)
        ['1/2', '3/10'] 1/2 3/10 (('u', 's'), ('w', 's'))
        ['1/2', '1'] 1 1/2 (('u', 't'), ('w', 't'))
        """
        if self._vectors is None:
            d, rows = self._integer_vectors()
            value = {k: Fraction(k, d) for k in {k for ks, *_ in rows for k in ks}}
            self._vectors = tuple((tuple(map(value.get, ks)), value[z], value[w], points) for ks, z, w, points in rows)
        return self._vectors

    def _integer_vectors(self) -> tuple[int, tuple[tuple[tuple[int, ...], int, int, tuple[tuple, ...]], ...]]:
        """:meth:`vectors` as ``(d, rows)``, each value a numerator over the common denominator ``d``; kept."""
        if self._integers is None:
            if prod(map(len, self.domains)) > MAX_POINTS:
                raise ValueError(f"the product space has more than MAX_POINTS = {MAX_POINTS} points")
            levels = [m._sorted_levels()[1] for m in self.marginals]
            d = lcm(*{v.denominator for marginal in levels for v, _ in marginal})
            rows = []
            for combo in product(*([(v.numerator * (d // v.denominator), ls) for v, ls in lv] for lv in levels)):
                ks, groups = zip(*combo)
                rows.append((ks, max(ks), min(ks), tuple(product(*groups))))
            self._integers = d, tuple(rows)
        return self._integers


def _build_joint(family: MarginalFamily, score) -> PossibilityDistribution:
    """The joint whose value at a product point is ``Fraction(*score(z, w, d))`` of the point's vector.

    ``z`` and ``w`` are numerators over ``d`` (:meth:`MarginalFamily._integer_vectors`).
    The score is worked out once per vector, one :class:`Fraction` is made
    per distinct pair and checked once (:meth:`PossibilityDistribution._checked`),
    with the constructor's messages naming the first point of the first
    vector that has the value.  The labels keep :meth:`MarginalFamily.points` order.
    """
    d, rows = family._integer_vectors()
    values = dict.fromkeys(family.points())
    made: dict[tuple[int, int], tuple[Fraction, tuple]] = {}
    for _, z, w, points in rows:
        pair = score(z, w, d)
        if pair not in made:
            made[pair] = Fraction(*pair), points[0]
        values.update(dict.fromkeys(points, made[pair][0]))
    return PossibilityDistribution._checked(values, made.values())


def joint_frechet(family: MarginalFamily) -> PossibilityDistribution:
    """Joint making no dependence assumption: the score ``z`` itself.

    >>> pi1 = PossibilityDistribution({"u": "1/2", "v": 1})
    >>> pi2 = PossibilityDistribution({"s": "3/10", "t": 1})
    >>> joint_frechet(MarginalFamily([pi1, pi2]))[("u", "s")]
    Fraction(1, 2)
    """
    return _build_joint(family, lambda z, w, d: (z, d))


def joint_independent(family: MarginalFamily) -> PossibilityDistribution:
    """Joint for independent sources: ``z ** n``.

    >>> pi1 = PossibilityDistribution({"u": "1/2", "v": 1})
    >>> pi2 = PossibilityDistribution({"s": "3/10", "t": 1})
    >>> joint_independent(MarginalFamily([pi1, pi2]))[("u", "s")]
    Fraction(1, 4)
    """
    n = len(family.marginals)
    return _build_joint(family, lambda z, w, d: (z**n, d**n))


def joint_rsi_outer(family: MarginalFamily) -> PossibilityDistribution:
    """Outer bound for random-set independence: ``1 - (1 - w) ** n``.

    >>> pi1 = PossibilityDistribution({"u": "1/2", "v": 1})
    >>> pi2 = PossibilityDistribution({"s": "3/10", "t": 1})
    >>> joint_rsi_outer(MarginalFamily([pi1, pi2]))[("u", "s")]
    Fraction(51, 100)
    """
    n = len(family.marginals)
    return _build_joint(family, lambda z, w, d: (d**n - (d - w) ** n, d**n))


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
    d, rows = family._integer_vectors()
    if sum(len(row[3]) for row in rows) != len(joint) or not all(map(joint.__contains__, family.points())):
        raise ValueError("joint does not live on this family's product space")

    # The score z / d goes to least(z, n) / least(d, n) under either rule: one Fraction per distinct z.
    canonical = {z: Fraction(least(z, n), least(d, n)).as_integer_ratio() for z in {row[1] for row in rows}}
    for _, z, _, points in rows:
        num, den = canonical[z]
        for point in points:
            value = joint[point]
            if value.numerator != num or value.denominator != den:
                return False
    return True
