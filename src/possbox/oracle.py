"""Independent ground truth: exact optimization over credal sets.

Everything in this module deliberately avoids the closed-form machinery of
:mod:`possbox.pbox`.  A probability box is read as nothing more than a list
of linear constraints on a probability mass function, and event bounds are
obtained by maximizing with an exact simplex (Bland's rule, no floating
point anywhere).  The verification suites compare these optima against the
formula route; a disagreement means one side is wrong.

The simplex runs on an integer tableau: each row's coefficients are scaled
to integers, every right-hand side is put over one denominator kept aside,
and pivots are fraction-free (Bareiss 1968; Edmonds), so no ``Fraction`` is
built until the optimum is returned.  A box's rows are 0/1 intervals, a
totally unimodular matrix (Hoffman and Kruskal 1956), so each of its pivots
is 1 or -1 over the denominator 1.  Callers ask many objectives over one
region (every event of one box): a :class:`Region` runs phase 1 once, when
built, and keeps one basis, its ``start``.  Each call given the region runs
phase 2 alone from ``start`` and stores its optimal basis there.  Any basis
of the region is feasible for every objective, Bland's rule terminates from
it and the optimal value is unique, so answers never depend on call order;
only pivot counts do.  The credal routines keep the last box's region.

Masses live on elements, one variable each, listed class by class, so a
chain of singleton classes has one variable per class.  The programs never
use the quotient reduction the closed forms rest on (mass inside a class can
sit on any element); comparing the two routes on chains with tied classes
checks it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Sequence

from possbox.chain import Label, class_subsets
from possbox.pbox import PBox
from possbox.possibility import PossibilityDistribution
from possbox.rationals import ONE, ZERO, exact, shown

#: ``(coefficients, sense, rhs)``: exact rationals as ``exact`` reads them, an ``int`` read as it is.
Row = tuple[Sequence[object], str, object]
#: An upper probability of a union of classes, given as a sorted index tuple.
ClassUpper = Callable[[PBox, tuple[int, ...]], Fraction]

_FLIPPED = {"<=": ">=", ">=": "<=", "==": "=="}

#: Largest chain :func:`exhaustive_max_preserving` enumerates: ``2**m`` LP
#: solves, then ``4**m`` pairs of class unions.
MAX_CLASSES = 10
#: Largest space :func:`credal_intersection_equal` enumerates: two
#: phase-2 solves per event, with a row per event and distribution.
MAX_ELEMENTS = 8


class Infeasible(Exception):
    """The linear system has no feasible point."""


class Region:
    """A linear system's rows, as given and read once through ``exact``, and its phase 1.

    Each row is scaled by the lcm of its coefficients' denominators (1 on a
    box's 0/1 rows), and every right-hand side is put over one denominator,
    ``_rhs_den``.  Neither changes a reduced-cost sign, ratio order or tie
    in phase 2; phase 1 weighs each artificial by its row's scale.
    ``start`` is the basis phase 2 starts from, ``None`` if the region is
    empty: a ``(tableau, basis, d)`` triple of ``int`` entries, the tableau
    ``d`` times the scaled system's (``d > 0`` is ``|det|`` of the basis),
    artificial columns removed and the right-hand side last.  It is phase
    1's basis until :func:`simplex_max` stores the last optimum found on
    it.  ``width`` counts the structural and slack columns.  Rows are never
    mutated in place, so a copy of the outer sequence is a copy of the tableau.
    """

    def __init__(self, num_vars: int, constraints: Iterable[Row]):
        self.num_vars = num_vars
        self.constraints = tuple(constraints)
        self.start = None
        scaled: list[tuple[list[int], str, int | Fraction]] = []
        for coeffs, sense, rhs in self.constraints:
            if len(coeffs) != num_vars:
                raise ValueError("constraint width does not match the variable count")
            if sense not in _FLIPPED:
                raise ValueError(f"unknown constraint sense {sense!r}")
            row = [c if type(c) is int else exact(c) for c in coeffs]
            rhs = rhs if type(rhs) is int else exact(rhs)
            if rhs < 0:
                row, rhs, sense = [-c for c in row], -rhs, _FLIPPED[sense]
            # Star-args from lists: CPython builds a generator's tuple outside its tuple
            # freelist, then frees it onto the freelist, which fills (peak RSS grows).
            scale = lcm(*[c.denominator for c in row])
            scaled.append(([c.numerator * (scale // c.denominator) for c in row], sense, rhs * scale))
        self._rhs_den = den = lcm(*[rhs.denominator for _, _, rhs in scaled])

        n_slack = sum(1 for _, sense, _ in scaled if sense != "==")
        n_art = sum(1 for _, sense, _ in scaled if sense != "<=")
        art_start = self.width = num_vars + n_slack

        tableau: list[list[int]] = []
        basis: list[int] = []
        slack_i, art_i = num_vars, art_start
        for ints, sense, rhs in scaled:
            row = ints + [0] * (n_slack + n_art) + [rhs.numerator * (den // rhs.denominator)]
            if sense != "==":
                row[slack_i] = 1 if sense == "<=" else -1
                slack_i += 1
            basis.append(slack_i - 1 if sense == "<=" else art_i)
            if sense != "<=":
                row[art_i] = 1
                art_i += 1
            tableau.append(row)

        d = 1
        if n_art:
            cost = [0] * art_start + [-1] * n_art
            tableau.append(_objective_row(tableau, basis, cost, d))
            d = _bland(tableau, basis, d)
            if tableau.pop()[-1] != 0:
                return
            # Drive the artificials left in the basis (all at level zero) out of
            # it; a row with no structural or slack entry is a redundant equality.
            i = 0
            while i < len(tableau):
                if basis[i] >= art_start:
                    row = tableau[i]
                    j = next((j for j in range(art_start) if row[j]), -1)
                    if j < 0:
                        del tableau[i]
                        del basis[i]
                        continue
                    d = _pivot(tableau, basis, i, j, d)
                i += 1
            tableau = [row[:art_start] + [row[-1]] for row in tableau]
        self.start = (tuple(tableau), tuple(basis), d)


def simplex_max(
    num_vars: int, constraints: Iterable[Row], objective: Sequence[object], *, region: Region | None = None
) -> Fraction:
    """Maximize ``objective . x`` over ``x >= 0`` subject to ``constraints``.

    ``constraints`` are ``(coefficients, sense, rhs)`` with sense one of
    ``"<="``, ``">="``, ``"=="``; coefficients, right-hand sides and costs
    are an ``int``, taken as it is, or an exact rational as
    :func:`~possbox.rationals.exact` reads it, so a binary float raises
    ``ValueError``.  Exact two-phase simplex with Bland's anti-cycling rule
    on an integer fraction-free tableau, the costs put over one denominator;
    the optimum is the one ``Fraction`` made.  Phase 1 runs on a fresh
    :class:`Region` unless ``region``, built from these same row objects,
    is given (other rows or ``num_vars`` raise ``ValueError``).  Calls given
    one region start phase 2 from the last optimal basis found on it, and
    store theirs; the answer never depends on call order.  Without
    ``region`` nothing is remembered.  An infeasible region raises
    :class:`Infeasible`.  A constraint or objective wider than ``num_vars``
    raises ``ValueError``.  Assumes a bounded optimum (every system in this
    module lives inside the probability simplex) and raises
    ``ArithmeticError`` otherwise.
    """
    if region is None:
        region = Region(num_vars, constraints)
    elif num_vars != region.num_vars or (
        constraints is not region.constraints and [*map(id, constraints)] != [*map(id, region.constraints)]
    ):
        raise ValueError("constraints are not the rows the region was built from")
    cost = [c if type(c) is int else exact(c) for c in objective]
    if len(cost) > num_vars:
        raise ValueError("objective width exceeds the variable count")
    if region.start is None:
        raise Infeasible
    scale = 1
    if not all(type(c) is int for c in cost):
        scale = lcm(*[c.denominator for c in cost])
        cost = [c.numerator * (scale // c.denominator) for c in cost]
    cost += [0] * (region.width - len(cost))
    start, basis, d = region.start
    tableau, basis = list(start), list(basis)
    tableau.append(_objective_row(tableau, basis, cost, d))
    d = _bland(tableau, basis, d)
    value = tableau.pop()[-1]
    region.start = (tableau, basis, d)
    return Fraction(value, d * scale * region._rhs_den)


def _objective_row(rows: Sequence[list[int]], basis: Sequence[int], cost: list[int], d: int) -> list[int]:
    """``d`` times the negated reduced costs, and ``d`` times the value last.

    Entry ``j`` is ``sum_i cost[basis[i]] * rows[i][j] - d * cost[j]``: a
    negative entry marks an improving column.  It pivots like any row.
    """
    z = [-c * d for c in cost] + [0]
    for row, b in zip(rows, basis):
        cb = cost[b]
        if cb:
            z = [zj + cb * t for zj, t in zip(z, row)]
    return z


def _bland(tableau: list[list[int]], basis: list[int], d: int) -> int:
    """Pivot to optimality by Bland's rule (the last row is the objective); return the final ``d``."""
    n_rows = len(tableau) - 1
    while True:
        z = tableau[-1]
        enter = next((j for j in range(len(z) - 1) if z[j] < 0), -1)
        if enter < 0:
            return d
        leave = -1
        for i in range(n_rows):
            row = tableau[i]
            a = row[enter]
            # Ratios rhs / a compared by cross-multiplying (a > 0, best_a > 0),
            # a tie going to the lower basic column.
            if a > 0 and (leave < 0 or (row[-1] * best_a, basis[i]) < (best_rhs * a, basis[leave])):
                leave, best_rhs, best_a = i, row[-1], a
        if leave < 0:
            raise ArithmeticError("unbounded objective in a credal program")
        d = _pivot(tableau, basis, leave, enter, d)


def _pivot(
    tableau: list[list[int]], basis: list[int], pivot_row: int, pivot_col: int, d: int
) -> int:
    """Fraction-free pivot; returns the new common denominator.

    Every row but the pivot row becomes ``(row * p - row[col] * pivot) // d``
    with ``p`` the pivot entry, and ``p`` becomes the denominator.  The
    division is exact because each entry is a minor of the scaled integer
    system.  A negative pivot negates the whole tableau to keep ``d > 0``,
    folded in by negating the pivot row first.  A unit pivot (``p == d ==
    1``, every pivot on a box) subtracts.  Rows are replaced, never mutated.
    """
    pivot = tableau[pivot_row]
    p = pivot[pivot_col]
    if p < 0:
        pivot = tableau[pivot_row] = [-v for v in pivot]
        p = -p
    for i, row in enumerate(tableau):
        if i == pivot_row:
            continue
        f = row[pivot_col]
        if f and p == d == 1:
            tableau[i] = [v - f * w for v, w in zip(row, pivot)]
        elif f:
            tableau[i] = [(v * p - f * w) // d for v, w in zip(row, pivot)]
        elif p != d:
            tableau[i] = [v * p // d for v in row]
    basis[pivot_row] = pivot_col
    return p


# --------------------------------------------------------------- credal LPs


#: The last box asked about and its region, compared by identity: the slot
#: holds the box, so its ``id`` cannot be reused while it is cached.
_slot: tuple[PBox | None, Region | None] = (None, None)


def _box_region(box: PBox) -> Region:
    """The box's credal set: cumulative constraints on element masses, class by class.

    The mass variables follow :meth:`possbox.chain.Chain.labels_by_class`,
    and the prefix row of class ``i``, of ``int`` 0s and 1s, sums the masses
    of classes ``0..i``.
    Rows that cannot bind are dropped: a lower bound of 0 is implied by
    nonnegativity and an upper bound of 1 below the top by the total mass.
    The top class carries the total-mass equality.  A box is immutable and
    exact, so :data:`_slot` is keyed on its identity and hashes no vector.
    """
    global _slot
    slot_box, region = _slot
    if slot_box is box:
        return region
    sizes = [len(cls) for cls in box.chain.classes]
    n = sum(sizes)
    rows: list[Row] = []
    covered = 0
    for i in range(box.chain.m - 1):
        covered += sizes[i]
        prefix = [1] * covered + [0] * (n - covered)
        if box.upper_cdf[i] != ONE:
            rows.append((prefix, "<=", box.upper_cdf[i]))
        if box.lower_cdf[i] != ZERO:
            rows.append((prefix, ">=", box.lower_cdf[i]))
    rows.append(([1] * n, "==", 1))
    region = Region(n, rows)
    if region.start is None:  # pragma: no cover - valid boxes always admit a distribution
        raise RuntimeError("credal set of a valid probability box came up empty")
    _slot = (box, region)
    return region


def credal_upper_classes(box: PBox, indices: Iterable[int]) -> Fraction:
    """LP optimum for a union of classes given by index.

    Each index must be an ``int`` naming a class; a ``bool`` is refused, as
    :func:`~possbox.rationals.exact` refuses one.
    """
    listed = tuple(indices)
    for i in listed:
        if isinstance(i, bool) or not isinstance(i, int):
            raise ValueError(f"class index {shown(i, repr)} is not an int")
    hit = set(listed)
    if not hit:
        return ZERO
    for i in sorted(hit):
        if not 0 <= i < box.chain.m:
            raise ValueError(f"class index {shown(i)} out of range")
    return _box_max(box, [1 if i in hit else 0 for i, cls in enumerate(box.chain.classes) for _ in cls])


def credal_upper(box: PBox, event: Iterable[Label]) -> Fraction:
    """Maximum probability of an event over the box's credal set.

    The credal set is cut out by the cumulative constraints alone; no
    formula from :mod:`possbox.pbox` is consulted.

    >>> from possbox.chain import Chain
    >>> box = PBox(Chain([["a"], ["b"], ["c"]]), ["0", "0", "1"], ["1/2", "4/5", "1"])
    >>> credal_upper(box, {"a", "c"})
    Fraction(1, 1)
    """
    hit = box.chain.event(event)
    if not hit:
        return ZERO
    return _box_max(box, [1 if label in hit else 0 for _, label in box.chain.labels_by_class()])


def credal_lower(box: PBox, event: Iterable[Label]) -> Fraction:
    """Minimum probability of an event over the credal set: one minus the most mass off it.

    The objective, 1 on each element outside the event, is read off the
    labels, not through ``Chain.complement``, which the closed forms use.
    """
    hit = box.chain.event(event)
    return ONE - _box_max(box, [0 if label in hit else 1 for _, label in box.chain.labels_by_class()])


def _box_max(box: PBox, objective: list[int]) -> Fraction:
    """:func:`simplex_max` of an ``int`` objective over the box's region."""
    region = _box_region(box)
    return simplex_max(region.num_vars, region.constraints, objective, region=region)


# ------------------------------------------------------------ whole-model checks


def check_coherence(box: PBox, upper: ClassUpper | None = None) -> bool:
    """Does the LP reproduce the box's own cumulative bounds?

    For every class ``x`` the optimum over ``[bottom, x]`` must equal the
    upper vector there, and the optimum over ``(x, top]`` must equal one
    minus the lower vector.  A failure would mean the cumulative vectors
    are not coherent as stated, i.e. a modelling tripwire.  ``upper``
    defaults to the LP oracle; the oracle suite passes its own optima.
    """
    if upper is None:
        upper = credal_upper_classes
    m = box.chain.m
    for i in range(m):
        if upper(box, tuple(range(i + 1))) != box.upper_cdf[i]:
            return False
        if upper(box, tuple(range(i + 1, m))) != ONE - box.lower_cdf[i]:
            return False
    return True


def exhaustive_max_preserving(box: PBox) -> bool:
    """Semantic maxitivity check: ``upper(A or B) == max(upper(A), upper(B))``.

    Enumerates every pair of class unions (events intersecting the same
    classes share their upper probability, so this covers all event pairs),
    each union indexed by its bitmask over the class indices and valued by
    the LP oracle.  Refuses a chain of more than :data:`MAX_CLASSES` classes.
    """
    m = box.chain.m
    if m > MAX_CLASSES:
        raise ValueError(f"chain has {m} classes; refusing to enumerate beyond {MAX_CLASSES}")
    value = [credal_upper_classes(box, subset) for subset in class_subsets(m)]
    masks = range(len(value))
    return all(value[a | b] == max(value[a], value[b]) for a in masks for b in masks)


def credal_intersection_equal(box: PBox, pi_one: PossibilityDistribution, pi_two: PossibilityDistribution) -> bool:
    """Does the box's credal set equal the two distributions' joint credal set?

    Builds both constraint systems at element level -- the box's cumulative
    rows on one side, every event constraint ``P(A) <= Pi_k(A)`` of both
    possibility measures on the other (all ``2^|domain|`` of them,
    redundant but unambiguous) -- and compares the LP optima on every
    event.  Equality of all upper values is equality of the credal sets.
    Refuses a space of more than :data:`MAX_ELEMENTS` elements.
    """
    chain = box.chain
    if pi_one.labels != chain.labels or pi_two.labels != chain.labels:
        raise ValueError("distributions must share the box's element set")
    elements = [label for _, label in chain.labels_by_class()]
    n = len(elements)
    if n > MAX_ELEMENTS:
        raise ValueError(f"space has {n} elements; refusing to enumerate beyond {MAX_ELEMENTS}")
    poss_rows: list[Row] = [([1] * n, "==", 1)]
    objectives: list[list[int]] = []
    for subset in class_subsets(n)[1:]:
        indicator = [1 if k in subset else 0 for k in range(n)]
        objectives.append(indicator)
        members = [elements[k] for k in subset]
        for pi in (pi_one, pi_two):
            bound = pi.measure(members)
            if bound != ONE:
                poss_rows.append((indicator, "<=", bound))
    box_region, poss_region = _box_region(box), Region(n, poss_rows)
    return all(
        simplex_max(n, box_region.constraints, objective, region=box_region)
        == simplex_max(n, poss_region.constraints, objective, region=poss_region)
        for objective in objectives
    )
