"""Independent ground truth: exact optimization over credal sets.

Everything in this module deliberately avoids the closed-form machinery of
:mod:`possbox.pbox`.  A probability box is read as nothing more than a list
of linear constraints on a probability mass function, and event bounds are
obtained by maximizing with an exact simplex (Bland's rule, no floating
point anywhere).  The verification suites compare these optima against the
formula route; a disagreement means one side is wrong.

The simplex runs on an integer tableau: each row is scaled to integers and
pivots are fraction-free (Bareiss 1968; Edmonds), so every entry is an
integer numerator over one common denominator and no ``Fraction`` is built
until the optimum is returned.  Callers ask many objectives over one
region (every event of one box), so the feasible basis found by phase 1 is
kept for the last :data:`PHASE_ONE_MEMO_SIZE` regions and each call runs
phase 2 alone from a copy of it.

Masses live on quotient classes: within a class, mass can sit on any
element, so a class intersecting the target event contributes in full.  The
reduction is itself cross-checked against an element-level program by
:func:`credal_upper_elements`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Callable, Iterable, NamedTuple, Sequence

from possbox.chain import Label
from possbox.pbox import PBox
from possbox.possibility import PossibilityDistribution
from possbox.rationals import ONE, ZERO, exact

Row = tuple[Sequence[Fraction], str, Fraction]

#: Regions whose phase-1 result is kept, most recently solved first.  Two
#: covers :func:`credal_intersection_equal`, which alternates between the
#: box's rows and the possibility rows; a sweep moves to a new region with
#: each box, so a larger memo would keep nothing a later call asks for.
PHASE_ONE_MEMO_SIZE = 2

_FLIPPED = {"<=": ">=", ">=": "<=", "==": "=="}


class Infeasible(Exception):
    """The linear system has no feasible point."""


class _Start(NamedTuple):
    """A feasible basis of one region: the phase-2 starting point.

    ``rows`` are integer numerators over the common denominator ``d > 0``,
    artificial columns removed, the right-hand side last; ``width`` counts
    the structural and slack columns.  Rows are never mutated in place, so
    a copy of the outer sequence is a copy of the tableau.
    """

    rows: tuple[list[int], ...]
    basis: tuple[int, ...]
    d: int
    width: int


_phase_one_memo: list[tuple[tuple, _Start | None]] = []


def simplex_max(num_vars: int, constraints: Iterable[Row], objective: Sequence[object]) -> Fraction:
    """Maximize ``objective . x`` over ``x >= 0`` subject to ``constraints``.

    ``constraints`` are ``(coefficients, sense, rhs)`` with sense one of
    ``"<="``, ``">="``, ``"=="``; coefficients, right-hand sides and costs
    are exact rationals as :func:`~possbox.rationals.exact` reads them, so a
    binary float raises ``ValueError`` (rows equal to a memoised region's
    are not read again).  Exact two-phase simplex with
    Bland's anti-cycling rule on an integer fraction-free tableau.  Phase 1
    runs once per region while the region is among the last
    :data:`PHASE_ONE_MEMO_SIZE` asked for; an infeasible region raises
    :class:`Infeasible` on every call.  A constraint or objective wider than
    ``num_vars`` raises ``ValueError``.  Assumes a bounded optimum (every
    system in this module lives inside the probability simplex) and raises
    ``ArithmeticError`` otherwise.
    """
    key = (num_vars, tuple((tuple(coeffs), sense, rhs) for coeffs, sense, rhs in constraints))
    costs = [c if isinstance(c, (int, Fraction)) else exact(c) for c in objective]
    if len(costs) > num_vars:
        raise ValueError("objective width exceeds the variable count")
    start = _phase_one(key)
    if start is None:
        raise Infeasible
    scale = lcm(*(c.denominator for c in costs))
    cost = [c.numerator * (scale // c.denominator) for c in costs]
    cost += [0] * (start.width - len(cost))
    tableau = list(start.rows)
    basis = list(start.basis)
    tableau.append(_objective_row(tableau, basis, cost, start.d))
    d = _bland(tableau, basis, start.d)
    return Fraction(tableau[-1][-1], d * scale)


def _phase_one(key: tuple) -> _Start | None:
    """The memoised feasible basis of a region, or ``None`` if it is empty."""
    for cached, start in _phase_one_memo:
        if cached == key:
            return start
    start = _solve_phase_one(*key)
    _phase_one_memo.insert(0, (key, start))
    del _phase_one_memo[PHASE_ONE_MEMO_SIZE:]
    return start


def _solve_phase_one(num_vars: int, constraints: tuple) -> _Start | None:
    scaled: list[tuple[list[int], str, int]] = []
    for coeffs, sense, rhs in constraints:
        if len(coeffs) != num_vars:
            raise ValueError("constraint width does not match the variable count")
        if sense not in _FLIPPED:
            raise ValueError(f"unknown constraint sense {sense!r}")
        row = [exact(c) for c in coeffs]
        rhs = exact(rhs)
        if rhs < 0:
            row = [-c for c in row]
            rhs = -rhs
            sense = _FLIPPED[sense]
        scale = lcm(rhs.denominator, *(c.denominator for c in row))
        ints = [c.numerator * (scale // c.denominator) for c in row]
        scaled.append((ints, sense, rhs.numerator * (scale // rhs.denominator)))

    n_slack = sum(1 for _, sense, _ in scaled if sense != "==")
    n_art = sum(1 for _, sense, _ in scaled if sense != "<=")
    art_start = num_vars + n_slack

    tableau: list[list[int]] = []
    basis: list[int] = []
    slack_i = num_vars
    art_i = art_start
    for ints, sense, rhs in scaled:
        row = ints + [0] * (n_slack + n_art) + [rhs]
        if sense == "<=":
            row[slack_i] = 1
            basis.append(slack_i)
            slack_i += 1
        else:
            if sense == ">=":
                row[slack_i] = -1
                slack_i += 1
            row[art_i] = 1
            basis.append(art_i)
            art_i += 1
        tableau.append(row)

    d = 1
    if n_art:
        cost = [0] * art_start + [-1] * n_art
        tableau.append(_objective_row(tableau, basis, cost, d))
        d = _bland(tableau, basis, d)
        if tableau.pop()[-1] != 0:
            return None
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
    return _Start(tuple(tableau), tuple(basis), d, art_start)


def _objective_row(
    rows: Sequence[list[int]], basis: Sequence[int], cost: list[int], d: int
) -> list[int]:
    """``d`` times the negated reduced costs, and ``d`` times the value last.

    Entry ``j`` is ``sum_i cost[basis[i]] * rows[i][j] - d * cost[j]``: a
    negative entry marks an improving column.  It pivots like any row.
    """
    z = [-c * d for c in cost]
    z.append(0)
    for row, b in zip(rows, basis):
        cb = cost[b]
        if cb:
            z = [zj + cb * t for zj, t in zip(z, row)]
    return z


def _bland(tableau: list[list[int]], basis: list[int], d: int) -> int:
    """Pivot to optimality by Bland's rule; the last row is the objective.

    Returns the final common denominator.
    """
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
            if a > 0:
                # Ratios rhs / a compared by cross-multiplying (a > 0, best_a > 0).
                if leave < 0:
                    leave, best_rhs, best_a = i, row[-1], a
                    continue
                lhs = row[-1] * best_a
                rhs = best_rhs * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
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
    system.  A negative pivot negates the whole tableau to keep ``d > 0``.
    Rows are replaced, never mutated.
    """
    pivot = tableau[pivot_row]
    p = pivot[pivot_col]
    for i, row in enumerate(tableau):
        if i == pivot_row:
            continue
        f = row[pivot_col]
        if f:
            tableau[i] = [(v * p - f * w) // d for v, w in zip(row, pivot)]
        elif p != d:
            tableau[i] = [v * p // d for v in row]
    basis[pivot_row] = pivot_col
    if p < 0:
        tableau[:] = [[-v for v in row] for row in tableau]
        p = -p
    return p


# --------------------------------------------------------------- credal LPs


def _cumulative_rows(box: PBox, class_of: Sequence[int]) -> list[Row]:
    """Cumulative constraints on masses, variable ``v`` lying in class ``class_of[v]``.

    The prefix row of class ``i`` sums the variables of classes ``0..i``.
    Rows that cannot bind are dropped: a lower bound of 0 is implied by
    nonnegativity and an upper bound of 1 below the top by the total mass.
    The top class carries the total-mass equality.
    """
    rows: list[Row] = []
    for i in range(box.m - 1):
        prefix = [ONE if c <= i else ZERO for c in class_of]
        if box.upper_cdf[i] != ONE:
            rows.append((prefix, "<=", box.upper_cdf[i]))
        if box.lower_cdf[i] != ZERO:
            rows.append((prefix, ">=", box.lower_cdf[i]))
    rows.append(([ONE] * len(class_of), "==", ONE))
    return rows


def _class_rows(box: PBox) -> list[Row]:
    """Cumulative constraints on per-class masses."""
    return _cumulative_rows(box, range(box.m))


def credal_upper_classes(box: PBox, indices: Iterable[int]) -> Fraction:
    """LP optimum for a union of classes given by index."""
    hit = sorted(set(indices))
    if not hit:
        return ZERO
    m = box.m
    for i in hit:
        if not 0 <= i < m:
            raise ValueError(f"class index {i} out of range")
    objective = [ZERO] * m
    for i in hit:
        objective[i] = ONE
    try:
        return simplex_max(m, _class_rows(box), objective)
    except Infeasible:  # pragma: no cover - valid boxes always admit a distribution
        raise RuntimeError("credal set of a valid probability box came up empty") from None


def credal_upper(box: PBox, event: Iterable[Label]) -> Fraction:
    """Maximum probability of an event over the box's credal set.

    The credal set is cut out by the cumulative constraints alone; no
    formula from :mod:`possbox.pbox` is consulted.

    >>> from possbox.chain import Chain
    >>> box = PBox(Chain([["a"], ["b"], ["c"]]), ["0", "0", "1"], ["1/2", "4/5", "1"])
    >>> credal_upper(box, {"a", "c"})
    Fraction(1, 1)
    """
    return credal_upper_classes(box, box.chain.classes_hit(event))


def credal_lower(box: PBox, event: Iterable[Label]) -> Fraction:
    """Minimum probability of an event over the credal set, by conjugacy."""
    return ONE - credal_upper(box, box.chain.complement(event))


def _element_rows(box: PBox) -> tuple[list[Label], list[Row]]:
    """The sorted elements and the box's cumulative rows, one variable per element."""
    elements = sorted(box.chain.labels)
    return elements, _cumulative_rows(box, [box.chain.index_of(label) for label in elements])


def credal_upper_elements(box: PBox, event: Iterable[Label]) -> Fraction:
    """Element-level variant of :func:`credal_upper`.

    One mass variable per element instead of per class; used to validate
    the mass-on-classes reduction on chains with non-singleton classes.
    """
    elements, rows = _element_rows(box)
    hit = box.chain.event(event)
    objective = [ONE if label in hit else ZERO for label in elements]
    return simplex_max(len(elements), rows, objective)


# ------------------------------------------------------------ whole-model checks


def check_coherence(box: PBox) -> bool:
    """Does the LP reproduce the box's own cumulative bounds?

    For every class ``x`` the optimum over ``[bottom, x]`` must equal the
    upper vector there, and the optimum over ``(x, top]`` must equal one
    minus the lower vector.  A failure would mean the cumulative vectors
    are not coherent as stated, i.e. a modelling tripwire.
    """
    m = box.m
    for i in range(m):
        if credal_upper_classes(box, range(i + 1)) != box.upper_cdf[i]:
            return False
        if credal_upper_classes(box, range(i + 1, m)) != ONE - box.lower_cdf[i]:
            return False
    return True


def exhaustive_max_preserving(
    box: PBox,
    upper: Callable[[PBox, tuple[int, ...]], Fraction] | None = None,
    *,
    max_classes: int = 10,
) -> bool:
    """Semantic maxitivity check: ``upper(A or B) == max(upper(A), upper(B))``.

    Enumerates every pair of class unions (events intersecting the same
    classes share their upper probability, so this covers all event pairs).
    ``upper`` defaults to the LP oracle; pass
    ``lambda box, subset: box.upper_of_classes(subset)`` to check the
    closed-form route instead.
    """
    m = box.m
    if m > max_classes:
        raise ValueError(f"chain has {m} classes; refusing to enumerate beyond {max_classes}")
    if upper is None:
        upper = credal_upper_classes
    subsets: list[tuple[int, ...]] = []
    for size in range(m + 1):
        subsets.extend(combinations(range(m), size))
    value = {s: upper(box, s) for s in subsets}
    for a in subsets:
        sa = set(a)
        for b in subsets:
            union = tuple(sorted(sa | set(b)))
            if value[union] != max(value[a], value[b]):
                return False
    return True


def credal_intersection_equal(
    box: PBox,
    pi_one: PossibilityDistribution,
    pi_two: PossibilityDistribution,
    *,
    max_elements: int = 8,
) -> bool:
    """Does the box's credal set equal the two distributions' joint credal set?

    Builds both constraint systems at element level -- the box's cumulative
    rows on one side, every event constraint ``P(A) <= Pi_k(A)`` of both
    possibility measures on the other (all ``2^|domain|`` of them,
    redundant but unambiguous) -- and compares the LP optima on every
    event.  Equality of all upper values is equality of the credal sets.
    """
    chain = box.chain
    if pi_one.labels != chain.labels or pi_two.labels != chain.labels:
        raise ValueError("distributions must share the box's element set")
    elements, box_rows = _element_rows(box)
    n = len(elements)
    if n > max_elements:
        raise ValueError(f"space has {n} elements; refusing to enumerate beyond {max_elements}")

    poss_rows: list[Row] = [([ONE] * n, "==", ONE)]
    events: list[tuple[int, ...]] = []
    for mask in range(1, 1 << n):
        members = tuple(k for k in range(n) if mask >> k & 1)
        events.append(members)
        indicator = [ONE if k in members else ZERO for k in range(n)]
        for pi in (pi_one, pi_two):
            bound = pi.measure(elements[k] for k in members)
            if bound != ONE:
                poss_rows.append((indicator, "<=", bound))

    for members in events:
        objective = [ONE if k in members else ZERO for k in range(n)]
        if simplex_max(n, box_rows, objective) != simplex_max(n, poss_rows, objective):
            return False
    return True
