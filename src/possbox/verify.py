"""Deterministic verification sweeps.

Each suite enumerates a family of small instances exhaustively (or, for the
round-trip suite, from a fixed random seed), computes every quantity along
two independent routes, and reports the first disagreement in replayable
form.  The suites back both the command line's ``verify`` command and the
acceptance tests; all comparisons are exact.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import prod
from operator import le
from typing import Iterable, Iterator, Sequence

from possbox import oracle
from possbox.chain import Chain, class_subsets
from possbox.maxitive import (
    is_maxitive,
    upper_01_both,
    upper_01_lower,
    upper_01_upper,
    zero_one_profile,
)
from possbox.multivariate import (
    MarginalFamily,
    joint_frechet,
    joint_independent,
    joint_rsi_outer,
    least_conservative_check,
)
from possbox.oracle import (
    check_coherence,
    credal_intersection_equal,
    credal_upper_classes,
    exhaustive_max_preserving,
)
from possbox.pbox import PBox, pbox_document
from possbox.possibility import (
    PossibilityDistribution,
    conjunction_bounds,
    conjunction_decompose,
    pbox_to_possibility,
    pi_document,
    possibility_to_pbox,
    zero_one_possibility,
)
from possbox.rationals import ONE, ZERO


class SuiteReport:
    """Outcome of one verification suite; one that made no check is not ``ok``."""

    __slots__ = ("suite", "cases", "checks", "counterexample")

    def __init__(self, suite: str, cases: int = 0, checks: int = 0, counterexample: dict | None = None):
        self.suite = suite
        self.cases = cases
        self.checks = checks
        self.counterexample = counterexample

    def __eq__(self, other: object) -> bool:
        # Unused in the package; the benchmark compares each sweep pass's reports by !=.
        return isinstance(other, SuiteReport) and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )

    __hash__ = None  # type: ignore[assignment]

    @property
    def ok(self) -> bool:
        return self.counterexample is None and self.checks > 0

    def summary(self) -> str:
        state = "ok" if self.ok else "FAILED"
        return f"suite {self.suite}: {state} ({self.cases} cases, {self.checks} checks)"

    def fail(self, **counterexample) -> SuiteReport:
        """Record the suite's first failure, keys in the order given, and return the report."""
        self.counterexample = counterexample
        return self


# ------------------------------------------------------------- enumerations


def grid_values(den: int) -> tuple[Fraction, ...]:
    """The grid ``0, 1/den, .., 1``."""
    if den < 1:
        raise ValueError("grid denominator must be at least 1")
    return tuple(Fraction(k, den) for k in range(den + 1))


def default_chain(m: int) -> Chain:
    """Canonical chain with singleton classes ``x0 < x1 < ..``."""
    return Chain([label] for label in _event_labels(range(m)))


def iter_cdf_vectors(m: int, values: Sequence[Fraction]) -> Iterator[tuple[Fraction, ...]]:
    """All non-decreasing length-``m`` vectors over ``values`` ending at 1."""
    for vec in combinations_with_replacement(sorted(values), m):
        if vec[-1] == ONE:
            yield vec


def iter_chain_pboxes(chain: Chain, grid_den: int) -> Iterator[PBox]:
    """Every probability box on ``chain`` with grid values, its vectors compared on numerators over ``grid_den``."""
    value = grid_values(grid_den).__getitem__
    vectors = [ks for ks in combinations_with_replacement(range(grid_den + 1), chain.m) if ks[-1] == grid_den]
    for upper in vectors:
        for lower in vectors:
            if all(map(le, lower, upper)):
                yield PBox(chain, map(value, lower), map(value, upper))


def _event_labels(subset: Iterable[int]) -> list[str]:
    """Labels of the classes ``subset`` of :func:`default_chain`, by its one naming rule."""
    return [f"x{i}" for i in subset]


def _within(suite: str, max_classes: int, ceiling: int) -> None:
    """Refuse, before any sweeping, a chain size past the ceiling of the suite's oracle check."""
    if max_classes > ceiling:
        raise ValueError(f"the {suite} suite takes at most {ceiling} classes (got {max_classes})")


# ------------------------------------------------------------------ suites


def _grid_boxes(
    report: SuiteReport, max_classes: int, grid_den: int
) -> Iterator[tuple[PBox, list[tuple[tuple[int, ...], list[str]]]]]:
    """Every grid box on chains of 1 to ``max_classes`` classes, with its chain's events.

    The events are ``(class subset, labels)`` pairs in :func:`class_subsets`
    order, built once per chain size.  Each box is counted as one case of
    ``report`` before it is yielded.
    """
    for m in range(1, max_classes + 1):
        events = [(subset, _event_labels(subset)) for subset in class_subsets(m)]
        for box in iter_chain_pboxes(default_chain(m), grid_den):
            report.cases += 1
            yield box, events


def suite_oracle(max_classes: int = 5, grid_den: int = 4) -> SuiteReport:
    """Closed-form upper values against the credal LP, plus coherence.

    For every chain size, every grid probability box, and every union of
    classes: :meth:`~possbox.pbox.PBox.upper` on its labels must equal the
    LP optimum.  The optima of the down-sets ``[bottom, x]`` and up-sets
    ``(x, top]``, already computed, must also reproduce the cumulative
    bounds themselves (:func:`check_coherence`).
    """
    report = SuiteReport("oracle")
    for box, events in _grid_boxes(report, max_classes, grid_den):
        optima = {}
        for subset, event in events:
            formula = box.upper(event)
            optimum = optima[subset] = credal_upper_classes(box, subset)
            report.checks += 1
            if formula.numerator != optimum.numerator or formula.denominator != optimum.denominator:
                return report.fail(
                    document=pbox_document(box), event=event, closed_form=str(formula), credal_optimum=str(optimum)
                )
        report.checks += 2 * box.chain.m
        if not check_coherence(box, lambda _, subset: optima[subset]):
            return report.fail(
                document=pbox_document(box),
                detail="credal optima do not reproduce the cumulative bounds",
            )
    return report


def suite_maxitive(max_classes: int = 4, grid_den: int = 4) -> SuiteReport:
    """Maxitivity decision and the specialized 0-1 formulas.

    The 0-1 characterization must agree with the exhaustive LP-backed
    max-preservation check, and each specialized closed form must equal the
    general one on every event where its precondition holds.  Refuses
    more classes than the exhaustive check enumerates
    (:data:`~possbox.oracle.MAX_CLASSES`).
    """
    _within("maxitive", max_classes, oracle.MAX_CLASSES)
    report = SuiteReport("maxitive")
    for box, events in _grid_boxes(report, max_classes, grid_den):
        decided = is_maxitive(box)
        semantic = exhaustive_max_preserving(box)
        report.checks += 1
        if decided != semantic:
            return report.fail(document=pbox_document(box), is_maxitive=decided, max_preserving=semantic)
        profile = zero_one_profile(box)
        forms = []
        if profile.lower_is_01:
            forms.append(("upper_01_lower", upper_01_lower))
        if profile.upper_is_01:
            forms.append(("upper_01_upper", upper_01_upper))
        if profile.lower_is_01 and profile.upper_is_01:
            forms.append(("upper_01_both", upper_01_both))
        if not forms:
            continue
        for _, event in events:
            general = box.upper(event)
            for name, form in forms:
                report.checks += 1
                special = form(box, event)
                if special != general:
                    return report.fail(
                        document=pbox_document(box),
                        event=event,
                        formula=name,
                        specialized=str(special),
                        general=str(general),
                    )
    return report


def _random_distribution(rng: random.Random, max_domain: int, grid_den: int) -> PossibilityDistribution:
    size = rng.randint(1, max_domain)
    values = [Fraction(rng.randint(0, grid_den), grid_den) for _ in range(size)]
    values[rng.randrange(size)] = ONE
    return PossibilityDistribution({f"e{j}": v for j, v in enumerate(values)})


def suite_roundtrip(
    samples: int = 1000, max_domain: int = 6, grid_den: int = 8, seed: int = 0
) -> SuiteReport:
    """Possibility <-> probability-box round trips.

    A fixed two-element distribution is rebuilt from boxes on both possible
    orderings of its carrier; then seeded random distributions are pushed
    through ``possibility_to_pbox`` and the box's upper probability must
    reproduce the possibility measure on every event.  Finally, grid boxes
    go the other way: conversion succeeds exactly on the maxitive ones and
    reproduces the upper probability (with the two-sided 0-1 case
    cross-checked against its indicator form).  That stage always sweeps
    chains of up to 3 classes on grid 4, whatever ``max_domain`` and
    ``grid_den`` are.
    """
    report = SuiteReport("roundtrip")

    target = PossibilityDistribution({"x1": Fraction(1, 2), "x2": ONE})
    readings = [
        PBox(Chain([["x1"], ["x2"]]), [ZERO, ONE], [Fraction(1, 2), ONE]),
        PBox(Chain([["x2"], ["x1"]]), [Fraction(1, 2), ONE], [ONE, ONE]),
    ]
    for box in readings:
        report.cases += 1
        report.checks += 1
        pi = pbox_to_possibility(box)
        if pi != target:
            return report.fail(
                document=pbox_document(box),
                expected_pi=pi_document(target),
                computed_pi=None if pi is None else pi_document(pi),
            )

    rng = random.Random(seed)
    # Sorted labels -> every event over them, in class_subsets order; built
    # once per label set, so once per domain size.
    events_over: dict[tuple, list[list]] = {}
    for _ in range(samples):
        pi = _random_distribution(rng, max_domain, grid_den)
        report.cases += 1
        box = possibility_to_pbox(pi)
        labels = tuple(sorted(pi.labels))
        events = events_over.get(labels)
        if events is None:
            events = events_over[labels] = [[labels[j] for j in subset] for subset in class_subsets(len(labels))]
        for event in events:
            upper = box.upper(event)
            possibility = pi.measure(event)
            report.checks += 1
            if upper.numerator != possibility.numerator or upper.denominator != possibility.denominator:
                return report.fail(
                    pi=pi_document(pi),
                    event=event,
                    pbox_upper=str(upper),
                    possibility=str(possibility),
                )

    for box, events in _grid_boxes(report, 3, grid_den=4):
        pi = pbox_to_possibility(box)
        maxitive = is_maxitive(box)
        report.checks += 1
        if (pi is not None) != maxitive:
            return report.fail(document=pbox_document(box), is_maxitive=maxitive, converted=pi is not None)
        if pi is None:
            continue
        for _, event in events:
            possibility = pi.measure(event)
            upper = box.upper(event)
            report.checks += 1
            if possibility.numerator != upper.numerator or possibility.denominator != upper.denominator:
                return report.fail(
                    document=pbox_document(box),
                    event=event,
                    possibility=str(possibility),
                    pbox_upper=str(upper),
                )
        profile = zero_one_profile(box)
        if profile.lower_is_01 and profile.upper_is_01:
            report.checks += 1
            if zero_one_possibility(box) != pi:
                return report.fail(
                    document=pbox_document(box),
                    detail="zero_one_possibility disagrees with pbox_to_possibility",
                )
    return report


def suite_conjunction(max_classes: int = 3, grid_den: int = 4) -> SuiteReport:
    """Conjunction decomposition: credal identity, sandwich, and exact slack.

    For every grid box the credal set must equal the intersection of the
    two decomposed possibility measures' credal sets (checked by LP); the
    approximate bounds must sandwich the exact ones
    (:meth:`~possbox.pbox.PBox.lower` and :meth:`~possbox.pbox.PBox.upper`)
    on every event; and on every interval ``(x, y]`` the upper slack must
    equal ``min(lower(x), 1 - upper(y))``.  Refuses more classes than the
    credal identity check enumerates elements
    (:data:`~possbox.oracle.MAX_ELEMENTS`; each class is one element).
    """
    _within("conjunction", max_classes, oracle.MAX_ELEMENTS)
    report = SuiteReport("conjunction")
    for box, events in _grid_boxes(report, max_classes, grid_den):
        pi_lower, pi_upper = conjunction_decompose(box)
        report.checks += 1
        if not credal_intersection_equal(box, pi_lower, pi_upper):
            return report.fail(
                document=pbox_document(box),
                detail="credal set differs from the intersection of the decomposition",
            )
        for subset, event in events:
            approx_lo, approx_up = conjunction_bounds(box, event)
            exact_lo, exact_up = box.lower(event), box.upper(event)
            report.checks += 1
            if not (approx_lo <= exact_lo <= exact_up <= approx_up):
                return report.fail(
                    document=pbox_document(box),
                    event=event,
                    approx=[str(approx_lo), str(approx_up)],
                    exact=[str(exact_lo), str(exact_up)],
                )
            # The interval (x, y] of classes x < y is the run of classes x+1 .. y.
            if not subset or subset[0] == 0 or subset[-1] - subset[0] + 1 != len(subset):
                continue
            x, y = subset[0] - 1, subset[-1]
            slack = approx_up - exact_up
            expected = min(box.lower_cdf[x], ONE - box.upper_cdf[y])
            report.checks += 1
            if slack != expected:
                return report.fail(
                    document=pbox_document(box),
                    event=event,
                    slack=str(slack),
                    expected_slack=str(expected),
                )
    return report


def _canonical_marginals(max_size: int, grid_den: int) -> list[PossibilityDistribution]:
    """One representative marginal per value multiset (labels are positional)."""
    values = grid_values(grid_den)
    return [
        PossibilityDistribution({f"e{j}": v for j, v in enumerate(vec)})
        for size in range(1, max_size + 1)
        for vec in iter_cdf_vectors(size, values)
    ]


def _marginals_document(family: MarginalFamily) -> list[dict[str, str]]:
    """Replayable JSON form of a family's marginals, in the order of each domain."""
    return [
        {label: str(m[label]) for label in domain} for m, domain in zip(family.marginals, family.domains)
    ]


def suite_multivariate(
    max_size: int = 3, grid_den: int = 4, marginal_counts: Sequence[int] = (2, 3)
) -> SuiteReport:
    """Joint constructions from marginals.

    Enumerates families of 2 and 3 marginals over grid values (one
    representative per value multiset; every check is invariant under
    relabelling within a marginal).  Per family, in this order:

    * the least-conservative check of the Fréchet and the independent joint
      for their own rules (:func:`~possbox.multivariate.least_conservative_check`
      compares each joint with ``z`` or ``z ** n`` at every product point),
      counted as one check per call and one per point it compares;
    * one pass over the family's vectors of coordinate values
      (:meth:`~possbox.multivariate.MarginalFamily.vectors`, on integers),
      where every expected value comes from a table local to the call, with
      one entry per distinct vector across all families, keyed on the
      vector's numerators over ``grid_den``:

      - rectangle dominance of the random-set outer bound over independent
        products.  A rectangle of non-empty events has a vector of
        component measures, and these are the same vectors: a non-empty
        event's measure is the largest value over it, so one of its
        marginal's values, and each value is the measure of some event.
        The family adds one check per rectangle, ``prod_i
        (2**|domain_i| - 1)`` in all, before its first vector;
      - at each of the vector's product points, the pointwise form
        ``1 - (1 - w) ** n`` of the random-set outer bound, the ordering of
        the independent joint below the Fréchet joint, and the regime
        comparisons between the independent and random-set bounds.  All
        three joints are read at every point; reads are compared on their
        numerators and (positive) denominators.

    A family's first failure in vector order is the one reported.
    """
    report = SuiteReport("multivariate")
    pool = _canonical_marginals(max_size, grid_den)
    # Vector of numerators over grid_den -> the outer bound's numerator and
    # denominator, whether it fails rectangle dominance, and the two regime flags.
    expected: dict[tuple[int, ...], tuple[int, int, bool, bool, bool]] = {}
    for n in marginal_counts:
        for chosen in product(pool, repeat=n):
            family = MarginalFamily(chosen)
            report.cases += 1
            frechet = joint_frechet(family)
            independent = joint_independent(family)
            rsi = joint_rsi_outer(family)

            report.checks += 2 + len(frechet) + len(independent)
            if not least_conservative_check(family, frechet, "frechet"):
                return report.fail(
                    marginals=_marginals_document(family),
                    detail="Fréchet joint fails its least-conservative check",
                )
            if not least_conservative_check(family, independent, "independent"):
                return report.fail(
                    marginals=_marginals_document(family),
                    detail="independent joint fails its least-conservative check",
                )

            report.checks += prod(2 ** len(domain) - 1 for domain in family.domains)
            d, rows = family._integer_vectors()
            for ks, z, w, points in rows:
                key = ks if d == grid_den else tuple(k * (grid_den // d) for k in ks)
                entry = expected.get(key)
                if entry is None:
                    outer = ONE - (ONE - Fraction(w, d)) ** n
                    at_one = z == d
                    # The "below one half" regime is only claimed here for a level
                    # point: with very unequal coordinates (say 1/12 and 5/12) the
                    # product-form bound can lose even though all values are small.
                    below_half = 0 < w == z and 2 * z < d
                    entry = expected[key] = (
                        outer.numerator,
                        outer.denominator,
                        outer < prod([Fraction(k, grid_den) for k in key]),
                        at_one,
                        below_half,
                    )
                outer_num, outer_den, undominated, at_one, below_half = entry
                if undominated:
                    return report.fail(
                        marginals=_marginals_document(family),
                        detail="random-set outer bound fails rectangle dominance",
                        rectangle=[[label] for label in points[0]],
                    )
                per_point = 2 + at_one + below_half
                for point in points:
                    report.checks += per_point
                    r, i, f = rsi[point], independent[point], frechet[point]
                    if r.numerator != outer_num or r.denominator != outer_den:
                        detail = "random-set outer bound has the wrong pointwise form"
                    elif i.numerator * f.denominator > f.numerator * i.denominator:
                        detail = "independent joint exceeds the Fréchet joint"
                    elif at_one and r.numerator * i.denominator > i.numerator * r.denominator:
                        detail = "random-set bound looser than independent at a value-1 point"
                    elif below_half and not i.numerator * r.denominator < r.numerator * i.denominator:
                        detail = "independent bound not strictly tighter below 1/2"
                    else:
                        continue
                    return report.fail(marginals=_marginals_document(family), detail=detail, point=list(point))
    return report


#: Suite name -> (suite function, the keyword ``run_suite`` maps
#: ``max_classes`` onto).  Every suite takes ``grid_den``.
SUITES = {
    "oracle": (suite_oracle, "max_classes"),
    "maxitive": (suite_maxitive, "max_classes"),
    "roundtrip": (suite_roundtrip, "max_domain"),
    "conjunction": (suite_conjunction, "max_classes"),
    "multivariate": (suite_multivariate, "max_size"),
}


def run_suite(name: str, max_classes: int | None = None, grid_den: int | None = None) -> SuiteReport:
    """Run one named suite, mapping the generic size knobs onto its parameters.

    ``max_classes`` bounds the structural size (chain classes, sample domain
    size, or marginal domain size, depending on the suite) and ``grid_den``
    the value grid.  Only the knobs given are passed on, so ``None`` leaves
    the suite's own default in force.  A value below 1, or a ``max_classes``
    past the ceiling of the ``maxitive`` or ``conjunction`` suite, raises
    ``ValueError`` before any instance is built; a value below 1 is named
    by the command line's flag for its knob.
    """
    for flag, value in (("--max-classes", max_classes), ("--grid", grid_den)):
        if value is not None and value < 1:
            raise ValueError(f"{flag} must be at least 1 (got {value})")
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r} (expected one of {sorted(SUITES)})")
    suite, size_keyword = SUITES[name]
    knobs = {size_keyword: max_classes, "grid_den": grid_den}
    return suite(**{keyword: value for keyword, value in knobs.items() if value is not None})
