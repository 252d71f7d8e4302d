"""Possibility distributions and their exchange with probability boxes.

A (normalized) possibility distribution assigns each element a degree in
``[0, 1]`` with maximum 1; the induced measure of an event is the maximum
degree over its elements.  A probability box whose upper probability is
maxitive *is* such a measure, with distribution given by the singleton upper
probabilities; conversely every finite possibility distribution arises from
a degenerate-lower probability box on the preorder its own values induce.
This module implements both directions, the two-sided 0-1 special case, and
the decomposition of an arbitrary probability box as a conjunction of two
possibility measures.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Mapping

from possbox.chain import Chain, Label
from possbox.maxitive import is_maxitive, zero_one_profile
from possbox.pbox import PBox
from possbox.rationals import ONE, ZERO, exact, shown


def _check_values(pairs: Iterable[tuple[Fraction, Hashable]]) -> None:
    """Raise unless every value lies in ``[0, 1]`` and some value is 1.

    ``pairs`` gives each value with a label holding it; the first value
    outside ``[0, 1]`` raises, naming its label.
    """
    attained = False
    for q, label in pairs:
        # Integer comparisons: a Fraction's denominator is positive, and its
        # value is 1 exactly when numerator and denominator agree.
        if not 0 <= q.numerator <= q.denominator:
            raise ValueError(f"value {shown(q)} for {shown(repr(label))} outside [0, 1]")
        if q.numerator == q.denominator:
            attained = True
    if not attained:
        raise ValueError("a possibility distribution must attain the value 1")


class PossibilityDistribution:
    """Exact possibility distribution over a finite set of labels.

    Values may be given as ints, fractions, or exact strings.  The maximum
    must be 1 (normalization); the induced measure of an event is the
    maximum value over the event, with the empty event measuring 0.

    >>> pi = PossibilityDistribution({"a": "1/2", "b": "0.8", "c": 1})
    >>> pi.measure({"a", "b"})
    Fraction(4, 5)
    >>> pi.measure([])
    Fraction(0, 1)
    """

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[Hashable, object]):
        if not values:
            raise ValueError("a possibility distribution needs a non-empty domain")
        converted: dict[Hashable, Fraction] = {}
        # Each value is checked just after it is converted, so the first label
        # in the caller's order with either fault is the one named.
        _check_values((converted.setdefault(label, exact(raw)), label) for label, raw in values.items())
        self._values = converted

    @classmethod
    def _checked(
        cls, values: dict[Hashable, Fraction], levels: Iterable[tuple[Fraction, Hashable]]
    ) -> PossibilityDistribution:
        """A distribution holding ``values`` as given, each distinct value checked once.

        ``values`` maps every label to a :class:`Fraction` already, and
        ``levels`` pairs each distinct value among them with one label
        holding it.  The constructor's checks run on those pairs, with its
        messages, naming the label ``levels`` gives.
        """
        _check_values(levels)
        pi = cls.__new__(cls)
        pi._values = values
        return pi

    def __getitem__(self, label: Hashable) -> Fraction:
        try:
            return self._values[label]
        except KeyError:
            raise ValueError(f"unknown label {shown(repr(label))}") from None

    def __iter__(self):
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, label: Hashable) -> bool:
        return label in self._values

    @property
    def labels(self) -> frozenset:
        return frozenset(self._values)

    def items(self):
        return self._values.items()

    def measure(self, event: Iterable[Hashable]) -> Fraction:
        """Possibility of an event: the maximum value over its elements.

        Values are compared by integer cross-multiplication (denominators
        are positive); the winning value's own :class:`Fraction` is
        returned.
        """
        values = self._values
        best, num, den = ZERO, 0, 1
        for label in event:
            v = values.get(label)
            if v is None:
                v = self[label]  # raises the unknown-label error
            if v.numerator * den > num * v.denominator:
                best, num, den = v, v.numerator, v.denominator
        return best

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PossibilityDistribution) and self._values == other._values

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        body = ", ".join(f"{label!r}: {v}" for label, v in self._values.items())
        return f"PossibilityDistribution({{{body}}})"


def pbox_to_possibility(box: PBox) -> PossibilityDistribution | None:
    """Express a probability box's upper probability as a possibility measure.

    Succeeds exactly when the box is maxitive (see
    :func:`possbox.maxitive.is_maxitive`); returns ``None`` otherwise, never
    a partial distribution.  The distribution assigns each element its
    singleton upper probability, :meth:`~possbox.pbox.PBox.singleton_upper`;
    the cost is linear in the number of elements.  The identity
    ``upper(A) == max over x in A of upper({x})`` on every union of classes
    is checked exhaustively by the ``roundtrip`` verification suite, not
    here.
    """
    if not is_maxitive(box):
        return None
    return PossibilityDistribution(
        {label: box.singleton_upper(label) for _, label in box.chain.labels_by_class()}
    )


def possibility_to_pbox(pi: PossibilityDistribution) -> PBox:
    """Represent a possibility distribution as a probability box.

    The box's chain orders elements by increasing possibility value (level
    sets become classes); the upper cumulative vector lists those values and
    the lower one is the indicator of the top class.  The box's upper
    probability then reproduces ``pi.measure`` on every event.

    >>> box = possibility_to_pbox(PossibilityDistribution({"x1": "1/2", "x2": 1}))
    >>> [sorted(cls) for cls in box.chain.classes]
    [['x1'], ['x2']]
    >>> box.upper_cdf
    (Fraction(1, 2), Fraction(1, 1))
    """
    grouped = value_levels(pi, pi)
    lower = [ZERO] * (len(grouped) - 1) + [ONE]
    return PBox(Chain(labels for _, labels in grouped), lower, (v for v, _ in grouped))


def value_levels(
    pi: PossibilityDistribution, labels: Iterable[Hashable]
) -> tuple[tuple[Fraction, tuple], ...]:
    """The distinct values of ``pi``, ascending, each with its labels in the order of ``labels``."""
    at: dict[Fraction, list] = {}
    for label in labels:
        at.setdefault(pi[label], []).append(label)
    return tuple((v, tuple(at[v])) for v in sorted(at))


def zero_one_possibility(box: PBox) -> PossibilityDistribution:
    """Possibility distribution of a box whose two vectors are both 0-1.

    The distribution is the indicator of the classes from the profile's
    ``first_upper_positive`` to its ``first_lower_positive``, both included;
    lower never exceeds upper, so this window is never empty.
    Agrees with :func:`pbox_to_possibility` wherever both apply.
    """
    profile = zero_one_profile(box)
    if not (profile.lower_is_01 and profile.upper_is_01):
        raise ValueError("both cumulative vectors must be 0-1-valued")
    lo = profile.first_upper_positive
    hi = profile.first_lower_positive
    values = {label: ONE if lo <= i <= hi else ZERO for i, label in box.chain.labels_by_class()}
    return PossibilityDistribution(values)


def conjunction_decompose(box: PBox) -> tuple[PossibilityDistribution, PossibilityDistribution]:
    """Split a probability box into two possibility distributions.

    The first encodes only the lower cumulative vector (``1 - lower`` just
    below each class), the second only the upper one.  The box's credal set
    is exactly the intersection of the two distributions' credal sets --
    :func:`possbox.oracle.credal_intersection_equal` checks that identity by
    optimization.

    >>> from possbox.chain import Chain
    >>> box = PBox(Chain([["a"], ["b"], ["c"]]), ["1/5", "2/5", "1"], ["1/2", "4/5", "1"])
    >>> pi_lower, pi_upper = conjunction_decompose(box)
    >>> [str(pi_lower[x]) for x in ("a", "b", "c")]
    ['1', '4/5', '3/5']
    >>> [str(pi_upper[x]) for x in ("a", "b", "c")]
    ['1/2', '4/5', '1']
    """
    labels = box.chain.labels_by_class()
    from_lower = {label: ONE - box.lower_at(i - 1) for i, label in labels}
    from_upper = {label: box.upper_at(i) for i, label in labels}
    return PossibilityDistribution(from_lower), PossibilityDistribution(from_upper)


def conjunction_bounds(box: PBox, event: Iterable[Label]) -> tuple[Fraction, Fraction]:
    """Sandwich an event's exact probability bounds between possibility ones.

    Returns ``(approx_lower, approx_upper)`` for the conjunction
    decomposition: the approximate upper value is the smaller of the two
    possibility measures, the approximate lower value the larger of their
    conjugates.  They always enclose the exact natural-extension interval;
    the slack of the upper one on an interval ``(x, y]`` is
    ``min(lower(x), 1 - upper(y))``.

    Both measures are read off the cumulative vectors without building the
    distributions of :func:`conjunction_decompose`.  The first distribution,
    ``1 - lower`` just below a class, never rises along the chain, and the
    second, ``upper`` at a class, never falls; so the first measures an
    event by its lowest class and the second by its highest.  The conjugates
    need the same two end classes of the complement, which hits exactly the
    classes the event does not contain.

    >>> from possbox.chain import Chain
    >>> box = PBox(Chain([["a"], ["b"], ["c"]]), ["1/5", "2/5", "1"], ["1/2", "4/5", "1"])
    >>> [str(v) for v in conjunction_bounds(box, {"b"})]
    ['0', '4/5']
    """
    event = box.chain.event(event)
    classes = box.chain.classes
    hit = [i for i, cls in enumerate(classes) if not cls.isdisjoint(event)]
    missed = [i for i, cls in enumerate(classes) if not cls <= event]
    approx_upper = min(ONE - box.lower_at(hit[0] - 1), box.upper_at(hit[-1])) if hit else ZERO
    approx_lower = max(box.lower_at(missed[0] - 1), ONE - box.upper_at(missed[-1])) if missed else ONE
    return approx_lower, approx_upper
