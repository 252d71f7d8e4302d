"""Probability boxes on a chain, with exact natural-extension values.

A probability box is a pair of non-decreasing cumulative vectors over the
quotient classes: a lower and an upper envelope for an unknown cumulative
distribution function.  Interpreting the two vectors as bounds on the
probabilities of the down-sets ``[bottom, x]`` and up-sets ``(y, top]``
determines a coherent upper probability on *all* events; this module
computes that value in closed form.  The value depends on an event only
through the classes it hits: :meth:`PBox.upper` sums the mass forced into
the gap before each hit class, and :meth:`PBox.lower` is its conjugate,
one minus the upper value of the complement.
:meth:`PBox.upper_on_union` takes the paper's route for the same event: it
sums the forced mass over the gaps between the runs of the event's cover
(:meth:`~possbox.chain.Chain.minimal_cover`), and a test holds the two
routes equal.  The companion :mod:`possbox.oracle` recovers the same
numbers by direct optimization over the credal set, so every formula here
is cross-checkable against an independent route.

As in the oracle's tableau, the arithmetic runs on integers.  A build
reads each distinct value string once, with its numerator and denominator,
and keeps each bound's numerator over the least common multiple of the
distinct denominators.  Whole-vector comparisons of those numerators
accept a valid box; the checks that name a refused box's first fault run
only then.  Nothing is cached across calls.  A box sums forced mass on the
numerators and makes a :class:`~fractions.Fraction` only for the value it
returns; the oracle reads the public ``Fraction`` vectors, never these.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import le
from typing import Iterable

from possbox.chain import SENTINEL, Chain, Label, _keys, _refuse_unordered
from possbox.rationals import ONE, ZERO, _exact_each, shown


class PBox:
    """A probability box: exact cumulative bounds on a chain.

    ``lower[i]`` and ``upper[i]`` bound the cumulative probability of the
    classes ``0..i``.  Both vectors are non-decreasing, sit inside
    ``[0, 1]``, satisfy ``lower <= upper`` pointwise, and reach ``1`` at the
    top class.

    >>> chain = Chain([["a"], ["b"], ["c"]])
    >>> box = PBox(chain, ["0", "0", "1"], ["1/2", "0.8", "1"])
    >>> box.upper({"a", "c"})
    Fraction(1, 1)
    >>> box.lower({"c"})
    Fraction(1, 5)
    """

    __slots__ = ("chain", "lower_cdf", "upper_cdf", "_den", "_lower_num", "_upper_num")

    def __init__(
        self,
        chain: Chain,
        lower: Iterable[object],
        upper: Iterable[object],
    ):
        for name, vec in (("lower", lower), ("upper", upper)):
            if isinstance(vec, str):
                raise ValueError(f"{name} is a string, not a list of values")
            _refuse_unordered(vec, name, "values")
        seen: dict[str, tuple] = {}
        lo, lo_n, lo_d = _exact_each(lower, seen)
        up, up_n, up_d = _exact_each(upper, seen)
        m = chain.m
        if len(lo) != m or len(up) != m:
            raise ValueError(
                f"cumulative vectors must have one entry per class (expected {m}, "
                f"got {len(lo)} lower / {len(up)} upper)"
            )
        den = lcm(*{*lo_d, *up_d})
        lo_num = [n * (den // d) for n, d in zip(lo_n, lo_d)]
        up_num = [n * (den // d) for n, d in zip(up_n, up_d)]
        # Whole-vector comparisons accept a valid box; only a refused one runs the ordered checks below.
        valid = 0 <= lo_num[0] and lo_num[-1] == up_num[-1] == den and all(map(le, lo_num, up_num))
        if not (valid and lo_num == sorted(lo_num) and up_num == sorted(up_num)):
            for name, vec, num in (("lower", lo, lo_num), ("upper", up, up_num)):
                for i in range(m):
                    if not (0 <= num[i] <= den):
                        raise ValueError(f"{name}[{i}] = {shown(vec[i])} outside [0, 1]")
                for i in range(1, m):
                    if num[i] < num[i - 1]:
                        raise ValueError(f"{name} cumulative vector must be non-decreasing")
            for i in range(m):
                if lo_num[i] > up_num[i]:
                    raise ValueError(f"lower[{i}] = {shown(lo[i])} exceeds upper[{i}] = {shown(up[i])}")
            raise ValueError("both cumulative vectors must equal 1 at the top class")  # every check above held
        self.chain = chain
        self.lower_cdf = tuple(lo)
        self.upper_cdf = tuple(up)
        self._den = den
        self._lower_num = (*lo_num, 0)  # the trailing 0 is the sentinel's value, read at index -1
        self._upper_num = (*up_num, 0)

    # ------------------------------------------------------------ basics

    def _lower_at(self, i: int) -> Fraction:
        """Lower cumulative value at class ``i``; the sentinel ``-1`` gives 0."""
        return ZERO if i == SENTINEL else self.lower_cdf[i]

    def _upper_at(self, i: int) -> Fraction:
        """Upper cumulative value at class ``i``; the sentinel ``-1`` gives 0."""
        return ZERO if i == SENTINEL else self.upper_cdf[i]

    def __eq__(self, other: object) -> bool:
        # Unused in the package; the benchmark compares each pass's results, which hold boxes, by !=.
        return (
            isinstance(other, PBox)
            and self.chain == other.chain
            and self.lower_cdf == other.lower_cdf
            and self.upper_cdf == other.upper_cdf
        )

    def __repr__(self) -> str:
        lo = ", ".join(str(v) for v in self.lower_cdf)
        up = ", ".join(str(v) for v in self.upper_cdf)
        return f"PBox({self.chain!r}, lower=({lo}), upper=({up}))"

    # ------------------------------------------------ natural extension

    def upper_on_union(self, event: Iterable[Label]) -> Fraction:
        """Upper probability of an event by the paper's cover by runs.

        One minus the probability mass that the cumulative bounds force into
        the gaps between the runs of the event's minimal cover
        (:meth:`~possbox.chain.Chain.minimal_cover`): for each gap the forced
        mass is ``max(0, lower(left end of next run) - upper(right end of
        previous run))``, with the sentinel before the first run and the top
        class closing the last gap.  :meth:`upper` reaches the same value
        from the hit classes alone, and a test holds the two equal on every
        event.

        >>> chain = Chain([["a"], ["b"], ["c"]])
        >>> box = PBox(chain, ["0", "0", "1"], ["1/2", "4/5", "1"])
        >>> box.upper_on_union({"a", "b"})
        Fraction(4, 5)
        """
        lo, up = self._lower_num, self._upper_num
        forced = 0
        prev_right = SENTINEL
        for left, right in (*self.chain.minimal_cover(event), (len(self.lower_cdf) - 1, None)):
            gap = lo[left] - up[prev_right]
            if gap > 0:
                forced += gap
            prev_right = right
        return Fraction(self._den - forced, self._den)

    def upper(self, event: Iterable[Label]) -> Fraction:
        """Natural-extension upper probability of an arbitrary event.

        Mass within a class is free to sit on any element, so an event is
        upper-indistinguishable from the union of the classes it hits.  For
        the sorted hit classes ``h_0 < .. < h_k`` the value is one minus the
        mass forced into the gap before each: ``max(0, lower(h_j - 1) -
        upper(h_{j-1}))``, with the sentinel before ``h_0`` and the top
        class closing the last gap.  Two adjacent hit classes add
        ``lower(h) - upper(h) <= 0``, so nothing, and the sum equals
        :meth:`upper_on_union`, the sum over the event's cover by runs.  The
        empty event returns 0.
        """
        lo, up = self._lower_num, self._upper_num
        forced = 0
        prev = SENTINEL
        for h in (*self.chain.classes_hit(event), len(self.lower_cdf)):
            gap = lo[h - 1] - up[prev]
            if gap > 0:
                forced += gap
            prev = h
        return Fraction(self._den - forced, self._den)

    def lower(self, event: Iterable[Label]) -> Fraction:
        """Natural-extension lower probability, by conjugacy.

        ``lower(A) = 1 - upper(complement of A)``, with the complement taken
        by :meth:`~possbox.chain.Chain.complement`.
        """
        return ONE - self.upper(self.chain.complement(event))


def pbox_document(box: PBox) -> dict:
    """Replayable JSON form of a probability box, each class in :meth:`~possbox.chain.Chain.labels_by_class` order.

    A tuple label is written as its coordinates joined by ``|``; two labels with one key are refused.
    """
    keys = iter(_keys(label for _, label in box.chain.labels_by_class()))
    classes = [[next(keys) for _ in cls] for cls in box.chain.classes]
    return {
        "classes": classes,
        "lower": [str(v) for v in box.lower_cdf],
        "upper": [str(v) for v in box.upper_cdf],
    }
