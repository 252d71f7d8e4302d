"""Probability boxes on a chain, with exact natural-extension values.

A probability box is a pair of non-decreasing cumulative vectors over the
quotient classes: a lower and an upper envelope for an unknown cumulative
distribution function.  Interpreting the two vectors as bounds on the
probabilities of the down-sets ``[bottom, x]`` and up-sets ``(y, top]``
determines a coherent upper probability on *all* events; this module
computes that value in closed form.  The value depends on an event only
through the classes it hits: :meth:`PBox.upper` sums the mass forced into
the gap before each hit class, and :meth:`PBox.lower` asks it of the
classes the event does not contain, the classes its complement hits.
:meth:`PBox.upper_on_union` takes the paper's route for the same event: it
sums the forced mass over the gaps between the runs of the event's cover
(:meth:`~possbox.chain.Chain.minimal_cover`), and a test holds the two
routes equal.  The companion :mod:`possbox.oracle` recovers the same
numbers by direct optimization over the credal set, so every formula here
is cross-checkable against an independent route.

As in the oracle's tableau, the arithmetic runs on integers: a box keeps
each bound's numerator over the one common denominator of all ``2m``
values, checks itself and sums forced mass on those numerators, and makes
a :class:`~fractions.Fraction` only for the value it returns.  The public
vectors ``lower_cdf`` and ``upper_cdf`` stay ``Fraction`` tuples; the
oracle reads those, never the numerators.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable

from possbox.chain import SENTINEL, Chain, Label
from possbox.rationals import ONE, ZERO, exact, shown


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
        lo = tuple(exact(v) for v in lower)
        up = tuple(exact(v) for v in upper)
        m = chain.m
        if len(lo) != m or len(up) != m:
            raise ValueError(
                f"cumulative vectors must have one entry per class (expected {m}, "
                f"got {len(lo)} lower / {len(up)} upper)"
            )
        # Numerators over one common denominator; the trailing 0 is the
        # sentinel's value, read at index -1.
        den = lcm(*(v.denominator for v in lo), *(v.denominator for v in up))
        lo_num = (*(v.numerator * (den // v.denominator) for v in lo), 0)
        up_num = (*(v.numerator * (den // v.denominator) for v in up), 0)
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
        if lo_num[m - 1] != den or up_num[m - 1] != den:
            raise ValueError("both cumulative vectors must equal 1 at the top class")
        self.chain = chain
        self.lower_cdf = lo
        self.upper_cdf = up
        self._den = den
        self._lower_num = lo_num
        self._upper_num = up_num

    # ------------------------------------------------------------ basics

    @property
    def m(self) -> int:
        return self.chain.m

    def lower_at(self, i: int) -> Fraction:
        """Lower cumulative value at class ``i``; the sentinel ``-1`` gives 0."""
        return ZERO if i == SENTINEL else self.lower_cdf[i]

    def upper_at(self, i: int) -> Fraction:
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

    def __hash__(self) -> int:
        return hash((self.chain, self.lower_cdf, self.upper_cdf))

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
        for left, right in (*self.chain.minimal_cover(event), (self.m - 1, None)):
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

        ``lower(A) = 1 - upper(complement of A)``.  The complement hits
        exactly the classes ``A`` does not contain, so :meth:`upper` is asked
        of one label of each such class, not of the complement's label set.
        """
        event = self.chain.event(event)
        return ONE - self.upper([next(iter(cls)) for cls in self.chain.classes if not cls <= event])

    def singleton_upper(self, x: Label) -> Fraction:
        """Upper probability of ``{x}``: the cumulative jump room at its class."""
        i = self.chain.index_of(x)
        return self.upper_at(i) - self.lower_at(i - 1)
