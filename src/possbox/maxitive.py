"""Zero-one cumulative structure and maxitivity of the natural extension.

The upper probability induced by a probability box is maxitive (a
possibility measure, on finite chains) exactly when at least one of the two
cumulative vectors is 0-1-valued.  When that happens the natural extension
collapses to much simpler scans driven by where the cumulative vectors leave
zero; this module decides the property and implements those specialized
forms.  Agreement of each specialized form with the general
:meth:`possbox.pbox.PBox.upper` is part of the verification suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from possbox.chain import SENTINEL, Label
from possbox.pbox import PBox
from possbox.rationals import ONE, ZERO


@dataclass(frozen=True)
class ZeroOneProfile:
    """Where the cumulative vectors of a probability box sit at 0 or 1.

    ``lower_zero_end`` is the largest class index where the lower cumulative
    vector is still 0 (``-1`` when it is positive from class 0 on); the
    zero prefix always includes the sentinel position below the chain.
    ``upper_zero_end`` plays the same role for the upper vector.  Because
    lower never exceeds upper, ``upper_zero_end <= lower_zero_end``.
    """

    lower_zero_end: int
    upper_zero_end: int
    lower_is_01: bool
    upper_is_01: bool

    @property
    def first_lower_positive(self) -> int:
        """Index of the first class where the lower cumulative vector is positive."""
        return self.lower_zero_end + 1

    @property
    def first_upper_positive(self) -> int:
        """Index of the first class where the upper cumulative vector is positive."""
        return self.upper_zero_end + 1


def zero_one_profile(box: PBox) -> ZeroOneProfile:
    """Compute the zero prefixes and 0-1 flags of a probability box.

    >>> from possbox.chain import Chain
    >>> box = PBox(Chain([["a"], ["b"], ["c"]]), ["0", "0", "1"], ["0", "1", "1"])
    >>> prof = zero_one_profile(box)
    >>> (prof.lower_zero_end, prof.upper_zero_end, prof.lower_is_01, prof.upper_is_01)
    (1, 0, True, True)
    """
    lower_zero_end = SENTINEL
    while lower_zero_end + 1 < box.m and box.lower_cdf[lower_zero_end + 1] == ZERO:
        lower_zero_end += 1
    upper_zero_end = SENTINEL
    while upper_zero_end + 1 < box.m and box.upper_cdf[upper_zero_end + 1] == ZERO:
        upper_zero_end += 1
    lower_is_01 = all(v == ZERO or v == ONE for v in box.lower_cdf)
    upper_is_01 = all(v == ZERO or v == ONE for v in box.upper_cdf)
    if upper_zero_end > lower_zero_end:
        raise ValueError(
            f"lower cumulative vector exceeds the upper one at class {lower_zero_end + 1}"
        )
    return ZeroOneProfile(lower_zero_end, upper_zero_end, lower_is_01, upper_is_01)


def is_maxitive(box: PBox) -> bool:
    """Is the induced upper probability maxitive?

    True exactly when the lower or the upper cumulative vector is
    0-1-valued.  On a finite chain this coincides with the upper probability
    being a possibility measure.
    """
    profile = zero_one_profile(box)
    return profile.lower_is_01 or profile.upper_is_01


def upper_01_lower(box: PBox, event: Iterable[Label]) -> Fraction:
    """Natural-extension upper probability when the *lower* vector is 0-1.

    Scans the classes where the lower vector has already reached 1: for each
    such class ``y``, the event restricted to ``[bottom, y]`` must be topped
    by upper cumulative mass, giving the upper value at the topmost class
    the restriction intersects (0 when the restriction is empty).  The
    result is the minimum over all such ``y``.
    """
    profile = zero_one_profile(box)
    if not profile.lower_is_01:
        raise ValueError("lower cumulative vector is not 0-1-valued")
    hit = box.chain.classes_hit(event)
    best = ONE
    for y in range(profile.first_lower_positive, box.m):
        topmost = SENTINEL
        for i in hit:
            if i <= y:
                topmost = i
            else:
                break
        value = box.upper_at(topmost)
        if value < best:
            best = value
    return best


def upper_01_upper(box: PBox, event: Iterable[Label]) -> Fraction:
    """Natural-extension upper probability when the *upper* vector is 0-1.

    Dual scan: for each class ``x`` where the upper vector is still 0
    (including the sentinel), all lower cumulative mass strictly below the
    part of the event above ``x`` is unavailable to the event.  With the
    convention that an empty restriction frees everything (the supremum
    rises to 1), the result is 1 minus the largest such blocked mass.
    """
    profile = zero_one_profile(box)
    if not profile.upper_is_01:
        raise ValueError("upper cumulative vector is not 0-1-valued")
    hit = box.chain.classes_hit(event)
    blocked = ZERO
    for x in range(SENTINEL, profile.first_upper_positive):
        above = next((i for i in hit if i > x), None)
        value = ONE if above is None else box.lower_at(above - 1)
        if value > blocked:
            blocked = value
    return ONE - blocked


def upper_01_both(box: PBox, event: Iterable[Label]) -> Fraction:
    """Natural-extension upper probability when *both* vectors are 0-1.

    The value is then itself 0-1.  With ``c = upper_zero_end`` and
    ``b = lower_zero_end``, the event has upper probability 0 exactly when
    it avoids the middle classes ``c+1 .. b`` and its part above class ``b``
    leaves at least one class of ``b+1 ..`` strictly below it; otherwise the
    value is 1.  When the zero prefixes coincide the box is a degenerate
    (precise) distribution putting all mass on class ``b + 1``.
    """
    profile = zero_one_profile(box)
    if not (profile.lower_is_01 and profile.upper_is_01):
        raise ValueError("both cumulative vectors must be 0-1-valued")
    b = profile.lower_zero_end
    c = profile.upper_zero_end
    hit = box.chain.classes_hit(event)
    if any(c < i <= b for i in hit):
        return ONE
    above = [i for i in hit if i > b]
    if not above or min(above) >= b + 2:
        return ZERO
    return ONE
