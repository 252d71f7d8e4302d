"""Zero-one cumulative structure and maxitivity of the natural extension.

The upper probability induced by a probability box is maxitive (a
possibility measure, on finite chains) exactly when at least one of the two
cumulative vectors is 0-1-valued.  When that happens the natural extension of
an event needs no scan: the cumulative vectors are monotone, so it is read
at one end class of the event, its highest class at or below where a 0-1
lower vector reaches 1 or its lowest class at or above where a 0-1 upper
vector leaves 0.  This module decides the property and implements those
specialized forms.  Agreement of each specialized form with the general
:meth:`possbox.pbox.PBox.upper` is part of the verification suites.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, NamedTuple

from possbox.chain import SENTINEL, Label
from possbox.pbox import PBox
from possbox.rationals import ONE, ZERO


class ZeroOneProfile(NamedTuple):
    """Where the cumulative vectors of a probability box leave 0, and whether they are 0-1.

    ``first_lower_positive`` is the index of the first class where the lower
    cumulative vector is positive; a 0-1 lower vector reaches 1 there.
    ``first_upper_positive`` is the first class where the upper vector
    leaves 0.  Both vectors reach 1 at the top class, so both indices are
    classes of the chain, and because lower never exceeds upper,
    ``first_upper_positive <= first_lower_positive``.
    """

    first_lower_positive: int
    first_upper_positive: int
    lower_is_01: bool
    upper_is_01: bool


def zero_one_profile(box: PBox) -> ZeroOneProfile:
    """Find the first positive class and the 0-1 flag of each cumulative vector.

    >>> from possbox.chain import Chain
    >>> box = PBox(Chain([["a"], ["b"], ["c"]]), ["0", "0", "1"], ["0", "1", "1"])
    >>> prof = zero_one_profile(box)
    >>> (prof.first_lower_positive, prof.first_upper_positive, prof.lower_is_01, prof.upper_is_01)
    (2, 1, True, True)
    """
    # Both vectors are non-decreasing and end at 1: each first positive class
    # is a class of the chain, and a vector is 0-1 exactly when it is 1 there.
    first_lower_positive = bisect_right(box.lower_cdf, ZERO)
    first_upper_positive = bisect_right(box.upper_cdf, ZERO)
    if first_upper_positive > first_lower_positive:
        raise ValueError(
            f"lower cumulative vector exceeds the upper one at class {first_lower_positive}"
        )
    return ZeroOneProfile(
        first_lower_positive,
        first_upper_positive,
        box.lower_cdf[first_lower_positive] == ONE,
        box.upper_cdf[first_upper_positive] == ONE,
    )


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

    The lower vector reaches 1 at ``b1 = first_lower_positive``, so every
    distribution in the box puts all its mass at or below ``b1``, and below
    ``b1`` the lower vector is 0.  The event's mass is therefore topped by
    the upper cumulative value at ``t``, the highest class of the event at
    or below ``b1``, and the box holds a distribution reaching it.  With no
    such class the value is 0.
    """
    profile = zero_one_profile(box)
    if not profile.lower_is_01:
        raise ValueError("lower cumulative vector is not 0-1-valued")
    hit = box.chain.classes_hit(event)
    k = bisect_right(hit, profile.first_lower_positive)
    return box._upper_at(hit[k - 1] if k else SENTINEL)


def upper_01_upper(box: PBox, event: Iterable[Label]) -> Fraction:
    """Natural-extension upper probability when the *upper* vector is 0-1.

    The upper vector is 0 below ``c1 = first_upper_positive``, so no
    distribution in the box puts mass below ``c1``.  Let ``s`` be the lowest
    class of the event at or above ``c1``: at least ``lower(s - 1)`` sits
    strictly below ``s``, outside the event, and the rest can sit at ``s``.
    The value is ``1 - lower(s - 1)``, or 0 when there is no such class.
    """
    profile = zero_one_profile(box)
    if not profile.upper_is_01:
        raise ValueError("upper cumulative vector is not 0-1-valued")
    hit = box.chain.classes_hit(event)
    k = bisect_left(hit, profile.first_upper_positive)
    return ONE - box._lower_at(hit[k] - 1) if k < len(hit) else ZERO


def upper_01_both(box: PBox, event: Iterable[Label]) -> Fraction:
    """Natural-extension upper probability when *both* vectors are 0-1.

    The value is then itself 0-1.  Every distribution in the box puts all
    its mass in the window ``c1 .. b1`` between ``c1 =
    first_upper_positive`` and ``b1 = first_lower_positive``, and any one
    class of the window can take all of it.  So the value is 1 exactly when
    the event hits a class of the window.  When ``c1 == b1`` the box is a
    degenerate (precise) distribution putting all mass on that class.
    :func:`possbox.possibility.zero_one_possibility` reads this value at
    each label.
    """
    profile = zero_one_profile(box)
    if not (profile.lower_is_01 and profile.upper_is_01):
        raise ValueError("both cumulative vectors must be 0-1-valued")
    hit = box.chain.classes_hit(event)
    k = bisect_left(hit, profile.first_upper_positive)
    return ONE if k < len(hit) and hit[k] <= profile.first_lower_positive else ZERO
