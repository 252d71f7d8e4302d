"""Exact rational parsing.

Every quantity in this package is a :class:`fractions.Fraction`, printed
with ``str`` (``p/q`` or ``p``).  Inputs may be integers, fractions, or
strings such as ``"1/2"`` or ``"0.8"`` (decimal strings parse exactly).
Binary floats are rejected: ``0.8`` the float is not ``4/5``, and silently
accepting it would poison every downstream equality.  Booleans are rejected
too: a JSON ``true`` is not the number 1.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def exact(value: object) -> Fraction:
    """Coerce ``value`` to an exact :class:`Fraction`.

    >>> exact("0.8")
    Fraction(4, 5)
    >>> exact("1/3") + exact(1)
    Fraction(4, 3)
    """
    if isinstance(value, (bool, float)):
        raise ValueError(
            f"refusing {type(value).__name__} {value!r}:"
            " pass an int, Fraction, or string like '4/5' or '0.8'"
        )
    if isinstance(value, Fraction):
        return value
    try:
        return Fraction(value)  # type: ignore[arg-type]
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational: {value!r}") from exc

