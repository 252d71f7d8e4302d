"""Exact rational parsing.

Every quantity in this package is a :class:`fractions.Fraction`, printed
with ``str`` (``p/q`` or ``p``).  Inputs may be integers, fractions, or
strings such as ``"1/2"`` or ``"0.8"`` (decimal strings parse exactly).
Binary floats are rejected: ``0.8`` the float is not ``4/5``, and silently
accepting it would poison every downstream equality.  Booleans are rejected
too: a JSON ``true`` is not the number 1.  Any other value that is not a
:class:`numbers.Rational`, a :class:`decimal.Decimal` included, is refused.

A string is read in one syntax, the same on every supported Python: an
optional ``+`` or ``-``, then either ASCII digits, ``/`` and ASCII digits,
or a decimal (``"3"``, ``"0.25"``, ``"2."``, ``".5"``) with an optional
exponent (``"1e-3"``, ``"5E+2"``), with whitespace allowed around the
whole.  No ``_`` separators, no spaces around ``/`` and no digits of other
scripts: :class:`fractions.Fraction` reads some of these on some Python
versions only.
"""

from __future__ import annotations

import re
from fractions import Fraction
from numbers import Rational

ZERO = Fraction(0)
ONE = Fraction(1)

#: Most characters, and largest decimal exponent in magnitude, of a string ``exact``
#: reads: ``"1e-99999999"`` would make Python build ``10 ** 99999999``, and past the
#: bound a positive exponent puts any nonzero value above 1, outside every probability.
MAX_DIGITS = 1000

#: The number syntax of a string.  Groups ``numerator`` and ``denominator`` hold the
#: two sides of a ``p/q`` form; ``exponent`` holds a decimal exponent's digits.
_NUMBER = re.compile(
    r"\s*(?:(?P<numerator>[+-]?[0-9]+)/(?P<denominator>[0-9]+)"
    r"|[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?(?P<exponent>[0-9]+))?)\s*"
)


def shown(value: object) -> str:
    """``str(value)`` for an error line, cut to 40 characters."""
    text = str(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


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
    if isinstance(value, str):
        too_long = len(value) > MAX_DIGITS
        number = None if too_long else _NUMBER.fullmatch(value)
        if number is None and not too_long:
            raise ValueError(f"not an exact rational: {shown(repr(value))}")
        if too_long or int(number["exponent"] or 0) > MAX_DIGITS:
            raise ValueError(f"refusing {shown(repr(value))}: length or exponent over {MAX_DIGITS}")
        if number["denominator"] is not None:
            denominator = int(number["denominator"])
            if not denominator:
                raise ValueError(f"not an exact rational: {shown(repr(value))}")
            return Fraction(int(number["numerator"]), denominator)
    elif not isinstance(value, Rational):
        raise ValueError(f"not an exact rational: {shown(repr(value))}")
    try:
        return Fraction(value)  # type: ignore[arg-type]
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational: {shown(repr(value))}") from exc

