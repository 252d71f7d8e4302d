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

Building a box sends each distinct string through :func:`exact` once (a
box's ``2m`` values on a 1/64 grid repeat most of their strings), keeping
them in a dict local to that one build; nothing is cached across calls.
"""

from __future__ import annotations

import re
from fractions import Fraction
from numbers import Rational
from typing import Callable, Iterable, Iterator

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


def shown(value: object, form: Callable[[object], str] = str) -> str:
    """``form(value)`` for an error line, cut to 40 characters; an int too long for ``str`` by its type."""
    try:
        text = form(value)
    except ValueError:
        text = f"<{type(value).__name__} too long to show>"
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def exact(value: object) -> Fraction:
    """Coerce ``value`` to an exact :class:`Fraction`.

    >>> exact("0.8")
    Fraction(4, 5)
    >>> exact("1/3") + exact(1)
    Fraction(4, 3)
    """
    if isinstance(value, str):
        if len(value) > MAX_DIGITS:
            raise ValueError(f"refusing {shown(value, repr)}: length or exponent over {MAX_DIGITS}")
        number = _NUMBER.fullmatch(value)
        if number is None:
            raise ValueError(f"not an exact rational: {shown(value, repr)}")
        numerator, denominator, exponent = number.group("numerator", "denominator", "exponent")
        if denominator is not None:
            denominator = int(denominator)
            if not denominator:
                raise ValueError(f"not an exact rational: {shown(value, repr)}")
            return Fraction(int(numerator), denominator)
        if exponent is not None and int(exponent) > MAX_DIGITS:
            raise ValueError(f"refusing {shown(value, repr)}: length or exponent over {MAX_DIGITS}")
    elif isinstance(value, Fraction):
        return value
    elif isinstance(value, (bool, float)):
        raise ValueError(
            f"refusing {type(value).__name__} {value!r}:"
            " pass an int, Fraction, or string like '4/5' or '0.8'"
        )
    elif not isinstance(value, Rational):
        raise ValueError(f"not an exact rational: {shown(value, repr)}")
    try:
        return Fraction(value)  # type: ignore[arg-type]
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational: {shown(value, repr)}") from exc


def _exact_each(values: Iterable[object], seen: dict[str, tuple]) -> tuple[list[Fraction], list[int], list[int]]:
    """Each of ``values`` through :func:`exact`, in order, as three lists: values, numerators, denominators.

    ``seen`` maps the strings read so far in one build to their entries, so
    each distinct string is read once; a build passes the same dict for all
    its vectors and drops it after.  Only ``str`` inputs are keyed: ``True
    == 1 == Fraction(1)`` hash alike, so a value-keyed dict would let a
    refused boolean through.  A bad entry raises when reached, naming the
    first in the caller's order.  Flat lists keep no tuple per value.
    """
    fractions, numerators, denominators = [], [], []
    for v in values:
        entry = seen.get(v) if type(v) is str else None
        if entry is None:
            q = exact(v)
            entry = q, q.numerator, q.denominator
            if type(v) is str:
                seen[v] = entry
        fractions.append(entry[0])
        numerators.append(entry[1])
        denominators.append(entry[2])
    return fractions, numerators, denominators
