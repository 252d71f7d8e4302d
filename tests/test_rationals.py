from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest

from possbox.rationals import MAX_DIGITS, exact

NOT_A_RATIONAL = "not an exact rational"
TOO_LONG = f"length or exponent over {MAX_DIGITS}"

#: ``(text, what exact reads)``: a Fraction, or the start of the error it raises.
#: The table holds on every supported Python; ``Fraction`` alone reads some of
#: the refused strings on some versions (``_`` separators from 3.11, spaces
#: around ``/`` from 3.12, digits of other scripts everywhere).
NUMBER_SYNTAX = (
    ("1", Fraction(1)),
    ("007", Fraction(7)),
    ("-1/2", Fraction(-1, 2)),
    ("+3/4", Fraction(3, 4)),
    ("0/5", Fraction(0)),
    ("00/1", Fraction(0)),
    ("-0/3", Fraction(0)),
    ("+0/1", Fraction(0)),
    (" -3/4 ", Fraction(-3, 4)),
    ("6/8", Fraction(3, 4)),
    ("0.25", Fraction(1, 4)),
    ("2.", Fraction(2)),
    (".5", Fraction(1, 2)),
    ("-.5", Fraction(-1, 2)),
    ("1e-3", Fraction(1, 1000)),
    ("5E+2", Fraction(500)),
    ("2.5e1", Fraction(25)),
    (" 1/2 ", Fraction(1, 2)),
    ("\t0.8\n", Fraction(4, 5)),
    ("\u20031/2\u00a0", Fraction(1, 2)),
    (f"1e-{MAX_DIGITS}", Fraction(1, 10**MAX_DIGITS)),
    ("1_0/1_0", NOT_A_RATIONAL),
    ("1_0", NOT_A_RATIONAL),
    ("0.2_5", NOT_A_RATIONAL),
    ("1e1_0", NOT_A_RATIONAL),
    ("1 /2", NOT_A_RATIONAL),
    ("1/ 2", NOT_A_RATIONAL),
    ("1 / 2", NOT_A_RATIONAL),
    ("١", NOT_A_RATIONAL),
    ("1/٢", NOT_A_RATIONAL),
    ("１", NOT_A_RATIONAL),
    ("½", NOT_A_RATIONAL),
    ("", NOT_A_RATIONAL),
    (" ", NOT_A_RATIONAL),
    (".", NOT_A_RATIONAL),
    ("+", NOT_A_RATIONAL),
    ("--1", NOT_A_RATIONAL),
    ("1/2/3", NOT_A_RATIONAL),
    ("1.5/2", NOT_A_RATIONAL),
    ("1/-2", NOT_A_RATIONAL),
    ("1/2e3", NOT_A_RATIONAL),
    ("e5", NOT_A_RATIONAL),
    ("1e", NOT_A_RATIONAL),
    ("1e5.0", NOT_A_RATIONAL),
    ("1,5", NOT_A_RATIONAL),
    ("0x10", NOT_A_RATIONAL),
    ("inf", NOT_A_RATIONAL),
    ("nan", NOT_A_RATIONAL),
    ("1/0", NOT_A_RATIONAL),
    ("1/00", NOT_A_RATIONAL),
    ("0/0", NOT_A_RATIONAL),
    (f"1e{MAX_DIGITS + 1}", TOO_LONG),
    (f"1e-{MAX_DIGITS + 1}", TOO_LONG),
    (f" 1E+0{MAX_DIGITS + 1} ", TOO_LONG),
    ("1" * (MAX_DIGITS + 1), TOO_LONG),
    ("x" * (MAX_DIGITS + 1), TOO_LONG),
)


def read(text):
    """What ``exact`` makes of ``text``: its value, or the kind of error it raises."""
    try:
        return exact(text)
    except ValueError as exc:
        kind = NOT_A_RATIONAL if str(exc).startswith(NOT_A_RATIONAL) else TOO_LONG
        assert kind in str(exc), str(exc)
        return kind


@pytest.mark.parametrize("text, expected", NUMBER_SYNTAX, ids=[repr(text)[:24] for text, _ in NUMBER_SYNTAX])
def test_exact_reads_one_number_syntax(text, expected):
    assert read(text) == expected


def test_exact_reads_one_number_syntax_in_lowest_terms():
    for text, expected in NUMBER_SYNTAX:
        value = read(text)
        if isinstance(expected, Fraction):
            assert type(value) is Fraction, text
            assert value.denominator > 0 and gcd(value.numerator, value.denominator) == 1, text


@pytest.mark.parametrize("text", ["1/0", "1/00", " -3/000 "])
def test_a_zero_denominator_is_not_an_exact_rational(text):
    with pytest.raises(ValueError) as raised:
        exact(text)
    assert str(raised.value) == f"not an exact rational: {text!r}"


#: ``(value, what exact reads)`` for values that are not strings: only a
#: ``numbers.Rational`` reaches ``Fraction``.  A ``Decimal`` does not, so an
#: infinite one cannot escape as ``OverflowError`` and a huge exponent is not
#: expanded.
NOT_STRINGS = (
    (7, Fraction(7)),
    (Fraction(-2, 6), Fraction(-1, 3)),
    (Decimal("1.5"), NOT_A_RATIONAL),
    (Decimal("Infinity"), NOT_A_RATIONAL),
    (Decimal("1E+999999"), NOT_A_RATIONAL),
    (None, NOT_A_RATIONAL),
    ([], NOT_A_RATIONAL),
)


@pytest.mark.parametrize("value, expected", NOT_STRINGS, ids=[repr(value) for value, _ in NOT_STRINGS])
def test_exact_hands_only_rationals_to_fraction(value, expected):
    assert read(value) == expected
