from fractions import Fraction

from conftest import TIED_CHAINS, every_event

from possbox import (
    is_maxitive,
    upper_01_both,
    upper_01_lower,
    upper_01_upper,
    zero_one_possibility,
    zero_one_profile,
)
from possbox.verify import default_chain, iter_chain_pboxes


def test_profiles(p1, p2, q, r, precise):
    prof = zero_one_profile(p1)
    assert (prof.first_lower_positive, prof.first_upper_positive) == (2, 0)
    assert prof.lower_is_01 and not prof.upper_is_01

    prof = zero_one_profile(p2)
    assert not prof.lower_is_01 and not prof.upper_is_01

    prof = zero_one_profile(q)
    assert prof.upper_is_01 and not prof.lower_is_01
    assert prof.first_upper_positive == 1

    prof = zero_one_profile(r)
    assert prof.lower_is_01 and prof.upper_is_01
    assert (prof.first_lower_positive, prof.first_upper_positive) == (2, 1)

    prof = zero_one_profile(precise)
    assert prof.lower_is_01 and prof.upper_is_01
    assert prof.first_lower_positive == prof.first_upper_positive == 1


def test_is_maxitive(p1, p2, q, r, precise):
    assert is_maxitive(p1)
    assert not is_maxitive(p2)
    assert is_maxitive(q)
    assert is_maxitive(r)
    assert is_maxitive(precise)


def test_upper_01_lower_frozen(p1):
    assert upper_01_lower(p1, {"b"}) == Fraction(4, 5)
    assert upper_01_lower(p1, {"a"}) == Fraction(1, 2)
    assert upper_01_lower(p1, {"a", "c"}) == 1
    assert upper_01_lower(p1, {"c"}) == 1
    assert upper_01_lower(p1, frozenset()) == 0


def test_upper_01_upper_frozen(q):
    assert upper_01_upper(q, {"b"}) == 1
    assert upper_01_upper(q, {"b", "c"}) == 1
    assert upper_01_upper(q, {"a"}) == 0
    assert upper_01_upper(q, {"c"}) == Fraction(3, 5)
    assert upper_01_upper(q, frozenset()) == 0


def test_upper_01_both_frozen(r, precise):
    assert upper_01_both(r, {"a"}) == 0
    assert upper_01_both(r, {"b"}) == 1
    assert upper_01_both(r, {"c"}) == 1
    assert upper_01_both(r, {"a", "c"}) == 1

    assert upper_01_both(precise, {"b"}) == 1
    assert upper_01_both(precise, {"a"}) == 0
    assert upper_01_both(precise, {"c"}) == 0
    # Every distribution inside the band puts all mass on the middle class,
    # so an event missing that class has upper probability zero.
    assert upper_01_both(precise, {"a", "c"}) == 0
    assert upper_01_both(precise, {"b", "c"}) == 1


def test_specialized_formulas_agree_with_general_route():
    boxes = [box for m in range(1, 4) for box in iter_chain_pboxes(default_chain(m), 2)]
    boxes += [box for chain in TIED_CHAINS for box in iter_chain_pboxes(chain, 4)]
    for box in boxes:
        profile = zero_one_profile(box)
        both = profile.lower_is_01 and profile.upper_is_01
        window = zero_one_possibility(box) if both else None
        for event in every_event(box.chain.labels):
            expected = box.upper(event)
            if profile.lower_is_01:
                assert upper_01_lower(box, event) == expected
            if profile.upper_is_01:
                assert upper_01_upper(box, event) == expected
            if both:
                assert upper_01_both(box, event) == expected == window.measure(event)


def test_profile_matches_a_scan_of_both_vectors(grid4_boxes):
    def scanned(vector):
        first_positive = 0
        while vector[first_positive] == 0:
            first_positive += 1
        return first_positive, all(v in (0, 1) for v in vector)

    for box in grid4_boxes:
        profile = zero_one_profile(box)
        fields = (
            profile.first_lower_positive,
            profile.lower_is_01,
            profile.first_upper_positive,
            profile.upper_is_01,
        )
        assert fields == scanned(box.lower_cdf) + scanned(box.upper_cdf)
