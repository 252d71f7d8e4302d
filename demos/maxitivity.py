"""When is the upper probability of a band maximum-preserving?

The answer only depends on whether one of the two cumulative vectors is
0-1 valued.  This script walks through one box per regime, compares the
specialized closed forms with the general route, and shows the degenerate
precise case where intuition is most easily led astray.
"""

from itertools import combinations

from possbox import (
    Chain,
    PBox,
    exhaustive_max_preserving,
    is_maxitive,
    upper_01_both,
    upper_01_lower,
    upper_01_upper,
    zero_one_profile,
)


def describe(name: str, box: PBox) -> None:
    profile = zero_one_profile(box)
    print(f"{name}: lower={[str(v) for v in box.lower_cdf]}",
          f"upper={[str(v) for v in box.upper_cdf]}")
    print(f"  lower 0-1? {profile.lower_is_01}   upper 0-1? {profile.upper_is_01}"
          f"   maxitive? {is_maxitive(box)}")
    semantic = exhaustive_max_preserving(box)
    print(f"  exhaustive check over all event pairs agrees: {semantic == is_maxitive(box)}")


def main() -> None:
    chain = Chain([["a"], ["b"], ["c"]])
    boxes = {
        "P1 (lower vector 0-1)": PBox(chain, ["0", "0", "1"], ["1/2", "4/5", "1"]),
        "P2 (neither vector 0-1)": PBox(chain, ["1/5", "2/5", "1"], ["1/2", "4/5", "1"]),
        "Q (upper vector 0-1)": PBox(chain, ["0", "2/5", "1"], ["0", "1", "1"]),
        "R (both vectors 0-1)": PBox(chain, ["0", "0", "1"], ["0", "1", "1"]),
        "precise (degenerate)": PBox(chain, ["0", "1", "1"], ["0", "1", "1"]),
    }
    for name, box in boxes.items():
        describe(name, box)
        print()

    print("specialized formulas equal the general route on every event:")
    events = [frozenset(c) for k in range(4) for c in combinations("abc", k)]
    p1 = boxes["P1 (lower vector 0-1)"]
    q = boxes["Q (upper vector 0-1)"]
    r = boxes["R (both vectors 0-1)"]
    for form, box in ((upper_01_lower, p1), (upper_01_upper, q), (upper_01_both, r)):
        if any(form(box, e) != box.upper(e) for e in events):
            raise RuntimeError(f"{form.__name__} disagrees with the general route")
    print("  checked 0-1-lower on P1, 0-1-upper on Q, 0-1-both on R -- all equal.")
    print()

    precise = boxes["precise (degenerate)"]
    print("the degenerate case: lower = upper = (0, 1, 1) forces all mass onto b, so")
    print(f"  upper({{b}})    = {precise.upper({'b'})}")
    print(f"  upper({{a, c}}) = {precise.upper({'a', 'c'})}   (b is missing: nothing can sit on a or c)")
    print(f"  upper({{b, c}}) = {precise.upper({'b', 'c'})}")


if __name__ == "__main__":
    main()
