"""Any band is the conjunction of two possibility measures.

Ignoring the lower cumulative vector gives one possibility distribution;
ignoring the upper vector gives another.  Their credal sets intersect in
exactly the band's credal set -- verified here by exact linear programming
-- but the naive event-wise combination (minimum of the two measures) is
only an outer approximation, and its slack on cumulative intervals has a
closed form.
"""

from itertools import combinations

from possbox import (
    Chain,
    PBox,
    conjunction_bounds,
    conjunction_decompose,
    credal_intersection_equal,
)


def main() -> None:
    chain = Chain([["a"], ["b"], ["c"]])
    box = PBox(chain, ["1/5", "2/5", "1"], ["1/2", "4/5", "1"])
    pi_one, pi_two = conjunction_decompose(box)
    print("band:", [str(v) for v in box.lower_cdf], [str(v) for v in box.upper_cdf])
    print("distribution from the lower vector:", {x: str(pi_one[x]) for x in "abc"})
    print("distribution from the upper vector:", {x: str(pi_two[x]) for x in "abc"})
    print()

    same = credal_intersection_equal(box, pi_one, pi_two)
    print("credal set equals the intersection of the two possibility credal sets:", same)
    print()

    print("event-wise minimum is only an outer approximation:")
    print(f"{'event':16}{'approx lower':14}{'lower':8}{'upper':8}{'approx upper':12}")
    for k in range(4):
        for combo in combinations("abc", k):
            event = frozenset(combo)
            approx_lower, approx_upper = conjunction_bounds(box, event)
            name = "{" + ", ".join(sorted(event)) + "}"
            print(
                f"{name:16}{approx_lower!s:14}{box.lower(event)!s:8}"
                f"{box.upper(event)!s:8}{approx_upper!s:12}"
            )
    print()

    print("slack of the approximation on (x, y] is min(lower(x), 1 - upper(y)):")
    reps = ["a", "b", "c"]
    for i in range(3):
        for j in range(i + 1, 3):
            event = chain.class_range_labels(i + 1, j)
            _, approx_upper = conjunction_bounds(box, event)
            slack = approx_upper - box.upper(event)
            expected = min(box.lower_cdf[i], 1 - box.upper_cdf[j])
            print(
                f"  ({reps[i]}, {reps[j]}]: slack = {slack},"
                f" closed form = {expected}"
            )


if __name__ == "__main__":
    main()
