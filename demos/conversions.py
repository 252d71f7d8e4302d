"""Converting between bands of cumulative bounds and possibility measures.

A maxitive band collapses to a possibility distribution (one number per
element); any distribution embeds back as a band on the chain of its level
sets.  Two different bands -- one per ordering of a two-element space --
can encode the same distribution.
"""

from itertools import combinations

from possbox import (
    Chain,
    PBox,
    PossibilityDistribution,
    pbox_to_possibility,
    possibility_to_pbox,
    zero_one_possibility,
)


def main() -> None:
    chain = Chain([["a"], ["b"], ["c"]])
    p1 = PBox(chain, ["0", "0", "1"], ["1/2", "4/5", "1"])
    pi = pbox_to_possibility(p1)
    if pi is None:
        raise RuntimeError("P1 is maxitive, yet it did not convert")
    print("P1 is maxitive; its distribution:",
          {x: str(pi[x]) for x in "abc"})

    p2 = PBox(chain, ["1/5", "2/5", "1"], ["1/2", "4/5", "1"])
    print("P2 is not maxitive; conversion returns:", pbox_to_possibility(p2))
    print()

    print("the same two-point distribution from both orderings:")
    ascending = PBox(Chain([["x1"], ["x2"]]), ["0", "1"], ["1/2", "1"])
    descending = PBox(Chain([["x2"], ["x1"]]), ["1/2", "1"], ["1", "1"])
    for name, box in (("x1 < x2", ascending), ("x2 < x1", descending)):
        converted = pbox_to_possibility(box)
        if converted is None:
            raise RuntimeError(f"the ordering {name} did not convert")
        print(f"  ordering {name}: pi(x1)={converted['x1']}, pi(x2)={converted['x2']}")
    print()

    pi = PossibilityDistribution({"cold": "1/4", "mild": "1", "warm": "1/4", "hot": "3/4"})
    level_chain, box = possibility_to_pbox(pi)
    print("embedding a distribution as a band on its level-set chain:")
    print("  classes:", " < ".join("{" + ", ".join(sorted(c)) + "}" for c in level_chain.classes))
    print("  lower:", [str(v) for v in box.lower_cdf])
    print("  upper:", [str(v) for v in box.upper_cdf])
    labels = sorted(pi.labels)
    agree = all(
        box.upper(frozenset(c)) == pi.measure(c)
        for k in range(len(labels) + 1)
        for c in combinations(labels, k)
    )
    print("  upper probability reproduces the possibility measure on all events:", agree)
    print()

    both = PBox(chain, ["0", "0", "1"], ["0", "1", "1"])
    print("a band with both vectors 0-1 is an indicator distribution:")
    indicator = zero_one_possibility(both)
    print(" ", {x: str(indicator[x]) for x in "abc"})


if __name__ == "__main__":
    main()
