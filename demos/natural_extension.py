"""Event bounds from a pair of cumulative vectors.

A five-class chain with a band of cumulative bounds; the upper and lower
probability of any event follow from the minimal covering union of
intervals and a sum of forced gaps.  Everything is an exact fraction.
"""

from possbox import Chain, PBox


def main() -> None:
    chain = Chain([["mon"], ["tue"], ["wed"], ["thu"], ["fri"]])
    box = PBox(
        chain,
        lower=["0", "1/10", "2/5", "2/5", "1"],
        upper=["1/5", "1/2", "7/10", "9/10", "1"],
    )
    print("chain:", " < ".join(sorted(cls)[0] for cls in chain.classes))
    print("lower cdf:", [str(v) for v in box.lower_cdf])
    print("upper cdf:", [str(v) for v in box.upper_cdf])
    print()

    events = [
        {"mon"},
        {"wed"},
        {"mon", "tue"},
        {"mon", "wed", "fri"},
        {"tue", "thu", "fri"},
        set(),
    ]
    print("event bounds (lower, upper):")
    for event in events:
        name = "{" + ", ".join(sorted(event)) + "}"
        print(f"  {name:24} [{box.lower(event)}, {box.upper(event)}]")
    print()

    event = {"mon", "wed", "fri"}
    cover = chain.minimal_cover(event)
    print("minimal cover of {mon, wed, fri} as index runs:", cover.runs)
    print("  (each run (l, r] is a block of consecutive classes;",
          "-1 marks 'strictly below the bottom class')")
    print()

    # An order interval is the event made of the classes it spans.
    tue, wed, thu = (chain.index_of(day) for day in ("tue", "wed", "thu"))
    print("interval forms on (tue, thu] and friends:")
    for left, lo in (("(", tue + 1), ("[", tue)):
        for right, hi in ((")", thu - 1), ("]", thu)):
            value = box.upper(chain.class_range_labels(lo, hi))
            print(f"  upper {left}tue, thu{right} = {value}")
    print(f"  upper of the singleton wed = {box.singleton_upper('wed')}")
    print()
    print("note: (tue, wed) between adjacent classes is empty, so:")
    print(f"  upper (tue, wed) = {box.upper(chain.class_range_labels(tue + 1, wed - 1))}")


if __name__ == "__main__":
    main()
