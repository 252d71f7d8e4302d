"""The formula route against the exact linear-programming oracle.

The closed forms in this package are fast but intricate; the oracle knows
nothing about them.  It reads the band as plain linear constraints on a
probability mass function and optimizes with an exact rational simplex.
Agreement on every event is the package's core correctness argument, and
the verification suites sweep it over thousands of enumerated instances.
"""

from itertools import combinations

from possbox import Chain, PBox, check_coherence, credal_lower, credal_upper
from possbox.verify import run_suite


def main() -> None:
    chain = Chain([["a"], ["b"], ["c"], ["d"]])
    box = PBox(
        chain,
        lower=["0", "1/4", "1/2", "1"],
        upper=["1/4", "3/4", "3/4", "1"],
    )
    print("band:", [str(v) for v in box.lower_cdf], [str(v) for v in box.upper_cdf])
    print()
    print(f"{'event':18}{'formula':18}{'linear program':18}")
    labels = sorted(chain.labels)
    for k in range(len(labels) + 1):
        for combo in combinations(labels, k):
            event = frozenset(combo)
            formula = (box.lower(event), box.upper(event))
            oracle = (credal_lower(box, event), credal_upper(box, event))
            name = "{" + ", ".join(sorted(event)) + "}"
            if formula != oracle:
                raise RuntimeError(f"the formula and the linear program disagree on {name}")
            by_formula, by_lp = (f"[{lo}, {up}]" for lo, up in (formula, oracle))
            print(f"{name:18}{by_formula:18}{by_lp:18}")
    print()
    print("cumulative vectors are reproduced by the optimizer:", check_coherence(box))
    print()

    print("a small verification sweep (exhaustive over a coarse grid):")
    report = run_suite("oracle", max_classes=3, grid_den=2)
    print(" ", report.summary())


if __name__ == "__main__":
    main()
