"""Joint possibility distributions from marginal ones.

The dependence-free joint z and the independence joint z^n are functions
of the score z(x) = max_i pi_i(x_i); the outer bound for random-set
independence, 1 - (1 - w)^n, is a function of w(x) = min_i pi_i(x_i).
Rectangle rules (minimum / product) say what each joint must dominate; the
least-conservative check confirms the first two are as tight as possible
for their rule.
"""

from possbox import (
    MarginalFamily,
    PossibilityDistribution,
    combine_rectangle,
    joint_frechet,
    joint_independent,
    joint_rsi_outer,
    least_conservative_check,
)


def main() -> None:
    family = MarginalFamily(
        [
            PossibilityDistribution({"u": "1/2", "v": "1"}),
            PossibilityDistribution({"s": "3/10", "t": "1"}),
        ]
    )
    frechet = joint_frechet(family)
    independent = joint_independent(family)
    rsi = joint_rsi_outer(family)

    print("marginals: pi1 = {u: 1/2, v: 1},  pi2 = {s: 3/10, t: 1}")
    print()
    print(f"{'point':10}{'score z':10}{'z (min rule)':14}{'z^n (product)':15}{'rs outer':10}")
    for point in family.points():
        name = "(" + ", ".join(point) + ")"
        print(
            f"{name:10}{family.z_value(point)!s:10}{frechet[point]!s:14}"
            f"{independent[point]!s:15}{rsi[point]!s:10}"
        )
    print()

    rect = ({"u"}, {"s"})
    print("rectangle {u} x {s}:")
    print("  minimum rule bound:", combine_rectangle(family, rect, "frechet"))
    print("  product rule bound:", combine_rectangle(family, rect, "independent"))
    print()

    print("least-conservative checks (joint vs rule):")
    for joint, name in ((frechet, "frechet"), (independent, "independent")):
        for rule in ("frechet", "independent"):
            verdict = least_conservative_check(family, joint, rule)
            print(f"  {name:12} joint against {rule:12} rule: {verdict}")
    print()

    low = MarginalFamily(
        [
            PossibilityDistribution({"u": "2/5", "v": "1"}),
            PossibilityDistribution({"s": "2/5", "t": "1"}),
        ]
    )
    point = ("u", "s")
    print("which bound is tighter depends on the regime:")
    print(
        f"  all values 2/5 (< 1/2): z^n = {joint_independent(low)[point]}"
        f" beats rs outer = {joint_rsi_outer(low)[point]}"
    )
    point = ("v", "s")
    print(
        f"  a coordinate at 1:      rs outer = {joint_rsi_outer(low)[point]}"
        f" beats z^n = {joint_independent(low)[point]}"
    )
    print()
    print("neither z^n nor the outer bound is a proper joint: projecting back")
    print("onto a coordinate inflates interior values, e.g. at u:")
    projected = max(joint_rsi_outer(low)[p] for p in low.points() if p[0] == "u")
    print(f"  projection of rs outer at u = {projected} > 2/5 = pi1(u)")


if __name__ == "__main__":
    main()
