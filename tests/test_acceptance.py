"""Acceptance gate: one test and one printed verdict line per criterion.

Each criterion is a ``possbox verify`` suite run at its defaults, the same
sweep as ``possbox verify --suite NAME``.  A criterion passes when its
suite finds no counterexample and makes exactly the pinned number of cases
and checks, so the gate cannot pass by checking less.  Criteria that read
one suite share one run: 1 (formula = LP on every event) and 8 (LP
coherence) read ``oracle``, 2 and 3 (maxitivity and the 0-1 formulas) read
``maxitive``, 4 and 5 (two-point example and random round trips) read
``roundtrip``; 6 reads ``conjunction`` and 7 ``multivariate``.  README's
acceptance table lists what each suite checks.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they appear; without ``-s`` pytest shows them for failing criteria only.
Every comparison is exact rational equality.
"""

from functools import cache

from possbox.verify import SuiteReport, run_suite

#: (cases, checks) of each suite at its defaults.
PINNED = {
    "oracle": (2375, 87442),
    "maxitive": (611, 3013),
    "roundtrip": (1123, 22647),
    "conjunction": (121, 1353),
    "multivariate": (9702, 2677022),
}


@cache
def _report(suite: str) -> SuiteReport:
    return run_suite(suite)


def _verdict(number: int, description: str, suite: str) -> None:
    report = _report(suite)
    counted = (report.cases, report.checks) == PINNED[suite]
    ok = report.ok and counted
    detail = report.summary()
    if not counted:
        detail += ", expected {} cases, {} checks".format(*PINNED[suite])
    if not report.ok:
        detail += f", first failure {report.counterexample}"
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description} [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_natural_extension_equals_credal_lp():
    _verdict(1, "formula upper probability equals the credal LP optimum on every event", "oracle")


def test_criterion_2_maxitivity_decision_matches_semantics():
    _verdict(2, "0-1-vector test agrees with exhaustive LP max-preservation", "maxitive")


def test_criterion_3_specialized_formulas_match_general_route():
    _verdict(3, "each specialized 0-1 formula equals the general natural extension", "maxitive")


def test_criterion_4_two_point_example_both_orderings():
    _verdict(4, "both orderings of the two-point example give pi(x1)=1/2, pi(x2)=1", "roundtrip")


def test_criterion_5_thousand_random_round_trips():
    _verdict(5, "1000 random distributions round-trip through a box on every event", "roundtrip")


def test_criterion_6_conjunction_intersection_and_slack():
    _verdict(
        6,
        "credal set equals the intersection of its two possibility credal sets;"
        " approximation slack on (x, y] is min(lower(x), 1-upper(y))",
        "conjunction",
    )


def test_criterion_7_multivariate_joints():
    _verdict(
        7,
        "least-conservative checks, outer-bound dominance and both"
        " comparison regimes hold for all 2- and 3-marginal grid families",
        "multivariate",
    )


def test_criterion_8_every_enumerated_box_is_coherent():
    _verdict(8, "the LP reproduces both cumulative vectors of every enumerated box", "oracle")
