import json
from fractions import Fraction
from importlib import import_module
from math import prod

import pytest
from conftest import public_names

import possbox
from possbox import PBox, PossibilityDistribution, maxitive, verify
from possbox.cli import main
from possbox.maxitive import upper_01_both, upper_01_upper, zero_one_profile
from possbox.multivariate import joint_frechet, joint_independent
from possbox.possibility import (
    conjunction_bounds,
    conjunction_decompose,
    pbox_to_possibility,
    possibility_to_pbox,
)
from possbox.verify import (
    SuiteReport,
    _event_labels,
    default_chain,
    grid_values,
    iter_cdf_vectors,
    iter_chain_pboxes,
    pbox_document,
    pi_document,
    run_suite,
    suite_conjunction,
    suite_maxitive,
    suite_multivariate,
    suite_oracle,
    suite_roundtrip,
)


def test_grid_values():
    assert grid_values(2) == (0, Fraction(1, 2), 1)
    assert grid_values(1) == (0, 1)


def test_iter_cdf_vectors_end_at_one():
    vectors = list(iter_cdf_vectors(2, grid_values(2)))
    assert vectors == [
        (0, 1),
        (Fraction(1, 2), 1),
        (1, 1),
    ]


def test_iter_chain_pboxes_counts():
    # every pair (lower, upper) of non-decreasing grid vectors with
    # lower <= upper pointwise and both ending at 1
    assert sum(1 for _ in iter_chain_pboxes(default_chain(1), 4)) == 1
    assert sum(1 for _ in iter_chain_pboxes(default_chain(2), 2)) == 6


@pytest.mark.parametrize("m", range(1, 6))
def test_default_chain_names_its_classes_like_counterexample_events(m):
    # A counterexample's event and its document's classes come from one rule.
    classes = [sorted(cls) for cls in default_chain(m).classes]
    assert classes == [[label] for label in _event_labels(range(m))]


def test_pbox_document_replayable(p1):
    doc = pbox_document(p1)
    assert doc == {
        "classes": [["a"], ["b"], ["c"]],
        "lower": ["0", "0", "1"],
        "upper": ["1/2", "4/5", "1"],
    }


def test_pi_document_keeps_the_distribution_order():
    doc = pi_document(PossibilityDistribution({"z": "1/2", "y": 1, "x": "0.25"}))
    assert list(doc.items()) == [("z", "1/2"), ("y", "1"), ("x", "1/4")]


def test_suite_report_summary():
    report = SuiteReport(suite="demo", cases=3, checks=12)
    assert report.ok
    assert report.summary() == "suite demo: ok (3 cases, 12 checks)"
    failing = SuiteReport(suite="demo", cases=1, checks=1, counterexample={"k": "v"})
    assert not failing.ok
    assert "FAILED" in failing.summary()
    # Reports compare by their fields: the benchmark checks that passes agree.
    assert report == SuiteReport("demo", 3, 12) != failing


def test_a_suite_that_checked_nothing_is_not_ok():
    for empty in (SuiteReport("x"), SuiteReport("x", cases=3)):
        assert not empty.ok
        assert empty.summary().startswith("suite x: FAILED")


def test_run_suite_size_knobs():
    assert run_suite("oracle", 1, 1).cases == 1


@pytest.mark.parametrize(
    "name, suite, size_keyword",
    [
        ("oracle", suite_oracle, "max_classes"),
        ("maxitive", suite_maxitive, "max_classes"),
        ("roundtrip", suite_roundtrip, "max_domain"),
        ("conjunction", suite_conjunction, "max_classes"),
        ("multivariate", suite_multivariate, "max_size"),
    ],
)
def test_run_suite_passes_only_the_knobs_set(name, suite, size_keyword):
    def counts(report):
        assert report.ok, report.counterexample
        return report.cases, report.checks

    assert counts(run_suite(name, 2, 2)) == counts(suite(**{size_keyword: 2, "grid_den": 2}))
    assert counts(run_suite(name, 2)) == counts(suite(**{size_keyword: 2}))
    assert counts(run_suite(name, None, 1)) == counts(suite(grid_den=1))


#: Each row names the public answer whose check it breaks, the suite that
#: catches it, the name made wrong, and the command and counterexample keys
#: that replay the answer.
WRONG_ANSWERS = [
    pytest.param(
        "PBox.upper", "oracle", verify, "credal_upper_classes", "upper", ("closed_form",),
        id="oracle-credal_upper_classes-closed_form",
    ),
    pytest.param(
        "upper_01_lower", "maxitive", verify, "upper_01_lower", "upper", ("general",),
        id="maxitive-upper_01_lower-general",
    ),
    # The suites sweep the public routes themselves, so a wrong one is caught too.
    pytest.param(
        "PBox.upper", "oracle", PBox, "upper", "upper", ("closed_form",), id="oracle-PBox.upper-closed_form"
    ),
    pytest.param(
        "PBox.lower", "conjunction", PBox, "lower", "lower", ("exact", 0), id="conjunction-PBox.lower-exact"
    ),
]


@pytest.mark.parametrize("answer, suite, owner, compared, command, reported", WRONG_ANSWERS)
def test_a_wrong_answer_fails_with_a_replayable_counterexample(
    monkeypatch, capsys, write_doc, answer, suite, owner, compared, command, reported
):
    monkeypatch.setattr(owner, compared, raised(getattr(owner, compared)))
    assert main(["verify", "--suite", suite, "--max-classes", "2", "--grid", "2", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    counterexample = payload["counterexample"]

    # Replayed through the same route, the event gets the answer the suite reported.
    path = write_doc(counterexample["document"])
    event = ",".join(counterexample["event"])
    assert main([command, "--input", path, "--event", event, "--json"]) == 0
    answer = counterexample
    for key in reported:
        answer = answer[key]
    assert json.loads(capsys.readouterr().out) == {command: answer}


def test_a_wrong_possibility_conversion_fails_with_a_replayable_counterexample(monkeypatch, capsys, write_doc):
    right = verify.pbox_to_possibility

    def flattened(box):
        pi = right(box)
        return None if pi is None else PossibilityDistribution(dict.fromkeys(pi, 1))

    monkeypatch.setattr(verify, "pbox_to_possibility", flattened)
    argv = ["verify", "--suite", "roundtrip", "--max-classes", "2", "--grid", "2", "--json"]
    assert main(argv) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    counterexample = payload["counterexample"]
    assert counterexample["computed_pi"] != counterexample["expected_pi"]

    path = write_doc(counterexample["document"])
    assert main(["to-possibility", "--input", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"pi": counterexample["expected_pi"]}


def test_a_wrong_conjunction_bound_fails_with_a_replayable_counterexample(monkeypatch, capsys, write_doc):
    right = verify.conjunction_bounds

    def lowered(box, event):
        approx_lo, approx_up = right(box, event)
        return approx_lo, approx_up - Fraction(1, 128)

    monkeypatch.setattr(verify, "conjunction_bounds", lowered)
    argv = ["verify", "--suite", "conjunction", "--max-classes", "2", "--grid", "2", "--json"]
    assert main(argv) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    counterexample = payload["counterexample"]

    path = write_doc(counterexample["document"])
    event = ",".join(counterexample["event"])
    assert main(["bounds", "--input", path, "--event", event, "--json"]) == 0
    replayed = json.loads(capsys.readouterr().out)
    assert [replayed["lower"], replayed["upper"]] == counterexample["exact"]
    approx_lo, approx_up = counterexample["approx"]
    assert replayed["approx_lower"] == approx_lo
    assert Fraction(replayed["approx_upper"]) - Fraction(1, 128) == Fraction(approx_up)
    assert Fraction(approx_up) < Fraction(replayed["upper"])


def run_multivariate(capsys):
    argv = ["verify", "--suite", "multivariate", "--max-classes", "2", "--grid", "2", "--json"]
    code = main(argv)
    payload = json.loads(capsys.readouterr().out)
    assert (code, payload["ok"]) == (1, False)
    return payload["counterexample"]


def test_a_wrong_frechet_joint_fails_with_a_replayable_counterexample(monkeypatch, capsys, write_doc):
    monkeypatch.setattr(verify, "joint_frechet", joint_independent)
    counterexample = run_multivariate(capsys)
    assert counterexample["detail"] == "Fréchet joint fails its least-conservative check"

    path = write_doc({"marginals": counterexample["marginals"]})
    replayed = {}
    for rule in ("frechet", "independent"):
        assert main(["joint", "--input", path, "--rule", rule, "--json"]) == 0
        replayed[rule] = json.loads(capsys.readouterr().out)["pi"]
    # The family tells the two joints apart, so it witnesses the swap.
    assert replayed["frechet"] != replayed["independent"]


def test_a_wrong_pointwise_form_names_a_product_point_of_the_marginals(monkeypatch, capsys, write_doc):
    monkeypatch.setattr(verify, "joint_rsi_outer", joint_frechet)
    counterexample = run_multivariate(capsys)
    assert counterexample["detail"] == "random-set outer bound has the wrong pointwise form"
    marginals, point = counterexample["marginals"], counterexample["point"]
    assert len(point) == len(marginals)
    assert all(label in m for label, m in zip(point, marginals))

    path = write_doc({"marginals": marginals})
    replayed = {}
    for rule in ("frechet", "rsi"):
        assert main(["joint", "--input", path, "--rule", rule, "--json"]) == 0
        replayed[rule] = json.loads(capsys.readouterr().out)["pi"]["|".join(point)]
    values = [Fraction(m[label]) for label, m in zip(point, marginals)]
    assert Fraction(replayed["rsi"]) == 1 - (1 - min(values)) ** len(values)
    assert replayed["frechet"] != replayed["rsi"]


def test_a_failed_rectangle_dominance_names_one_label_per_marginal(monkeypatch, capsys):
    half = Fraction(1, 2)
    canonical = verify._canonical_marginals

    def labelled_downwards(*args):
        # The suite's pool with values falling along the labels, so that a
        # marginal's first label is not the one holding its smallest value.
        return [
            PossibilityDistribution({f"e{len(m) - 1 - j}": m[f"e{j}"] for j in range(len(m))})
            for m in canonical(*args)
        ]

    monkeypatch.setattr(verify, "_canonical_marginals", labelled_downwards)
    # A product one too high on every vector holding 1/2 breaks dominance there.
    monkeypatch.setattr(verify, "prod", lambda values: prod(values) + (1 if half in values else 0))
    counterexample = run_multivariate(capsys)
    assert counterexample["detail"] == "random-set outer bound fails rectangle dominance"
    marginals, rectangle = counterexample["marginals"], counterexample["rectangle"]
    assert len(rectangle) == len(marginals) >= 2
    assert all(len(component) == 1 and component[0] in m for component, m in zip(rectangle, marginals))
    values = [Fraction(m[label]) for (label,), m in zip(rectangle, marginals)]
    assert half in values


def flattened(pi):
    return PossibilityDistribution(dict.fromkeys(pi, 1))


def flattened_on_grid_boxes(box):
    # The grid boxes' chains start at x0; the fixed readings' chains do not.
    pi = pbox_to_possibility(box)
    return flattened(pi) if pi is not None and "x0" in box.chain.labels else pi


def raised_approx_upper(box, event):
    approx_lo, approx_up = conjunction_bounds(box, event)
    return approx_lo, approx_up + Fraction(1, 128)


def constant_joint(value):
    return lambda family: dict.fromkeys(family.points(), value)


def raised(right):
    """``right`` with 1/128 added to its answer."""
    return lambda *args: right(*args) + Fraction(1, 128)


def claims_a_01_lower(box):
    return zero_one_profile(box)._replace(lower_is_01=True)


def lower_factor_flattened(box):
    pi_lower, pi_upper = conjunction_decompose(box)
    return flattened(pi_lower), pi_upper


ACCEPT = {"least_conservative_check": lambda *args: True}
POINT_KEYS = ["marginals", "detail", "point"]
SPECIALIZED_KEYS = ["document", "event", "formula", "specialized", "general"]
DECISION_KEYS = ["document", "is_maxitive", "max_preserving"]

#: Each row names the public answer whose check it breaks, then the suite that
#: catches it at ``--max-classes 2``, its grid, the names rebound (in
#: :mod:`possbox.verify`, or on the owner a key names) and the counterexample
#: it records.  A wrong value stays valid, so no constructor refuses it.
FAILURE_SITES = [
    pytest.param(
        "PBox.upper",
        "oracle",
        2,
        {"check_coherence": lambda *args: False},
        ["document", "detail"],
        "credal optima do not reproduce the cumulative bounds",
        id="oracle-coherence",
    ),
    pytest.param(
        "is_maxitive",
        "maxitive",
        2,
        {"exhaustive_max_preserving": lambda box: False},
        DECISION_KEYS,
        None,
        id="maxitive-decision",
    ),
    pytest.param(
        "zero_one_profile",
        "maxitive",
        2,
        {(maxitive, "zero_one_profile"): claims_a_01_lower},
        DECISION_KEYS,
        None,
        id="maxitive-profile",
    ),
    pytest.param(
        "upper_01_upper",
        "maxitive",
        2,
        {"upper_01_upper": raised(upper_01_upper)},
        SPECIALIZED_KEYS,
        None,
        id="maxitive-upper_01_upper",
    ),
    pytest.param(
        "upper_01_both",
        "maxitive",
        2,
        {"upper_01_both": raised(upper_01_both)},
        SPECIALIZED_KEYS,
        None,
        id="maxitive-upper_01_both",
    ),
    pytest.param(
        "possibility_to_pbox",
        "roundtrip",
        2,
        {"possibility_to_pbox": lambda pi: possibility_to_pbox(flattened(pi))},
        ["pi", "event", "pbox_upper", "possibility"],
        None,
        id="roundtrip-random",
    ),
    pytest.param(
        "PossibilityDistribution.measure",
        "roundtrip",
        2,
        {(PossibilityDistribution, "measure"): raised(PossibilityDistribution.measure)},
        ["pi", "event", "pbox_upper", "possibility"],
        None,
        id="roundtrip-measure",
    ),
    pytest.param(
        "pbox_to_possibility",
        "roundtrip",
        2,
        {"pbox_to_possibility": lambda box: None},
        ["document", "expected_pi", "computed_pi"],
        None,
        id="roundtrip-singleton",
    ),
    pytest.param(
        "is_maxitive",
        "roundtrip",
        2,
        {"is_maxitive": lambda box: False},
        ["document", "is_maxitive", "converted"],
        None,
        id="roundtrip-converted",
    ),
    pytest.param(
        "pbox_to_possibility",
        "roundtrip",
        2,
        {"pbox_to_possibility": flattened_on_grid_boxes},
        ["document", "event", "possibility", "pbox_upper"],
        None,
        id="roundtrip-possibility",
    ),
    pytest.param(
        "zero_one_possibility",
        "roundtrip",
        2,
        {"zero_one_possibility": lambda box: None},
        ["document", "detail"],
        "zero_one_possibility disagrees with pbox_to_possibility",
        id="roundtrip-zero-one",
    ),
    pytest.param(
        "conjunction_decompose",
        "conjunction",
        2,
        {"credal_intersection_equal": lambda *args: False},
        ["document", "detail"],
        "credal set differs from the intersection of the decomposition",
        id="conjunction-intersection",
    ),
    pytest.param(
        "conjunction_decompose",
        "conjunction",
        2,
        {"conjunction_decompose": lower_factor_flattened},
        ["document", "detail"],
        "credal set differs from the intersection of the decomposition",
        id="conjunction-decompose",
    ),
    pytest.param(
        "conjunction_bounds",
        "conjunction",
        2,
        {"conjunction_bounds": raised_approx_upper},
        ["document", "event", "slack", "expected_slack"],
        None,
        id="conjunction-slack",
    ),
    pytest.param(
        "joint_independent",
        "multivariate",
        2,
        {"joint_independent": joint_frechet},
        ["marginals", "detail"],
        "independent joint fails its least-conservative check",
        id="multivariate-independent-check",
    ),
    pytest.param(
        "joint_frechet",
        "multivariate",
        2,
        {**ACCEPT, "joint_frechet": joint_independent, "joint_independent": joint_frechet},
        POINT_KEYS,
        "independent joint exceeds the Fréchet joint",
        id="multivariate-ordering",
    ),
    pytest.param(
        "joint_rsi_outer",
        "multivariate",
        2,
        {"joint_rsi_outer": joint_frechet},
        POINT_KEYS,
        "random-set outer bound has the wrong pointwise form",
        id="multivariate-pointwise",
    ),
    pytest.param(
        "joint_independent",
        "multivariate",
        2,
        {**ACCEPT, "joint_independent": constant_joint(0)},
        POINT_KEYS,
        "random-set bound looser than independent at a value-1 point",
        id="multivariate-value-one",
    ),
    pytest.param(
        # Grid 2 has no value strictly between 0 and 1/2.
        "joint_independent",
        "multivariate",
        3,
        {**ACCEPT, "joint_frechet": constant_joint(1), "joint_independent": constant_joint(1)},
        POINT_KEYS,
        "independent bound not strictly tighter below 1/2",
        id="multivariate-below-half",
    ),
]


@pytest.mark.parametrize("answer, suite, grid, rebound, keys, detail", FAILURE_SITES)
def test_each_failure_site_records_its_counterexample(
    monkeypatch, capsys, answer, suite, grid, rebound, keys, detail
):
    for key, replacement in rebound.items():
        owner, name = key if isinstance(key, tuple) else (verify, key)
        monkeypatch.setattr(owner, name, replacement)
    argv = ["verify", "--suite", suite, "--max-classes", "2", "--grid", str(grid), "--json"]
    assert main(argv) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    counterexample = payload["counterexample"]
    assert list(counterexample) == keys
    assert counterexample.get("detail") == detail


#: Every public name that is not an answer, with its one reason to exist:
#: a second route that checks answers, or a part the package or the
#: command line is built from.
NOT_ANSWERS = {
    "check_coherence": "LP route: the oracle suite's check of the box's own bounds",
    "credal_intersection_equal": "LP route: the conjunction suite's credal identity",
    "credal_upper_classes": "LP route: the oracle and maxitive suites' upper value of a class union",
    "credal_upper": "LP route: one event's upper value, on labels",
    "credal_lower": "LP route: one event's lower value, by conjugacy",
    "exhaustive_max_preserving": "LP route: the maxitive suite's semantic decision",
    "least_conservative_check": "route: the multivariate suite's check of the canonical joints",
    "Chain.minimal_cover": "the paper's cover by runs; perfbench/tracing.py rebinds it (ROADMAP item 1)",
    "PBox.upper_on_union": "the paper's cover by runs; perfbench/tracing.py rebinds it (ROADMAP item 1)",
    "__version__": "the package version",
    "Chain": "model: a finite totally preordered space",
    "PBox": "model: a probability box",
    "PossibilityDistribution": "model: a possibility distribution",
    "MarginalFamily": "model: the marginals a joint is built from",
    "ZeroOneProfile": "what zero_one_profile returns",
    "Chain.classes": "model data",
    "Chain.m": "model data",
    "Chain.labels": "model data",
    "Chain.labels_by_class": "the one within-class order of labels",
    "Chain.event": "event validation, read by Chain.complement, conjunction_bounds and the oracle",
    "Chain.complement": "the conjugate of PBox.lower and credal_lower, and the command line's --complement",
    "Chain.classes_hit": "the hit classes PBox.upper and the 0-1 forms read",
    "Chain.class_range_labels": "the paper's order interval, used by the README quick start (tests/test_readme.py)",
    "PBox.chain": "model data",
    "PBox.lower_cdf": "model data",
    "PBox.upper_cdf": "model data",
    "PossibilityDistribution.labels": "model data",
    "PossibilityDistribution.items": "the label order documents are written in",
    "MarginalFamily.marginals": "model data",
    "MarginalFamily.domains": "model data",
    "MarginalFamily.points": "the product points a joint is keyed on",
    "MarginalFamily.vectors": "the one table the joints and the multivariate suite read",
}

#: Answers no suite checks yet, with where that work is planned.
UNCHECKED = {"combine_rectangle": "ROADMAP item 4: the rectangle rules have no suite"}


def test_every_public_name_has_one_reason_to_exist():
    # An answer has a fault row that its suite catches; every other name is a
    # route or a part, or an answer listed as unchecked.  A new name with no
    # entry fails, and so does an entry for a name that is gone.
    answers = {param.values[0] for param in (*WRONG_ANSWERS, *FAILURE_SITES)}
    listed = [answers, set(NOT_ANSWERS), set(UNCHECKED)]
    assert sum(map(len, listed)) == len(set().union(*listed)), "a name is listed twice"
    assert set().union(*listed) == public_names()
    # The package binds each name to its defining module's object, though it
    # loads the oracle's and the joints' names only on first use.
    star = {}
    exec("from possbox import *", star)
    for name in set(possbox.__all__) - {"__version__"}:
        obj = getattr(possbox, name)
        assert obj is getattr(import_module(obj.__module__), name) is star[name]
    assert set(possbox.__all__) <= set(dir(possbox)) & set(star)
    with pytest.raises(AttributeError, match="^module 'possbox' has no attribute 'simplex_max'$"):
        possbox.simplex_max  # noqa: B018 - a module's name, but not a public one


#: A family of the grid-2 sweep whose vector (1/2, 1/2) has two points, e1|e0 and e1|e1.
SHARED_VECTOR_FAMILY = [{"e0": "0", "e1": "1/2", "e2": "1"}, {"e0": "1/2", "e1": "1/2", "e2": "1"}]


@pytest.mark.parametrize(
    "name, detail, reported_point",
    [
        ("joint_frechet", "Fréchet joint fails its least-conservative check", None),
        ("joint_independent", "independent joint fails its least-conservative check", None),
        ("joint_rsi_outer", "random-set outer bound has the wrong pointwise form", ["e1", "e1"]),
    ],
)
def test_every_point_of_every_joint_is_read(monkeypatch, name, detail, reported_point):
    # One value changed at the second point of a vector shared by two points
    # must fail the sweep: no read stands for the other points of its vector.
    right = getattr(verify, name)
    point = ("e1", "e1")
    changed = []

    def changed_at_one_point(family):
        joint = right(family)
        if verify._marginals_document(family) != SHARED_VECTOR_FAMILY:
            return joint
        shared = [points for points in (list(points) for *_, points in family.vectors()) if point in points]
        assert shared == [[("e1", "e0"), point]]
        values = dict(joint.items())
        values[point] /= 2
        changed.append(point)
        return PossibilityDistribution(values)

    monkeypatch.setattr(verify, name, changed_at_one_point)
    report = suite_multivariate(max_size=3, grid_den=2, marginal_counts=(2,))
    assert changed == [point]
    assert not report.ok
    counterexample = report.counterexample
    assert counterexample["marginals"] == SHARED_VECTOR_FAMILY
    assert counterexample["detail"] == detail
    assert counterexample.get("point") == reported_point
