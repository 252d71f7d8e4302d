import ast
import random
import re
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import TIED_CHAINS, every_event, forbid_lp

from possbox import (
    MarginalFamily,
    PBox,
    PossibilityDistribution,
    check_coherence,
    conjunction_decompose,
    credal_intersection_equal,
    credal_lower,
    credal_upper,
    exhaustive_max_preserving,
    joint_frechet,
    joint_independent,
    joint_rsi_outer,
    least_conservative_check,
)
from possbox import oracle
from possbox.chain import Chain, class_subsets
from possbox.multivariate import MAX_POINTS
from possbox.oracle import Infeasible, simplex_max
from possbox.rationals import ONE, ZERO
from possbox.verify import (
    default_chain,
    iter_chain_pboxes,
    suite_conjunction,
    suite_maxitive,
    suite_oracle,
)


def test_simplex_small_known_optima():
    # max x + y with x <= 1, y <= 2
    assert simplex_max(2, [([1, 0], "<=", 1), ([0, 1], "<=", 2)], [1, 1]) == 3
    # equality and a >= row force phase one to do real work
    rows = [([1, 1], "==", 1), ([1, 0], ">=", Fraction(1, 3))]
    assert simplex_max(2, rows, [0, 1]) == Fraction(2, 3)
    assert simplex_max(2, rows, [1, 0]) == 1
    # degenerate single-point system
    assert simplex_max(1, [([1], "==", Fraction(2, 7))], [5]) == Fraction(10, 7)


def test_simplex_handles_negative_rhs():
    # -x <= -1/2 is x >= 1/2 in disguise
    rows = [([-1], "<=", Fraction(-1, 2)), ([1], "<=", 1)]
    assert simplex_max(1, rows, [-1]) == Fraction(-1, 2)


def test_simplex_detects_infeasibility():
    rows = [([1], "<=", Fraction(1, 3)), ([1], ">=", Fraction(1, 2))]
    with pytest.raises(Infeasible):
        simplex_max(1, rows, [1])


def test_simplex_detects_an_unbounded_objective():
    # max x over x >= 0 alone.
    with pytest.raises(ArithmeticError, match="^unbounded objective in a credal program$"):
        simplex_max(1, [], [1])


def test_simplex_redundant_equalities():
    rows = [([1, 1], "==", 1), ([2, 2], "==", 2)]
    assert simplex_max(2, rows, [1, 0]) == 1


def test_phase_one_drops_a_redundant_equality_row():
    region = oracle.Region(2, [((1, 1), "==", 1), ((2, 2), "==", 2)])
    tableau, basis, _ = region.start
    assert len(tableau) == len(basis) == 1
    assert region.width == 2


def test_phase_one_cleanup_pivots_on_a_negative_entry():
    # -x0 == 0 leaves its artificial basic at level zero after phase 1; the
    # clean-up pivot on the -1 negates the tableau to keep d positive.
    rows = [([-1, 0], "==", 0), ([1, 1], "<=", 1)]
    region = oracle.Region(2, rows)
    _, basis, d = region.start
    assert 0 in basis and d > 0
    for objective, optimum in (([1, 1], 1), ([1, 0], 0), ([Fraction(-1, 2), 3], 3)):
        assert simplex_max(2, rows, objective) == optimum
        assert simplex_max(2, rows, objective, region=region) == optimum


def test_simplex_fractional_negative_and_string_coefficients():
    # max -3/2 x + 5/7 y with x/2 + y/3 <= 1 and x/4 >= 1/8: x = 1/2, y = 9/4.
    rows = [(["1/2", "1/3"], "<=", "1"), ([Fraction(1, 4), 0], ">=", "1/8")]
    assert simplex_max(2, rows, ["-3/2", Fraction(5, 7)]) == Fraction(6, 7)
    assert simplex_max(2, rows, [Fraction(-1, 3), "-1/5"]) == Fraction(-1, 6)
    assert simplex_max(2, rows, []) == 0


@pytest.fixture
def regions_built(monkeypatch):
    """Regions built from now on (one phase-1 solve each), box slot emptied."""
    built = []

    class Counting(oracle.Region):
        def __init__(self, num_vars, constraints):
            super().__init__(num_vars, constraints)
            built.append(self)

    monkeypatch.setattr(oracle, "_slot", (None, None))
    monkeypatch.setattr(oracle, "Region", Counting)
    return built


@pytest.fixture
def pivots(monkeypatch, regions_built):
    """Pivots from now on: those made while a region is built, and the rest."""
    counts = {"phase 1": 0, "phase 2": 0}
    phase = ["phase 2"]
    pivot = oracle._pivot

    class Phased(oracle.Region):
        def __init__(self, num_vars, constraints):
            phase[0] = "phase 1"
            try:
                super().__init__(num_vars, constraints)
            finally:
                phase[0] = "phase 2"

    def counting(*args):
        counts[phase[0]] += 1
        return pivot(*args)

    monkeypatch.setattr(oracle, "Region", Phased)
    monkeypatch.setattr(oracle, "_pivot", counting)
    return counts


def test_phase_one_runs_once_per_region(p1, regions_built):
    for subset in class_subsets(3):
        oracle.credal_upper_classes(p1, subset)
    assert check_coherence(p1) and exhaustive_max_preserving(p1)
    assert credal_upper(p1, {"a", "c"}) == 1 and credal_lower(p1, {"c"}) == Fraction(1, 5)
    assert len(regions_built) == 1 and regions_built[0] is oracle._box_region(p1)


def test_check_coherence_fails_at_a_down_set_and_at_an_up_set(p1):
    asked = []

    def raised_where(wrong):
        def upper(box, subset):
            asked.append(subset)
            value = oracle.credal_upper_classes(box, subset)
            return value + Fraction(1, 128) if wrong(subset) else value

        return upper

    assert check_coherence(p1, raised_where(lambda subset: False))
    # A wrong optimum on the down-set [bottom, x] fails at the first question ...
    asked.clear()
    assert not check_coherence(p1, raised_where(lambda subset: 0 in subset))
    assert asked == [(0,)]
    # ... and on the up-set (x, top] at the second.
    asked.clear()
    assert not check_coherence(p1, raised_where(lambda subset: 0 not in subset))
    assert asked == [(0,), (1, 2)]


def test_intersection_check_runs_phase_one_once_per_region(p2, regions_built):
    assert credal_intersection_equal(p2, *conjunction_decompose(p2))
    assert len(regions_built) == 2


def test_phase_two_starts_from_the_last_optimum(regions_built, pivots, monkeypatch):
    # (pivot entry, denominator) of every pivot.  A box's rows are 0/1
    # intervals, totally unimodular, so with one right-hand-side denominator
    # and unscaled rows every pivot is a unit over d = 1.
    entries = Counter()
    pivot = oracle._pivot

    def recording(tableau, basis, row, col, d):
        entries[tableau[row][col], d] += 1
        return pivot(tableau, basis, row, col, d)

    monkeypatch.setattr(oracle, "_pivot", recording)
    # From the phase-1 basis on every call, phase 2 took 7,964 pivots here.
    report = suite_oracle(4, 4)
    assert report.ok and (report.cases, report.checks) == (611, 13354)
    assert len(regions_built) == 611
    assert pivots == {"phase 1": 2446, "phase 2": 5815}
    assert entries == {(1, 1): 7972, (-1, 1): 289}


def test_warm_optima_equal_cold_on_every_event(grid4_boxes):
    events = 0
    for box in grid4_boxes:
        n = sum(len(cls) for cls in box.chain.classes)
        objectives = [[1 if k in subset else 0 for k in range(n)] for subset in class_subsets(n)]
        events += len(objectives)
        constraints = oracle._box_region(box).constraints
        # Cold references from one region sent back to its phase-1 basis before
        # each solve, which is where a fresh region starts.
        cold_region = oracle.Region(n, constraints)
        phase_one = cold_region.start
        cold = []
        for objective in objectives:
            cold_region.start = phase_one
            cold.append(simplex_max(n, constraints, objective, region=cold_region))
        assert simplex_max(n, constraints, objectives[-1]) == cold[-1]
        region = oracle.Region(n, constraints)
        for order in (range(len(objectives)), reversed(range(len(objectives)))):
            for k in order:
                assert simplex_max(n, constraints, objectives[k], region=region) == cold[k]
    assert events == 12462


def _int_tableau(region):
    tableau, basis, d = region.start
    return all(type(v) is int for v in (*basis, d, *(v for row in tableau for v in row)))


def test_the_tableau_holds_ints_however_rows_and_costs_are_written(grid4_boxes, monkeypatch):
    # A den-1 Fraction in the tableau keeps every answer right but slows
    # every pivot, so the entries' types are checked, not only the optima.
    # Every objective row is checked too: it is where the costs go.
    objective_row = oracle._objective_row

    def int_objective_row(*args):
        z = objective_row(*args)
        assert all(type(v) is int for v in z)
        return z

    monkeypatch.setattr(oracle, "_objective_row", int_objective_row)
    # Each value as an int where it is whole, as a Fraction (so 3 is Fraction(3, 1)), or as a string.
    forms = (lambda v: int(v) if v.denominator == 1 else v, Fraction, str)

    def regions(n, rows):
        return [oracle.Region(n, [([f(c) for c in cs], s, f(r)) for cs, s, r in rows]) for f in forms]

    # max x0 with 3 x0 + x1 / 2 <= 4, x0 / 3 + x1 >= 1/2 and x0 + x1 == 2: x0 = 6/5.
    rows = [((Fraction(3), Fraction(1, 2)), "<=", Fraction(4)), ((Fraction(1, 3), ONE), ">=", Fraction(1, 2))]
    written = regions(2, rows + [((ONE, ONE), "==", Fraction(2))])
    assert [type(region.constraints[0][0][0]) for region in written] == [int, Fraction, str]
    for region in written:
        assert _int_tableau(region)
        costs = [[f(ONE), f(ZERO)] for f in forms]
        assert [simplex_max(2, region.constraints, c, region=region) for c in costs] == [Fraction(6, 5)] * 3
        assert _int_tableau(region)
    # Every event's objective, written the three ways, by element count.
    objectives = {
        n: [[[f(Fraction(int(k in subset))) for k in range(n)] for f in forms] for subset in class_subsets(n)]
        for n in range(1, 6)
    }
    events = 0
    for box in grid4_boxes:
        rows = oracle._box_region(box).constraints
        n = len(rows[0][0])
        written = regions(n, [([Fraction(c) for c in cs], s, r) for cs, s, r in rows])
        assert all(map(_int_tableau, written))
        for costs in objectives[n]:
            optima = {simplex_max(n, r.constraints, c, region=r) for c, r in zip(costs, written)}
            assert len(optima) == 1
            events += 1
        assert all(map(_int_tableau, written))
    assert events == 12462


def test_regions_answer_in_any_order(p1, p2, q):
    boxes = (p1, p2, q)
    rows = [oracle._box_region(box).constraints for box in boxes]
    regions = [oracle.Region(3, constraints) for constraints in rows]
    objectives = [[1, 0, 0], [0, 1, 1], ["1/2", 0, "-1/3"], [0, 0, 1]]
    fresh = {
        (r, o): simplex_max(3, rows[r], objective)
        for r in range(len(boxes))
        for o, objective in enumerate(objectives)
    }
    pairs = list(fresh)
    orders = [pairs, pairs[::-1], sorted(pairs, key=lambda ro: (ro[1], ro[0]))]
    rng = random.Random(7)
    orders += [rng.sample(pairs, len(pairs)) for _ in range(5)]
    for order in orders:
        for r, o in order:
            region = regions[r]
            assert simplex_max(3, region.constraints, objectives[o], region=region) == fresh[r, o]
        # The box cache holds one region; switching boxes costs speed, not answers.
        for r, o in order:
            box, subset = boxes[r], tuple(i for i in range(3) if objectives[o][i] == 1)
            labels = [label for i in subset for label in box.chain.classes[i]]
            assert oracle.credal_upper_classes(box, subset) == box.upper(labels)


def test_a_region_answers_only_for_its_own_rows():
    # The refusals of other rows are the region rows of test_contract.REFUSALS.
    rows = [([1], "<=", Fraction(1, 2))]
    region = oracle.Region(1, rows)
    assert simplex_max(1, rows, [1], region=region) == Fraction(1, 2)
    empty = oracle.Region(1, [([1], "<=", Fraction(1, 3)), ([1], ">=", Fraction(1, 2))])
    assert empty.start is None
    with pytest.raises(Infeasible):
        simplex_max(1, empty.constraints, [1], region=empty)


def test_infeasible_region_still_raises_after_a_feasible_one():
    feasible = [([1], "<=", 1)]
    infeasible = [([1], "<=", Fraction(1, 3)), ([1], ">=", Fraction(1, 2))]
    for _ in range(2):
        assert simplex_max(1, feasible, [1]) == 1
        with pytest.raises(Infeasible):
            simplex_max(1, infeasible, [1])


def test_credal_frozen_values(p1):
    assert credal_upper(p1, {"a"}) == Fraction(1, 2)
    assert credal_upper(p1, {"b"}) == Fraction(4, 5)
    assert credal_upper(p1, {"a", "c"}) == 1
    assert credal_upper(p1, {"a", "b", "c"}) == 1
    assert credal_upper(p1, frozenset()) == 0
    assert credal_lower(p1, {"a"}) == 0
    assert credal_lower(p1, {"c"}) == Fraction(1, 5)


def test_credal_matches_formula_on_fixtures(p1, p2, q, r, precise):
    for box in (p1, p2, q, r, precise):
        for event in every_event(box.chain.labels):
            assert credal_upper(box, event) == box.upper(event)
            assert credal_lower(box, event) == box.lower(event)


def test_the_oracle_reads_only_the_public_vectors(p2, monkeypatch):
    # PBox computes on private integer numerators.  The oracle must answer
    # from lower_cdf/upper_cdf alone to stay an independent route: here every
    # private slot is deleted and its region built afresh.
    events = every_event(p2.chain.labels)
    stripped = PBox(p2.chain, p2.lower_cdf, p2.upper_cdf)
    for slot in PBox.__slots__:
        if slot.startswith("_"):
            delattr(stripped, slot)
    with pytest.raises(AttributeError):
        stripped.upper({"a"})
    monkeypatch.setattr(oracle, "_slot", (None, None))
    for event in events:
        assert credal_upper(stripped, event) == p2.upper(event)
        assert credal_lower(stripped, event) == p2.lower(event)
    assert oracle.credal_upper_classes(stripped, (0, 2)) == p2.upper({"a", "c"})


def test_credal_lower_takes_no_complement_through_the_chain(p2, monkeypatch):
    # PBox.lower answers through Chain.complement.  The oracle reads the
    # labels outside the event itself, so a complement that loses "a"
    # changes PBox.lower alone and the comparison of the two fails.
    events = every_event(p2.chain.labels)
    optima = [credal_lower(p2, event) for event in events]
    assert optima == [p2.lower(event) for event in events]
    monkeypatch.setattr(Chain, "complement", lambda self, labels: self.labels - self.event(labels) - {"a"})
    monkeypatch.setattr(oracle, "_slot", (None, None))
    assert [credal_lower(p2, event) for event in events] == optima
    assert [event for event in events if credal_lower(p2, event) != p2.lower(event)] == [
        frozenset(), frozenset({"b"}), frozenset({"c"}), frozenset({"b", "c"})
    ]


#: What oracle.py may import from possbox, by module (None: any name).
ORACLE_IMPORTS = {
    "possbox.chain": {"Label", "class_subsets"},
    "possbox.pbox": {"PBox"},
    "possbox.possibility": {"PossibilityDistribution"},
    "possbox.rationals": None,
}
#: The attributes oracle.py may read on a name ``box``: the box as constraint rows.
ORACLE_BOX_READS = {"chain", "lower_cdf", "upper_cdf"}


def oracle_independence_breaches(source: str) -> list[str]:
    """Imports from possbox, and reads on ``box``, that the oracle's source may not make."""
    breaches = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            breaches += [f"import {alias.name}" for alias in node.names if alias.name.split(".")[0] == "possbox"]
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "possbox"):
            allowed = ORACLE_IMPORTS.get(node.module, set())  # a relative import names no key
            breaches += [
                f"from {node.module} import {alias.name}"
                for alias in node.names
                if allowed is not None and alias.name not in allowed
            ]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "box"
            and node.attr not in ORACLE_BOX_READS
        ):
            breaches.append(f"line {node.lineno}: box.{node.attr}")
    return breaches


def test_the_oracle_imports_and_reads_nothing_of_the_closed_forms():
    source = Path(oracle.__file__).read_text(encoding="utf-8")
    assert oracle_independence_breaches(source) == []
    # Two mutants of the source, each a route back to the closed forms.
    reads_upper = source.replace("box.upper_cdf[i] != ONE", "box.upper(()) != ONE", 1)
    imports_maxitive = source.replace("from possbox.pbox import PBox", "from possbox.maxitive import is_maxitive", 1)
    assert source != reads_upper and source != imports_maxitive
    [breach] = oracle_independence_breaches(reads_upper)
    assert breach.endswith(": box.upper")
    assert oracle_independence_breaches(imports_maxitive) == ["from possbox.maxitive import is_maxitive"]


def test_adding_constraints_never_raises_optimum(p2):
    # Shrinking the feasible set can only lower a maximum.
    rows = list(oracle._box_region(p2).constraints)
    base = simplex_max(3, rows, [0, 1, 0])
    capped = simplex_max(3, rows + [([0, 1, 0], "<=", Fraction(1, 10))], [0, 1, 0])
    assert capped <= base
    assert capped == Fraction(1, 10)


def test_oracle_matches_formula_on_tied_chains():
    # The closed forms let a class's mass sit on any of its elements; the
    # oracle has one mass variable per element, so this checks that reduction.
    for chain in TIED_CHAINS:
        events = every_event(chain.labels)
        for box in iter_chain_pboxes(chain, 4):
            for event in events:
                assert credal_upper(box, event) == box.upper(event)
                assert credal_lower(box, event) == box.lower(event)


def test_check_coherence_on_fixtures(p1, p2, q, r, precise):
    for box in (p1, p2, q, r, precise):
        assert check_coherence(box)


def test_exhaustive_max_preserving(p1, p2):
    assert exhaustive_max_preserving(p1)
    assert not exhaustive_max_preserving(p2)


@pytest.fixture
def no_lp(monkeypatch):
    """Fail any test that poses a linear program from now on."""
    forbid_lp(monkeypatch)


def _vacuous_box(m):
    """The box on :func:`default_chain` of ``m`` classes that bounds nothing below the top."""
    return PBox(default_chain(m), [0] * (m - 1) + [1], [1] * m)


def _two_label_marginals(n):
    """``n`` two-label marginals: a product space of ``2 ** n`` points."""
    return MarginalFamily([PossibilityDistribution({"a": "1/2", "b": 1})] * n)


PAST_MAX_POINTS = f"the product space has more than MAX_POINTS = {MAX_POINTS} points"
PAST_CLASSES, PAST_ELEMENTS = oracle.MAX_CLASSES + 1, oracle.MAX_ELEMENTS + 1

#: Every public function whose cost is exponential, a thunk building its
#: arguments one step past its ceiling, and the message that refuses them.
#: Fifteen two-label marginals are one marginal past MAX_POINTS = 2 ** 14.
CEILINGS = [
    *(
        pytest.param(joint, lambda: (_two_label_marginals(15),), PAST_MAX_POINTS, id=joint.__name__)
        for joint in (joint_frechet, joint_independent, joint_rsi_outer)
    ),
    pytest.param(
        least_conservative_check,
        lambda: (_two_label_marginals(15), PossibilityDistribution({"a": 1}), "frechet"),
        PAST_MAX_POINTS,
        id="least_conservative_check",
    ),
    pytest.param(
        exhaustive_max_preserving,
        lambda: (_vacuous_box(PAST_CLASSES),),
        f"chain has {PAST_CLASSES} classes; refusing to enumerate beyond {oracle.MAX_CLASSES}",
        id="exhaustive_max_preserving",
    ),
    pytest.param(
        credal_intersection_equal,
        lambda: (_vacuous_box(PAST_ELEMENTS), *conjunction_decompose(_vacuous_box(PAST_ELEMENTS))),
        f"space has {PAST_ELEMENTS} elements; refusing to enumerate beyond {oracle.MAX_ELEMENTS}",
        id="credal_intersection_equal",
    ),
    pytest.param(
        suite_maxitive,
        lambda: (PAST_CLASSES,),
        f"the maxitive suite takes at most {oracle.MAX_CLASSES} classes (got {PAST_CLASSES})",
        id="suite_maxitive",
    ),
    pytest.param(
        suite_conjunction,
        lambda: (PAST_ELEMENTS,),
        f"the conjunction suite takes at most {oracle.MAX_ELEMENTS} classes (got {PAST_ELEMENTS})",
        id="suite_conjunction",
    ),
]


@pytest.mark.parametrize("function, arguments, message", CEILINGS)
def test_exponential_functions_refuse_one_past_their_ceiling_at_once(no_lp, function, arguments, message):
    args = arguments()
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        function(*args)
    assert time.perf_counter() - start < 0.5


def test_intersection_holds_for_decomposition(p1, p2, q):
    for box in (p1, p2, q):
        pi_one, pi_two = conjunction_decompose(box)
        assert credal_intersection_equal(box, pi_one, pi_two)


def test_intersection_fails_with_vacuous_component(p1):
    # Dropping the upper-vector component enlarges the intersection: the
    # event {a} then reaches probability 1 instead of 1/2.
    pi_one, _ = conjunction_decompose(p1)
    vacuous = PossibilityDistribution({x: 1 for x in "abc"})
    assert not credal_intersection_equal(p1, pi_one, vacuous)
