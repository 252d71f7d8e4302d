"""Self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

TINY = {
    "sweep-lp": dict(
        suites=(
            ("suite_oracle", {"max_classes": 2, "grid_den": 2}, 7),
            ("suite_maxitive", {"max_classes": 2, "grid_den": 2}, 7),
            ("suite_conjunction", {"max_classes": 2, "grid_den": 2}, 7),
        )
    ),
    "sweep-closed-form": dict(
        suites=(
            ("suite_multivariate", {"max_size": 2, "grid_den": 2, "marginal_counts": (2,)}, 16),
            ("suite_roundtrip", {"samples": 20}, 143),
        )
    ),
    "queries": dict(ms=(4, 8), boxes_per_m=4, per_cell=2, oracle_sample=40),
    "cli-cold": dict(upper_m=8, poss_m=5, rounds=1),
}


def tiny(name: str, seed: int = 3):
    return run.make_workload(name, seed, **TINY[name])


def declared() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_metrics_reported():
    spec = declared()
    assert spec["workloads"] and {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_workload_is_correct_and_reports_every_metric(name, trace):
    result, _ = run.run_benchmark(tiny(name), 0.05, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in declared()[key]]
    for value in result["metrics"].values():
        assert math.isfinite(value["value"])
    if trace:
        assert result["metrics"]["error_rate"]["value"] == 0
    else:
        assert all(value["value"] > 0 for value in result["metrics"].values())


def inject(wl, module: str, attribute: str, make_wrong):
    """Rebind a possbox function to a wrong one once the workload is set up."""
    setup = wl.setup

    def wrong_setup():
        setup()
        tracing.rebind(module, attribute, make_wrong)

    wl.setup = wrong_setup
    return wl


def off_by_a_bit(fn):
    def wrong(*args):
        return min(Fraction(1), fn(*args) + Fraction(1, 128))

    return wrong


@pytest.mark.parametrize(
    "name, module, attribute",
    [
        ("queries", "pbox", "PBox.upper"),
        ("cli-cold", "pbox", "PBox.upper"),
        ("sweep-lp", "oracle", "credal_upper_classes"),
        ("sweep-closed-form", "pbox", "PBox.upper"),
    ],
)
def test_a_wrong_answer_is_counted(name, module, attribute):
    wl = inject(tiny(name), module, attribute, off_by_a_bit)
    result, _ = run.run_benchmark(wl, 0.05, False)
    assert not result["correct"] and 0 < result["failed"] <= result["attempted"]


def test_a_wrong_answer_beyond_the_oracle_sample_is_counted():
    """At m >= 16 no answer meets the LP, but each is checked against the documents.

    Every upper, lower and build answer below 1 goes wrong here, so at least
    half of the operations must fail, not only the odd conjunction sandwich.
    """
    wl = run.make_workload("queries", 3, ms=(16, 32), boxes_per_m=2, per_cell=2, oracle_sample=0)
    result, _ = run.run_benchmark(inject(wl, "pbox", "PBox.upper", off_by_a_bit), 0.05, False)
    assert not result["correct"]
    assert result["attempted"] / 2 <= result["failed"] <= result["attempted"]


def test_error_rate_rises_in_the_traced_run():
    wl = inject(tiny("queries"), "pbox", "PBox.upper", off_by_a_bit)
    result, _ = run.run_benchmark(wl, 0.05, True)
    assert result["metrics"]["error_rate"]["value"] > 0


def test_the_traced_run_sees_only_the_layers_of_its_workload():
    lp = run.run_benchmark(tiny("sweep-lp"), 0.05, True)[0]["metrics"]
    queries = run.run_benchmark(tiny("queries"), 0.05, True)[0]["metrics"]
    assert lp["oracle.simplex_max.calls"]["value"] > 0
    assert lp["oracle.simplex_max.rows"]["value"] > 0
    assert queries["pbox.PBox.calls"]["value"] > 0
    assert queries["oracle.simplex_max.calls"]["value"] == 0
    assert queries["multivariate.least_conservative_check.calls"]["value"] == 0
