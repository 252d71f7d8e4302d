"""The four workloads of the possbox benchmark.

Each workload generates its inputs from the seed in ``setup`` (which also
re-imports possbox, so set-up time includes the library's import), runs a
fixed batch of operations per pass, and checks the outputs of a pass
outside the timed region.  Operations reach possbox through module and
class attributes looked up at call time, so the spans installed by
:mod:`tracing` see them.

* ``sweep-lp``: the three verify suites that solve exact LPs, in three
  shapes (many objectives over one region, all subset pairs, element-level
  programs with 2^n event rows).
* ``sweep-closed-form``: the multivariate and round-trip suites, which
  make no simplex calls.
* ``queries``: building boxes and asking event bounds of built ones, at
  m in {4, 8, 16, 32, 64}.
* ``cli-cold``: one-shot ``python -m possbox.cli`` processes.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import random
import statistics
import shutil
import subprocess
import sys
from array import array
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple


class Pass(NamedTuple):
    """One pass over a workload's batch."""

    wall_s: float
    latencies_s: array  # one entry per request
    results: list  # one entry per checked operation
    units: int  # work counted by ops_per_s


def fresh_import(names: tuple[str, ...]) -> dict:
    """Drop every possbox module and import ``names`` again."""
    for key in [k for k in sys.modules if k == "possbox" or k.startswith("possbox.")]:
        del sys.modules[key]
    return {name: importlib.import_module(f"possbox.{name}") for name in names}


def box_doc(rng: random.Random, m: int, kind: str, den: int = 64) -> dict:
    """A seeded probability-box document on ``m`` classes, values on a 1/den grid.

    ``kind`` is ``general``, ``lower01`` (0-1 lower vector, so maxitive) or
    ``upper01`` (0-1 upper vector).  About a fifth of the classes hold two
    tied labels.
    """
    classes, n = [], 0
    for _ in range(m):
        size = 2 if rng.random() < 0.2 else 1
        classes.append([f"x{n + j}" for j in range(size)])
        n += size
    a = sorted(rng.randint(0, den) for _ in range(m - 1)) + [den]
    b = sorted(rng.randint(0, den) for _ in range(m - 1)) + [den]
    step = [0] * rng.randint(0, m - 1)
    step += [den] * (m - len(step))
    if kind == "general":
        lower, upper = [min(x, y) for x, y in zip(a, b)], [max(x, y) for x, y in zip(a, b)]
    elif kind == "lower01":
        lower, upper = step, [max(x, y) for x, y in zip(a, step)]
    elif kind == "upper01":
        lower, upper = [min(x, y) for x, y in zip(a, step)], step
    else:
        raise ValueError(f"unknown box kind {kind!r}")
    return {
        "classes": classes,
        "lower": [f"{v}/{den}" for v in lower],
        "upper": [f"{v}/{den}" for v in upper],
    }


#: Shares of a box's labels that a generated event holds.
DENSITIES = (0.1, 0.3, 0.5, 0.7)

#: Largest m whose answers the ``queries`` check also compares with the exact LP.
ORACLE_MAX_M = 8


def natural_upper(classes: list, lower: list, upper: list, event: set) -> Fraction:
    """Upper probability of an event on a box, computed without possbox.

    Each maximal run ``a..b`` of classes the event misses holds the mass
    ``F(b) - F(a - 1)``, which the cumulative bounds keep at or above
    ``lower[b] - upper[a - 1]`` (with ``upper[-1] = 0``).  The upper
    probability is one minus the sum of these forced masses.
    """
    forced, a = Fraction(0), None
    for i, cls in enumerate(classes + [None]):
        missed = cls is not None and event.isdisjoint(cls)
        if missed and a is None:
            a = i
        elif not missed and a is not None:
            forced += max(Fraction(0), lower[i - 1] - (upper[a - 1] if a else 0))
            a = None
    return 1 - forced


def random_event(rng: random.Random, doc: dict, density: float) -> list[str]:
    return [label for cls in doc["classes"] for label in cls if rng.random() < density]


# ------------------------------------------------------------------ sweeps

#: (suite, keyword arguments, pinned case count).  A changed case count means
#: the enumeration shrank or grew, so it fails the pass.
SWEEP_LP = (
    ("suite_oracle", {"max_classes": 4, "grid_den": 4}, 611),
    ("suite_maxitive", {"max_classes": 3, "grid_den": 4}, 121),
    ("suite_conjunction", {"max_classes": 3, "grid_den": 4}, 121),
)
SWEEP_CLOSED_FORM = (
    ("suite_multivariate", {"max_size": 3, "grid_den": 2, "marginal_counts": (2, 3)}, 1100),
    ("suite_roundtrip", {}, 1123),
)


class Sweep:
    """Verify suites at fixed sizes; one request is one whole pass.

    The seed sets the order of the suites and the round-trip suite's own
    seed; the enumerations themselves are fixed.
    """

    spawns_processes = False

    def __init__(self, seed: int, suites=SWEEP_LP):
        self.seed = seed
        self.suites = suites

    def setup(self) -> None:
        self.verify = fresh_import(("verify",))["verify"]
        order = list(self.suites)
        random.Random(self.seed).shuffle(order)
        self.calls = [
            (name, dict(kwargs, seed=self.seed) if name == "suite_roundtrip" else kwargs, pinned)
            for name, kwargs, pinned in order
        ]

    def run_pass(self) -> Pass:
        reports = []
        start = perf_counter()
        for name, kwargs, _ in self.calls:
            reports.append(getattr(self.verify, name)(**kwargs))
        wall = perf_counter() - start
        self.reports = reports
        return Pass(wall, array("d", [wall]), reports, sum(r.cases for r in reports))

    traced_pass = run_pass

    def check(self, reports: list) -> set[int]:
        return {
            i
            for i, (report, (_, _, pinned)) in enumerate(zip(reports, self.calls))
            if not report.ok or report.cases != pinned
        }

    def layer_metrics(self, untraced: list[Pass], base: list[Pass]) -> dict:
        metrics = {}
        for report in self.reports:
            metrics[f"verify.suite_{report.suite}.cases"] = float(report.cases)
            metrics[f"verify.suite_{report.suite}.checks"] = float(report.checks)
        return metrics

    def close(self) -> None:
        pass


# ----------------------------------------------------------------- queries

BUILD, UPPER, LOWER, BOUNDS = "build", "upper", "lower", "bounds"


class Queries:
    """Interleaved box construction and event queries on seeded boxes.

    A quarter of the operations build a box (``Chain``, ``PBox`` and one
    ``upper`` call); the rest ask ``upper``, ``lower`` or
    ``conjunction_bounds`` of a box built in set-up.  An ``upper`` query on
    a maxitive box also calls the matching ``upper_01_*`` form.

    The batch holds ``per_cell`` operations of each kind for each ``m`` and
    event density, spread round-robin over that ``m``'s boxes and then
    shuffled, so seeds change the boxes, events and order but not the mix.
    """

    spawns_processes = False

    def __init__(
        self,
        seed: int,
        ms=(4, 8, 16, 32, 64),
        boxes_per_m: int = 8,
        per_cell: int = 25,
        oracle_sample: int = 120,
    ):
        self.seed = seed
        self.ms = ms
        self.boxes_per_m = boxes_per_m
        self.per_cell = per_cell
        self.oracle_sample = oracle_sample

    def setup(self) -> None:
        lib = fresh_import(("chain", "pbox", "maxitive", "possibility"))
        self.chain, self.pbox = lib["chain"], lib["pbox"]
        self.maxitive, self.possibility = lib["maxitive"], lib["possibility"]
        rng = random.Random(self.seed)
        kinds = ("general", "general", "lower01", "upper01")
        self.docs = [
            box_doc(rng, m, kinds[k % len(kinds)]) for m in self.ms for k in range(self.boxes_per_m)
        ]
        self.refs = [
            self.pbox.PBox(self.chain.Chain(d["classes"]), d["lower"], d["upper"])
            for d in self.docs
        ]
        self.forms = [self._matching_form(box) for box in self.refs]
        self.ops = []
        for i in range(len(self.ms)):
            for density in DENSITIES:
                for kind in (BUILD, UPPER, LOWER, BOUNDS):
                    for j in range(self.per_cell):
                        b = i * self.boxes_per_m + j % self.boxes_per_m
                        event = frozenset(random_event(rng, self.docs[b], density))
                        self.ops.append((kind, b, event))
        rng.shuffle(self.ops)

    def _matching_form(self, box) -> str | None:
        profile = self.maxitive.zero_one_profile(box)
        if profile.lower_is_01 and profile.upper_is_01:
            return "upper_01_both"
        if profile.lower_is_01:
            return "upper_01_lower"
        if profile.upper_is_01:
            return "upper_01_upper"
        return None

    def run_pass(self) -> Pass:
        chain_cls, pbox_cls = self.chain.Chain, self.pbox.PBox
        maxitive, possibility = self.maxitive, self.possibility
        docs, refs, forms = self.docs, self.refs, self.forms
        latencies = array("d")
        results = []
        clock = perf_counter
        start = clock()
        for kind, b, event in self.ops:
            t0 = clock()
            if kind is BUILD:
                doc = docs[b]
                box = pbox_cls(chain_cls(doc["classes"]), doc["lower"], doc["upper"])
                result = (box, box.upper(event))
            elif kind is UPPER:
                box = refs[b]
                result = (box.upper(event), None if forms[b] is None else getattr(maxitive, forms[b])(box, event))
            elif kind is LOWER:
                result = refs[b].lower(event)
            else:
                result = possibility.conjunction_bounds(refs[b], event)
            latencies.append(clock() - t0)
            results.append(result)
        wall = clock() - start
        return Pass(wall, latencies, results, len(results))

    traced_pass = run_pass

    def check(self, results: list) -> set[int]:
        """Every answer against a reference computed here from the box's
        document, and a seeded sample of m <= ``ORACLE_MAX_M`` answers
        against the exact LP on boxes built anew.
        """
        oracle = importlib.import_module("possbox.oracle")
        chain_cls, pbox_cls = self.chain.Chain, self.pbox.PBox
        parsed = []
        for doc in self.docs:
            lower = [Fraction(v) for v in doc["lower"]]
            upper = [Fraction(v) for v in doc["upper"]]
            labels = frozenset(x for cls in doc["classes"] for x in cls)
            is_01 = any(all(v in (0, 1) for v in vec) for vec in (lower, upper))
            parsed.append((doc["classes"], lower, upper, labels, is_01))
        small = [i for i, (_, b, _) in enumerate(self.ops) if len(parsed[b][0]) <= ORACLE_MAX_M]
        rng = random.Random(self.seed + 1)
        sample = set(rng.sample(small, min(self.oracle_sample, len(small))))
        fresh = {}
        bad = set()
        for i, ((kind, b, event), result) in enumerate(zip(self.ops, results)):
            classes, lower, upper, labels, is_01 = parsed[b]
            up = natural_upper(classes, lower, upper, event)
            lo = 1 - natural_upper(classes, lower, upper, labels - event)
            if kind is BUILD:
                box, value = result
                ok = (
                    box.chain.classes == tuple(frozenset(cls) for cls in classes)
                    and box.lower_cdf == tuple(lower)
                    and box.upper_cdf == tuple(upper)
                    and value == up
                )
            elif kind is UPPER:
                value, special = result
                ok = value == up and (special is not None) == is_01 and special in (None, value)
            elif kind is LOWER:
                ok = result == lo
            else:
                approx_lo, approx_up = result
                ok = approx_lo <= lo <= up <= approx_up
            if i in sample:
                if b not in fresh:
                    fresh[b] = pbox_cls(chain_cls(classes), lower, upper)
                ok = ok and oracle.credal_lower(fresh[b], event) == lo
                ok = ok and oracle.credal_upper(fresh[b], event) == up
            if not ok:
                bad.add(i)
        return bad

    def layer_metrics(self, untraced: list[Pass], base: list[Pass]) -> dict:
        build, query = [], []
        for p in untraced:
            for (kind, _, _), lat in zip(self.ops, p.latencies_s):
                (build if kind is BUILD else query).append(lat)
        return {
            "build_p50_us": percentile(build, 50) * 1e6,
            "build_p90_us": percentile(build, 90) * 1e6,
            "query_p50_us": percentile(query, 50) * 1e6,
            "query_p90_us": percentile(query, 90) * 1e6,
        }

    def close(self) -> None:
        pass


# ---------------------------------------------------------------- cli-cold

CLI_PATTERN = ("upper", "upper", "to-possibility")


class CliCold:
    """One-shot CLI processes: two ``upper`` calls per ``to-possibility`` call.

    The 2:1 mix keeps the p50 inside the ``upper`` latencies and the p90
    inside the ``to-possibility`` ones.  ``upper`` runs on m=64 boxes;
    ``to-possibility`` on maxitive m=12 boxes, where the library's default
    re-check walks all 2^m unions of classes.  Box kinds take turns, since
    the re-check costs more on some kinds than on others.
    """

    spawns_processes = True

    def __init__(self, seed: int, root: Path, upper_m: int = 64, poss_m: int = 12, rounds: int = 2):
        self.seed = seed
        self.root = root
        self.upper_m = upper_m
        self.poss_m = poss_m
        self.rounds = rounds
        self.workdir = root / ".perfbench_out" / "tmp" / f"cli-{seed}-{id(self)}"

    def setup(self) -> None:
        self.lib = fresh_import(("chain", "pbox", "possibility", "cli"))
        rng = random.Random(self.seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.argvs, self.kinds, self.docs = [], [], []
        upper_kinds = ("general", "lower01", "upper01")
        for r in range(self.rounds):
            for k, command in enumerate(CLI_PATTERN):
                if command == "upper":
                    doc = box_doc(rng, self.upper_m, upper_kinds[len(self.argvs) % 3])
                    event = random_event(rng, doc, rng.choice(DENSITIES))
                    extra = ["--event", ",".join(event)]
                else:
                    doc = box_doc(rng, self.poss_m, ("lower01", "upper01")[r % 2])
                    extra = []
                path = self.workdir / f"doc{r}-{k}.json"
                path.write_text(json.dumps(doc), encoding="utf-8")
                self.argvs.append([command, "--input", str(path), *extra, "--json"])
                self.kinds.append(command)
                self.docs.append(doc)
        src = str(self.root / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def run_pass(self) -> Pass:
        latencies = array("d")
        results = []
        start = perf_counter()
        for argv in self.argvs:
            t0 = perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "possbox.cli", *argv],
                    capture_output=True,
                    text=True,
                    env=self.env,
                    cwd=self.root,
                    timeout=60,
                )
                result = (proc.returncode, proc.stdout)
            except subprocess.TimeoutExpired:
                result = (None, "timeout")
            latencies.append(perf_counter() - t0)
            results.append(result)
        wall = perf_counter() - start
        return Pass(wall, latencies, results, len(results))

    def traced_pass(self) -> Pass:
        """The same commands through an in-process ``main(argv)`` call."""
        cli = sys.modules["possbox.cli"]
        latencies = array("d")
        results = []
        start = perf_counter()
        for argv in self.argvs:
            buffer = io.StringIO()
            t0 = perf_counter()
            with redirect_stdout(buffer):
                code = cli.main(argv)
            latencies.append(perf_counter() - t0)
            results.append((code, buffer.getvalue()))
        wall = perf_counter() - start
        return Pass(wall, latencies, results, len(results))

    def expected(self) -> list[tuple[int, str]]:
        """Exit code and stdout of each command, computed with the library."""
        chain_mod, pbox_mod, poss = self.lib["chain"], self.lib["pbox"], self.lib["possibility"]
        out = []
        for argv, doc in zip(self.argvs, self.docs):
            chain = chain_mod.Chain(doc["classes"])
            box = pbox_mod.PBox(chain, doc["lower"], doc["upper"])
            if argv[0] == "upper":
                event = [label for label in argv[argv.index("--event") + 1].split(",") if label]
                payload = {"upper": str(box.upper(event))}
            else:
                pi = poss.pbox_to_possibility(box)
                payload = {"pi": {x: str(pi[x]) for cls in chain.classes for x in sorted(cls)}}
            out.append((0, json.dumps(payload, separators=(",", ":")) + "\n"))
        return out

    def check(self, results: list) -> set[int]:
        return {i for i, (got, want) in enumerate(zip(results, self.expected())) if got != want}

    def layer_metrics(self, untraced: list[Pass], base: list[Pass]) -> dict:
        by_kind = {"upper": [], "to-possibility": []}
        for p in untraced:
            for kind, lat in zip(self.kinds, p.latencies_s):
                by_kind[kind].append(lat)
        start = median_seconds([sys.executable, "-c", "pass"], self.env, self.root)
        imported = median_seconds([sys.executable, "-c", "import possbox.cli"], self.env, self.root)
        return {
            "cli_upper_p50_ms": percentile(by_kind["upper"], 50) * 1e3,
            "cli_to_possibility_p50_ms": percentile(by_kind["to-possibility"], 50) * 1e3,
            "cli_p90_ms": percentile([lat for p in untraced for lat in p.latencies_s], 90) * 1e3,
            "cli.main_ms": percentile([lat for p in base for lat in p.latencies_s], 50) * 1e3,
            "cli.python_start_ms": start * 1e3,
            "cli.import_ms": (imported - start) * 1e3,
        }

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def median_seconds(cmd: list[str], env: dict, cwd: Path) -> float:
    times = []
    for _ in range(7):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=cwd, check=True, capture_output=True, timeout=60)
        times.append(perf_counter() - t0)
    return percentile(times, 50)


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method); 0.0 for no values."""
    values = list(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
