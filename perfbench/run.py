"""possbox benchmark: one command, four workloads, each loading one layer.

Run from the repository root:

    python3 perfbench/run.py --workload queries --seed 1 --seconds 20 --trace 0

The workload repeats its batch for ``--seconds`` seconds in one process,
with no threads, checks every answer outside the timed region, and prints
one JSON object as the last line of stdout::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  Except on ``cli-cold``,
their times are put at a reference machine speed by a calibration loop
sampled throughout the run (see ``SpeedProbe``); the wall-clock values as
measured go to stderr and the results file.  ``--trace 1`` spends half
the time untraced and half with spans around possbox's public functions,
takes no calibration samples, reports the per-layer metrics as measured,
and writes the spans to ``.perfbench_out/spans/``.  The environment goes to stderr and, with the
metrics, to ``.perfbench_out/results/``.  Exit code 2, and no result, when
the checkout holds no ``src/possbox``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import tracing
import workloads
from workloads import percentile

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

#: Set-up (import plus input generation) is repeated this often; the median counts.
SETUP_REPEATS = 15

#: name -> (unit, better).  Every workload reports all of them with --trace 0.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "p50_ms": ("ms", "lower"),
    "p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _per_layer() -> dict:
    metrics = {}
    for name, _, _ in tracing.TARGETS:
        metrics[f"{name}.calls"] = ("count", "lower")
        metrics[f"{name}.self_s"] = ("s", "lower")
    for name in tracing.SUITES:
        metrics[f"{name}.cases"] = ("count", "higher")
        metrics[f"{name}.checks"] = ("count", "higher")
    metrics.update(
        {
            "oracle.simplex_max.rows": ("count", "lower"),
            "oracle.simplex_max.distinct_ratio": ("ratio", "higher"),
            "cli.python_start_ms": ("ms", "lower"),
            "cli.import_ms": ("ms", "lower"),
            "cli.main_ms": ("ms", "lower"),
            "build_p50_us": ("us", "lower"),
            "build_p90_us": ("us", "lower"),
            "query_p50_us": ("us", "lower"),
            "query_p90_us": ("us", "lower"),
            "cli_upper_p50_ms": ("ms", "lower"),
            "cli_to_possibility_p50_ms": ("ms", "lower"),
            "cli_p90_ms": ("ms", "lower"),
            "trace.run_s": ("s", "lower"),
            "trace.overhead_ratio": ("ratio", "lower"),
            "error_rate": ("ratio", "lower"),
        }
    )
    return metrics


#: name -> (unit, better).  Reported with --trace 1; 0 where a workload
#: does not reach the layer.
PER_LAYER = _per_layer()


def make_workload(name: str, seed: int, **sizes):
    if name == "sweep-lp":
        return workloads.Sweep(seed, sizes.get("suites", workloads.SWEEP_LP))
    if name == "sweep-closed-form":
        return workloads.Sweep(seed, sizes.get("suites", workloads.SWEEP_CLOSED_FORM))
    if name == "queries":
        return workloads.Queries(seed, **sizes)
    if name == "cli-cold":
        return workloads.CliCold(seed, ROOT, **sizes)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep-lp", "sweep-closed-form", "queries", "cli-cold")


#: Seconds the calibration loop takes at the reference machine speed.
CALIBRATION_REF_S = 0.002

#: Seconds between the speed probe's timer samples.
SAMPLE_INTERVAL_S = 0.2


def calibration_loop() -> float:
    """Seconds for a fixed loop of standard-library work.

    Fraction sums plus dict and str operations, the kinds of work possbox
    does; possbox itself plays no part, so a change to possbox leaves the
    loop's time alone while the host's speed moves it with the workload.
    """
    start = perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 300):
        acc += Fraction(i % 97, i % 89 + 1)
        if acc > 50:
            acc -= 50
        table[i & 255] = table.get(i & 255, 0) + len(str(acc.denominator))
    return perf_counter() - start


class SpeedProbe:
    """Samples the host's speed with the calibration loop while a workload runs.

    On a shared machine the speed of the same code drifts by a quarter or
    more over minutes, which would swamp any change to possbox.  A timer
    signal samples every ``SAMPLE_INTERVAL_S``, and the harness samples
    between set-ups and between passes.  A time window's samples give the
    factor that puts its wall time at reference speed, and the handler's
    own time is taken out of the window.  The timer is there because a
    sweep pass lasts about ten seconds: on a shared two-vCPU Xeon host,
    scaling each pass by the samples at its two ends only left the
    ten-seed spread of the sweeps' ``run_s`` at 0.10-0.11, against
    0.01-0.06 with the timer's samples.

    A disabled probe samples nothing and leaves times as measured.  That is
    the case for traced runs, whose per-layer times are reported as
    measured and must not include the samples, and for workloads whose
    requests run in child processes: there the loop's speed in this
    process did not follow the children's, and on the same host scaling
    widened the run-to-run spread of ``cli-cold`` instead of narrowing it.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.at: list[float] = []
        self.ratio: list[float] = []
        self.cost: list[float] = []

    def sample(self, *signal_args) -> None:
        start = perf_counter()
        self.ratio.append(CALIBRATION_REF_S / calibration_loop())
        self.at.append(start)
        self.cost.append(perf_counter() - start)

    def between(self) -> None:
        if self.enabled:
            for _ in range(3):
                self.sample()

    def __enter__(self) -> "SpeedProbe":
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def window(self, start: float, end: float) -> tuple[float, float]:
        """(scale to reference speed, seconds the handler took) for a window.

        The scale comes from the samples inside the window and within one
        interval of its ends.
        """
        if not self.enabled:
            return 1.0, 0.0
        spent = sum(c for t, c in zip(self.at, self.cost) if start <= t < end)
        lo, hi = start - SAMPLE_INTERVAL_S, end + SAMPLE_INTERVAL_S
        near = [r for t, r in zip(self.at, self.ratio) if lo <= t < hi]
        return statistics.fmean(near), spent


class Phase(NamedTuple):
    passes: list  # workloads.Pass with results dropped
    windows: list  # per pass, (start, end) on the perf_counter clock
    attempted: int
    failed: int
    peak_rss_mb: float  # taken when the last pass ends


def run_phase(
    wl, run_pass, seconds: float, probe: SpeedProbe, tracer: tracing.Tracer | None = None
) -> Phase:
    """Repeat ``run_pass`` for ``seconds`` (at least once), then check.

    The first pass is checked by the workload; every later pass must
    return the same results.  An operation counts as failed in each pass
    where its result is wrong.
    """
    passes, windows, mismatched, first = [], [], [], None
    if tracer is not None:
        tracer.install()
    try:
        deadline = perf_counter() + seconds
        probe.between()
        while True:
            start = perf_counter()
            p = run_pass()
            windows.append((start, perf_counter()))
            probe.between()
            if first is None:
                first = p.results
                mismatched.append(set())
            else:
                mismatched.append({i for i, (a, b) in enumerate(zip(p.results, first)) if a != b})
            passes.append(p._replace(results=None))
            if perf_counter() >= deadline:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss = peak_rss_mb(wl.spawns_processes)
    bad = wl.check(first)
    failed = sum(len(bad | m) for m in mismatched)
    return Phase(passes, windows, len(first) * len(passes), failed, rss)


def peak_rss_mb(children: bool) -> float:
    """Peak resident set in MiB: of the largest child process when the
    workload's requests run in children, else of this process."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(phase: Phase, setups: list[tuple], probe: SpeedProbe | None) -> dict:
    """End-to-end metrics, with times at reference speed when ``probe`` is given.

    ``setups`` holds (seconds, window) per set-up.  Without a probe the
    times are wall-clock times as measured.
    """

    def at_reference(seconds: float, window: tuple[float, float]) -> float:
        if probe is None:
            return seconds
        scale, spent = probe.window(*window)
        return (seconds - spent) * scale

    walls, latencies = [], []
    for p, window in zip(phase.passes, phase.windows):
        wall = at_reference(p.wall_s, window)
        walls.append(wall)
        # The handler's time is spread over the pass's requests.
        latencies.extend(lat * wall / p.wall_s for lat in p.latencies_s)
    return {
        "setup_s": statistics.median(at_reference(t, w) for t, w in setups),
        "run_s": statistics.median(walls),
        "ops_per_s": sum(p.units for p in phase.passes) / sum(walls),
        "p50_ms": percentile(latencies, 50) * 1e3,
        "p90_ms": percentile(latencies, 90) * 1e3,
        "peak_rss_mb": phase.peak_rss_mb,
    }


def per_layer(
    wl, seconds: float, probe: SpeedProbe, spans_path: Path | None
) -> tuple[dict, list[Phase]]:
    """Untraced passes, then traced ones; per-layer metrics per traced pass."""
    untraced = run_phase(wl, wl.run_pass, seconds / 2, probe)
    phases = [untraced]
    if type(wl).traced_pass is type(wl).run_pass:
        base, traced_seconds = untraced, seconds / 2
    else:
        base = run_phase(wl, wl.traced_pass, seconds / 4, probe)
        phases.append(base)
        traced_seconds = seconds / 4
    tracer = tracing.Tracer()
    traced = run_phase(wl, wl.traced_pass, traced_seconds, probe, tracer)
    phases.append(traced)

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    n = len(traced.passes)
    for idx, name in enumerate(tracer.names):
        metrics[f"{name}.calls"] = tracer.calls[idx] / n
        metrics[f"{name}.self_s"] = tracer.self_ns[idx] / 1e9 / n
    lp_calls = metrics["oracle.simplex_max.calls"]
    metrics["oracle.simplex_max.rows"] = tracer.lp_rows / n
    if lp_calls:
        metrics["oracle.simplex_max.distinct_ratio"] = len(tracer.lp_distinct) / lp_calls
    traced_run = statistics.median(p.wall_s for p in traced.passes)
    metrics["trace.run_s"] = traced_run
    metrics["trace.overhead_ratio"] = traced_run / statistics.median(p.wall_s for p in base.passes)
    metrics.update(wl.layer_metrics(untraced.passes, base.passes))
    attempted = sum(p.attempted for p in phases)
    metrics["error_rate"] = sum(p.failed for p in phases) / attempted
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        written = tracer.write_spans(spans_path)
        print(f"spans: {written} written to {spans_path}, {tracer.dropped} over the cap", file=sys.stderr)
    return metrics, phases


def run_benchmark(wl, seconds: float, trace: bool, spans_path: Path | None = None):
    """Set up, measure and check one workload.

    Returns the result object and, for the record, the end-to-end metrics
    as measured, before scaling to reference speed (empty when tracing).
    """
    setups, unscaled = [], {}
    try:
        with SpeedProbe(enabled=not trace and not wl.spawns_processes) as probe:
            probe.between()
            for _ in range(SETUP_REPEATS):
                start = perf_counter()
                wl.setup()
                end = perf_counter()
                setups.append((end - start, (start, end)))
                probe.between()
            if trace:
                values, phases = per_layer(wl, seconds, probe, spans_path)
                units = PER_LAYER
            else:
                phase = run_phase(wl, wl.run_pass, seconds, probe)
                values, phases = end_to_end(phase, setups, probe), [phase]
                unscaled = end_to_end(phase, setups, None)
                units = END_TO_END
    finally:
        wl.close()
    failed = sum(p.failed for p in phases)
    result = {
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in phases),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name][0]} for name in units},
    }
    return result, unscaled


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "possbox").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "possbox" / "__init__.py").is_file():
        print(f"error: no possbox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    env = environment()
    print("environment: " + json.dumps(env), file=sys.stderr)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl = make_workload(args.workload, args.seed)
    result, unscaled = run_benchmark(wl, args.seconds, bool(args.trace), OUT / "spans" / f"{tag}.csv")
    if unscaled:
        print("as measured, before scaling: " + json.dumps(unscaled), file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, **result, "unscaled_metrics": unscaled}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
