"""Spans around the public functions of possbox, recorded from outside it.

The tracer rebinds each traced function in the module that defines it and
in every possbox module that imported the name (``verify`` binds
``credal_upper_classes`` directly, ``cli`` binds ``pbox_to_possibility``,
and so on); methods are wrapped on their class.  Each call becomes a span
with an id, its parent's id, start, duration and self time (duration minus
the time covered by child spans).  Spans stay in memory and are written out
when the run ends; aggregates per function are kept for every call.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns

#: (metric name, defining module, attribute).  ``Class.method`` attributes
#: are wrapped on the class; ``chain.Chain`` and ``pbox.PBox`` time
#: construction through ``__init__``.
TARGETS = (
    ("rationals.exact", "rationals", "exact"),
    ("chain.Chain", "chain", "Chain.__init__"),
    ("chain.minimal_cover", "chain", "Chain.minimal_cover"),
    ("chain.classes_hit", "chain", "Chain.classes_hit"),
    ("pbox.PBox", "pbox", "PBox.__init__"),
    ("pbox.upper_on_union", "pbox", "PBox.upper_on_union"),
    ("pbox.upper", "pbox", "PBox.upper"),
    ("pbox.lower", "pbox", "PBox.lower"),
    ("maxitive.zero_one_profile", "maxitive", "zero_one_profile"),
    ("maxitive.is_maxitive", "maxitive", "is_maxitive"),
    ("possibility.pbox_to_possibility", "possibility", "pbox_to_possibility"),
    ("possibility.conjunction_bounds", "possibility", "conjunction_bounds"),
    ("oracle.simplex_max", "oracle", "simplex_max"),
    ("oracle.credal_upper_classes", "oracle", "credal_upper_classes"),
    ("oracle.exhaustive_max_preserving", "oracle", "exhaustive_max_preserving"),
    ("oracle.credal_intersection_equal", "oracle", "credal_intersection_equal"),
    ("multivariate.joint_frechet", "multivariate", "joint_frechet"),
    ("multivariate.joint_independent", "multivariate", "joint_independent"),
    ("multivariate.joint_rsi_outer", "multivariate", "joint_rsi_outer"),
    ("multivariate.least_conservative_check", "multivariate", "least_conservative_check"),
    ("verify.suite_oracle", "verify", "suite_oracle"),
    ("verify.suite_maxitive", "verify", "suite_maxitive"),
    ("verify.suite_roundtrip", "verify", "suite_roundtrip"),
    ("verify.suite_conjunction", "verify", "suite_conjunction"),
    ("verify.suite_multivariate", "verify", "suite_multivariate"),
)

SUITES = tuple(name for name, module, _ in TARGETS if module == "verify")

SPAN_FIELDS = ("id", "parent", "name", "start_ns", "dur_ns", "self_ns")

#: Spans kept in memory per traced phase; later calls still count in the aggregates.
SPAN_CAP = 200_000


def _possbox_modules() -> list:
    return [
        module
        for key, module in list(sys.modules.items())
        if module is not None and (key == "possbox" or key.startswith("possbox."))
    ]


def rebind(module_name: str, attribute: str, make_wrapper):
    """Replace a possbox function or method by ``make_wrapper(original)``.

    A function is replaced under every name any possbox module binds it to;
    a ``Class.method`` attribute is replaced on the class.  Returns a
    callable that restores the originals.  Raises ``KeyError`` when the
    defining module is not imported.
    """
    module = sys.modules[f"possbox.{module_name}"]
    if "." in attribute:
        cls_name, method = attribute.split(".")
        owner = getattr(module, cls_name)
        original = owner.__dict__[method]
        setattr(owner, method, make_wrapper(original))
        return lambda: setattr(owner, method, original)
    original = getattr(module, attribute)
    wrapper = make_wrapper(original)
    bound = []
    for mod in _possbox_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                bound.append((mod, key))

    def undo() -> None:
        for mod, key in bound:
            setattr(mod, key, original)

    return undo


class Tracer:
    """In-memory spans and per-function aggregates for one traced phase.

    At most ``SPAN_CAP`` spans are kept (the rest are counted in
    ``dropped``); aggregates cover every call.  The LP shape counters
    ``lp_rows`` and ``lp_distinct`` are taken from the arguments of
    ``oracle.simplex_max``.
    """

    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.spans = {field: array("q") for field in SPAN_FIELDS}
        self.dropped = 0
        self.lp_rows = 0
        self.lp_distinct: set[int] = set()
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._undo: list = []

    def install(self) -> None:
        for idx, (name, module, attribute) in enumerate(TARGETS):
            if f"possbox.{module}" not in sys.modules:
                continue
            observe = self._observe_lp if name == "oracle.simplex_max" else None
            self._undo.append(
                rebind(module, attribute, lambda fn, i=idx, o=observe: self._wrap(i, fn, o))
            )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _observe_lp(self, args: tuple) -> tuple:
        num_vars, constraints, objective = args
        rows = list(constraints)
        self.lp_rows += len(rows)
        key = (tuple((tuple(c), s, r) for c, s, r in rows), tuple(objective))
        self.lp_distinct.add(hash(key))
        return (num_vars, rows, objective)

    def _wrap(self, idx: int, fn, observe):
        tracer = self
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if observe is not None:
                # The observer's own time counts as a child's, so it is in
                # no span's self time.
                t0 = perf_counter_ns()
                args = observe(args)
                if stack:
                    stack[-1][1] += perf_counter_ns() - t0
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - start
                stack.pop()
                self_ns = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                tracer.calls[idx] += 1
                tracer.self_ns[idx] += self_ns
                if len(spans["id"]) < SPAN_CAP:
                    for field, value in zip(
                        SPAN_FIELDS, (span_id, parent, idx, start, dur, self_ns)
                    ):
                        spans[field].append(value)
                else:
                    tracer.dropped += 1

        return traced

    def write_spans(self, path) -> int:
        """Write the kept spans as CSV; returns the number written."""
        columns = [self.spans[field] for field in SPAN_FIELDS]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(",".join(SPAN_FIELDS) + "\n")
            for row in zip(*columns):
                values = list(row)
                values[2] = self.names[values[2]]
                handle.write(",".join(map(str, values)) + "\n")
        return len(columns[0])
