"""In-memory span recorder for the traced run.

The program is measured from outside: ``install`` replaces the names
through which one toughcert module calls another (``toughcert.cli.certify``,
``toughcert.verify.spectral_radius``, ...) with wrappers that record a
span per call.  A span is (name, start, end, parent, op, note): ``parent``
is the index of the enclosing span or -1, ``op`` the index of the output
record the call is working towards, and ``note`` a small value taken
from the call's arguments or result.  Spans stay in memory until the
pass ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from time import perf_counter


def _t_argument(args, kwargs, result):
    return kwargs.get("t", args[1] if len(args) > 1 else None)


def _tough(args, kwargs, result):
    return bool(result[0])


# (module, attribute, span name, note) for every wrapped boundary.  The
# module is the caller's, because ``from .x import f`` binds ``f`` there.
BOUNDARIES = (
    ("toughcert.cli", "run", "cli.run", None),
    ("toughcert.cli", "certify", "verify.certify", None),
    ("toughcert.cli", "verify_theorem", "verify.verify_theorem", _t_argument),
    ("toughcert.cli", "parse_graph6", "graphs.parse_graph6", None),
    ("toughcert.verify", "spectral_radius", "spectral.spectral_radius", None),
    ("toughcert.verify", "threshold", "thresholds.threshold", None),
    ("toughcert.verify", "is_one_over_t_tough", "toughness.is_one_over_t_tough", _tough),
    ("toughcert.verify", "is_connected", "graphs.is_connected", None),
    ("toughcert.verify", "is_extremal", "graphs.is_extremal", None),
    ("toughcert.verify", "to_graph6", "graphs.to_graph6", None),
    ("toughcert.toughness", "is_connected", "graphs.is_connected", None),
)


class Recorder:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.op = 0

    def advance(self, records: int) -> None:
        self.op += records

    def wrap(self, fn, name: str, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            op = self.op
            self.spans.append(None)
            self.stack.append(idx)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                self.stack.pop()
                value = note(args, kwargs, result) if note and result is not None else None
                self.spans[idx] = (name, start, end, parent, op, value)

        return wrapper

    def install(self) -> list[str]:
        """Wrap every boundary that exists; returns the names wrapped."""
        done = []
        for modname, attr, name, note in BOUNDARIES:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if callable(fn):
                setattr(mod, attr, self.wrap(fn, name, note))
                done.append(f"{modname}.{attr}")
        return done


def span_cost_s(rounds: int = 15, calls: int = 2000) -> float:
    """Seconds one recorded span adds to a call, timed in this process: a
    no-op is called plain and wrapped in alternating blocks, and the
    median of the paired per-call differences is returned."""
    def noop(a, b=None):
        return a

    recorder = Recorder()
    wrapped = recorder.wrap(noop, "noop", None)
    diffs = []
    for _ in range(rounds):
        start = perf_counter()
        for _ in range(calls):
            noop(1, 2)
        mid = perf_counter()
        for _ in range(calls):
            wrapped(1, 2)
        end = perf_counter()
        diffs.append(((end - mid) - (mid - start)) / calls)
        recorder.spans.clear()
    return statistics.median(diffs)


def summarize(spans: list, op_class: list | None = None) -> dict:
    """Per span name: calls, total and self seconds, [calls, seconds] per
    note value, and seconds per class of the op (``op_class[op]``).
    Self time is a span's duration minus that of its direct children
    (calls on one thread never overlap)."""
    out: dict[str, dict] = {}
    child = [0.0] * len(spans)
    for name, start, end, parent, op, note in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, parent, op, note) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                  "by_note": {}, "by_class": {}})
        dur = end - start
        s["calls"] += 1
        s["total_s"] += dur
        s["self_s"] += dur - child[i]
        if note is not None:
            count_total = s["by_note"].setdefault(str(note), [0, 0.0])
            count_total[0] += 1
            count_total[1] += dur
        if op_class is not None and op < len(op_class):
            cls = op_class[op]
            s["by_class"][cls] = s["by_class"].get(cls, 0.0) + dur
    return out
