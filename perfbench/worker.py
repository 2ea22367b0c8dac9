"""One pass of a workload in a fresh process.

Usage: python3 worker.py SPEC.json OUT.json

SPEC holds ``calls`` (argument lists for ``toughcert.cli.run``) and
``trace``.  Each call runs in this process with stdout and stderr
captured; the time of every output line is taken as the reader of
stdout would see it.  OUT receives, per call, the exit code, the wall
time of ``run``, the captured text and the line times (seconds since
the call started), plus the process's peak resident memory and, when
traced, the recorded spans and the calibrated cost of one span.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import spans


class _Records(io.StringIO):
    """Captured stdout that timestamps every completed line."""

    def __init__(self, on_lines=None):
        super().__init__()
        self.times: list[float] = []
        self.on_lines = on_lines

    def write(self, s):
        written = super().write(s)
        lines = s.count("\n")
        if lines:
            now = perf_counter()
            self.times.extend([now] * lines)
            if self.on_lines:
                self.on_lines(lines)
        return written


def _peak_rss_kb() -> int:
    """Peak resident memory of this process since it was started (VmHWM).
    ``ru_maxrss`` would not do: a vfork/exec carries the parent's
    high-water mark over into the new process."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(spec_path: str, out_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import toughcert.cli as cli

    recorder = spans.Recorder() if spec["trace"] else None
    wrapped = recorder.install() if recorder else []
    calls = []
    for argv in spec["calls"]:
        out = _Records(recorder.advance if recorder else None)
        err = io.StringIO()
        error = None
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                code = cli.run(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # reported as a failed call, not a crash
                code, error = -1, f"{type(exc).__name__}: {exc}"
            wall = perf_counter() - start
        calls.append({
            "argv": argv,
            "code": code,
            "error": error,
            "wall_s": wall,
            "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:],
            "line_s": [t - start for t in out.times],
        })
    result = {
        "calls": calls,
        "peak_rss_kb": _peak_rss_kb(),
        "wrapped": wrapped,
        "spans": recorder.spans if recorder else None,
        "span_cost_s": spans.span_cost_s() if recorder else None,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
