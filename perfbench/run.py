"""toughcert benchmark: one command, three workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads (every call enters through ``toughcert.cli.run``):

  sweep          verify-theorem --n 7 --t T --workers 1 for T = 1..5, the
                 exhaustive route; inputs are exhaustive, the seed is unused.
  certify-small  seeded graphs of order 7-10, one certify --file F --t T call
                 per T in 1..3; the exact toughness cross-check runs.
  certify-large  seeded graphs of order 12-62 in five classes (dense, sparse,
                 near, extremal, small_gap); no cross-check.

A pass runs the workload's calls once in a fresh worker process
(``worker.py``), so every pass pays the lazy set-up a CLI process pays.
Passes repeat for ``--seconds`` (at least three).  ``--trace 0`` runs
untraced passes and prints the end-to-end metrics; ``--trace 1`` runs
traced passes and prints the per-layer metrics from their spans, plus
the tracing overhead.  Every output is checked after timing
(``checks.py``).  A full result with provenance goes to
``.bench_build/perfbench/results/``; the last line of stdout is the
summary JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import gen
import spans

HERE = Path(__file__).resolve().parent
SWEEP_N, SWEEP_TS = 7, (1, 2, 3, 4, 5)
SETUP_EVERY_S = 3.0
MIN_PASSES = 3
DEADLINE_S = 170.0
LARGE_CLASSES = ("dense", "sparse", "near", "extremal", "small_gap")

# sweep_s (the wall time of a sweep pass) is printed on `sweep` but not
# listed here: it is graphs_per_pass / graphs_per_s, one measurement.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("graphs_per_s", "1/s", "higher"),
    ("graph_p50_ms", "ms", "lower"),
    ("graph_p99_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("cli.run.total_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("verify.verify_theorem.self_s", "s", "lower"),
    *((f"verify.verify_theorem.total_s.t{t}", "s", "lower") for t in SWEEP_TS),
    ("verify.masks_per_s", "1/s", "higher"),
    ("verify.connected", "count", "higher"),
    ("verify.not_tough", "count", "higher"),
    ("verify.eigensolves", "count", "lower"),
    ("verify.bound_skips", "count", "higher"),
    ("verify.bound_skip_ratio", "ratio", "higher"),
    ("verify.certify.calls", "count", "lower"),
    ("verify.certify.total_s", "s", "lower"),
    ("verify.certify.self_s", "s", "lower"),
    ("spectral.spectral_radius.calls", "count", "lower"),
    ("spectral.spectral_radius.total_s", "s", "lower"),
    *((f"spectral.spectral_radius.total_s.{c}", "s", "lower") for c in LARGE_CLASSES),
    ("toughness.is_one_over_t_tough.calls", "count", "lower"),
    ("toughness.is_one_over_t_tough.total_s", "s", "lower"),
    ("toughness.is_one_over_t_tough.tough_share", "ratio", "lower"),
    ("graphs.parse_graph6.calls", "count", "lower"),
    ("graphs.parse_graph6.total_s", "s", "lower"),
    ("graphs.to_graph6.calls", "count", "lower"),
    ("graphs.to_graph6.total_s", "s", "lower"),
    ("graphs.is_connected.total_s", "s", "lower"),
    ("graphs.is_extremal.total_s", "s", "lower"),
    ("thresholds.threshold.calls", "count", "lower"),
    ("thresholds.threshold.total_s", "s", "lower"),
    ("thresholds.threshold.us_per_call", "us", "lower"),
    ("trace_overhead", "ratio", "lower"),
    ("fail_ratio", "ratio", "lower"),
)


class Workload:
    """The calls of one pass, how to check them, and what to count."""

    def __init__(self, name: str, seed: int, work: Path):
        if name == "sweep":
            self.streams = None
            self.calls = [["verify-theorem", "--n", str(SWEEP_N), "--t", str(t),
                           "--workers", "1"] for t in SWEEP_TS]
            self.op_class = None
            self.graphs_per_pass = checks.CONNECTED[SWEEP_N] * len(SWEEP_TS)
            self.inputs = {"orders": [SWEEP_N], "ts": list(SWEEP_TS),
                           "graphs_per_pass": self.graphs_per_pass}
            return
        self.streams = gen.generate(name, seed)
        self.calls = []
        for t, items in self.streams.items():
            path = work / f"inputs-t{t}.g6"
            path.write_text("".join(item["graph6"] + "\n" for item in items), encoding="ascii")
            self.calls.append(["certify", "--file", str(path), "--t", str(t)])
        self.op_class = [item["class"] for items in self.streams.values() for item in items]
        self.graphs_per_pass = len(self.op_class)
        self.inputs = {**gen.counts(self.streams), "ts": list(self.streams),
                       "graphs_per_pass": self.graphs_per_pass}

    def check(self, calls: list) -> list:
        if self.streams is None:
            return checks.check_sweep(calls, SWEEP_N, SWEEP_TS)
        return checks.check_certify(calls, self.streams)


def _env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_sample(root: Path) -> float:
    """Seconds a fresh process spends importing toughcert.cli (numpy
    included), timed inside that process."""
    code = ("from time import perf_counter; t = perf_counter(); import toughcert.cli; "
            "print(perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], env=_env(root), cwd=root,
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def run_pass(root: Path, work: Path, calls: list, index: int, traced: bool,
             timeout: float) -> dict | None:
    """One pass in a fresh worker; None if the worker did not finish."""
    spec = work / f"spec-{index}.json"
    out = work / f"pass-{index}.json"
    spec.write_text(json.dumps({"calls": calls, "trace": traced}), encoding="utf-8")
    try:
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec), str(out)],
                       env=_env(root), cwd=root, check=True, timeout=timeout,
                       stdout=subprocess.DEVNULL)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"pass {index} failed: {exc}", file=sys.stderr)
        return None
    result = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    result["traced"] = traced
    result["wall_s"] = sum(c["wall_s"] for c in result["calls"])
    return result


def _gaps_ms(p: dict) -> list[float]:
    """Time between consecutive output lines of each call of a pass, as
    its reader sees them; the first is counted from the call's start."""
    gaps = []
    for call in p["calls"]:
        prev = 0.0
        for t in call["line_s"]:
            gaps.append((t - prev) * 1e3)
            prev = t
    return gaps


def digest(wl: Workload, p: dict) -> None:
    """Reduce a checked pass to the figures the metrics need, so the
    passes kept in memory hold no output text, line times or spans."""
    gaps = _gaps_ms(p)
    p["records"] = len(gaps)
    p["gap_p50_ms"] = statistics.median(gaps)
    p["gap_p99_ms"] = statistics.quantiles(gaps, n=100, method="inclusive")[98]
    p["report_counts"] = checks.sweep_counts(p["calls"]) if wl.streams is None else {}
    if p["traced"]:
        p["layers"] = _layers_of_pass(wl, p)
    del p["spans"]
    for call in p["calls"]:
        del call["stdout"], call["line_s"]


def end_to_end(wl: Workload, passes: list, setup: list[float]) -> dict:
    """name -> (value, unit, samples) from the untraced passes.  Record
    gap percentiles are taken per pass, then the median over passes, so
    one pass run in a slow spell of the machine does not set the tail."""
    walls = [p["wall_s"] for p in passes]
    samples = sum(p["records"] for p in passes)
    out = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "graphs_per_s": (statistics.median(wl.graphs_per_pass / w for w in walls), "1/s", len(walls)),
        "graph_p50_ms": (statistics.median(p["gap_p50_ms"] for p in passes), "ms", samples),
        "graph_p99_ms": (statistics.median(p["gap_p99_ms"] for p in passes), "ms", samples),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] / 1024 for p in passes), "MB", len(passes)),
    }
    if wl.streams is None:
        out["sweep_s"] = (statistics.median(walls), "s", len(walls))
    return out


# span name -> the summary fields reported for it
SPAN_FIELDS = (
    ("cli.run", ("total_s", "self_s")),
    ("verify.verify_theorem", ("self_s",)),
    ("verify.certify", ("calls", "total_s", "self_s")),
    ("spectral.spectral_radius", ("calls", "total_s")),
    ("toughness.is_one_over_t_tough", ("calls", "total_s")),
    ("graphs.parse_graph6", ("calls", "total_s")),
    ("graphs.to_graph6", ("calls", "total_s")),
    ("graphs.is_connected", ("total_s",)),
    ("graphs.is_extremal", ("total_s",)),
    ("thresholds.threshold", ("calls", "total_s")),
)


def _layers_of_pass(wl: Workload, p: dict) -> dict:
    s = spans.summarize(p["spans"], wl.op_class)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "by_note": {}, "by_class": {}}

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{span}.{field}": s.get(span, empty)[field]
         for span, fields in SPAN_FIELDS for field in fields}
    by_t = s.get("verify.verify_theorem", empty)["by_note"]
    for t in SWEEP_TS:
        m[f"verify.verify_theorem.total_s.t{t}"] = by_t.get(str(t), [0, 0.0])[1]
    counts = p["report_counts"]
    m["verify.masks_per_s"] = ratio(counts.get("masks", 0),
                                    s.get("verify.verify_theorem", empty)["total_s"])
    for key in ("connected", "not_tough", "eigensolves", "bound_skips"):
        m[f"verify.{key}"] = counts.get(key, 0)
    m["verify.bound_skip_ratio"] = ratio(counts.get("bound_skips", 0),
                                         counts.get("not_tough", 0) - counts.get("exceptional", 0))
    by_class = s.get("spectral.spectral_radius", empty)["by_class"]
    for c in LARGE_CLASSES:
        m[f"spectral.spectral_radius.total_s.{c}"] = by_class.get(c, 0.0)
    tough = s.get("toughness.is_one_over_t_tough", empty)["by_note"].get("True", [0])[0]
    m["toughness.is_one_over_t_tough.tough_share"] = ratio(
        tough, m["toughness.is_one_over_t_tough.calls"])
    m["thresholds.threshold.us_per_call"] = 1e6 * ratio(
        m["thresholds.threshold.total_s"], m["thresholds.threshold.calls"])
    # time the wrappers added: spans times the cost of one span, as
    # calibrated in the same worker, against the pass without it
    added = len(p["spans"]) * p["span_cost_s"]
    m["trace_overhead"] = added / (p["wall_s"] - added)
    return m


def per_layer(passes: list, attempted: int, failed: int) -> dict:
    """name -> (value, unit, samples): medians over the traced passes."""
    units = {name: unit for name, unit, _ in PER_LAYER}
    out = {name: (statistics.median(p["layers"][name] for p in passes), units[name], len(passes))
           for name in units if name != "fail_ratio"}
    out["fail_ratio"] = (failed / attempted, "ratio", attempted)
    return out


def provenance(root: Path, seed: int, inputs: dict) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "toughcert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "inputs": inputs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "certify-small", "certify-large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = perf_counter()
    root = Path.cwd()
    if not (root / "src" / "toughcert" / "cli.py").is_file():
        print(f"error: {root} holds no toughcert source tree (src/toughcert); "
              "run from the repository root", file=sys.stderr)
        return 2
    work = root / ".bench_build" / "perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    wl = Workload(args.workload, args.seed, work)
    setup_sample(root)  # may compile bytecode; not kept
    setup: list[float] = []

    passes: list[dict] = []
    attempted = failed = 0
    reasons: list[str] = []
    measure_start = perf_counter()
    last_step = 0.0
    while True:
        # stop before a pass that would run past --seconds, or past the
        # deadline once a pass has run
        if len(passes) >= MIN_PASSES and perf_counter() - measure_start + last_step > args.seconds:
            break
        if passes and perf_counter() - started + last_step > DEADLINE_S:
            break
        step_start = perf_counter()
        # set-up samples spread over the run, about one per SETUP_EVERY_S
        # of passes, so a slow spell of the machine weighs on them no
        # more than on the passes
        last_wall = passes[-1]["wall_s"] if passes else 0.0
        setup += [setup_sample(root) for _ in range(1 + int(last_wall // SETUP_EVERY_S))]
        remaining = DEADLINE_S - (perf_counter() - started)
        p = run_pass(root, work, wl.calls, len(passes), bool(args.trace), remaining) if remaining > 0 else None
        ops = len(SWEEP_TS) if wl.streams is None else wl.graphs_per_pass
        attempted += ops
        if p is None:
            failed += ops
            reasons.append("pass did not complete")
            break
        outcome = wl.check(p["calls"])
        bad = [r for r in outcome if r is not None]
        failed += len(bad)
        reasons.extend(bad[:max(0, 20 - len(reasons))])
        digest(wl, p)
        passes.append(p)
        last_step = perf_counter() - step_start

    if not passes:
        print("error: no pass completed; " + "; ".join(reasons), file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(passes, attempted, failed)
        listed = [name for name, _, _ in PER_LAYER]
    else:
        metrics = end_to_end(wl, passes, setup)
        listed = [name for name, _, _ in END_TO_END]

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failure_reasons": reasons,
        "metrics": {name: {"value": v, "unit": u, "samples": k} for name, (v, u, k) in metrics.items()},
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"],
                    "call_wall_s": [c["wall_s"] for c in p["calls"]],
                    "peak_rss_kb": p["peak_rss_kb"], "span_cost_s": p["span_cost_s"]}
                   for p in passes],
        "setup_samples_s": setup,
        "wrapped": passes[0]["wrapped"],
        "provenance": provenance(root, args.seed, wl.inputs),
    }
    results = root / ".bench_build" / "perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit, samples) in metrics.items():
        shown = f"{value:.0f}" if unit == "count" else f"{value:.6g}"
        print(f"{args.workload} {name} = {shown} {unit} (samples={samples})")
    if not args.trace:
        print(f"{args.workload} fail_ratio = {failed / attempted:.6g} ({failed}/{attempted} operations)")
    for reason in reasons[:5]:
        print(f"  failure: {reason}")
    print(f"full result: {out.relative_to(root)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
