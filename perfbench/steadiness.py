"""Run-to-run spread of the end-to-end metrics.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 1 2 3 4 5 6 7 8 9 10

Runs ``run.py --trace 0`` once per workload and seed, one run at a
time, and reports for each metric the distance between the first and
third quartile of its values (``statistics.quantiles(values, n=4)``) as
a share of their median, next to the metric's bound from
BENCHMARK.json.  The summary goes to
``.bench_build/perfbench/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            last = json.loads(done.stdout.strip().splitlines()[-1])
            if not last["correct"]:
                print(f"{workload} seed {seed}: outputs failed the checks", file=sys.stderr)
                return 1
            runs.append({name: m["value"] for name, m in last["metrics"].items()})
        metrics = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            metrics[name] = {"median": statistics.median(values), "spread": spread(values),
                             "bound": bound, "values": values}
            print(f"{workload:14s} {name:14s} median={statistics.median(values):12.6g} "
                  f"spread={metrics[name]['spread']:.4f} bound={bound}")
        summary["workloads"][workload] = metrics
    out = Path(".bench_build") / "perfbench" / "steadiness.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"written {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
