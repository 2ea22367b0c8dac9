"""Self-check of the benchmark harness at tiny sizes.

Run from the repository root:

    python3 perfbench/selfcheck.py

Checks that one seed gives byte-identical inputs, that the output
checks pass on the program's real outputs, and that they count a
failure when an expected value is deliberately corrupted, so a broken
program cannot pass unnoticed.  Also checks that BENCHMARK.json names
exactly the metrics ``run.py`` prints.  Exits 0 when all hold.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

import checks
import gen
import run
import spans

TINY = {
    "certify-small": (("random", (7, 10), 2), ("near", (8,), 1), ("extremal", (9,), 1)),
    "certify-large": (("dense", (20,), 1), ("sparse", (30,), 1), ("near", (24,), 1),
                      ("extremal", (16,), 1), ("small_gap", None, 1)),
}


def _inputs(workload: str, seed: int, work: Path) -> dict[str, bytes]:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run.Workload(workload, seed, work)
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


def main() -> int:
    root = Path.cwd()
    base = root / ".bench_build" / "perfbench" / "selfcheck"
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([m["name"] for m in bench["end_to_end"]] == [m[0] for m in run.END_TO_END]
           and [m["name"] for m in bench["per_layer"]] == [m[0] for m in run.PER_LAYER],
           "BENCHMARK.json lists the metrics run.py prints")

    for workload in TINY:
        first = _inputs(workload, 7, base / "a")
        expect(first == _inputs(workload, 7, base / "b"), f"{workload}: same seed, identical input files")
        expect(first != _inputs(workload, 8, base / "b"), f"{workload}: another seed, other input files")

    work = base / "run"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for workload, mix in TINY.items():
        streams = gen.generate(workload, 3, mix)
        calls = []
        for t, items in streams.items():
            path = work / f"{workload}-t{t}.g6"
            path.write_text("".join(i["graph6"] + "\n" for i in items), encoding="ascii")
            calls.append(["certify", "--file", str(path), "--t", str(t)])
        ops = sum(len(items) for items in streams.values())
        p = run.run_pass(root, work, calls, 0, True, 120)
        expect(p is not None, f"{workload}: traced pass completes")
        if p is None:
            continue
        outcome = checks.check_certify(p["calls"], streams)
        expect(len(outcome) == ops and not any(outcome), f"{workload}: {ops} records pass the checks")
        summary = spans.summarize(p["spans"])
        expect(summary.get("verify.certify", {}).get("calls") == ops,
               f"{workload}: one verify.certify span per graph")
        for field, value in (("verdict", "corrupted"), ("lambda1", -1.0), ("graph6", "A_")):
            bad = copy.deepcopy(streams)
            bad[1][0][field] = value
            failed = sum(r is not None for r in checks.check_certify(p["calls"], bad))
            expect(failed == 1, f"{workload}: a corrupted expected {field} counts one failure")
        p["calls"][0]["code"] = 3
        failed = sum(r is not None for r in checks.check_certify(p["calls"], streams))
        expect(failed == len(streams[1]), f"{workload}: a failing call fails each of its graphs")

    ts = (1, 2, 3)
    calls = [["verify-theorem", "--n", "5", "--t", str(t), "--workers", "1"] for t in ts]
    p = run.run_pass(root, work, calls, 1, False, 120)
    expect(p is not None, "sweep (n=5): pass completes")
    if p is not None:
        expect(not any(checks.check_sweep(p["calls"], 5, ts)), "sweep (n=5): reports pass the checks")
        wrong_sha = {(5, 2): "0" * 64}
        failed = sum(r is not None for r in checks.check_sweep(p["calls"], 5, ts, wrong_sha))
        expect(failed == 1, "sweep (n=5): a corrupted expected report hash counts one failure")
        p["calls"][2]["stdout"] = p["calls"][2]["stdout"].replace('"exceptional": ', '"exceptional": 1')
        failed = sum(r is not None for r in checks.check_sweep(p["calls"], 5, ts))
        expect(failed == 1, "sweep (n=5): a changed exceptional count counts one failure")

    shutil.rmtree(base, ignore_errors=True)
    print("selfcheck " + ("passed" if not problems else f"FAILED: {len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
