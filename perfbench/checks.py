"""Output checks, run after timing and independent of the package.

Each check returns one entry per operation: ``None`` when the output
is right, else a short reason.  An operation is one ``(n, t)`` sweep or
one certified graph; a call that exits nonzero fails every operation it
should have produced.
"""

from __future__ import annotations

import hashlib
import json
from math import comb

from gen import from_graph6

# Connected labeled graphs per order (OEIS A001187).
CONNECTED = {3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}

# sha256 of the verify-theorem report bytes for n = 7, t = 1..5, as
# written by the program at the commit that introduced this benchmark.
# Reports are meant to stay byte-identical, so any change is a failure.
REPORT_SHA256 = {
    (7, 1): "aa63ba3b704ace48c172cf4457e5b42215c560bbd6aa2245714cf65545ce0955",
    (7, 2): "499807fbf0bf13335a1ca7bb2b6df7398d57ce4cacb7ddf54501d7413113eb17",
    (7, 3): "edae3d9ee5e81c6757fb6482c53a846e9e7363b378817d4ddf5f0c47bf16fd78",
    (7, 4): "129523043809579da824c0a2b6980982c40dcd5228a442463f0a50053b00fbf6",
    (7, 5): "129b792d961a67ea07c0e09469fba25c9047e4b964c0645b56507a580a9b3b93",
}

# Relative agreement demanded of lambda1 and threshold; reports round
# to 12 significant digits and the solver stops at a 1e-12 residual.
REL_TOL = 1e-9


def labelings_of_extremal(t: int, n: int) -> int:
    """Labeled copies of K1 v (K_{n-t-1} u tK1): a hub, then the t
    pendants; with a one-vertex clique it is the star K_{1,n-1}."""
    return n if n - t - 1 == 1 else n * comb(n - 1, t)


def _call_failure(call) -> str | None:
    if call["code"] != 0:
        detail = call["error"] or call["stderr"].strip()[-200:]
        return f"exit code {call['code']}: {detail}"
    return None


def check_sweep(calls: list, n: int, ts, expected_sha=REPORT_SHA256) -> list:
    out = []
    for t, call in zip(ts, calls):
        reason = _call_failure(call)
        if reason is None:
            reason = _sweep_report(call["stdout"], n, t, expected_sha.get((n, t)))
        out.append(reason)
    return out


def _sweep_report(text: str, n: int, t: int, sha: str | None) -> str | None:
    lines = text.splitlines()
    if not lines:
        return "no report"
    try:
        summary = json.loads(lines[-1])
    except json.JSONDecodeError:
        return "summary is not JSON"
    counts = summary.get("counts", {})
    if summary.get("record") != "summary" or summary.get("scope", {}).get("t") != t:
        return "last line is not the summary for this t"
    if summary.get("ok") is not True or summary.get("failure_count") != 0:
        return "summary reports failures"
    if summary.get("incident_count") != 0 or len(lines) != 1:
        return "report has failure or incident records"
    if counts.get("connected") != CONNECTED.get(n):
        return f"connected={counts.get('connected')}, expected {CONNECTED.get(n)}"
    if counts.get("exceptional") != labelings_of_extremal(t, n):
        return f"exceptional={counts.get('exceptional')}, expected {labelings_of_extremal(t, n)}"
    if sha is not None and hashlib.sha256(text.encode()).hexdigest() != sha:
        return "report bytes differ from the reference"
    return None


def sweep_counts(calls: list) -> dict:
    """Report counts summed over the sweep's t values."""
    total: dict[str, int] = {}
    for call in calls:
        lines = call["stdout"].splitlines()
        if call["code"] != 0 or not lines:
            continue
        for key, value in json.loads(lines[-1]).get("counts", {}).items():
            total[key] = total.get(key, 0) + value
    return total


def check_certify(calls: list, streams: dict) -> list:
    out = []
    for (t, items), call in zip(streams.items(), calls):
        reason = _call_failure(call)
        lines = call["stdout"].splitlines()
        if reason is None and len(lines) != len(items):
            reason = f"{len(lines)} records for {len(items)} inputs"
        for i, item in enumerate(items):
            if reason is not None:
                out.append(reason)
            else:
                out.append(_certify_record(lines[i], t, item))
    return out


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def _certify_record(line: str, t: int, item: dict) -> str | None:
    try:
        rec = json.loads(line)
    except json.JSONDecodeError:
        return "record is not JSON"
    g6 = item["graph6"]
    n = ord(g6[0]) - 63
    if rec.get("graph6") != g6:
        return "graph6 does not echo the input"
    if rec.get("t") != t or rec.get("n") != n:
        return "wrong t or n"
    if rec.get("verdict") != item["verdict"]:
        return f"verdict {rec.get('verdict')}, expected {item['verdict']}"
    if not isinstance(rec.get("lambda1"), (int, float)) or not _close(rec["lambda1"], item["lambda1"]):
        return f"lambda1 {rec.get('lambda1')}, expected {item['lambda1']}"
    if not isinstance(rec.get("threshold"), (int, float)) or not _close(rec["threshold"], item["threshold"]):
        return f"threshold {rec.get('threshold')}, expected {item['threshold']}"
    cross = rec.get("cross_check")
    if (cross is not None) != (n <= 10):
        return "cross_check present iff n <= 10 expected"
    if cross is not None:
        return _cross_check(cross, rec["verdict"], t, from_graph6(g6))
    return None


def _components(adj: list[int], remaining: int) -> int:
    count = 0
    while remaining:
        comp = frontier = remaining & -remaining
        while frontier:
            grown = 0
            for v in range(len(adj)):
                if frontier >> v & 1:
                    grown |= adj[v]
            frontier = grown & remaining & ~comp
            comp |= frontier
        remaining &= ~comp
        count += 1
    return count


def _cross_check(cross: dict, verdict: str, t: int, adj: list[int]) -> str | None:
    tough, witness = cross.get("tough"), cross.get("witness")
    if verdict == "certified-tough" and tough is not True:
        return "certified graph reported not tough"
    if verdict == "exceptional" and tough is not False:
        return "exceptional graph reported tough"
    if tough is True:
        return None if witness is None else "tough graph carries a witness"
    if not witness or not all(isinstance(v, int) and 0 <= v < len(adj) for v in witness):
        return "not-tough verdict without a valid witness cut"
    cut = sum(1 << v for v in set(witness))
    if _components(adj, ((1 << len(adj)) - 1) & ~cut) <= t * len(set(witness)):
        return "witness cut does not violate 1/t-toughness"
    return None
