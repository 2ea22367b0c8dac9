"""Seeded inputs for the certify workloads.

Everything here is independent of the package under test: graphs are
neighbour bitmask lists built by hand, graph6 is written by this
module's own encoder, and the verdict each graph should get is decided
with ``numpy.linalg.eigvalsh`` and ``numpy.roots``.  Counts per class
and order are fixed, so the seed only changes which graphs of each kind
appear; that keeps the cost of a stream nearly the same for every seed.
"""

from __future__ import annotations

import random
from itertools import combinations

import numpy as np

# A graph whose spectral radius lies this close to the threshold could
# get either verdict within the program's own tolerances, so the
# generator never emits one unless it is a constructed extremal graph.
MARGIN = 1e-6

TS = (1, 2, 3)

# certify-small: per t, (class, orders, count per order).  Order 10
# weighs most because the exact toughness oracle, which this workload
# exists to exercise, costs most there.
SMALL_MIX = (
    ("random", (7, 8), 50),
    ("random", (9,), 100),
    ("random", (10,), 200),
    ("near", range(7, 11), 25),
    ("extremal", range(7, 11), 3),
)

# certify-large: per t, (class, orders, count per order); small_gap
# takes each of its shapes ``count`` times instead.  small_gap graphs
# are rare but slow (power iteration on a spectral gap of 0.05-0.1);
# their share is sized so they carry about a third of the stream's time
# and the 99th percentile of record gaps lies inside the class.
LARGE_MIX = (
    ("dense", range(16, 63, 2), 6),
    ("sparse", range(16, 63, 2), 6),
    ("near", range(16, 63, 4), 6),
    ("extremal", range(16, 63, 8), 2),
    ("small_gap", None, 3),
)

MIXES = {"certify-small": SMALL_MIX, "certify-large": LARGE_MIX}


def to_graph6(adj: list[int]) -> str:
    """Short-form graph6 of a neighbour-bitmask list (order <= 62)."""
    n = len(adj)
    bits = [adj[j] >> i & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        v = 0
        for b in bits[k:k + 6]:
            v = v << 1 | b
        out.append(chr(v + 63))
    return "".join(out)


def from_graph6(text: str) -> list[int]:
    """Inverse of ``to_graph6``; used only by the output checks."""
    n = ord(text[0]) - 63
    bits = []
    for ch in text[1:]:
        v = ord(ch) - 63
        bits.extend(v >> s & 1 for s in range(5, -1, -1))
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return adj


def matrix(adj: list[int]) -> np.ndarray:
    n = len(adj)
    return np.array([[adj[i] >> j & 1 for j in range(n)] for i in range(n)], dtype=float)


def radius(adj: list[int]) -> float:
    return float(np.linalg.eigvalsh(matrix(adj))[-1])


def threshold(t: int, n: int) -> float:
    roots = np.roots([1.0, -(n - t - 2), -(n - 1), t * (n - t - 2)])
    return float(max(r.real for r in roots if abs(r.imag) < 1e-9))


def connected(adj: list[int]) -> bool:
    full = (1 << len(adj)) - 1
    seen = frontier = 1
    while frontier:
        grown = 0
        for v in range(len(adj)):
            if frontier >> v & 1:
                grown |= adj[v]
        frontier = grown & ~seen
        seen |= frontier
    return seen == full


def _from_edges(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _relabel(adj: list[int], rng: random.Random) -> list[int]:
    n = len(adj)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [0] * n
    for v in range(n):
        for u in range(n):
            if adj[v] >> u & 1:
                out[perm[v]] |= 1 << perm[u]
    return out


def extremal(t: int, n: int) -> list[int]:
    """K1 v (K_{n-t-1} u tK1): hub 0, clique 1..n-t-1, then t pendants."""
    clique = range(1, n - t)
    edges = [(0, v) for v in range(1, n)] + list(combinations(clique, 2))
    return _from_edges(n, edges)


def _gnp(n: int, p: float, rng: random.Random) -> list[int]:
    while True:
        adj = _from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        if connected(adj):
            return adj


def _near(t: int, n: int, rng: random.Random) -> list[int]:
    """The extremal graph with one edge added or one removed, kept
    connected."""
    adj = extremal(t, n)
    clique = list(range(1, n - t))
    pendants = list(range(n - t, n))
    moves = [("add", p, c) for p in pendants for c in clique]
    moves += [("add", a, b) for a, b in combinations(pendants, 2)]
    if len(clique) >= 2:
        moves += [("drop", a, b) for a, b in combinations(clique, 2)]
        moves += [("drop", 0, c) for c in clique]
    op, u, v = rng.choice(moves)
    if op == "add":
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    else:
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
    return adj


def small_gap_shapes() -> list[tuple[int, int, int, int]]:
    """(a, L, b, pendant) barbells: K_a and K_b joined through a path of
    L inner vertices, plus one leaf on vertex ``pendant``; order 12-16,
    spectral gap 0.05-0.1.  The leaf sits off the barbell's mirror axis,
    so the all-ones start vector does not already miss the second
    eigenvector."""
    shapes = []
    for a in range(3, 9):
        for b in range(3, a + 1):
            for L in range(0, 6):
                if not 11 <= a + b + L <= 15:
                    continue
                for pend in (0, a - 1):
                    w = np.linalg.eigvalsh(matrix(_barbell(a, L, b, pend)))
                    if 0.05 <= w[-1] - w[-2] <= 0.1:
                        shapes.append((a, L, b, pend))
    return shapes


def _barbell(a: int, L: int, b: int, pend: int) -> list[int]:
    n = a + L + b
    edges = list(combinations(range(a), 2)) + list(combinations(range(a + L, n), 2))
    chain = [a - 1, *range(a, a + L), a + L]
    edges += list(zip(chain, chain[1:]))
    edges.append((pend, n))
    return _from_edges(n + 1, edges)


def _one(kind: str, t: int, n: int, rng: random.Random) -> list[int]:
    if kind == "random":
        return _gnp(n, rng.uniform(0.3, 0.95), rng)
    if kind == "dense":
        return _gnp(n, rng.uniform(0.85, 0.99), rng)
    if kind == "sparse":
        return _gnp(n, rng.uniform(0.2, 0.85), rng)
    if kind == "near":
        return _near(t, n, rng)
    if kind == "extremal":
        return extremal(t, n)
    raise ValueError(kind)


def _item(kind: str, t: int, adj: list[int], rng: random.Random) -> dict:
    lam, eta = radius(adj), threshold(t, len(adj))
    if kind == "extremal":
        verdict = "exceptional"
    else:
        verdict = "certified-tough" if lam > eta else "inconclusive"
    return {"graph6": to_graph6(_relabel(adj, rng)), "class": kind,
            "verdict": verdict, "lambda1": lam, "threshold": eta}


def generate(workload: str, seed: int, mix=None) -> dict:
    """Inputs for one run: per t, a shuffled list of graphs, each with
    its class, expected verdict, spectral radius and threshold.  ``mix``
    replaces the workload's class mix (the self-check uses a tiny one)."""
    rng = random.Random(f"{workload}:{seed}")
    shapes = small_gap_shapes() if workload == "certify-large" else []
    streams = {}
    for k, t in enumerate(TS):
        items = []
        for kind, orders, count in mix or MIXES[workload]:
            if kind == "small_gap":
                # the same shapes every seed, split over t; the seed
                # only relabels them and places them in the stream
                for shape in shapes[k::len(TS)]:
                    items += [_item(kind, t, _barbell(*shape), rng) for _ in range(count)]
                continue
            for n in orders:
                for _ in range(count):
                    while True:
                        adj = _one(kind, t, n, rng)
                        if kind == "extremal" or abs(radius(adj) - threshold(t, n)) > MARGIN:
                            break
                    items.append(_item(kind, t, adj, rng))
        rng.shuffle(items)
        streams[t] = items
    return streams


def counts(streams: dict) -> dict:
    """Graph counts per class and per order, summed over t."""
    by_class: dict[str, int] = {}
    by_order: dict[str, int] = {}
    for items in streams.values():
        for item in items:
            by_class[item["class"]] = by_class.get(item["class"], 0) + 1
            n = str(ord(item["graph6"][0]) - 63)
            by_order[n] = by_order.get(n, 0) + 1
    return {"per_class": dict(sorted(by_class.items())),
            "per_order": dict(sorted(by_order.items(), key=lambda kv: int(kv[0])))}
