"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the package's own algorithms:
component counts grow each component one vertex at a time from a
worklist held as a Python-int vertex set (checked against a plain-set
count), where the package grows whole frontiers or reads tables, eigenvalues
come from numpy's LAPACK bindings on a matrix built entry by entry, and
``radius_below`` brackets the largest eigenvalue without LAPACK at all,
in exact rational arithmetic.  Cut enumeration has no pruning,
isomorphism is brute permutation search, the sharpness example is
recognized by splitting G - hub into components where the package reads
its rows, its labelings are listed pair by pair where the package ANDs
whole masks, the graph6 codec works on a flat list of bits, and
``cubic_sign`` evaluates a cubic in Fractions.
``cut_levels`` is the exception: it reads the package's component
table (checked against ``brute_components`` on its own), but scans one
cut at a time where the package splits at vertex 0.
``recursion_levels`` reads that table too and recurses on cut size over
the whole table, where the package recurses on order, row by row.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import numpy as np

from toughcert import Graph, from_edges
from toughcert.verify import _comps_table, _edge_order, mask_of_graph


def neighbor_sets(g: Graph) -> list[set[int]]:
    return [{u for u in range(g.n) if g.adj[v] >> u & 1} for v in range(g.n)]


def brute_components(g: Graph, removed: set[int]) -> int:
    left = (1 << g.n) - 1
    for v in removed:
        left &= ~(1 << v)
    return _count_components(g.adj, left)


def _count_components(nbrs, left: int) -> int:
    """Components induced on the vertex bitset ``left``: each grows from
    its lowest vertex, expanding one vertex at a time off a bitset of
    vertices still to expand."""
    count = 0
    while left:
        stack = seen = left & -left
        while stack:
            low = stack & -stack
            stack ^= low
            fresh = nbrs[low.bit_length() - 1] & left & ~seen
            seen |= fresh
            stack |= fresh
        left &= ~seen
        count += 1
    return count


def set_components(nbrs: list[set[int]], left: set[int]) -> int:
    """The same count on Python sets, kept as the reference the bitset
    count is checked against."""
    count = 0
    while left:
        stack = [next(iter(left))]
        seen = {stack[0]}
        while stack:
            v = stack.pop()
            for u in nbrs[v]:
                if u in left and u not in seen:
                    seen.add(u)
                    stack.append(u)
        left -= seen
        count += 1
    return count


def brute_connected(g: Graph) -> bool:
    return brute_components(g, set()) == 1


def bfs_extremal(g: Graph, t: int) -> bool:
    """Whether ``g`` is K1 v (K_{n-t-1} u tK1), by splitting G - hub into
    its components: one dominating vertex whose removal leaves a clique
    of order n - t - 1 plus t isolated vertices."""
    nbrs = neighbor_sets(g)
    hubs = [v for v in range(g.n) if len(nbrs[v]) == g.n - 1]
    if len(hubs) != 1:
        return False
    left = set(range(g.n)) - set(hubs)
    comps = []
    while left:
        stack = [min(left)]
        seen = {stack[0]}
        while stack:
            for u in nbrs[stack.pop()] & left - seen:
                seen.add(u)
                stack.append(u)
        comps.append(seen)
        left -= seen
    if sorted(len(c) for c in comps) != sorted([g.n - t - 1] + [1] * t):
        return False
    return all(nbrs[v] & c == c - {v} for c in comps for v in c)


def brute_toughness_witness(g: Graph) -> tuple[int, int, tuple[int, ...]] | None:
    """(|S|, c(G - S), S) of the first cut S, in (size, lexicographic)
    order, with the least ratio |S| / c(G - S), compared by cross
    multiplication; None means infinite (complete graph).  No pruning at
    all."""
    full = (1 << g.n) - 1
    vertices = [1 << v for v in range(g.n)]
    best = None
    for size in range(1, g.n):
        for cut in combinations(vertices, size):
            c = _count_components(g.adj, full - sum(cut))
            if c >= 2 and (best is None or size * best[1] < best[0] * c):
                best = (size, c, cut)
    return None if best is None else (*best[:2], tuple(v.bit_length() - 1 for v in best[2]))


def brute_toughness(g: Graph) -> Fraction | None:
    """None means infinite (complete graph)."""
    best = brute_toughness_witness(g)
    return None if best is None else Fraction(*best[:2])


def cut_levels(n: int, masks: np.ndarray, smax: int) -> np.ndarray:
    """Toughness level (uint8) of the order-``n`` graphs (n <= 8) with
    int64 edge ``masks``: the largest floor((c(G - S) - 1) / |S|) over
    cuts S with 1 <= |S| <= ``smax``, one cut at a time.  ANDing the
    masks with the pairs that avoid S isolates S, so the order-7
    component table reads c(G - S) + |S|; at order 8 each cut's lowest
    vertex is first deleted, pair by pair, and the table reads one less."""
    r = min(n, 7)
    table = _comps_table(r)
    dropped = n - r

    def avoiding(cut) -> int:
        return sum(1 << e for e, (a, b) in enumerate(_edge_order(r)) if a not in cut and b not in cut)

    best = np.zeros((smax + 1, masks.size), dtype=np.uint8)
    for drop in combinations(range(n), dropped):
        base = masks
        if drop:
            edge_pos = {pair: e for e, pair in enumerate(_edge_order(n))}
            rest = [v for v in range(n) if v not in drop]
            base = np.zeros(masks.size, dtype=np.int64)
            for k, (a, b) in enumerate(_edge_order(r)):
                base |= ((masks >> edge_pos[rest[a], rest[b]]) & 1) << k
        # the rest of the cut lies above the deleted vertices, whose
        # labels in the remainder are shifted down by ``dropped``
        above = range(max(drop, default=-1) + 1 - dropped, r)
        for size in range(max(dropped, 1), smax + 1):
            for cut in combinations(above, size - dropped):
                np.maximum(best[size], table[base & avoiding(cut)], out=best[size])
    level = np.zeros(masks.size, dtype=np.uint8)
    reading = np.arange(256)
    for size in range(1, smax + 1):
        # a reading of c + size - dropped is level floor((c - 1) / size)
        lookup = np.maximum((reading - (size - dropped) - 1) // size, 0).astype(np.uint8)
        np.maximum(level, lookup[best[size]], out=level)
    return level


def recursion_levels(r: int, deleted: int):
    """Yield the level tables (uint8, every mask of order ``r``) for cuts
    of up to cap = 0, 1, ..., r - 1 vertices in turn, by a recursion on
    cut size (the package recurses on order), done the plain way:
    T_k[mask] = max over v of T_{k-1}[mask & avoid(v)], one gather per
    vertex over the whole table into a fresh array, no blocks and no
    runs."""
    masks = np.arange(1 << (r * (r - 1) // 2), dtype=np.int64)
    avoid = [
        sum(1 << e for e, (a, b) in enumerate(_edge_order(r)) if v not in (a, b))
        for v in range(r)
    ]
    reading = _comps_table(r).copy()
    level = np.zeros(masks.size, dtype=np.uint8)
    yield level
    for size in range(1, r):
        isolated = size - deleted
        if isolated:
            gathered = [reading[masks & a] for a in avoid]
            reading = np.maximum.reduce(gathered)
        # a reading of c + isolated is level floor((c - 1) / size)
        lookup = np.maximum((np.arange(256) - isolated - 1) // size, 0).astype(np.uint8)
        level = np.maximum(level, lookup[reading])
        yield level


def eig_radius(g: Graph) -> float:
    a = np.zeros((g.n, g.n))
    for v in range(g.n):
        for u in range(g.n):
            if g.adj[v] >> u & 1:
                a[v, u] = 1.0
    return float(np.linalg.eigvalsh(a)[-1])


def radius_below(g: Graph, x: float) -> bool:
    """Whether every adjacency eigenvalue of ``g`` lies strictly below
    ``x``.  That holds exactly when xI - A is positive definite, which by
    Sylvester's criterion holds exactly when Gaussian elimination without
    pivoting keeps every pivot positive; the elimination runs in exact
    Fractions."""
    n = g.n
    m = [
        [Fraction(x) if u == v else Fraction(-(g.adj[v] >> u & 1)) for u in range(n)]
        for v in range(n)
    ]
    for k in range(n):
        pivot = m[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            f = m[i][k] / pivot
            if f:
                for j in range(k + 1, n):
                    m[i][j] -= f * m[k][j]
    return True


def eigvals_desc(matrix) -> list[float]:
    return [float(x) for x in np.linalg.eigvalsh(np.asarray(matrix, float))[::-1]]


def cubic_roots(coeffs) -> list[float]:
    """Real parts of the roots of a cubic, ascending (all roots of the
    cubics under test are real)."""
    return sorted(float(r.real) for r in np.roots(coeffs))


def connected_count(n: int) -> int:
    """Number of connected labeled graphs, by inclusion-exclusion on the
    component of vertex 1."""
    counts = [0] * (n + 1)
    for m in range(1, n + 1):
        total = 2 ** comb(m, 2)
        for k in range(1, m):
            total -= comb(m - 1, k - 1) * counts[k] * 2 ** comb(m - k, 2)
        counts[m] = total
    return counts[n]


def isomorphic(g: Graph, h: Graph) -> bool:
    """Brute permutation search with a degree-sequence gate; for test
    orders (n <= 8) only."""
    if g.n != h.n:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    hdeg = h.degrees()
    gdeg = g.degrees()
    for perm in permutations(range(g.n)):
        if any(gdeg[v] != hdeg[perm[v]] for v in range(g.n)):
            continue
        if all(
            (g.adj[v] >> u & 1) == (h.adj[perm[v]] >> perm[u] & 1)
            for v in range(g.n)
            for u in range(v + 1, g.n)
        ):
            return True
    return False


def labelings_masks(g: Graph) -> set[int]:
    """Edge masks of every labeled copy of ``g`` (all vertex
    permutations), in the verifier's mask convention."""
    out = set()
    for perm in permutations(range(g.n)):
        edges = [(perm[u], perm[v]) for (u, v) in g.edges()]
        out.add(mask_of_graph(from_edges(g.n, edges)))
    return out


def enumerated_extremal_masks(n: int, t: int) -> list[int]:
    """Sorted edge masks of every labeling of K1 v (K_{n-t-1} u tK1),
    one pair at a time: for each hub and set of t leaves, a pair is an
    edge iff it meets the hub or misses every leaf."""
    found = set()
    for hub in range(n):
        for leaves in combinations([v for v in range(n) if v != hub], t):
            found.add(sum(
                1 << e for e, pair in enumerate(_edge_order(n))
                if hub in pair or not set(pair) & set(leaves)
            ))
    return sorted(found)


def graph6_encode(g: Graph) -> str:
    """graph6 written from a flat bit list: pair (i, j) with i < j,
    ordered by j and then i, six bits per character.  The order is one
    character up to 62, else '~' and three characters of 18 bits."""
    order = format(g.n, "018b")
    head = chr(g.n + 63) if g.n <= 62 else "~" + "".join(
        chr(int(order[k : k + 6], 2) + 63) for k in (0, 6, 12))
    bits = [g.adj[j] >> i & 1 for j in range(1, g.n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    groups = ["".join(map(str, bits[k : k + 6])) for k in range(0, len(bits), 6)]
    return head + "".join(chr(int(b, 2) + 63) for b in groups)


def graph6_decode(text: str) -> list[set[int]]:
    """Neighbor sets of a graph6 string (short or long form), read bit
    by bit in the same pair order as ``graph6_encode``."""
    if text[0] == "~":
        n = int("".join(format(ord(ch) - 63, "06b") for ch in text[1:4]), 2)
        body = text[4:]
    else:
        n = ord(text[0]) - 63
        body = text[1:]
    bits = [int(b) for ch in body for b in format(ord(ch) - 63, "06b")]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for (i, j), bit in zip(pairs, bits):
        if bit:
            nbrs[i].add(j)
            nbrs[j].add(i)
    return nbrs


def cubic_sign(coeffs, x) -> int:
    """Exact sign of the cubic with float coefficients ``coeffs``
    (highest degree first) at the float or Fraction ``x``, by Horner's
    rule in Fractions."""
    x = Fraction(x)
    v = Fraction(0)
    for c in coeffs:
        v = v * x + Fraction(c)
    return (v > 0) - (v < 0)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return from_edges(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float) -> Graph:
    while True:
        g = random_graph(rng, n, p)
        if brute_connected(g):
            return g
