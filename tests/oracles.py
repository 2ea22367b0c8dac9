"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the package's own algorithms:
component counts run on vertex sets instead of bitmasks, eigenvalues
come from numpy's LAPACK bindings on a matrix built entry by entry, and
``radius_below`` brackets the largest eigenvalue without LAPACK at all,
in exact rational arithmetic.  Cut enumeration has no pruning,
isomorphism is brute permutation search, and the graph6 codec works on
a flat list of bits.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import numpy as np

from toughcert import Graph, from_edges
from toughcert.verify import mask_of_graph


def neighbor_sets(g: Graph) -> list[set[int]]:
    return [{u for u in range(g.n) if g.adj[v] >> u & 1} for v in range(g.n)]


def brute_components(g: Graph, removed: set[int]) -> int:
    nbrs = neighbor_sets(g)
    left = set(range(g.n)) - set(removed)
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


def brute_toughness(g: Graph) -> Fraction | None:
    """None means infinite (complete graph).  No pruning at all."""
    best: Fraction | None = None
    for size in range(1, g.n):
        for cut in combinations(range(g.n), size):
            c = brute_components(g, set(cut))
            if c < 2:
                continue
            ratio = Fraction(size, c)
            if best is None or ratio < best:
                best = ratio
    return best


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


def graph6_encode(g: Graph) -> str:
    """Short-form graph6 written from a flat bit list: pair (i, j) with
    i < j, ordered by j and then i, six bits per character."""
    bits = [g.adj[j] >> i & 1 for j in range(1, g.n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    groups = ["".join(map(str, bits[k : k + 6])) for k in range(0, len(bits), 6)]
    return chr(g.n + 63) + "".join(chr(int(b, 2) + 63) for b in groups)


def graph6_decode(text: str) -> list[set[int]]:
    """Neighbor sets of a short-form graph6 string, read bit by bit in
    the same pair order as ``graph6_encode``."""
    n = ord(text[0]) - 63
    bits = [int(b) for ch in text[1:] for b in format(ord(ch) - 63, "06b")]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for (i, j), bit in zip(pairs, bits):
        if bit:
            nbrs[i].add(j)
            nbrs[j].add(i)
    return nbrs


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
