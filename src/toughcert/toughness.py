"""Exact toughness from one all-subset component pass.

Toughness is min |S| / c(G - S) over vertex cuts S whose removal
disconnects the graph; complete graphs have no such cut and their
toughness is infinite.  Checking it exactly means reading c(G - S) for
every cut, so each graph gets one vectorised pass over all 2^n vertex
subsets U:

- the closed neighbourhood union nb[U] (U and its neighbours) comes
  from two half-tables, one over the low and one over the high
  vertices, joined by an outer OR;
- the component R[U] of U's lowest vertex in G[U] grows as
  R <- nb[R] & U until no entry changes;
- c(G[U]) is the number of steps from U to 0 along U -> U ^ R[U],
  followed only from the sets V - S of the cuts being asked about.

Cuts and their sets V - S are read from arrays cached per order in
(size, lexicographic) order, so witnesses are the first cut in that
order.  The least ratio |S| / c(G - S) is found among floats, which
order the ratios of orders up to the limit exactly; the value is exact.

``is_one_over_t_tough`` reads a cut plan cached per (n, t): the cuts
that can violate t |S| >= c(G - S), their sets V - S, the count each
must exceed, and per cut size the degree bound below.  A call first
reads the graph's sorted degree sequence: a cut S of size s that leaves
at least k components has a vertex of degree at most s + |C_i| - 1 in
each component C_i, so the k smallest degrees sum to at most
n - s + k (s - 1) (Chvatal, "Tough graphs and Hamiltonian circuits",
1973).  When the degrees exceed that bound for every size, no cut can
violate and the call answers without any table.  Otherwise it builds
the graph's tables and compares, over the same plan, so witnesses do
not depend on the rule.  ``certify`` has already checked connectivity,
so it enters through ``_one_over_t_tough``, which skips that check.
Every entry point refuses orders above ``EXHAUSTIVE_LIMIT`` (20) with
``SizeLimitError``; the limit is a constant, and the per-order caches
are sized for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb

import numpy as np

from .errors import DomainError, SizeLimitError
from .graphs import Graph, _bits, is_connected

__all__ = ["EXHAUSTIVE_LIMIT", "ToughnessResult", "toughness_exact", "is_one_over_t_tough"]

# Above this order the subset scan refuses rather than approximating.
EXHAUSTIVE_LIMIT = 20


@dataclass(frozen=True)
class ToughnessResult:
    """Either infinite (complete graph) or the exact minimum
    ``numerator / denominator`` = |S| / c(G - S), with the first witness
    cut in (size, lexicographic) scan order.  The ratio is kept
    unreduced so the witness arithmetic stays visible."""

    infinite: bool
    numerator: int | None = None
    denominator: int | None = None
    witness: tuple[int, ...] | None = None

    def value(self) -> Fraction | None:
        if self.infinite:
            return None
        return Fraction(self.numerator, self.denominator)

    def is_at_least(self, bound) -> bool:
        if self.infinite:
            return True
        return self.value() >= Fraction(bound)

    def __str__(self) -> str:
        if self.infinite:
            return "infinite"
        return f"{self.numerator}/{self.denominator}"


def _check_order(g: Graph) -> None:
    if g.n > EXHAUSTIVE_LIMIT:
        raise SizeLimitError(
            f"order {g.n} exceeds the exhaustive limit {EXHAUSTIVE_LIMIT}"
        )


def _check_input(g: Graph) -> None:
    _check_order(g)
    if not is_connected(g):
        raise DomainError("toughness is defined for connected graphs only")


def _unions(values) -> np.ndarray:
    """OR of ``values[v]`` over the set bits v of U, for every U in
    ``[0, 2**len(values))``: the outer OR of a half-table over the high
    vertices and one over the low vertices."""

    def half(part):
        table = [0]
        for x in part:
            table += [y | x for y in table]
        return np.array(table, dtype=np.int64)

    k = len(values) // 2
    return np.bitwise_or.outer(half(values[k:]), half(values[:k])).ravel()


# The per-order arrays are cached for every order up to the limit, so a
# stream of mixed orders builds each once; their memory is ruled by the
# largest orders, which any cache that serves them holds anyway.
_ORDERS = EXHAUSTIVE_LIMIT + 1


# int64 masks index the tables directly; 2^n entries bound n far below 63
@lru_cache(maxsize=_ORDERS)
def _subsets(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every vertex subset U of order ``n`` and its lowest vertex bit."""
    subsets = np.arange(1 << n, dtype=np.int64)
    return subsets, subsets & -subsets


@lru_cache(maxsize=_ORDERS)
def _cut_order(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks, sets V - S and sizes of every cut S with
    1 <= |S| <= n - 2, in (size, lexicographic) order.  Among sets of one
    size, lexicographic order of the sorted vertex tuples is descending
    order of the bit-reversed mask, so one sort on (size, complement of
    the reversed mask) gives it."""
    masks = _subsets(n)[0]
    sizes = np.bitwise_count(masks)
    full = (1 << n) - 1
    rev = _unions([1 << (n - 1 - v) for v in range(n)])
    order = np.argsort((sizes.astype(np.int64) << n) | (full ^ rev))
    # the empty set sorts first, sizes n - 1 and n (n + 1 sets) last
    order = order[1 : -(n + 1)]
    cuts = masks[order]
    return cuts, full ^ cuts, sizes[order]


@lru_cache(maxsize=8)
def _cut_plan(
    n: int, tn: int, td: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[tuple[int, int], ...]]:
    """The cuts S of order ``n`` that can violate t |S| >= c(G - S) for
    t = tn / td, in (size, lexicographic) order, with their sets V - S
    and the count c(G - S) must exceed for S to violate it; and, for
    each of their sizes s, the pair (k, bound) that ``_degrees_rule_out``
    reads."""
    cuts, rests, sizes = _cut_order(n)
    # c(G - S) <= n - |S|, so only sizes with t |S| < n - |S| can violate
    top = min((td * n - 1) // (tn + td), n - 2)
    # the cut order holds the C(n, s) cuts of each size s in turn
    k = sum(comb(n, s) for s in range(1, top + 1))
    # t s < c exactly when c > floor(t s); a violation also needs c >= 2
    floor = [max(1, tn * s // td) for s in range(top + 1)]
    # a violation leaves at least floor + 1 components, at most n - s
    # for every planned size s
    rule = tuple((f + 1, n - s + (f + 1) * (s - 1)) for s, f in enumerate(floor) if s)
    return cuts[:k], rests[:k], np.array(floor, dtype=np.uint8)[sizes[:k]], rule


def _degrees_rule_out(adj: tuple[int, ...], rule: tuple[tuple[int, int], ...]) -> bool:
    """Whether the degrees alone show that no cut S of any size s in
    ``rule`` leaves k or more components: for each pair (k, bound) the k
    smallest degrees sum above bound = n - s + k (s - 1).  Each component
    C_i of G - S holds a vertex whose neighbours lie in C_i and S, of
    degree at most s + |C_i| - 1, so k of the components give k distinct
    vertices whose degrees sum to at most (n - s) + k (s - 1).  An empty
    ``rule`` rules out everything."""
    # smallest[k] is the sum of the k smallest degrees
    smallest = list(accumulate(sorted(map(int.bit_count, adj)), initial=0))
    return all(smallest[k] > bound for k, bound in rule)


def _component_counts(g: Graph, rests: np.ndarray) -> np.ndarray:
    """c(G[U]) for every nonempty vertex set U in ``rests``."""
    # closed neighbourhoods: nb[R] & U is R | (N(R) & U) for R inside U
    nb = _unions([row | 1 << v for v, row in enumerate(g.adj)])
    subsets, low = _subsets(g.n)
    # the reach and the chains grow in place in copies of the cached
    # arrays; every index is in range, and mode="clip" writes ``out``
    # without the buffered copy the default mode makes.
    reach = low.copy()
    # each step only adds bits, so an unchanged sum is the fixed point
    total = None
    while True:
        nb.take(reach, out=reach, mode="clip")
        reach &= subsets
        before, total = total, int(reach.sum())
        if total == before:
            break
    # c(G[U]) counts the nonempty sets on the chain U, U ^ R[U], ...
    nxt = np.bitwise_xor(subsets, reach, out=reach)
    counts = np.ones(rests.size, dtype=np.uint8)
    rests = nxt[rests]
    while rests.any():
        counts += rests != 0
        nxt.take(rests, out=rests, mode="clip")
    return counts


def _witness(cut) -> tuple[int, ...]:
    return tuple(_bits(int(cut)))


def toughness_exact(g: Graph) -> ToughnessResult:
    """Exact toughness of a connected graph of order at most
    ``EXHAUSTIVE_LIMIT``."""
    _check_input(g)
    n = g.n
    full = (1 << n) - 1
    if all(row == full ^ (1 << v) for v, row in enumerate(g.adj)):
        return ToughnessResult(infinite=True)
    cuts, rests, sizes = _cut_order(n)
    counts = _component_counts(g, rests)
    # equal ratios s / c divide to equal floats, distinct ones with
    # c <= 20 differ by 1/400 or more: the first least float is exact
    i = int(np.argmin(np.where(counts >= 2, sizes / counts, np.inf)))
    return ToughnessResult(False, int(sizes[i]), int(counts[i]), _witness(cuts[i]))


def _one_over_t_tough(g: Graph, tn: int, td: int) -> tuple[bool, tuple[int, ...] | None]:
    """``is_one_over_t_tough`` for t = tn / td > 0 on a graph already
    known to be connected; only the order is checked.

    A graph whose degrees rule out every planned cut size (see
    ``_degrees_rule_out``) is 1/t-tough with no subset table built; a
    plan with no cuts rules out everything.  Any other graph gets the
    all-subset pass over the whole plan, so a non-tough graph's witness
    is the first violating cut in (size, lexicographic) order."""
    _check_order(g)
    cuts, rests, floor, rule = _cut_plan(g.n, tn, td)
    if _degrees_rule_out(g.adj, rule):
        return True, None
    violated = _component_counts(g, rests) > floor
    i = int(violated.argmax())
    if not violated[i]:
        return True, None
    return False, _witness(cuts[i])


def is_one_over_t_tough(g: Graph, t) -> tuple[bool, tuple[int, ...] | None]:
    """Whether every cut S satisfies t |S| >= c(G - S).

    ``t`` may be an integer or a Fraction; the comparison is exact.
    Returns ``(True, None)`` or ``(False, witness_cut)`` with the first
    violating cut in (size, lexicographic) scan order.
    """
    _check_input(g)
    # Fraction(True) == 1 would answer for t = 1
    if isinstance(t, bool):
        raise DomainError("t must be an integer or a Fraction, not a bool")
    frac = Fraction(t)
    if frac <= 0:
        raise DomainError("t must be positive")
    return _one_over_t_tough(g, frac.numerator, frac.denominator)
