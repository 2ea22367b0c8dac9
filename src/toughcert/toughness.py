"""Exact toughness by exhaustive cut enumeration.

Toughness is min |S| / c(G - S) over vertex cuts S whose removal
disconnects the graph; complete graphs have no such cut and their
toughness is infinite.  All comparisons are done in integers so the
reported value is exact, and witnesses are deterministic: cuts are
scanned by increasing size, lexicographically within a size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import DomainError, SizeLimitError
from .graphs import Graph, _component_masks, is_connected

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


def _check_input(g: Graph, max_order: int) -> None:
    if g.n > max_order:
        raise SizeLimitError(
            f"order {g.n} exceeds the exhaustive limit {max_order}"
        )
    if not is_connected(g):
        raise DomainError("toughness is defined for connected graphs only")


def _cut_counts(g: Graph):
    """Yield ``(cut, c(G - S))`` for every vertex set S of size 1..n-2,
    in (size, lexicographic) order.  Consumers stop it on their own
    rules; ``c`` may be 1 for cuts that do not disconnect."""
    full = (1 << g.n) - 1
    for size in range(1, g.n - 1):
        for cut in combinations(range(g.n), size):
            smask = 0
            for v in cut:
                smask |= 1 << v
            yield cut, len(_component_masks(g.adj, full ^ smask))


def toughness_exact(g: Graph, max_order: int = EXHAUSTIVE_LIMIT) -> ToughnessResult:
    """Exact toughness of a connected graph of order <= ``max_order``."""
    _check_input(g, max_order)
    n = g.n
    full = (1 << n) - 1
    if all(row == full ^ (1 << v) for v, row in enumerate(g.adj)):
        return ToughnessResult(infinite=True)
    best_num = best_den = 0
    witness: tuple[int, ...] | None = None
    for cut, c in _cut_counts(g):
        size = len(cut)
        # every later ratio is at least size/(n - size), so stop once
        # even that floor cannot beat the current minimum
        if witness is not None and size * best_den >= best_num * (n - size):
            break
        if c >= 2 and (witness is None or size * best_den < best_num * c):
            best_num, best_den, witness = size, c, cut
    return ToughnessResult(False, best_num, best_den, witness)


def is_one_over_t_tough(
    g: Graph, t, max_order: int = EXHAUSTIVE_LIMIT
) -> tuple[bool, tuple[int, ...] | None]:
    """Whether every cut S satisfies t |S| >= c(G - S).

    ``t`` may be an integer or a Fraction; the comparison is exact.
    Returns ``(True, None)`` or ``(False, witness_cut)`` with the first
    violating cut in (size, lexicographic) scan order.
    """
    _check_input(g, max_order)
    frac = Fraction(t)
    if frac <= 0:
        raise DomainError("t must be positive")
    tn, td = frac.numerator, frac.denominator
    n = g.n
    for cut, c in _cut_counts(g):
        size = len(cut)
        # c(G - S) <= n - size, so sizes with t*size >= n - size are safe
        if tn * size >= td * (n - size):
            break
        if c >= 2 and tn * size < td * c:
            return False, cut
    return True, None
