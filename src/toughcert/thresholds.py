"""Certification thresholds and the structured graph families they
come from.

The sufficient condition implemented by this package compares the
largest adjacency eigenvalue of a connected graph of order n against
the largest root of the cubic

    x^3 - (n - t - 2) x^2 - (n - 1) x + t (n - t - 2),

which is exactly the largest adjacency eigenvalue of the dominating-
vertex graph K1 v (K_{n-t-1} u tK1).  The companion family
K_s v (K_{n-ts-s} u tsK1) and its quotient cubic drive the interlacing
argument, so both cubics and the small closed forms they reduce to
live here, next to the graph builders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, _check_int
from .graphs import Graph, complete, disjoint_union, empty, join

__all__ = [
    "Cubic",
    "ThresholdResult",
    "threshold_cubic",
    "threshold",
    "quotient_cubic",
    "complete_split_radius",
    "gap_factor",
    "gap_bound",
    "build_extremal",
    "JoinCliqueSpec",
    "build_join_cliques",
]


@dataclass(frozen=True)
class Cubic:
    """Cubic a3 x^3 + a2 x^2 + a1 x + a0 with an exact largest-root
    isolator."""

    a3: float
    a2: float
    a1: float
    a0: float

    def __call__(self, x: float) -> float:
        return ((self.a3 * x + self.a2) * x + self.a1) * x + self.a0

    def derivative(self, x: float) -> float:
        return (3.0 * self.a3 * x + 2.0 * self.a2) * x + self.a1

    def coefficients(self) -> tuple[float, float, float, float]:
        return (self.a3, self.a2, self.a1, self.a0)

    def largest_root_in(self, lo: float, hi: float) -> tuple[float, tuple[float, float]]:
        """Largest real root, correctly rounded, with a bracket of equal
        or adjacent floats that holds it exactly.

        The leading coefficient must be positive and the root must lie
        in [lo, hi].  ``_root_side`` tells exactly on which side of the
        root a point lies, so bisection on floats runs until the ends
        are adjacent (or meet at the root), and the side of their exact
        midpoint picks the nearer end.  p(hi) >= 0, and p(lo) <= 0 unless
        a second root lies between lo and the root.
        """
        coeffs = self.coefficients()
        if not all(map(math.isfinite, (*coeffs, lo, hi, hi - lo))):
            raise DomainError("cubic coefficients and bracket ends must be finite")
        if not self.a3 > 0.0:
            raise DomainError("leading coefficient must be positive")
        if not hi > lo:
            raise DomainError("empty root bracket")
        side = _root_side(coeffs)
        s_lo, s_hi = side(*lo.as_integer_ratio()), side(*hi.as_integer_ratio())
        if s_lo > 0:
            raise DomainError("no root in the bracket: the top root lies below it")
        if s_hi < 0:
            raise DomainError("the top root lies above the bracket")
        a, b = (hi if s_hi == 0 else lo), (lo if s_lo == 0 else hi)
        while a < (mid := a + (b - a) / 2.0) < b:
            s = side(*mid.as_integer_ratio())
            if s <= 0:
                a = mid
            if s >= 0:
                b = mid
        (ma, qa), (mb, qb) = a.as_integer_ratio(), b.as_integer_ratio()
        half = (ma * qb + mb * qa, 2 * qa * qb)  # exact midpoint of the ends
        s = side(*half)
        # int / int rounds correctly, so a tie goes to the even end
        return (b if s < 0 else a if s > 0 else half[0] / half[1]), (a, b)


def _root_side(coeffs: tuple[float, ...]):
    """Exact sign of x - r, as a function of x = m/q (q > 0), for the
    largest real root r of the cubic ``coeffs`` (leading coefficient
    positive).

    One power of two scales the dyadic coefficients to integers a, b, c,
    d, and p(m/q) has the sign of q^3 p(m/q).  Past the local minimum p
    rises through r, and so it does everywhere if r is the only real
    root.  With three real roots (discriminant >= 0) r is past the local
    minimum, so any x before it (3ax + b < 0 or p'(x) < 0) lies below r.
    """
    ratios = [c.as_integer_ratio() for c in coeffs]
    scale = max(q for _, q in ratios)
    a, b, c, d = (m * (scale // q) for m, q in ratios)
    disc = 18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3 - 27 * a * a * d * d

    def side(m: int, q: int) -> int:
        am, bq, qq = a * m, b * q, q * q
        v = ((am + bq) * m + c * qq) * m + d * qq * q
        if v >= 0 and disc >= 0 and (3 * am + bq < 0 or (3 * am + 2 * bq) * m + c * qq < 0):
            return -1
        return (v > 0) - (v < 0)

    return side


def _check_t_n(t: int, n: int) -> None:
    _check_int(t, "t must be a positive integer")
    _check_int(n, "order n must be an integer >= t + 2 = {}", t + 2)


def threshold_cubic(t: int, n: int) -> Cubic:
    """The certification cubic for (t, n)."""
    _check_t_n(t, n)
    return Cubic(1.0, -float(n - t - 2), -float(n - 1), float(t * (n - t - 2)))


@dataclass(frozen=True)
class ThresholdResult:
    """Certification threshold: the largest root of the cubic for
    (t, n), correctly rounded, together with the float bracket that
    holds it exactly (equal or adjacent ends)."""

    t: int
    n: int
    value: float
    bracket: tuple[float, float]


def threshold(t: int, n: int) -> ThresholdResult:
    """Largest root of the certification cubic on [n-t-1, n-1].

    n - 1 bounds every adjacency eigenvalue of an order-n graph, and
    the cubic is positive there for every t >= 1, while at n - t - 1 it
    is exactly -t, so the top root lies in the bracket;
    ``Cubic.largest_root_in`` isolates it exactly.  Results
    are memoised by ``(t, n)``; the arguments are checked first, so a
    bad or unhashable one raises ``DomainError``.
    """
    _check_t_n(t, n)
    return _threshold(t, n)


# a certify stream asks for one t and a handful of orders; the bound
# keeps a scan over many orders from growing the memo without limit
@lru_cache(maxsize=1024)
def _threshold(t: int, n: int) -> ThresholdResult:
    value, bracket = threshold_cubic(t, n).largest_root_in(float(n - t - 1), float(n - 1))
    return ThresholdResult(t, n, value, bracket)


def quotient_cubic(s: int, t: int, n: int) -> Cubic:
    """Characteristic cubic of the 3x3 quotient of
    K_s v (K_{n-ts-s} u tsK1) under its three orbit blocks."""
    _check_int(s, "s must be a positive integer")
    _check_int(t, "t must be a positive integer")
    _check_int(n, "order n must be an integer >= ts + s + 1 = {}", t * s + s + 1)
    return Cubic(
        1.0,
        -float(n - t * s - 2),
        -float(n + t * s * s - t * s - 1),
        float(t * s * s * (n - t * s - s - 1)),
    )


def complete_split_radius(s: int, t: int) -> float:
    """Largest adjacency eigenvalue of K_s v (ts+1)K1 in closed form:
    the positive root of x^2 - (s-1)x - s(ts+1)."""
    _check_int(s, "s must be a positive integer")
    _check_int(t, "t must be a positive integer")
    disc = (4 * t + 1) * s * s + 2 * s + 1
    return (s - 1 + math.sqrt(disc)) / 2.0


def gap_factor(s: int, t: int, n: int, x: float) -> float:
    """The quadratic factor by which the certification cubic exceeds the
    quotient cubic: (certification - quotient) = (s - 1) * gap_factor."""
    return float(
        -t * x * x
        + t * s * x
        - (t * s + t) * n
        + t * t * s * s
        + t * s * s
        + t * t * s
        + 2 * t * s
        + t * t
        + 2 * t
    )


def gap_bound(s: int, t: int, x: float) -> float:
    """Upper bound for ``gap_factor`` once n >= ts + s + 1; free of n."""
    return float(-t * x * x + t * s * x + t * t + t)


def build_extremal(t: int, n: int) -> Graph:
    """The dominating-vertex graph K1 v (K_{n-t-1} u tK1).

    Vertex 0 is the dominating vertex, 1..n-t-1 the clique, and the
    last t vertices are pendant.
    """
    _check_t_n(t, n)
    return join(complete(1), disjoint_union(complete(n - t - 1), empty(t)))


@dataclass(frozen=True)
class JoinCliqueSpec:
    """Shape of a join K_s v (K_{p1} u ... u K_{pc}); parts are
    nonincreasing positive clique orders."""

    s: int
    parts: tuple[int, ...]

    def __post_init__(self):
        _check_int(self.s, "s must be a positive integer")
        if not self.parts:
            raise DomainError("at least one clique part is required")
        for p in self.parts:
            _check_int(p, "clique parts must be positive integers")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise DomainError("clique parts must be nonincreasing")

    @property
    def order(self) -> int:
        return self.s + sum(self.parts)


def build_join_cliques(spec: JoinCliqueSpec) -> Graph:
    """Materialize K_s v (K_{p1} u ... u K_{pc}); the K_s block comes
    first, then the cliques in the order given."""
    body = complete(spec.parts[0])
    for p in spec.parts[1:]:
        body = disjoint_union(body, complete(p))
    return join(complete(spec.s), body)
