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

from .errors import DomainError
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

# largest_root_in: grid points of the descending sign-change scan, and
# the bracket width at which bisection stops
_SCAN_POINTS = 256
_BISECTION_WIDTH = 1e-13


@dataclass(frozen=True)
class Cubic:
    """Monic-or-not cubic a3 x^3 + a2 x^2 + a1 x + a0 with a bracketed
    largest-root solver."""

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
        """Largest root in [lo, hi], with its final bisection bracket.

        The cubic must be nonnegative at ``hi`` (positive leading
        coefficient with ``hi`` at or beyond the top root).  A
        descending grid of ``_SCAN_POINTS`` steps locates the rightmost
        sign change, bisection narrows it to ``_BISECTION_WIDTH``, then two
        Newton steps polish the midpoint without leaving the bracket.
        Bisection also stops once the bracket ends are adjacent floats,
        which happens before that width for roots above about 512.
        """
        if not hi > lo:
            raise DomainError("empty root bracket")
        fhi = self(hi)
        if fhi < 0.0:
            raise DomainError("cubic is negative at the upper end of the bracket")
        if fhi == 0.0:
            return hi, (hi, hi)
        step = (hi - lo) / _SCAN_POINTS
        b = hi
        a = None
        for k in range(1, _SCAN_POINTS + 1):
            x = hi - k * step if k < _SCAN_POINTS else lo
            if self(x) <= 0.0:
                a = x
                break
            b = x
        if a is None:
            raise DomainError("no sign change: no root in the bracket")
        while b - a > _BISECTION_WIDTH:
            mid = (a + b) / 2.0
            if not a < mid < b:
                break
            if self(mid) <= 0.0:
                a = mid
            else:
                b = mid
        root = (a + b) / 2.0
        for _ in range(2):
            d = self.derivative(root)
            if d == 0.0:
                break
            step = self(root) / d
            candidate = root - step
            if not a <= candidate <= b:
                break
            root = candidate
        return root, (a, b)


# gamma_6 = 6u / (1 - 6u), with u = 2^-53 the unit roundoff of float64
_GAMMA_6 = 6 * 2.0**-53 / (1 - 6 * 2.0**-53)


def _check_t_n(t: int, n: int) -> None:
    if not isinstance(t, int) or t < 1:
        raise DomainError("t must be a positive integer")
    if not isinstance(n, int) or n < t + 2:
        raise DomainError(f"order n must be an integer >= t + 2 = {t + 2}")


def threshold_cubic(t: int, n: int) -> Cubic:
    """The certification cubic for (t, n)."""
    _check_t_n(t, n)
    return Cubic(1.0, -float(n - t - 2), -float(n - 1), float(t * (n - t - 2)))


@dataclass(frozen=True)
class ThresholdResult:
    """Certification threshold: the largest root of the cubic for
    (t, n), together with the bisection bracket that pinned it."""

    t: int
    n: int
    value: float
    bracket: tuple[float, float]


def threshold(t: int, n: int) -> ThresholdResult:
    """Largest root of the certification cubic on [0, n-1].

    n - 1 bounds every adjacency eigenvalue of an order-n graph, and
    the cubic is nonnegative there (zero only in the degenerate corner
    where n - 1 is itself the root), so the bracket is safe.  Results
    are memoised by ``(t, n)``; the arguments are checked first, so a
    bad or unhashable one raises ``DomainError``.
    """
    _check_t_n(t, n)
    return _threshold(t, n)


# a certify stream asks for one t and a handful of orders; the bound
# keeps a scan over many orders from growing the memo without limit
@lru_cache(maxsize=1024)
def _threshold(t: int, n: int) -> ThresholdResult:
    cubic = threshold_cubic(t, n)
    value, bracket = cubic.largest_root_in(0.0, float(n - 1))
    # Horner's a-priori rounding bound gamma_6 * sum |a_i| |x|^i for a
    # cubic (Higham, Accuracy and Stability of Numerical Algorithms,
    # 5.1): it grows like n^3, as the evaluation error does
    resid = abs(cubic(value))
    x = abs(value)
    bound = _GAMMA_6 * (
        ((abs(cubic.a3) * x + abs(cubic.a2)) * x + abs(cubic.a1)) * x + abs(cubic.a0)
    )
    if resid > bound:
        raise ArithmeticError(f"threshold root residual {resid:.3e} above {bound:.3e}")
    return ThresholdResult(t, n, value, bracket)


def quotient_cubic(s: int, t: int, n: int) -> Cubic:
    """Characteristic cubic of the 3x3 quotient of
    K_s v (K_{n-ts-s} u tsK1) under its three orbit blocks."""
    if not isinstance(s, int) or s < 1:
        raise DomainError("s must be a positive integer")
    if not isinstance(t, int) or t < 1:
        raise DomainError("t must be a positive integer")
    if not isinstance(n, int) or n < t * s + s + 1:
        raise DomainError(f"order n must be an integer >= ts + s + 1 = {t*s + s + 1}")
    return Cubic(
        1.0,
        -float(n - t * s - 2),
        -float(n + t * s * s - t * s - 1),
        float(t * s * s * (n - t * s - s - 1)),
    )


def complete_split_radius(s: int, t: int) -> float:
    """Largest adjacency eigenvalue of K_s v (ts+1)K1 in closed form:
    the positive root of x^2 - (s-1)x - s(ts+1)."""
    if not isinstance(s, int) or s < 1:
        raise DomainError("s must be a positive integer")
    if not isinstance(t, int) or t < 1:
        raise DomainError("t must be a positive integer")
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
        if not isinstance(self.s, int) or self.s < 1:
            raise DomainError("s must be a positive integer")
        if not self.parts:
            raise DomainError("at least one clique part is required")
        for p in self.parts:
            if not isinstance(p, int) or p < 1:
                raise DomainError("clique parts must be positive integers")
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
