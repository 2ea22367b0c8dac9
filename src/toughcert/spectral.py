"""Dense symmetric eigenvalue routines sized for small graphs.

Full spectra come from LAPACK's ``eigh`` through ``numpy.linalg``, with
the residual ||AV - V diag(w)||_F measured and reported.  Largest
adjacency eigenvalues come from ``eigvalsh`` (one call for a whole stack
of matrices), except that ``spectral_radius`` first tries repeated
squaring on orders where that is faster, and keeps its answer only when
a Collatz-Wielandt bracket shows that ``eigvalsh`` would print the same
digits and fall on the same side of every value the caller compares
against.  The squaring reaches (A + I)^16 e0 with three products and
one matrix-vector product, then takes one product and one
matrix-vector product per bracket.  Adjacency matrices are read from
the 0/1 matrix each graph keeps.  Quotient matrices, the equitability
test and quotient spectra all read one pass of row-into-block sums,
which checks the partition.  LAPACK failures surface as
``ConvergenceError``.  Full spectra are refused above ``DENSE_LIMIT``
(512) rows with ``SizeLimitError``; that limit and the equitability
tolerance are constants, not settings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import ConvergenceError, DomainError, SizeLimitError
from .graphs import Graph

__all__ = [
    "DENSE_LIMIT",
    "Spectrum",
    "adjacency_matrix",
    "spectral_radius",
    "spectral_radii",
    "full_spectrum",
    "quotient_matrix",
    "is_equitable",
    "quotient_spectrum",
    "quotient_radius_check",
]

DENSE_LIMIT = 512
# Block sums of a 0/1 adjacency matrix are small integers, summed
# exactly; the tolerance only absorbs rounding in a weighted matrix.
_EQUITABLE_TOL = 1e-9

# Orders on which spectral_radius tries repeated squaring before
# eigvalsh: below 24 eigvalsh is faster, and past about 250 the O(n^3)
# squarings no longer win (timings in CHANGES.md).
_SQUARING_ORDERS = range(24, 201)
# Squarings (powers 2^k of A + I, counted as k) after which an
# undecided bracket hands over to eigvalsh.
# Random graphs of orders 24-62 decide by the 9th; paths and cycles up
# to order 70, whose relative gap (lambda_1 - lambda_2)/(lambda_1 + 1)
# is about 0.002, by the 14th.  Smaller gaps, such as the barbells of
# the tests, need more.
_SQUARINGS_MAX = 14
_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2
_SMALLEST_NORMAL = float(np.finfo(float).tiny)


def _digits(x: float) -> str:
    """``x`` to the 12 significant digits every report prints: the CLI
    prints them, ``verify`` serializes them, and ``spectral_radius``
    stops squaring once a bracket's two ends print alike."""
    return f"{float(x):.12g}"


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Symmetric 0/1 adjacency matrix as a new float64 array."""
    return g._bitmatrix.astype(float)


# one per order in the squaring window
@lru_cache(maxsize=len(_SQUARING_ORDERS))
def _identity(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in nonincreasing order plus the measured residual
    ||AV - V diag(w)||_F of the eigendecomposition."""

    values: tuple[float, ...]
    tolerance: float

    @property
    def radius(self) -> float:
        return self.values[0]


def spectral_radii(adjacency: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each symmetric matrix in a (k, n, n) stack,
    in one solver call.  The stack may be float or of any 0/1 integer
    dtype: eigvalsh solves in float64 either way.  LAPACK solves the
    matrices one by one, so each value is the one a single-matrix call
    gives."""
    try:
        return np.linalg.eigvalsh(adjacency)[:, -1]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(str(exc)) from exc


def _perron_brackets(a: np.ndarray) -> Iterator[tuple[float, float, np.ndarray, np.ndarray]]:
    """Brackets [lo, hi] on the largest eigenvalue of the 0/1 symmetric
    matrix ``a``, each with the vector x it came from and Ax: one for
    x = (A + I)^(2^k) e0, row 0 of that power up to scale, at each k
    from 4 on.

    The shift makes the Perron root strictly dominant even on bipartite
    graphs (|lambda_n + 1| <= lambda_1 - 1 < lambda_1 + 1).  Three
    squarings give b = B^8 for B = A + I, and x = b (row 0 of b) is
    B^16 e0; after that each bracket squares b once and applies it to x,
    so with b = B^(2^(k-1)) the new x is B^(2^k) e0.  B^16 and x have
    entries below n^16, and from then on each squaring is divided by its
    trace, so the positive semidefinite b has eigenvalues and entries at
    most 1, x never grows in norm, and nothing overflows.  x is positive
    once every vertex lies within 2^k steps of vertex 0; then
    min (Ax)_i/x_i <= lambda_1 <= max (Ax)_i/x_i (Collatz-Wielandt), for
    any positive x.  The terms of Ax are nonnegative, so its rounding
    and the division's stay within a relative n u, and widening by
    2(n + 1)u covers them and the widening's own rounding.  The brackets
    end at 2^k = 2^14, the squaring cap; when x still has a zero (a
    disconnected graph, or an entry below the normal range) after
    2^k >= n - 1; and once the ratios agree to within that widening,
    since more squarings cannot narrow the bracket further.  ``np.dot``
    is used for its lower call overhead than ``@`` on matrices this
    small."""
    n = len(a)
    b = a + _identity(n)
    for _ in range(3):
        b = np.dot(b, b)
    x = np.dot(b, b[0])
    slack = 2 * (n + 1) * _UNIT_ROUNDOFF
    for k in range(4, _SQUARINGS_MAX + 1):
        if k > 4:
            b = np.dot(b, b)
            b *= 1.0 / b.trace()
            x = np.dot(b, x)
        if x.min() < _SMALLEST_NORMAL:
            if 1 << k >= n - 1:
                return
            continue
        ax = np.dot(a, x)
        r = ax / x
        lo, hi = float(r.min()), float(r.max())
        yield lo * (1 - slack), hi * (1 + slack), x, ax
        if hi - lo <= slack * hi:
            return


def spectral_radius(g: Graph, *, cuts: tuple[float, ...] = ()) -> float:
    """Largest adjacency eigenvalue of ``g``.

    On orders 24 to 200 the value is first sought by repeated squaring
    of A + I (``_perron_brackets``).  Each Collatz-Wielandt bracket is
    widened by a further n u hi, ``eigvalsh``'s own error bound, so it
    holds ``eigvalsh``'s value as well as lambda_1.  Once it fixes the 12
    significant digits every report prints and contains none of
    ``cuts``, the values the caller compares the radius against, the
    Rayleigh quotient x.Ax/x.x of its vector is returned.  Otherwise
    (other orders, a disconnected graph, a bracket that straddles a
    printed digit or a cut, or 14 squarings without a decision) the
    value is ``eigvalsh``'s.  So a printed value, or a comparison with a
    cut, can differ from ``eigvalsh``'s only where ``eigvalsh`` misses
    its own error bound.  The window and the cap are fixed constants,
    not settings.
    """
    a = adjacency_matrix(g)
    if g.n in _SQUARING_ORDERS:
        for lo, hi, x, ax in _perron_brackets(a):
            pad = g.n * _UNIT_ROUNDOFF * hi
            lo, hi = lo - pad, hi + pad
            if _digits(lo) == _digits(hi) and not any(lo <= c <= hi for c in cuts):
                theta = float(np.dot(x, ax)) / float(np.dot(x, x))
                if lo <= theta <= hi:
                    return theta
    return float(spectral_radii(a[None])[0])


def full_spectrum(matrix) -> Spectrum:
    """All eigenvalues of a symmetric matrix.

    Input must be square, symmetric, finite and of dimension at most
    ``DENSE_LIMIT``.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("matrix must be square")
    m = a.shape[0]
    if m > DENSE_LIMIT:
        raise SizeLimitError(f"dimension {m} exceeds dense limit {DENSE_LIMIT}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix must be finite")
    scale = float(np.linalg.norm(a))
    if float(np.max(np.abs(a - a.T))) > 1e-12 * max(1.0, scale):
        raise DomainError("matrix must be symmetric")
    a = (a + a.T) / 2.0
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(str(exc)) from exc
    residual = float(np.linalg.norm(a @ v - v * w))
    return Spectrum(tuple(float(x) for x in w[::-1]), residual)


def _block_sums(a: np.ndarray, blocks) -> tuple[list[list[int]], np.ndarray]:
    """``blocks`` read once into lists, checked to partition the indices
    of the square matrix ``a``, and the (m, k) weights ``a @ member``:
    entry (v, j) is the total weight from row v into block j.  On 0/1
    input the sums are exact integers."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("matrix must be square")
    m = a.shape[0]
    parts = [list(b) for b in blocks]
    if not parts or any(not p for p in parts):
        raise DomainError("partition blocks must be nonempty")
    seen: set[int] = set()
    for p in parts:
        for v in p:
            if not (0 <= v < m) or v in seen:
                raise DomainError("blocks must partition the index set exactly")
            seen.add(v)
    if len(seen) != m:
        raise DomainError("blocks must cover every index")
    member = np.zeros((m, len(parts)))
    for j, p in enumerate(parts):
        member[p, j] = 1.0
    return parts, a @ member


def quotient_matrix(matrix, blocks) -> np.ndarray:
    """Block-averaged quotient: entry (i, j) is the total weight from the
    block-i rows into block j divided by the size of block i."""
    parts, w = _block_sums(np.asarray(matrix, dtype=float), blocks)
    return np.array([w[p].sum(axis=0) / len(p) for p in parts])


def is_equitable(matrix, blocks) -> bool:
    """Whether each vertex of block i sends the same total weight into
    block j, for every pair (i, j), within ``_EQUITABLE_TOL``."""
    parts, w = _block_sums(np.asarray(matrix, dtype=float), blocks)
    return not any(float(np.ptp(w[p], axis=0).max()) > _EQUITABLE_TOL for p in parts)


def quotient_spectrum(matrix, blocks) -> Spectrum:
    """Eigenvalues of the quotient matrix of a symmetric ``matrix``.

    The quotient itself is not symmetric, but scaling by the square
    roots of the block sizes is a similarity onto the symmetric matrix
    S_ij / sqrt(|b_i| |b_j|), S_ij the total weight between blocks i and
    j, so the symmetric solver applies.
    """
    a = np.asarray(matrix, dtype=float)
    parts, w = _block_sums(a, blocks)
    scale = float(np.linalg.norm(a))
    if float(np.max(np.abs(a - a.T))) > 1e-12 * max(1.0, scale):
        raise DomainError("matrix must be symmetric")
    sums = np.array([w[p].sum(axis=0) for p in parts])
    sizes = np.array([len(p) for p in parts], dtype=float)
    sym = sums / np.sqrt(np.outer(sizes, sizes))
    return full_spectrum((sym + sym.T) / 2.0)


def quotient_radius_check(g: Graph, blocks) -> tuple[float, float]:
    """(largest adjacency eigenvalue, largest quotient eigenvalue) for an
    equitable partition of ``g``; the two agree for equitable partitions.
    Rejects non-equitable partitions."""
    a = adjacency_matrix(g)
    parts = [list(b) for b in blocks]
    if not is_equitable(a, parts):
        raise DomainError("partition is not equitable")
    lam = spectral_radius(g)
    qlam = quotient_spectrum(a, parts).radius
    return lam, qlam
