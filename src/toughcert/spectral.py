"""Dense symmetric eigenvalue routines sized for small graphs.

Every eigenvalue comes from LAPACK's symmetric solver through
``numpy.linalg``: ``eigvalsh`` for largest adjacency eigenvalues (one
call for a whole stack of matrices) and ``eigh`` for full spectra,
whose residual ||AV - V diag(w)||_F is measured and reported.  LAPACK
failures surface as ``ConvergenceError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, SizeLimitError
from .graphs import Graph, _matrix

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


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Symmetric 0/1 adjacency matrix as float64."""
    return _matrix(g.n, g.adj).astype(float)


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
    """Largest eigenvalue of each symmetric matrix in a (k, n, n) float
    stack, in one solver call.  LAPACK solves the matrices one by one,
    so each value is the one a single-matrix call gives."""
    try:
        return np.linalg.eigvalsh(adjacency)[:, -1]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(str(exc)) from exc


def spectral_radius(g: Graph) -> float:
    """Largest adjacency eigenvalue of ``g``."""
    return float(spectral_radii(adjacency_matrix(g)[None])[0])


def full_spectrum(matrix, dense_limit: int = DENSE_LIMIT) -> Spectrum:
    """All eigenvalues of a symmetric matrix.

    Input must be square, symmetric, finite and of dimension at most
    ``dense_limit``.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("matrix must be square")
    m = a.shape[0]
    if m > dense_limit:
        raise SizeLimitError(f"dimension {m} exceeds dense limit {dense_limit}")
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


def _check_partition(a: np.ndarray, blocks) -> list[list[int]]:
    """``blocks`` read once into lists, checked to partition the indices
    of the square matrix ``a``."""
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
    return parts


def quotient_matrix(matrix, blocks) -> np.ndarray:
    """Block-averaged quotient: entry (i, j) is the total weight from a
    block-i row into block j divided by the size of block i."""
    a = np.asarray(matrix, dtype=float)
    parts = _check_partition(a, blocks)
    k = len(parts)
    q = np.zeros((k, k))
    for i, bi in enumerate(parts):
        for j, bj in enumerate(parts):
            q[i, j] = float(a[np.ix_(bi, bj)].sum()) / len(bi)
    return q


def is_equitable(matrix, blocks, tol: float = 1e-9) -> bool:
    """Whether each vertex of block i sends the same total weight into
    block j, for every pair (i, j)."""
    a = np.asarray(matrix, dtype=float)
    parts = _check_partition(a, blocks)
    for bi in parts:
        for bj in parts:
            sums = a[np.ix_(bi, bj)].sum(axis=1)
            if float(sums.max() - sums.min()) > tol:
                return False
    return True


def quotient_spectrum(matrix, blocks) -> Spectrum:
    """Eigenvalues of the quotient matrix of a symmetric ``matrix``.

    The quotient itself is not symmetric, but scaling by the square
    roots of the block sizes is a similarity onto a symmetric matrix,
    so the symmetric solver applies.
    """
    a = np.asarray(matrix, dtype=float)
    parts = _check_partition(a, blocks)
    q = quotient_matrix(a, parts)
    scale = float(np.linalg.norm(a))
    if float(np.max(np.abs(a - a.T))) > 1e-12 * max(1.0, scale):
        raise DomainError("matrix must be symmetric")
    d = np.sqrt(np.array([len(p) for p in parts], dtype=float))
    sym = q * d[:, None] / d[None, :]
    sym = (sym + sym.T) / 2.0
    return full_spectrum(sym)


def quotient_radius_check(g: Graph, blocks) -> tuple[float, float]:
    """(largest adjacency eigenvalue, largest quotient eigenvalue) for an
    equitable partition of ``g``; the two agree for equitable partitions.
    Rejects non-equitable partitions."""
    a = adjacency_matrix(g)
    parts = _check_partition(a, blocks)
    if not is_equitable(a, parts):
        raise DomainError("partition is not equitable")
    lam = spectral_radius(g)
    qlam = quotient_spectrum(a, parts).radius
    return lam, qlam
