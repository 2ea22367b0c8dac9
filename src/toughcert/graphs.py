"""Simple undirected graphs on bitset adjacency.

Vertices are ``0..n-1`` and each vertex stores its neighborhood as an
integer bitmask, which keeps traversal, subset removal and component
counting cheap for the small dense graphs this package works with.
Also provides the join/disjoint-union constructors and graph6 text I/O.
"""

from __future__ import annotations

import base64
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import DomainError, Graph6ParseError

__all__ = [
    "Graph",
    "complete",
    "empty",
    "from_edges",
    "disjoint_union",
    "join",
    "is_connected",
    "components_after_removal",
    "is_extremal",
    "parse_graph6",
    "to_graph6",
    "iter_graph6",
]


def _bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _matrix(n: int, rows: Iterable[int]) -> np.ndarray:
    """Rows in ``[0, 2**n)`` as a 0/1 uint8 matrix; ``m[i, j]`` is bit j of row i."""
    width = (n + 7) // 8
    data = b"".join(row.to_bytes(width, "little") for row in rows)
    bits = np.frombuffer(data, dtype=np.uint8).reshape(n, width)
    return np.unpackbits(bits, axis=1, count=n, bitorder="little")


def _rows(m: np.ndarray) -> tuple[int, ...]:
    """Inverse of ``_matrix``: the row bitmasks of a square 0/1 matrix."""
    packed = np.packbits(m, axis=1, bitorder="little")
    width = 8 * packed.shape[1]  # bits per row, padded to whole bytes
    whole = int.from_bytes(packed.tobytes(), "little")
    return tuple((whole >> v * width) & ((1 << width) - 1) for v in range(len(m)))


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; ``adj[v]`` is the neighbor bitmask of ``v``."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError("graph order must be a positive integer")
        if len(self.adj) != self.n:
            raise DomainError("adjacency length must equal the order")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise DomainError(f"adjacency of vertex {v} names a vertex >= n")
            if row >> v & 1:
                raise DomainError(f"loop at vertex {v}")
        m = _matrix(self.n, self.adj)
        if m.tobytes() != m.T.tobytes():
            v, u = divmod(int(np.flatnonzero(m > m.T)[0]), self.n)
            raise DomainError(f"asymmetric adjacency between {u} and {v}")

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as pairs ``(i, j)`` with ``i < j``, lexicographic."""
        for i in range(self.n):
            for j in _bits(self.adj[i] >> (i + 1)):
                yield (i, i + 1 + j)


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph of order ``n`` from an edge list."""
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise DomainError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise DomainError(f"edge ({u}, {v}) out of range for order {n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def complete(n: int) -> Graph:
    """The complete graph on ``n`` vertices."""
    if n < 1:
        raise DomainError("graph order must be a positive integer")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def empty(n: int) -> Graph:
    """``n`` isolated vertices."""
    if n < 1:
        raise DomainError("graph order must be a positive integer")
    return Graph(n, (0,) * n)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union, with ``h``'s vertices relabeled after ``g``'s."""
    adj = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(g.n + h.n, tuple(adj))


def join(g: Graph, h: Graph) -> Graph:
    """Join: disjoint union plus all edges between the two parts."""
    gmask = (1 << g.n) - 1
    hmask = ((1 << h.n) - 1) << g.n
    adj = [row | hmask for row in g.adj]
    adj += [(row << g.n) | gmask for row in h.adj]
    return Graph(g.n + h.n, tuple(adj))


def _reach(adj: tuple[int, ...], start: int, within: int) -> int:
    """Bitmask of vertices reachable from ``start`` inside ``within``."""
    comp = start & within
    frontier = comp
    while frontier:
        grown = 0
        rest = frontier
        while rest:
            low = rest & -rest
            grown |= adj[low.bit_length() - 1]
            rest ^= low
        frontier = grown & within & ~comp
        comp |= frontier
    return comp


def _component_masks(adj: tuple[int, ...], remaining: int) -> list[int]:
    """Vertex masks of the components induced on ``remaining``."""
    comps = []
    rem = remaining
    while rem:
        comp = _reach(adj, rem & -rem, rem)
        comps.append(comp)
        rem ^= comp
    return comps


def is_connected(g: Graph) -> bool:
    """Whether ``g`` has exactly one component (true for order 1)."""
    full = (1 << g.n) - 1
    return _reach(g.adj, 1, full) == full


def _removal_mask(g: Graph, removed) -> int:
    if isinstance(removed, int):
        mask = removed
        if mask & ~((1 << g.n) - 1) or mask < 0:
            raise DomainError("removal mask names a vertex outside the graph")
    else:
        mask = 0
        for v in removed:
            if not (0 <= v < g.n):
                raise DomainError(f"removed vertex {v} outside the graph")
            mask |= 1 << v
    return mask


def components_after_removal(g: Graph, removed) -> int:
    """Number of components of ``g`` minus a vertex set.

    ``removed`` is an iterable of vertices or a bitmask.  Removing every
    vertex is rejected: the empty remainder has no component count.
    """
    mask = _removal_mask(g, removed)
    remaining = ((1 << g.n) - 1) ^ mask
    if remaining == 0:
        raise DomainError("removal leaves no vertices")
    return len(_component_masks(g.adj, remaining))


def _is_clique(adj: tuple[int, ...], mask: int) -> bool:
    for v in _bits(mask):
        if adj[v] & mask != mask ^ (1 << v):
            return False
    return True


def _extremal_core(adj: tuple[int, ...], n: int, t: int) -> bool:
    """Recognition shared with the exhaustive verifier: one dominating
    vertex whose removal leaves a clique of order n-t-1 plus t isolated
    vertices."""
    full = (1 << n) - 1
    hub = -1
    for v in range(n):
        if adj[v] == full ^ (1 << v):
            if hub >= 0:
                return False
            hub = v
    if hub < 0:
        return False
    rest = full ^ (1 << hub)
    comps = _component_masks(adj, rest)
    sizes = sorted(c.bit_count() for c in comps)
    if sizes != sorted([n - t - 1] + [1] * t):
        return False
    return all(_is_clique(adj, c) for c in comps)


def is_extremal(g: Graph, t: int) -> bool:
    """Whether ``g`` is the dominating-vertex graph K1 v (K_{n-t-1} u tK1).

    This is the unique sharpness example for the spectral toughness
    bound at each feasible (t, n).  Requires a connected input of order
    at least t + 2.
    """
    if not isinstance(t, int) or t < 1:
        raise DomainError("t must be a positive integer")
    if g.n < t + 2:
        raise DomainError(f"order {g.n} below t + 2 = {t + 2}")
    if not is_connected(g):
        raise DomainError("extremal recognition expects a connected graph")
    return _extremal_core(g.adj, g.n, t)


# -- graph6 ---------------------------------------------------------------
#
# Short-form graph6: one byte n+63 for the order (n <= 62), then the
# upper triangle of the adjacency matrix read column by column ((0,1),
# (0,2), (1,2), (0,3), ...), which is the lower triangle _GRAPH6_CELLS
# read row by row, in base64 with the digits '?'..'~' for 'A'..'/' and
# no '=' padding.  Trailing pad bits of the last digit must be zero.
_GRAPH6_CELLS = np.tri(62, 62, -1, dtype=bool)
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_BASE64 = bytes.maketrans(bytes(range(63, 127)), _BASE64)
_FROM_BASE64 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_NOT_GRAPH6 = re.compile("[^?-~]")


def to_graph6(g: Graph) -> str:
    if g.n > 62:
        raise DomainError("graph6 short form supports order at most 62")
    bits = _matrix(g.n, g.adj)[_GRAPH6_CELLS[: g.n, : g.n]]
    data = base64.b64encode(np.packbits(bits).tobytes()).translate(_FROM_BASE64)
    return chr(g.n + 63) + data[: -(-bits.size // 6)].decode("ascii")


def parse_graph6(text: str) -> Graph:
    """Parse one short-form graph6 string, strictly.

    Rejects long-form headers, bytes outside ``'?'..'~'``, wrong length
    and nonzero padding; every error carries the offending byte offset.
    """
    if not text:
        raise Graph6ParseError("empty graph6 string", 0)
    first = ord(text[0])
    if first == 126:
        raise Graph6ParseError("long-form graph6 orders (>= 63) not supported", 0)
    if not 63 <= first <= 126:
        raise Graph6ParseError(f"byte {first} outside graph6 range 63..126", 0)
    n = first - 63
    if n == 0:
        raise Graph6ParseError("order-0 graph not supported", 0)
    nbits = n * (n - 1) // 2
    ndata = (nbits + 5) // 6
    if len(text) < 1 + ndata:
        raise Graph6ParseError(
            f"truncated: order {n} needs {ndata} data bytes", len(text)
        )
    if len(text) > 1 + ndata:
        raise Graph6ParseError("trailing bytes after graph data", 1 + ndata)
    bad = _NOT_GRAPH6.search(text, 1)
    if bad:
        b, k = ord(bad[0]), bad.start()
        raise Graph6ParseError(f"byte {b} outside graph6 range 63..126", k)
    if (ord(text[-1]) - 63) % 2 ** (6 * ndata - nbits):  # last digit's pad bits
        raise Graph6ParseError("nonzero padding bits", ndata)
    data = (text[1:] + "?" * (-ndata % 4)).encode("ascii").translate(_TO_BASE64)
    bits = np.unpackbits(np.frombuffer(base64.b64decode(data), dtype=np.uint8))
    m = np.zeros((n, n), dtype=np.uint8)
    m[_GRAPH6_CELLS[:n, :n]] = bits[:nbits]
    return Graph(n, _rows(m | m.T))


def _graph6_records(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """``(line number, stripped text)`` of every graph6 record, skipping
    blank lines and the optional ``>>graph6<<`` header."""
    for lineno, line in enumerate(lines, start=1):
        s = line.strip()
        if s and s != ">>graph6<<":
            yield lineno, s


def iter_graph6(lines: Iterable[str]) -> Iterator[Graph]:
    """Parse graph6 strings one per line, skipping blanks and the
    optional ``>>graph6<<`` header."""
    for _, s in _graph6_records(lines):
        yield parse_graph6(s)
