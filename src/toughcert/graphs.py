"""Simple undirected graphs on bitset adjacency.

Vertices are ``0..n-1`` and each vertex stores its neighborhood as an
integer bitmask, which keeps traversal, subset removal and component
counting cheap for the small dense graphs this package works with.
Each graph also keeps its 0/1 adjacency matrix, unpacked once: graph6
parsing gathers it straight from the decoded bits, the constructor
keeps the one its symmetry check builds, and other builders unpack it
on first use.  The eigenvalue routines and graph6 writing read it.
Also provides the join/disjoint-union constructors and graph6 text I/O.
"""

from __future__ import annotations

import base64
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError, Graph6ParseError, _check_int

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


def _matrix(n: int, rows: Sequence[int]) -> np.ndarray:
    """Rows in ``[0, 2**n)`` as a 0/1 uint8 matrix; ``m[i, j]`` is bit j of row i.
    Up to order 64 each row is one little-endian machine word."""
    if n <= 64:
        bits = np.array(rows, dtype="<u8").view(np.uint8).reshape(n, 8)
    else:
        width = (n + 7) // 8
        data = b"".join(row.to_bytes(width, "little") for row in rows)
        bits = np.frombuffer(data, dtype=np.uint8).reshape(n, width)
    return np.unpackbits(bits, axis=1, count=n, bitorder="little")


def _kept(m: np.ndarray) -> np.ndarray:
    """``m`` made read-only: the matrix a graph keeps is shared by every
    reader, so none of them may write into it."""
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; ``adj[v]`` is the neighbor bitmask of ``v``.

    ``_bitmatrix`` is the same adjacency as a read-only n x n 0/1 uint8
    matrix.  It is a cache, not a field: equality, hashing and ``repr``
    see ``n`` and ``adj`` only."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        _check_int(self.n, "graph order must be a positive integer")
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
        self.__dict__["_bitmatrix"] = _kept(m)

    @classmethod
    def _trusted(cls, n: int, adj: tuple[int, ...], matrix: np.ndarray | None = None) -> Graph:
        """A graph from rows that are in range, loop-free and symmetric by
        construction, without ``__post_init__``'s re-check.  Only the
        builders that guarantee this (graph6 parsing and edge masks) call it.
        ``matrix``, when given, is the read-only 0/1 matrix of the same rows."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        if matrix is not None:
            g.__dict__["_bitmatrix"] = matrix
        return g

    @cached_property
    def _bitmatrix(self) -> np.ndarray:
        return _kept(_matrix(self.n, self.adj))

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
    _check_int(n, "graph order must be a positive integer")
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
    _check_int(n, "graph order must be a positive integer")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def empty(n: int) -> Graph:
    """``n`` isolated vertices."""
    _check_int(n, "graph order must be a positive integer")
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
    """Bitmask of vertices reachable from ``start`` inside ``within``.
    Every vertex of ``within`` that some expanded row names is reached,
    so once the expanded rows cover ``within`` the search stops: a dense
    graph is done after two or three rows."""
    comp = start & within
    frontier = comp
    grown = 0  # union of the rows expanded so far
    while frontier:
        rest = frontier
        while rest:
            low = rest & -rest
            grown |= adj[low.bit_length() - 1]
            if grown & within == within:
                return within
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
    # True == 1 would pass for the mask of vertex 0
    if isinstance(removed, bool):
        raise DomainError("removal must be vertices or a mask, not a bool")
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


def _extremal_core(adj: tuple[int, ...], n: int, t: int) -> bool:
    """Whether the rows are those of K1 v (K_{n-t-1} u tK1), read off
    the rows alone: one dominating vertex h, t leaves whose row is
    exactly h, and the other n - t - 1 vertices K, each adjacent to h and
    to the rest of K.  At n = t + 2 the lone vertex of K is a leaf as
    well, so the star has t + 1 leaves."""
    full = (1 << n) - 1
    hubs = [v for v in range(n) if adj[v] == full ^ (1 << v)]
    if len(hubs) != 1:
        return False
    hub = 1 << hubs[0]
    leaves = sum(1 << v for v in range(n) if adj[v] == hub)
    if n == t + 2:
        return leaves.bit_count() == t + 1
    if leaves.bit_count() != t:
        return False
    clique = full ^ hub ^ leaves
    return all(adj[v] == (clique ^ 1 << v) | hub for v in _bits(clique))


def is_extremal(g: Graph, t: int) -> bool:
    """Whether ``g`` is the dominating-vertex graph K1 v (K_{n-t-1} u tK1).

    This is the unique sharpness example for the spectral toughness
    bound at each feasible (t, n).  Requires a connected input of order
    at least t + 2.
    """
    _check_int(t, "t must be a positive integer")
    if g.n < t + 2:
        raise DomainError(f"order {g.n} below t + 2 = {t + 2}")
    if not is_connected(g):
        raise DomainError("extremal recognition expects a connected graph")
    return _extremal_core(g.adj, g.n, t)


# -- graph6 ---------------------------------------------------------------
#
# graph6 (McKay, formats.txt): a header for the order n, then the upper
# triangle of the adjacency matrix read column by column ((0,1), (0,2),
# (1,2), (0,3), ...), which is the lower triangle _GRAPH6_CELLS read row
# by row, in base64 with the digits '?'..'~' for 'A'..'/' and no '='
# padding.  Trailing pad bits of the last digit must be zero.  The
# header is one byte n+63 for n <= 62 (short form), or '~' and three
# digits holding n in 18 bits for 63 <= n <= 258047 (long form).
_GRAPH6_CELLS = np.tri(62, 62, -1, dtype=bool)
# the long form's first order digit stays below '~', which would open
# the 8-byte header of larger orders
_GRAPH6_MAX = 258047
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_BASE64 = bytes.maketrans(bytes(range(63, 127)), _BASE64)
_FROM_BASE64 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_NOT_GRAPH6 = re.compile("[^?-~]")


def _cells(n: int) -> np.ndarray:
    return _GRAPH6_CELLS[:n, :n] if n <= 62 else np.tri(n, n, -1, dtype=bool)


@lru_cache(maxsize=4)
def _pair_index(width: int) -> np.ndarray:
    """Where the bit of each vertex pair sits in graph6 order, as a
    ``width`` x ``width`` intp matrix: pair {i, j} with i < j is bit
    j(j - 1)/2 + i, and the diagonal points at bit width(width - 1)/2,
    one past the last pair.  It depends on the order only through the
    width, the order rounded up to whole 64-bit words, so every order up
    to 64 reads one 32 KB index.  The cache holds four widths, and
    ``parse_graph6`` caches only widths up to 512 (2 MB each)."""
    v = np.arange(width)
    lo, hi = np.minimum.outer(v, v), np.maximum.outer(v, v)
    index = hi * (hi - 1) // 2 + lo
    np.fill_diagonal(index, width * (width - 1) // 2)
    return _kept(index)


def _graph6_text(n: int, matrices: np.ndarray) -> list[str]:
    """graph6 strings of order-``n`` graphs (``n`` <= ``_GRAPH6_MAX``),
    one per matrix of the (k, n, n) stack of 0/1 integer adjacency
    ``matrices``: each lower triangle, read through ``_cells``, holds
    the pair bits in graph6 order.  Each row of bits is packed into
    bytes and zero-filled to whole 3-byte groups, so one base64 pass
    encodes every graph and each starts on a digit of its own; its first
    ceil(n(n - 1)/12) digits are kept, the last with zero pad bits."""
    if n <= 62:
        header = chr(n + 63)
    else:
        header = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    packed = np.packbits(matrices[:, _cells(n)], axis=1)
    rows, size = packed.shape
    if size % 3:
        packed = np.concatenate([packed, np.zeros((rows, -size % 3), dtype=np.uint8)], axis=1)
    flat = base64.b64encode(packed.tobytes()).translate(_FROM_BASE64).decode("ascii")
    width, digits = 4 * -(-size // 3), -(-n * (n - 1) // 12)
    return [header + flat[k * width:k * width + digits] for k in range(rows)]


def to_graph6(g: Graph) -> str:
    if g.n > _GRAPH6_MAX:
        raise DomainError(f"graph6 supports order at most {_GRAPH6_MAX}")
    return _graph6_text(g.n, g._bitmatrix[None])[0]


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 string, short or long form, strictly.

    Rejects the 8-byte header of orders above 258047, a long-form header
    for an order below 63, bytes outside ``'?'..'~'``, wrong length and
    nonzero padding; every error carries the offending byte offset.

    The decoded bits, zero-filled past the data, are gathered through
    ``_pair_index`` into an n x width 0/1 matrix, both triangles at
    once; every bit past the n(n - 1)/2 pairs is zero (a checked pad
    bit or fill), so the diagonal and the columns past n read 0.  Its
    rows pack straight into 64-bit words, and the graph keeps its first
    n columns as its matrix.
    """
    if not text:
        raise Graph6ParseError("empty graph6 string", 0)
    first = ord(text[0])
    if not 63 <= first <= 126:
        raise Graph6ParseError(f"byte {first} outside graph6 range 63..126", 0)
    if first == 126:
        head = _NOT_GRAPH6.search(text[:4], 1)
        if head:
            b, k = ord(head[0]), head.start()
            raise Graph6ParseError(f"byte {b} outside graph6 range 63..126", k)
        if len(text) < 4:
            raise Graph6ParseError("truncated long-form graph6 header", len(text))
        if text[1] == "~":
            raise Graph6ParseError(f"graph6 orders above {_GRAPH6_MAX} not supported", 0)
        n = sum((ord(ch) - 63) << s for ch, s in zip(text[1:4], (12, 6, 0)))
        if n < 63:
            raise Graph6ParseError(f"long-form graph6 header for order {n} below 63", 0)
        h = 4
    else:
        n, h = first - 63, 1
    if n == 0:
        raise Graph6ParseError("order-0 graph not supported", 0)
    nbits = n * (n - 1) // 2
    ndata = (nbits + 5) // 6
    if len(text) < h + ndata:
        raise Graph6ParseError(
            f"truncated: order {n} needs {ndata} data bytes", len(text)
        )
    if len(text) > h + ndata:
        raise Graph6ParseError("trailing bytes after graph data", h + ndata)
    bad = _NOT_GRAPH6.search(text, h)
    if bad:
        b, k = ord(bad[0]), bad.start()
        raise Graph6ParseError(f"byte {b} outside graph6 range 63..126", k)
    if (ord(text[-1]) - 63) % 2 ** (6 * ndata - nbits):  # last digit's pad bits
        raise Graph6ParseError("nonzero padding bits", h + ndata - 1)
    data = (text[h:] + "?" * (-ndata % 4)).encode("ascii").translate(_TO_BASE64)
    width = -(-n // 64) * 64
    # zero bytes out to the diagonal's bit; unpackbits' own ``count``
    # padding is not used, as it leaves an empty input's pad uninitialised
    data = base64.b64decode(data).ljust(width * (width - 1) // 16 + 1, b"\0")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    index = _pair_index(width) if width <= 512 else _pair_index.__wrapped__(width)
    m = _kept(bits[index[:n]])
    words = np.packbits(m, axis=1, bitorder="little").view("<u8")
    adj = words[:, 0].tolist()
    for w in range(1, width // 64):  # orders above 64: one more word per row
        adj = [row | word << 64 * w for row, word in zip(adj, words[:, w].tolist())]
    return Graph._trusted(n, tuple(adj), m[:, :n])


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
