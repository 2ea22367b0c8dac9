"""Certification and exhaustive verification harnesses.

``certify`` applies the spectral sufficient condition to one graph and
reports a verdict.  ``verify_theorem`` checks the condition against
every connected labeled graph of a small order by exhaustive scan:
graphs are integers (one bit per vertex pair), never decoded, and
connectivity and toughness levels come from precomputed tables indexed
by edge mask, applied to whole mask ranges at once.  Every count and
level comes from one split at vertex 0: an order-r mask is
N | sub << (r - 1), with N vertex 0's neighbour set and sub the mask of
G - 0, so the masks of one sub form a row with one column per N.  A
clique on N joins N into one component as vertex 0 does, so
c_r(mask) = c_{r-1}(sub | clique[N]) + (N == 0).  The cuts S give each
graph one toughness level, the largest floor((c(G - S) - 1) / |S|): the
graph fails 1/t-toughness iff its level is at least t.  Cuts that hold
vertex 0 read the order-(r - 1) level table, with one more vertex
deleted, at sub; cuts that leave it a neighbour read that table at
sub | clique[N]; and cuts that hold all of N, isolating vertex 0, read
the order-(r - 1) component table.  Up to order 7 the component table
and the level reader, which applies the split to any set of rows, build
one table per order and process over every row, the level table for
cuts of up to (n - 1) // 2 vertices: larger cuts read level 0, so the
table answers every t.  The scan's level table packs connectivity in,
one byte per mask: 0 for a disconnected graph and level + 1 for a
connected one, the connectivity taken from the same read at
sub | clique[N] as the level.  A scan chunk is a contiguous mask range
(``_SCAN_CHUNK``, 2^17 masks): up to order 7 its packed bytes are a
table slice, and at order 8 the level reader runs over the rows that
cover it, reading the order-7 tables.
It counts the nonzero bytes and lists only the masks whose byte exceeds
t, the graphs that fail toughness.  The sharpness examples are not
searched for: the masks of all their labelings are built once per
(n, t) from the pairs each vertex avoids, and each is decided by its
packed byte; one that reads tough came out tough.  Edge counts are
popcounts of the listed masks (and, for curiosities, of the tough
ones), and degrees are counted only for the graphs the edge count
leaves undecided, both compared with integer windows.  The spectral
side only solves eigenproblems for graphs whose cheap degree/edge
bounds cannot already separate them from the threshold, in one batched
call.  The scan builds no ``Graph``: one pair table per order sends each
mask bit to its two adjacency cells, and the 0/1 matrices that result
feed both the eigensolves and the graph6 strings of the listed graphs,
which go through the encoder ``to_graph6`` uses (only ``graphs`` knows
the graph6 bit order).  Connectivity, for the scan and for
``enumerate_connected`` alike, is the packed byte being nonzero.  What
does not depend on the chunk (the pair table, the bound windows of each
band, the pairs each vertex avoids) is built once per process.
Workers split the mask range into chunks; chunk results are merged in
range order so reports are byte-identical for any worker count.

The remaining ``verify_*`` suites exercise the supporting facts the
certification rests on: the join-of-cliques maximizer inequality, the
equitable-quotient eigenvalue embedding, strict monotonicity of the
spectral radius under proper connected subgraphs, and the polynomial
identities tying the quotient cubic to the certification cubic.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import DomainError, HypothesisError, SizeLimitError, _check_int
from .graphs import (
    Graph,
    _extremal_core,
    _graph6_text,
    _kept,
    _reach,
    from_edges,
    is_connected,
    to_graph6,
)
from .spectral import (
    _digits,
    adjacency_matrix,
    full_spectrum,
    is_equitable,
    quotient_spectrum,
    spectral_radii,
    spectral_radius,
)
from .thresholds import (
    JoinCliqueSpec,
    build_join_cliques,
    complete_split_radius,
    gap_bound,
    gap_factor,
    quotient_cubic,
    threshold,
    threshold_cubic,
)
from .toughness import _one_over_t_tough

__all__ = [
    "VERDICT_TOUGH",
    "VERDICT_EXCEPTIONAL",
    "VERDICT_INCONCLUSIVE",
    "CertificateReport",
    "VerificationSummary",
    "certify",
    "enumerate_connected",
    "graph_from_mask",
    "mask_of_graph",
    "verify_theorem",
    "verify_join_maximizer",
    "verify_quotient_embedding",
    "verify_subgraph_monotonicity",
    "verify_threshold_identities",
    "report_lines",
    "write_report",
]

VERDICT_TOUGH = "certified-tough"
VERDICT_EXCEPTIONAL = "exceptional"
VERDICT_INCONCLUSIVE = "inconclusive"


def _round12(x: float) -> float:
    """Floats destined for reports, cut to the 12 significant digits of
    ``_digits`` so the serialized form is stable."""
    return float(_digits(x))


# the mask codec, the per-order tables and C7's random graphs ask for a
# few orders, each many times
@lru_cache(maxsize=64)
def _edge_order(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def graph_from_mask(n: int, mask: int) -> Graph:
    """Graph whose edge set is the set bits of ``mask`` in the
    lexicographic pair order (0,1), (0,2), ..., (n-2,n-1)."""
    _check_int(n, "graph order must be a positive integer")
    if not 0 <= mask < 1 << (n * (n - 1) // 2):
        raise DomainError(f"edge mask out of range for order {n}")
    adj = [0] * n
    for e, (i, j) in enumerate(_edge_order(n)):
        if mask >> e & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph._trusted(n, tuple(adj))


def mask_of_graph(g: Graph) -> int:
    mask = 0
    for e, (i, j) in enumerate(_edge_order(g.n)):
        if g.adj[i] >> j & 1:
            mask |= 1 << e
    return mask


def enumerate_connected(n: int):
    """Yield every connected labeled graph of order ``n`` in increasing
    edge-mask order: the nonzero packed bytes of the scan, read
    ``_TABLE_BLOCK`` masks at a time.  Guarded at order 8 (2^28 masks)."""
    _check_int(n, "order must be a positive integer")
    if n > _SCAN_MAX:
        raise SizeLimitError(f"exhaustive enumeration capped at order {_SCAN_MAX}")
    total = 1 << (n * (n - 1) // 2)
    for lo in range(0, total, _TABLE_BLOCK):
        hi = min(lo + _TABLE_BLOCK, total)
        for mask in (np.flatnonzero(_scan_tables(n, lo, hi)) + lo).tolist():
            yield graph_from_mask(n, mask)


# -- single-graph certification -------------------------------------------


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the spectral test on one graph."""

    graph6: str
    t: int
    n: int
    lambda1: float
    threshold: float
    verdict: str
    epsilon: float
    cross_check: dict | None = None

    def to_dict(self) -> dict:
        return {
            "graph6": self.graph6,
            "t": self.t,
            "n": self.n,
            "lambda1": _round12(self.lambda1),
            "threshold": _round12(self.threshold),
            "verdict": self.verdict,
            "epsilon": self.epsilon,
            "cross_check": self.cross_check,
        }


def _check_tolerances(**tolerances) -> None:
    """Raise ``DomainError`` unless every tolerance is a finite,
    nonnegative int or float and not a bool: a negative one would widen
    a claim, a NaN would make every comparison false, an infinity or a
    Fraction is no JSON number, True would be reported as ``true``, and
    a string or None is no number: the type is checked first."""
    for name, eps in tolerances.items():
        if (isinstance(eps, bool) or not isinstance(eps, (int, float))
                or not (math.isfinite(eps) and eps >= 0)):
            raise DomainError(f"{name} must be finite and nonnegative")


# The sharpness example has lambda_1 = eta exactly, and spectral_radius
# returns it within 1e-11 eta (a bracket fixing 12 digits) or n u eta
# (eigvalsh), so certify runs the structural recognizer only when the
# radius lies this close to the threshold, relative to it.
_AT_THRESHOLD = 1e-9


def certify(
    g: Graph,
    t: int,
    epsilon: float = 1e-9,
    cross_check: bool | None = None,
    *,
    graph6: str | None = None,
) -> CertificateReport:
    """Apply the spectral sufficient condition for 1/t-toughness.

    Verdicts: ``exceptional`` when the graph is the known sharpness
    example (which is not 1/t-tough despite meeting the threshold; its
    radius equals the threshold, so the rows are only inspected when
    the radius lies within ``_AT_THRESHOLD`` of it);
    otherwise ``certified-tough`` when the largest adjacency eigenvalue
    is at least the threshold plus ``epsilon``, and ``inconclusive``
    when it is not, in which case the condition simply does not apply.
    ``epsilon`` must be finite and nonnegative: it can only narrow the
    claim.
    ``cross_check=None`` runs the exact toughness oracle automatically
    for orders <= 10; ``True`` forces it (subject to the exhaustive
    limit); ``False`` skips it.
    ``graph6`` is the record ``g`` was parsed from, reported as given:
    strict parsing accepts one encoding per graph, so it equals
    ``to_graph6(g)``, which is computed only when it is omitted.
    """
    _check_int(t, "t must be a positive integer", error=HypothesisError)
    _check_tolerances(epsilon=epsilon)
    if g.n < t + 2:
        raise HypothesisError(f"order {g.n} below t + 2 = {t + 2}")
    if not is_connected(g):
        raise HypothesisError("certification requires a connected graph")
    # t, the order and connectivity are checked once, above, for the
    # extremal recognition and the oracle alike
    eta = threshold(t, g.n).value
    lam = spectral_radius(g, cuts=(eta + epsilon,))
    if abs(lam - eta) <= _AT_THRESHOLD * eta and _extremal_core(g.adj, g.n, t):
        verdict = VERDICT_EXCEPTIONAL
    elif lam >= eta + epsilon:
        verdict = VERDICT_TOUGH
    else:
        verdict = VERDICT_INCONCLUSIVE
    cross: dict | None = None
    if cross_check or (cross_check is None and g.n <= 10):
        tough, witness = _one_over_t_tough(g, t, 1)
        cross = {"tough": tough, "witness": list(witness) if witness else None}
        if verdict == VERDICT_TOUGH and not tough:
            raise ArithmeticError(
                "certificate contradicts the exhaustive toughness oracle"
            )
        if verdict == VERDICT_EXCEPTIONAL and tough:
            raise ArithmeticError(
                "sharpness example came out tough under the exhaustive oracle"
            )
    if graph6 is None:
        graph6 = to_graph6(g)
    return CertificateReport(graph6, t, g.n, lam, eta, verdict, epsilon, cross)


# -- summaries and reports --------------------------------------------------


@dataclass
class VerificationSummary:
    """Result of one verification suite.

    ``failures`` are violations of the checked statement; ``incidents``
    are non-fatal observations (tolerance-band hits, logged
    curiosities).  ``elapsed`` is wall time and deliberately excluded
    from serialized reports so report bytes are reproducible.
    """

    check: str
    scope: dict
    counts: dict
    failures: list = field(default_factory=list)
    incidents: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    elapsed: float | None = None

    @property
    def ok(self) -> bool:
        return not self.failures


def report_lines(summary: VerificationSummary) -> list[str]:
    """Serialize a summary as JSON lines: every failure, every incident,
    then one closing summary record.  Deterministic byte-for-byte."""
    lines = []
    for rec in summary.failures:
        lines.append(json.dumps({"record": "failure", **rec}, sort_keys=True))
    for rec in summary.incidents:
        lines.append(json.dumps({"record": "incident", **rec}, sort_keys=True))
    closing = {
        "record": "summary",
        "check": summary.check,
        "scope": summary.scope,
        "counts": summary.counts,
        "failure_count": len(summary.failures),
        "incident_count": len(summary.incidents),
        "ok": summary.ok,
    }
    if summary.extras:
        closing["extras"] = summary.extras
    lines.append(json.dumps(closing, sort_keys=True))
    return lines


def write_report(summary: VerificationSummary, stream) -> None:
    for line in report_lines(summary):
        stream.write(line + "\n")


# -- exhaustive theorem scan ------------------------------------------------

# Component and level tables go up to order _TABLE_ORDER: 2^21 uint8
# entries (2 MB) each at order 7, where order 8 would need 2^28
# (256 MB).  The table builds and enumeration take _TABLE_BLOCK masks at
# a time, which keeps each int64 temporary at 512 KB.  A level read
# also holds one uint8 term per neighbour set of vertex 0 and row: 2 MB
# for the order-7 table.
_TABLE_ORDER = 7
_TABLE_BLOCK = 1 << 16
# The scan's chunk: 16 chunks at order 7 and 2048 at order 8.
# A chunk has a fixed cost of tens of microseconds beside its
# per-mask work, and its int64 temporaries (the listed masks) stay
# within 1 MB.
_SCAN_CHUNK = 1 << 17
# above the table order the scan splits off vertex 0 once and reads the
# order-7 tables, so order 8 is the largest it can reach
_SCAN_MAX = _TABLE_ORDER + 1
# The vectorised scans hold one graph per array entry as an int64 edge
# mask (one bit per vertex pair), so the mask count 2^C(n,2) must stay
# below the sign bit at the scan cap.
assert _SCAN_MAX * (_SCAN_MAX - 1) // 2 < np.iinfo(np.int64).bits - 1


@lru_cache(maxsize=None)
def _clique(r: int) -> np.ndarray:
    """The pairs joining two members of vertex 0's neighbour set N at
    order ``r``, indexed by N (the low r - 1 bits of an edge mask, bit k
    for vertex k + 1): an edge mask at order r - 1, labels shifted down
    by one."""
    near = np.arange(1 << (r - 1), dtype=np.int64)
    out = np.zeros(near.size, dtype=np.int64)
    for e, (a, b) in enumerate(_edge_order(r - 1)):
        out |= (near >> a & near >> b & 1) << e
    return out


@lru_cache(maxsize=None)
def _comps_table(r: int) -> np.ndarray:
    """Component counts of every labeled graph of order ``r``, indexed
    by edge mask, down to c_1 = [1], read where a cut is isolated.  The
    masks N | sub << (r - 1) of one order-(r - 1) mask sub form a row,
    one column per neighbour set N of vertex 0.  Vertex 0 joins N into
    one component, as a clique on N does, and an isolated vertex 0 adds
    one: c_r = c_{r-1}(sub | clique[N]) + (N == 0).  The lower table is
    read _TABLE_BLOCK masks at a time.  uint8, built once per process."""
    if r == 1:
        return np.ones(1, dtype=np.uint8)
    clique = _clique(r)
    lower = _comps_table(r - 1)
    rows = np.arange(lower.size, dtype=np.int64)
    out = np.empty((rows.size, clique.size), dtype=np.uint8)
    step = _TABLE_BLOCK // clique.size
    for k in range(0, rows.size, step):
        np.take(lower, rows[k:k + step, None] | clique, out=out[k:k + step])
    out[:, 0] += 1
    return out.reshape(-1)


@lru_cache(maxsize=None)
def _avoiding(r: int) -> np.ndarray:
    """(r,) int64 edge masks, in ``graph_from_mask``'s pair order at
    order ``r``, of the pairs without each vertex.  Read-only."""
    pairs = _edge_order(r)
    masks = [sum(1 << e for e, pair in enumerate(pairs) if v not in pair) for v in range(r)]
    return _kept(np.array(masks, dtype=np.int64))


def _level_rows(r: int, deleted: int, rows: np.ndarray) -> np.ndarray:
    """Toughness levels (uint8) of the order-``r`` masks
    N | sub << (r - 1), for sub in the int64 order-(r - 1) masks ``rows``
    and every neighbour set N of vertex 0, one row per sub, counted as
    ``_level_table(r, deleted)`` counts them.  With nothing deleted each
    level comes packed with connectivity: 0 for a disconnected graph,
    level + 1 for a connected one.

    A cut S is one of three kinds.  A cut that holds vertex 0 is a cut
    of sub with one more vertex deleted, under the same n and cap:
    L(r - 1, d + 1)[sub].  A cut that misses vertex 0 and leaves it a
    neighbour joins the rest of N into one component, as a clique on N
    does whatever the cut removes (a star would not, as the cut may hold
    its centre): L(r - 1, d)[sub | clique[N]].  That table caps cuts at
    (n - 2) // 2, but a larger cut leaves sub at most |S| components,
    level 0 either way.  Cuts that hold all of N read one component
    short there and are the third kind: vertex 0 is isolated, so the
    level is floor(c(sub - S) / (|S| + d)) over the cuts S >= N of sub,
    with c(sub - S) = c_{r-1}(sub & avoid(S)) - |S|.  That is one term
    per S over every row, gathered and divided in place, then a
    largest-superset pass, one vertex at a time, in the layout (N, sub),
    which transposed starts the rows.

    The packed read of L(r - 1, 0) at sub | clique[N] is also the
    connectivity: for N != 0 the graph has c_{r-1}(sub | clique[N])
    components, so it is connected exactly where that read is nonzero,
    and the one graph of a row with N = 0 has vertex 0 isolated.  The
    level of a disconnected graph is never read, so nothing is lost."""
    width = 1 << (r - 1)
    cap = (r + deleted - 1) // 2
    # no cut of 1..cap vertices holds every deleted one: level 0
    if cap < deleted:
        return np.zeros((rows.size, width), dtype=np.uint8)
    # K1, packed: connected, level 0
    if r == 1:
        return np.ones((rows.size, 1), dtype=np.uint8)
    avoid = _avoiding(r - 1)
    comps = _comps_table(r - 1)
    isolating = np.zeros((width, rows.size), dtype=np.uint8)
    for size in range(max(1 - deleted, 0), cap - deleted + 1):
        for cut in combinations(range(r - 1), size):
            kept = np.bitwise_and.reduce(avoid[list(cut)], initial=-1)
            # the cut's vertices are isolated at rows & kept, so c >= size
            term = isolating[sum(1 << v for v in cut)]
            np.take(comps, rows & kept, out=term)
            term -= size
            term //= size + deleted
    for v in range(r - 1):
        pairs = isolating.reshape(width >> (v + 1), 2, 1 << v, rows.size)
        np.maximum(pairs[:, 0], pairs[:, 1], out=pairs[:, 0])
    out = np.empty((rows.size, width), dtype=np.uint8)
    lower = _level_table(r - 1, deleted)
    inner = _level_table(r - 1, deleted + 1)
    clique = _clique(r)
    step = _TABLE_BLOCK // width
    for k in range(0, rows.size, step):
        block = out[k:k + step]
        np.maximum(isolating[:, k:k + step].T, inner[rows[k:k + step], None], out=block)
        below = np.take(lower, rows[k:k + step, None] | clique)
        if deleted:
            np.maximum(block, below, out=block)
        else:
            block += 1
            np.maximum(block, below, out=block)
            block *= below != 0
    if not deleted:
        out[:, 0] = 0
    return out


@lru_cache(maxsize=None)
def _level_table(r: int, deleted: int = 0) -> np.ndarray:
    """Toughness levels of every labeled graph of order
    n = r + ``deleted`` (``r`` <= ``_TABLE_ORDER``), read at the edge
    mask of the order-``r`` graph left once the deleted vertices are
    removed: the largest floor((c(G - S) - 1) / |S|) over cuts S that
    hold every deleted vertex.  A graph fails 1/t-toughness iff some cut
    leaves c(G - S) >= t|S| + 1 components, that is iff its level is at
    least t.  Since c(G - S) <= n - |S|, a cut of more than
    cap = (n - 1) // 2 vertices reads level 0, so cuts of 1..cap vertices
    (the t = 1 cap) give every level exactly and the one table answers
    every t.  With ``deleted`` 0 each entry is packed as
    ``_level_rows`` packs it: 0 for a disconnected graph, level + 1 for
    a connected one.  The scan reads ``deleted`` 0 up to order 7; the
    order-8 rows and the recursion read the tables one order down, with
    one more vertex deleted too.  ``_level_rows`` over every row, built
    once per process."""
    rows = np.arange(1 << ((r - 1) * (r - 2) // 2), dtype=np.int64)
    return _level_rows(r, deleted, rows).reshape(-1)


def _span(n: int, lo: int, hi: int) -> tuple[np.ndarray, slice]:
    """The rows sub of the order-``n`` edge masks N | sub << (n - 1) in
    [lo, hi), as int64, and where [lo, hi) lies in those rows read
    flat."""
    first = lo >> (n - 1)
    start = first << (n - 1)
    return np.arange(first, -(-hi >> (n - 1)), dtype=np.int64), slice(lo - start, hi - start)


def _scan_tables(n: int, lo: int, hi: int) -> np.ndarray:
    """The packed levels (uint8: 0 for a disconnected graph, toughness
    level + 1 for a connected one) of the order-``n`` edge masks
    [lo, hi): a slice of the level table up to the table order, of the
    level rows that cover the range above it.  A slice is a view of the
    per-process table.  An empty range builds exactly the tables that a
    range reads."""
    if n <= _TABLE_ORDER:
        # the key the order-(n + 1) rows read, so one table per order
        return _level_table(n, 0)[lo:hi]
    rows, part = _span(n, lo, hi)
    return _level_rows(n, 0, rows).reshape(-1)[part]


@lru_cache(maxsize=None)
def _pair_table(n: int) -> np.ndarray:
    """Where the bit e of each vertex pair (i, j) in an order-``n`` edge
    mask (lex pair order, as in ``graph_from_mask``) goes: its two flat
    cells i n + j and j n + i of an n x n matrix (a 2 x C(n, 2) array).
    Read-only, one per order."""
    i, j = np.array(_edge_order(n), dtype=np.intp).reshape(-1, 2).T
    return _kept(np.stack([i * n + j, j * n + i]))


def _adjacency_stack(n: int, masks: np.ndarray) -> np.ndarray:
    """(k, n, n) uint8 0/1 adjacency matrices of the order-``n`` graphs
    with int64 edge ``masks``: each mask bit lands in its pair's two
    cells.  The eigensolves and the graph6 encoder both read it."""
    cells = _pair_table(n)
    out = np.zeros((masks.size, n * n), dtype=np.uint8)
    out[:, cells] = (masks[:, None] >> np.arange(cells.shape[1]) & 1)[:, None]
    return out.reshape(-1, n, n)


def _window(inside: np.ndarray) -> tuple[int, int]:
    """(first, last) index where the bool array ``inside`` holds, as
    Python ints, or the empty window (1, 0).  Over an interval that is
    the interval; over anything else it is wider, which only leaves
    more graphs to an eigensolve."""
    where = np.flatnonzero(inside).tolist()
    return (where[0], where[-1]) if where else (1, 0)


@lru_cache(maxsize=64)
def _bound_windows(n: int, low: float, high: float) -> tuple[tuple[int, int], tuple[int, int]]:
    """Where the cheap bounds on the largest eigenvalue of an order-``n``
    graph leave it possibly in [``low``, ``high``], as a window of edge
    counts m and one of max degrees d: the upper bounds sqrt(2m - n + 1)
    and d both reach ``low``, and the lower bounds 2m/n and sqrt(d) both
    stay within ``high``.  Each bound is monotone in m or d, so each
    tabulated condition is an interval.  The windows hold Python ints:
    numpy compares a uint8 popcount with them as uint8, where an
    ``np.int64`` would promote the whole array to int64.  A scan asks for
    two bands per (n, t), so the windows are built once per band, not
    per chunk."""
    m = np.arange(n * (n - 1) // 2 + 1, dtype=np.float64)
    by_edges = (np.sqrt(np.maximum(2.0 * m - n + 1.0, 0.0)) >= low) & (2.0 * m / n <= high)
    d = np.arange(n, dtype=np.float64)
    by_degree = (d >= low) & (np.sqrt(d) <= high)
    return _window(by_edges), _window(by_degree)


def _undecided(n: int, masks: np.ndarray, low: float, high: float = math.inf) -> np.ndarray:
    """Those of the int64 edge ``masks`` whose cheap bounds leave the
    largest eigenvalue possibly in [``low``, ``high``] (``_bound_windows``);
    degrees are counted only for graphs the edge count leaves in (a mask
    has no bits past its pairs, so mask & ~avoid(v) are those at v)."""
    (m_lo, m_hi), (d_lo, d_hi) = _bound_windows(n, low, high)
    m = np.bitwise_count(masks)
    masks = masks[(m >= m_lo) & (m <= m_hi)]
    d = np.bitwise_count(masks & ~_avoiding(n)[:, None]).max(axis=0)
    return masks[(d >= d_lo) & (d <= d_hi)]


@lru_cache(maxsize=None)
def _extremal_masks(n: int, t: int) -> np.ndarray:
    """Sorted int64 edge masks of every labeling of the sharpness example
    K1 v (K_{n-t-1} u tK1), one per hub and set of t leaves.  At
    n = t + 2 the lone clique vertex is a leaf too, so every leaf set of
    a hub gives the same star and the order has n labelings.  A pair is
    an edge iff it meets the hub or misses every leaf, so a labeling's
    mask is (everything ^ avoid(hub)) | the AND of avoid(leaf) over its
    leaves."""
    avoid = _avoiding(n)
    leaves = np.array(list(combinations(range(n), t)), dtype=np.int64)
    missed = np.bitwise_and.reduce(avoid[leaves], axis=1)
    everything = (1 << (n * (n - 1) // 2)) - 1
    found = np.concatenate([
        (everything ^ avoid[hub]) | missed[(leaves != hub).all(axis=1)] for hub in range(n)
    ])
    return np.array(sorted(set(found.tolist())), dtype=np.int64)


def _scan_chunk(args) -> dict:
    """Scan one contiguous edge-mask range for one (n, t).

    Pure function of its arguments, so chunk boundaries and worker
    counts cannot change the merged result.
    """
    (n, t, lo, hi, eta, eps_eq, eps_strict, log_curiosities) = args

    # the sharpness-example labelings are enumerated, not searched for
    named = _extremal_masks(n, t)
    named = named[(named >= lo) & (named < hi)]

    # nothing is decoded: one packed byte per graph, 0 if disconnected
    # and toughness level + 1 if connected, answers every t, read from
    # the per-process level table.  Only the masks of the graphs that
    # fail toughness are listed (those of the tough ones only for
    # curiosities).
    packed = _scan_tables(n, lo, hi)
    ngraphs = int(np.count_nonzero(packed))
    failing = packed > t
    # every labeling is connected, so one that reads tough came out
    # tough; the others are exceptional, not spectral suspects
    assert packed[named - lo].all(), "a sharpness labeling was not scanned"
    exceptional = failing[named - lo]
    failing[named[exceptional] - lo] = False
    suspects = np.flatnonzero(failing) + lo

    failures: list[dict] = []
    incidents: list[dict] = []
    eigensolves = 0

    # no Graph is built: eigenvalues and graph6 strings both read the
    # adjacency stack of the mask bits, the strings in one encoder call
    # per kind of record that has any (the labelings, the spectral
    # suspects, the curiosities)
    def radii(masks) -> list[float]:
        nonlocal eigensolves
        if not masks.size:
            return []
        eigensolves += masks.size
        return spectral_radii(_adjacency_stack(n, masks)).tolist()

    def graph6(masks) -> list[str]:
        return _graph6_text(n, _adjacency_stack(n, masks)) if masks.size else []

    def ctx(g6: str, lam: float | None = None) -> dict:
        rec = {
            "check": "theorem",
            "n": n,
            "t": t,
            "graph6": g6,
            "threshold": _round12(eta),
        }
        if lam is not None:
            rec["lambda1"] = _round12(lam)
        return rec

    exceptional_g6: list[str] = []
    for g6, found in zip(graph6(named), exceptional):
        if found:
            exceptional_g6.append(g6)
        else:
            failures.append(
                {**ctx(g6), "kind": "extremal-tough",
                 "detail": "sharpness example came out 1/t-tough"}
            )

    # spectral side for graphs that fail toughness: the cheap upper
    # bounds rule most of them out without an eigensolve
    needs = _undecided(n, suspects, eta - eps_strict)
    bound_skips = suspects.size - needs.size
    lams = radii(needs)
    listed = [k for k, lam in enumerate(lams) if lam > eta + eps_eq or lam >= eta - eps_strict]
    for k, g6 in zip(listed, graph6(needs[listed])):
        if lams[k] > eta + eps_eq:
            failures.append(
                {**ctx(g6, lams[k]), "kind": "spectral-bound",
                 "detail": "non-tough non-extremal graph at or above the threshold"}
            )
        else:
            incidents.append(
                {**ctx(g6, lams[k]), "kind": "tolerance-band",
                 "detail": "eigenvalue within the ambiguity band of the threshold"}
            )

    for g6, lam in zip(exceptional_g6, radii(named[exceptional])):
        if abs(lam - eta) > eps_eq:
            failures.append(
                {**ctx(g6, lam), "kind": "sharpness",
                 "detail": "sharpness example eigenvalue differs from the threshold"}
            )

    if log_curiosities:
        tough = (packed > 0) & (packed <= t)
        near = _undecided(n, np.flatnonzero(tough) + lo, eta - eps_eq, eta + eps_eq)
        lams = radii(near)
        listed = [k for k, lam in enumerate(lams) if abs(lam - eta) <= eps_eq]
        for k, g6 in zip(listed, graph6(near[listed])):
            incidents.append(
                {**ctx(g6, lams[k]), "kind": "equality-curiosity",
                 "detail": "tough graph with eigenvalue at the threshold"}
            )

    not_tough = suspects.size + int(np.count_nonzero(exceptional))
    return {
        "lo": lo,
        "hi": hi,
        "connected": ngraphs,
        "tough": ngraphs - not_tough,
        "not_tough": not_tough,
        "exceptional_masks": named[exceptional].tolist(),
        "exceptional_g6": exceptional_g6,
        "eigensolves": eigensolves,
        "bound_skips": bound_skips,
        "failures": failures,
        "incidents": incidents,
    }


def get_context(method: str):
    """``multiprocessing.get_context(method)``, imported on the first
    pool: a serial scan, and every other command, never loads
    ``multiprocessing``."""
    import multiprocessing

    return multiprocessing.get_context(method)


def _usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _theorem_threshold(n: int, t: int, workers: int, eps_eq: float, eps_strict: float) -> float:
    """The threshold of (``n``, ``t``), once ``verify_theorem``'s
    arguments have passed its checks; raises what that call would raise,
    without scanning."""
    # threshold checks t and n >= t + 2 first
    eta = threshold(t, n).value
    _check_tolerances(eps_eq=eps_eq, eps_strict=eps_strict)
    _check_int(workers, "workers must be a positive integer")
    if n > _SCAN_MAX:
        raise SizeLimitError(f"order {n} exceeds the scan cap {_SCAN_MAX}")
    return eta


def verify_theorem(
    n: int,
    t: int,
    workers: int = 1,
    eps_eq: float = 1e-9,
    eps_strict: float = 1e-9,
    log_curiosities: bool = False,
) -> VerificationSummary:
    """Check the sufficient condition against every connected labeled
    graph of order ``n`` for the given ``t``.

    For each graph exactly one of three things must hold: it is
    1/t-tough (no spectral claim is made), it is a labeling of the
    sharpness example (eigenvalue equal to the threshold within
    ``eps_eq``), or its largest eigenvalue is below threshold by more
    than ``eps_strict``.  Anything else is recorded as a failure;
    eigenvalues inside the ambiguity band are recorded as incidents.
    Both tolerances must be finite and nonnegative.  Orders above 8
    (``_SCAN_MAX``, one past the table order) raise ``SizeLimitError``.
    The mask range is scanned in chunks of ``_SCAN_CHUNK`` (2^17) masks,
    16 at order 7 and 2048 at order 8; the report does not depend on the
    chunk.  ``workers`` must be a positive integer; no more processes
    are forked than there are chunks or cores this process may run on.
    """
    started = time.perf_counter()
    eta = _theorem_threshold(n, t, workers, eps_eq, eps_strict)
    total = 1 << (n * (n - 1) // 2)
    argv = [
        (n, t, lo, min(lo + _SCAN_CHUNK, total), eta, eps_eq, eps_strict, log_curiosities)
        for lo in range(0, total, _SCAN_CHUNK)
    ]
    processes = min(workers, len(argv), _usable_cores())
    if processes > 1:
        # warm the tables before forking so children inherit them
        _scan_tables(n, 0, 0)
        with get_context("fork").Pool(processes) as pool:
            results = pool.map(_scan_chunk, argv)
    else:
        results = [_scan_chunk(a) for a in argv]

    # chunk results merge in range order
    counts = dict.fromkeys(("connected", "tough", "not_tough", "eigensolves", "bound_skips"), 0)
    listed = {key: [] for key in ("failures", "incidents", "exceptional_masks", "exceptional_g6")}
    for res in results:
        for key in counts:
            counts[key] += res[key]
        for key, items in listed.items():
            items.extend(res[key])
    counts.update(masks=total, exceptional=len(listed["exceptional_masks"]))

    return VerificationSummary(
        check="theorem",
        scope={"n": n, "t": t, "eps_eq": eps_eq, "eps_strict": eps_strict},
        counts=counts,
        failures=listed["failures"],
        incidents=listed["incidents"],
        extras={
            "exceptional_graph6": listed["exceptional_g6"],
            "exceptional_masks": listed["exceptional_masks"],
        },
        elapsed=time.perf_counter() - started,
    )


# -- supporting-fact suites --------------------------------------------------

# The suites' tolerances and the monotonicity suite's largest order are
# fixed; each summary's scope reports the values it ran with.
_MAXIMIZER_EPS = 1e-9
_QUOTIENT_EPS = 1e-8
_MONOTONICITY_ORDER = 12
_MONOTONICITY_MARGIN = 1e-10
_IDENTITIES_EPS = 1e-9


def _partitions_desc(total: int, parts: int, cap: int | None = None):
    """Nonincreasing ``parts``-tuples of positive integers summing to
    ``total``, in descending lexicographic order."""
    if parts == 1:
        if total >= 1 and (cap is None or total <= cap):
            yield (total,)
        return
    first_hi = total - (parts - 1)
    if cap is not None:
        first_hi = min(first_hi, cap)
    first_lo = -(-total // parts)
    for first in range(first_hi, first_lo - 1, -1):
        for rest in _partitions_desc(total - first, parts - 1, first):
            yield (first,) + rest


def verify_join_maximizer(n: int, s: int, c: int) -> VerificationSummary:
    """Among all K_s v (K_{p1} u ... u K_{pc}) of order ``n`` with ``c``
    clique parts, the shape (n-s-c+1, 1, ..., 1) uniquely maximizes the
    largest adjacency eigenvalue.  Checks the inequality and that
    near-equality happens only at that shape."""
    for x in (n, s, c):
        _check_int(x, "n, s, c must be integers", -math.inf)
    if s < 1 or c < 1 or n < s + c:
        raise DomainError("need s >= 1, c >= 1 and n >= s + c")
    started = time.perf_counter()
    best_shape = (n - s - c + 1,) + (1,) * (c - 1)
    best = spectral_radius(build_join_cliques(JoinCliqueSpec(s, best_shape)))
    failures: list[dict] = []
    checked = 0
    for shape in _partitions_desc(n - s, c):
        lam = spectral_radius(build_join_cliques(JoinCliqueSpec(s, shape)))
        checked += 1
        base = {
            "check": "join-maximizer",
            "n": n,
            "s": s,
            "c": c,
            "parts": list(shape),
            "lambda1": _round12(lam),
            "best_lambda1": _round12(best),
        }
        if lam > best + _MAXIMIZER_EPS:
            failures.append(
                {**base, "kind": "maximizer-exceeded",
                 "detail": "a non-star shape beat the maximizer"}
            )
        if (abs(lam - best) <= _MAXIMIZER_EPS) != (shape == best_shape):
            failures.append(
                {**base, "kind": "equality-shape",
                 "detail": "equality with the maximizer off the unique shape"}
            )
    return VerificationSummary(
        check="join-maximizer",
        scope={"n": n, "s": s, "c": c, "eps": _MAXIMIZER_EPS},
        counts={"shapes": checked},
        failures=failures,
        elapsed=time.perf_counter() - started,
    )


def _maximizer_grid(n_max: int, s_max: int, c_max: int) -> list[VerificationSummary]:
    """``verify_join_maximizer`` over s_max + c_max <= n <= n_max,
    1 <= s <= s_max and 1 <= c <= c_max, n outermost.  A bound that is
    not an integer, or an empty grid, is a ``DomainError``."""
    for bound in (n_max, s_max, c_max):
        _check_int(bound, "n_max, s_max and c_max must be integers", -math.inf)
    if s_max < 1 or c_max < 1 or n_max < s_max + c_max:
        raise DomainError("need s_max >= 1, c_max >= 1 and n_max >= s_max + c_max")
    return [
        verify_join_maximizer(n, s, c)
        for n in range(s_max + c_max, n_max + 1)
        for s in range(1, s_max + 1)
        for c in range(1, c_max + 1)
    ]


def _join_family(s_max: int, t_max: int, n_max: int):
    """(s, t, n, K_s v (K_{n-ts-s} u tsK1)) for 1 <= s <= s_max,
    1 <= t <= t_max and ts + s + 1 <= n <= n_max, in that loop order.
    A bound that is not an integer, or an empty grid, is a
    ``DomainError``, raised before any graph is built."""
    for bound in (s_max, t_max, n_max):
        _check_int(bound, "s_max, t_max and n_max must be integers", -math.inf)
    if s_max < 1 or t_max < 1 or n_max < 3:
        raise DomainError("need s_max >= 1, t_max >= 1 and n_max >= 3")
    return (
        (s, t, n, build_join_cliques(JoinCliqueSpec(s, (n - t * s - s,) + (1,) * (t * s))))
        for s in range(1, s_max + 1)
        for t in range(1, t_max + 1)
        for n in range(t * s + s + 1, n_max + 1)
    )


def verify_quotient_embedding(
    s_max: int = 4,
    t_max: int = 4,
    n_max: int = 24,
) -> VerificationSummary:
    """For the join family K_s v (K_{n-ts-s} u tsK1) under its three
    orbit blocks: the partition is equitable, the quotient's largest
    eigenvalue equals the graph's, and (on small orders) every quotient
    eigenvalue already occurs in the full spectrum.  A bound that is not
    an integer, or an empty (s, t, n) grid, is a ``DomainError``."""
    started = time.perf_counter()
    failures: list[dict] = []
    checked = 0
    for s, t, n, g in _join_family(s_max, t_max, n_max):
        blocks = [list(range(s)), list(range(s, n - t * s)), list(range(n - t * s, n))]
        a = adjacency_matrix(g)
        checked += 1
        base = {"check": "quotient-embedding", "n": n, "s": s, "t": t}
        if not is_equitable(a, blocks):
            failures.append(
                {**base, "kind": "not-equitable",
                 "detail": "orbit partition failed the equitability test"}
            )
            continue
        lam = spectral_radius(g)
        qspec = quotient_spectrum(a, blocks)
        if abs(lam - qspec.radius) > _QUOTIENT_EPS:
            failures.append(
                {**base, "kind": "quotient-radius",
                 "lambda1": _round12(lam),
                 "quotient_lambda1": _round12(qspec.radius),
                 "detail": "quotient and graph disagree on the largest eigenvalue"}
            )
        if n <= 12:
            full = full_spectrum(a).values
            for q in qspec.values:
                if min(abs(q - x) for x in full) > _QUOTIENT_EPS:
                    failures.append(
                        {**base, "kind": "eigenvalue-embedding",
                         "quotient_value": _round12(q),
                         "detail": "quotient eigenvalue missing from the spectrum"}
                    )
    return VerificationSummary(
        check="quotient-embedding",
        scope={"s_max": s_max, "t_max": t_max, "n_max": n_max, "eps": _QUOTIENT_EPS},
        counts={"partitions": checked},
        failures=failures,
        elapsed=time.perf_counter() - started,
    )


def _random_connected(rng: random.Random, n: int) -> Graph:
    while True:
        p = rng.uniform(0.3, 0.9)
        edges = [e for e in _edge_order(n) if rng.random() < p]
        g = from_edges(n, edges)
        if is_connected(g):
            return g


def verify_subgraph_monotonicity(
    trials: int = 1000,
    seed: int = 20260814,
) -> VerificationSummary:
    """Deleting an edge or a vertex from a connected graph (keeping it
    connected) strictly lowers the largest adjacency eigenvalue.
    Randomized but fully determined by ``seed``.  The deletions that
    keep the graph connected are found on its rows, one ``_reach`` each:
    with the edge's two bits cleared, or with the vertex left out of the
    vertices searched.  Only the chosen subgraph is built, on the rows
    too: an edge deletion clears its two bits, and a vertex deletion
    drops the vertex's row and squeezes its bit out of the others."""
    _check_int(trials, "need at least one trial")
    started = time.perf_counter()
    rng = random.Random(seed)
    failures: list[dict] = []
    for _ in range(trials):
        n = rng.randint(2, _MONOTONICITY_ORDER)
        g = _random_connected(rng, n)
        full = (1 << n) - 1
        options: list[tuple] = []
        for (u, v) in g.edges():
            rows = list(g.adj)
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
            if _reach(rows, 1, full) == full:
                options.append(("edge", u, v))
        for v in range(n):
            rest = full ^ 1 << v
            if _reach(g.adj, rest & -rest, rest) == rest:
                options.append(("vertex", v))
        choice = rng.choice(options)
        rows = list(g.adj)
        if choice[0] == "edge":
            rows[choice[1]] ^= 1 << choice[2]
            rows[choice[2]] ^= 1 << choice[1]
        else:
            v = choice[1]
            low = (1 << v) - 1
            rows = [(r & low) | (r >> (v + 1) << v) for r in rows[:v] + rows[v + 1:]]
        h = Graph(len(rows), tuple(rows))
        lam_g = spectral_radius(g)
        lam_h = spectral_radius(h)
        if not lam_g > lam_h + _MONOTONICITY_MARGIN:
            failures.append(
                {
                    "check": "subgraph-monotonicity",
                    "kind": "not-strict",
                    "graph6": to_graph6(g),
                    "subgraph6": to_graph6(h),
                    "deletion": list(choice),
                    "lambda1": _round12(lam_g),
                    "sub_lambda1": _round12(lam_h),
                    "detail": "proper connected subgraph did not lose eigenvalue",
                }
            )
    return VerificationSummary(
        check="subgraph-monotonicity",
        scope={"trials": trials, "max_order": _MONOTONICITY_ORDER,
               "margin": _MONOTONICITY_MARGIN, "seed": seed},
        counts={"trials": trials},
        failures=failures,
        elapsed=time.perf_counter() - started,
    )


def verify_threshold_identities(
    s_max: int = 6,
    t_max: int = 5,
    n_max: int = 40,
) -> VerificationSummary:
    """Polynomial facts linking the quotient cubic to the certification
    cubic across the feasible (s, t, n) grid:

    * the quotient cubic's largest root is the eigenvalue of the join
      family it models;
    * certification cubic - quotient cubic = (s - 1) * gap_factor,
      checked at probe points including that root;
    * gap_factor <= gap_bound once n >= ts + s + 1;
    * the root dominates the closed-form complete-split value, strictly
      above the minimal order;
    * for s = 1 the root is the certification threshold itself, and for
      s >= 2 it sits strictly below it with the certification cubic
      negative there.

    A bound that is not an integer, or an empty grid, is a
    ``DomainError``.
    """
    started = time.perf_counter()
    failures: list[dict] = []
    checked = 0
    for s, t, n, g in _join_family(s_max, t_max, n_max):
        checked += 1
        base = {"check": "threshold-identities", "n": n, "s": s, "t": t}
        qc = quotient_cubic(s, t, n)
        root, _ = qc.largest_root_in(0.0, float(n - 1))
        lam = spectral_radius(g)
        if abs(root - lam) > _IDENTITIES_EPS:
            failures.append(
                {**base, "kind": "quotient-root",
                 "root": _round12(root), "lambda1": _round12(lam),
                 "detail": "cubic root missed the join-family eigenvalue"}
            )
        cert = threshold_cubic(t, n)
        for x in (0.0, 1.0, n / 3.0, n / 2.0, float(n - 1), root):
            lhs = cert(x) - qc(x)
            rhs = (s - 1) * gap_factor(s, t, n, x)
            scale = max(1.0, abs(lhs), abs(rhs))
            if abs(lhs - rhs) > _IDENTITIES_EPS * scale:
                failures.append(
                    {**base, "kind": "gap-identity", "x": _round12(x),
                     "detail": "cubic difference disagrees with its factored form"}
                )
        if gap_factor(s, t, n, root) > gap_bound(s, t, root) + _IDENTITIES_EPS:
            failures.append(
                {**base, "kind": "gap-bound",
                 "detail": "gap factor exceeded its order-free bound"}
            )
        split = complete_split_radius(s, t)
        if root < split - _IDENTITIES_EPS:
            failures.append(
                {**base, "kind": "root-ordering",
                 "root": _round12(root), "split": _round12(split),
                 "detail": "root fell below the complete-split value"}
            )
        if n > t * s + s + 1 and not root > split:
            failures.append(
                {**base, "kind": "root-ordering-strict",
                 "root": _round12(root), "split": _round12(split),
                 "detail": "root not strictly above the complete-split value"}
            )
        eta = threshold(t, n).value
        if s == 1:
            if abs(root - eta) > _IDENTITIES_EPS:
                failures.append(
                    {**base, "kind": "s1-coincidence",
                     "root": _round12(root), "threshold": _round12(eta),
                     "detail": "s = 1 root differs from the certification threshold"}
                )
        else:
            if not cert(root) < 0.0:
                failures.append(
                    {**base, "kind": "cubic-sign",
                     "value": _round12(cert(root)),
                     "detail": "certification cubic not negative at the root"}
                )
            if not root < eta:
                failures.append(
                    {**base, "kind": "root-below-threshold",
                     "root": _round12(root), "threshold": _round12(eta),
                     "detail": "root failed to sit below the threshold"}
                )
    return VerificationSummary(
        check="threshold-identities",
        scope={"s_max": s_max, "t_max": t_max, "n_max": n_max, "eps": _IDENTITIES_EPS},
        counts={"combinations": checked},
        failures=failures,
        elapsed=time.perf_counter() - started,
    )
