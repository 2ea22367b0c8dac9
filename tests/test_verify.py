import hashlib
import json
import math
import os
import random
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest

import toughcert.verify
from toughcert import (
    DomainError,
    Graph,
    HypothesisError,
    JoinCliqueSpec,
    SizeLimitError,
    adjacency_matrix,
    build_extremal,
    certify,
    complete,
    components_after_removal,
    disjoint_union,
    empty,
    from_edges,
    is_connected,
    is_extremal,
    is_one_over_t_tough,
    parse_graph6,
    spectral_radius,
    threshold,
    to_graph6,
    toughness_exact,
)
from toughcert.cli import run
from toughcert.graphs import _extremal_core, _graph6_text
from toughcert.verify import (
    VERDICT_EXCEPTIONAL,
    VERDICT_INCONCLUSIVE,
    VERDICT_TOUGH,
    _TABLE_BLOCK,
    _adjacency_stack,
    _bound_windows,
    _clique,
    _comps_table,
    _extremal_masks,
    _level_rows,
    _level_table,
    _maximizer_grid,
    _partitions_desc,
    _scan_chunk,
    _scan_tables,
    enumerate_connected,
    graph_from_mask,
    mask_of_graph,
    report_lines,
    verify_join_maximizer,
    verify_quotient_embedding,
    verify_subgraph_monotonicity,
    verify_theorem,
    verify_threshold_identities,
)

from oracles import (
    brute_components,
    brute_connected,
    connected_count,
    cut_levels,
    eig_radius,
    enumerated_extremal_masks,
    labelings_masks,
    random_connected_graph,
    recursion_levels,
)

# sha256 of the verify_theorem(7, t) report bytes, t = 1..5 (the values
# the benchmark's sweep checks in perfbench/checks.py)
ORDER_7_REPORT_SHA256 = {
    1: "aa63ba3b704ace48c172cf4457e5b42215c560bbd6aa2245714cf65545ce0955",
    2: "499807fbf0bf13335a1ca7bb2b6df7398d57ce4cacb7ddf54501d7413113eb17",
    3: "edae3d9ee5e81c6757fb6482c53a846e9e7363b378817d4ddf5f0c47bf16fd78",
    4: "129523043809579da824c0a2b6980982c40dcd5228a442463f0a50053b00fbf6",
    5: "129b792d961a67ea07c0e09469fba25c9047e4b964c0645b56507a580a9b3b93",
}


def test_mask_round_trip():
    rng = random.Random(53)
    for _ in range(50):
        n = rng.randint(1, 9)
        mask = rng.getrandbits(n * (n - 1) // 2)
        assert mask_of_graph(graph_from_mask(n, mask)) == mask


def test_graph_from_mask_rejects_out_of_range_masks():
    # a mask is C(n, 2) bits: higher bits have no pair to name, and a
    # negative mask has every bit set
    assert graph_from_mask(3, 7) == complete(3)
    for n, mask in ((3, 1 << 3), (3, 1 << 10), (3, -1), (1, 1), (8, 1 << 28)):
        with pytest.raises(DomainError):
            graph_from_mask(n, mask)


def test_comps_table_matches_component_oracle():
    for r in range(1, 6):
        table = _comps_table(r)
        assert table.size == 1 << (r * (r - 1) // 2)
        for mask in range(table.size):
            assert table[mask] == brute_components(graph_from_mask(r, mask), set())


def test_comps_table_blocks_match_component_oracle():
    # order 7 is the smallest table built in more than one block
    table = _comps_table(7)
    assert table.size == 1 << 21 > _TABLE_BLOCK
    rng = random.Random(67)
    blocks = table.size // _TABLE_BLOCK
    boundaries = [k * _TABLE_BLOCK + d for k in range(1, blocks) for d in (-1, 0)]
    sample = [rng.getrandbits(21) for _ in range(2000)]
    for mask in [0, table.size - 1] + boundaries + sample:
        assert table[mask] == brute_components(graph_from_mask(7, mask), set()), mask


def test_comps_table_matches_contraction_of_every_mask():
    # the table reads each block as rows of sub by columns of N; the
    # reference joins N by a clique mask by mask, one block at a time,
    # from a c_1 = [1] of its own
    ref = np.ones(1, dtype=np.uint8)
    for r in range(2, 8):
        total = 1 << (r * (r - 1) // 2)
        lower, ref = ref, np.empty(total, dtype=np.uint8)
        for lo in range(0, total, _TABLE_BLOCK):
            masks = np.arange(lo, min(lo + _TABLE_BLOCK, total), dtype=np.int64)
            near = masks & ((1 << (r - 1)) - 1)
            ref[lo:lo + masks.size] = lower[(masks >> (r - 1)) | _clique(r)[near]] + (near == 0)
        assert np.array_equal(_comps_table(r), ref), r


def _order_8_rows(seed: int) -> np.ndarray:
    """Rows sub of 128 order-8 masks N | sub << 7 each: the first row
    (mask 0), the last (the complete graph) and 118 seeded ones."""
    sample = np.random.default_rng(seed).integers(0, 1 << 21, 118)
    return np.concatenate([[0, (1 << 21) - 1], sample])


def test_scan_chunk_decodes_nothing(monkeypatch):
    # the scan builds no Graph: graph6 strings and eigensolves both read
    # the mask bits, and triu_indices is not recomputed per chunk
    built = []
    real = toughcert.verify.graph_from_mask

    def counting(n, mask):
        built.append(mask)
        return real(n, mask)

    def no_triu(*args, **kwargs):
        raise AssertionError("triu_indices called in a scan chunk")

    monkeypatch.setattr(toughcert.verify, "graph_from_mask", counting)
    monkeypatch.setattr(np, "triu_indices", no_triu)
    eta = threshold(1, 6).value
    res = _scan_chunk((6, 1, 0, 1 << 15, eta, 1e-9, 1e-9, True))
    assert res["connected"] == connected_count(6) == 26704
    assert len(res["exceptional_masks"]) == 30 and res["eigensolves"] == 1475
    assert len(res["exceptional_g6"]) == 30
    assert not built
    eta = threshold(2, 8).value
    res = _scan_chunk((8, 2, 1 << 27, (1 << 27) + (1 << 12), eta, 1e-9, 1e-9, True))
    assert res["connected"] > 0
    assert not built


def _packed_oracle(n: int, masks: np.ndarray) -> np.ndarray:
    """What the scan reads at each of the order-``n`` int64 edge
    ``masks``, mask by mask from the oracles: 0 for a disconnected graph,
    and for a connected one its level over every cut, plus one."""
    conn = np.array([brute_connected(graph_from_mask(n, m)) for m in masks.tolist()], dtype=bool)
    return np.where(conn, cut_levels(n, masks, n - 1) + 1, 0)


def test_level_table_matches_cut_oracle():
    # the recursion on order, built at the t = 1 cap, against every cut
    # one at a time and a connectivity search: every mask up to order 6,
    # then a seeded sample of order 7, connected and not, whose 32
    # blocks check the blocked gather; the check against the unpruned
    # toughness oracle is in test_toughness.py
    for n in range(1, 7):
        table = _level_table(n)
        assert table.dtype == np.uint8 and table.size == 1 << (n * (n - 1) // 2)
        masks = np.arange(table.size, dtype=np.int64)
        assert np.array_equal(table, _packed_oracle(n, masks)), n
    sample = np.random.default_rng(83).integers(0, 1 << 21, 25_000)
    want = _packed_oracle(7, sample)
    assert (want == 0).any() and (want > 1).any()
    assert np.array_equal(_level_table(7)[sample], want)


def test_level_table_matches_recursion_oracle():
    # the build recurses on order, split at vertex 0; the oracle is the
    # plain recursion on cut size, mask by mask over the whole table, so
    # a term missed or a cap off shows as a differing byte.  The oracle
    # runs every cut size: those above the built cap add nothing.
    for r in range(1, 8):
        for deleted in (0, 1):
            *_, ref = recursion_levels(r, deleted)
            got = _level_table(r, deleted)
            assert got.dtype == np.uint8
            if not deleted:
                # packed: 0 for a disconnected graph, level + 1 otherwise
                ref = np.where(_comps_table(r) == 1, ref + 1, 0)
            assert np.array_equal(got, ref), (r, deleted)


def test_order_8_levels_match_cut_oracle():
    # order 8 has no table: its level rows split at vertex 0 and read the
    # order-7 tables, every mask of a row, connected or not
    rows = _order_8_rows(89)
    packed = _level_rows(8, 0, rows)
    assert packed.dtype == np.uint8 and packed.shape == (rows.size, 128)
    masks = (rows[:, None] << 7 | np.arange(128)).reshape(-1)
    want = _packed_oracle(8, masks)
    assert (want == 0).any() and (want > 1).any()
    assert np.array_equal(packed.reshape(-1), want)


def test_one_level_table_answers_every_t():
    # a connected graph fails 1/t-toughness iff some cut of at most
    # (n - 1) // (t + 1) vertices leaves t|S| + 1 components: the table
    # built once at the t = 1 cap gives that answer at every t, as a
    # packed byte above t.  The sharpness labelings make sure each t has
    # graphs that fail; the order-8 sample is connected and not.
    rng = np.random.default_rng(101)
    connected = rng.choice(np.flatnonzero(_comps_table(7) == 1), 20_000)
    for n, sample, packed in (
        (7, connected, lambda masks: _level_table(7)[masks]),
        (8, rng.integers(0, 1 << 28, 20_000), lambda masks: _level_rows(8, 0, masks >> 7)[
            np.arange(masks.size), masks & 127]),
    ):
        named = [_extremal_masks(n, t) for t in range(1, n - 1)]
        sample = np.concatenate([sample, *named])
        got = packed(sample)
        conn = np.array([brute_connected(graph_from_mask(n, m)) for m in sample.tolist()])
        for t in range(1, n - 1):
            want = conn & (cut_levels(n, sample, (n - 1) // (t + 1)) >= t)
            assert np.array_equal(got > t, want), (n, t)
            assert want.any() and not want.all(), (n, t)


def test_scan_tables_match_the_per_mask_readers():
    # order 8: the rows that cover the range, sliced, against the
    # oracles mask by mask, on a mostly disconnected range from mask 0
    # and one inside the last 2^18-mask chunk whose ends are not
    # multiples of 128.  Up to order 7: the plain table slices, nonzero
    # exactly where the component table reads one component.
    for lo in (0, (1023 << 18) + 5000):
        hi = lo + (1 << 12)
        masks = np.arange(lo, hi, dtype=np.int64)
        want = _packed_oracle(8, masks)
        if lo == 0:
            assert 0 < np.count_nonzero(want) < want.size // 2
        packed = _scan_tables(8, lo, hi)
        assert packed.dtype == np.uint8 and packed.size == masks.size
        assert np.array_equal(packed, want), lo
    for n in (5, 6, 7):
        total = 1 << (n * (n - 1) // 2)
        for lo, hi in ((0, total), (total // 3, total // 3 + 1000)):
            packed = _scan_tables(n, lo, hi)
            assert np.array_equal(packed, _level_table(n)[lo:hi]), (n, lo)
            assert np.array_equal(packed != 0, _comps_table(n)[lo:hi] == 1), (n, lo)


def _record_table_builds(monkeypatch) -> list:
    """Empty the component table and level table caches for the test,
    and return the list that every later build is appended to."""
    built = []
    build_comps = toughcert.verify._comps_table.__wrapped__
    build_levels = toughcert.verify._level_table.__wrapped__

    # the builds read the tables they start from through the module
    # names, so the whole chain of tables is rebuilt and recorded
    @lru_cache(maxsize=None)
    def comps(r):
        built.append(("comps", r))
        return build_comps(r)

    @lru_cache(maxsize=None)
    def levels(r, deleted=0):
        built.append(("levels", r, deleted))
        return build_levels(r, deleted)

    monkeypatch.setattr(toughcert.verify, "_comps_table", comps)
    monkeypatch.setattr(toughcert.verify, "_level_table", levels)
    return built


def test_scan_tables_on_an_empty_range_build_what_an_order_8_chunk_reads(monkeypatch):
    # the warm-up before a fork reads an empty range; the pool test runs
    # order 5, so here an order-8 chunk after it must build no table.
    # Connectivity comes packed with the levels, so nothing counts the
    # components of an order-8 graph; the order-8 rows gather the
    # order-7 component table at the masks that isolate a cut.  A
    # process that scanned order 7 first reads the same order-7 level
    # table at order 8.
    built = _record_table_builds(monkeypatch)
    _scan_tables(7, 0, 0)
    _scan_tables(8, 0, 0)
    assert {("comps", 7), ("levels", 7, 0), ("levels", 7, 1)} <= set(built)
    assert ("comps", 8) not in built
    assert len(set(built)) == len(built)
    warmed = list(built)
    _scan_chunk((8, 2, 1 << 27, (1 << 27) + (1 << 12), threshold(2, 8).value, 1e-9, 1e-9, True))
    assert built == warmed


def _random_masks(rng, n, count=300):
    size = 1 << (n * (n - 1) // 2)
    return list(range(size)) if n <= 5 else [0, size - 1] + [rng.randrange(size) for _ in range(count)]


def test_adjacency_stack_matches_graph_matrices():
    # the 0/1 uint8 matrices a Graph keeps, and as floats the matrices
    # the single-graph eigensolves read
    rng = random.Random(79)
    for n in range(1, 9):
        masks = _random_masks(rng, n)
        stack = _adjacency_stack(n, np.array(masks, dtype=np.int64))
        assert stack.shape == (len(masks), n, n) and stack.dtype == np.uint8
        for mask, a in zip(masks, stack):
            g = graph_from_mask(n, mask)
            assert np.array_equal(a, g._bitmatrix), (n, mask)
            assert np.array_equal(a, adjacency_matrix(g)), (n, mask)


def test_graph6_of_masks_matches_the_decoded_path():
    # the scan's graph6 comes from the adjacency stack of the mask bits
    # through the encoder to_graph6 uses; it equals the Graph path's
    # string and parses back to the same graph
    rng = random.Random(83)
    for n in range(1, 9):
        masks = _random_masks(rng, n)
        got = _graph6_text(n, _adjacency_stack(n, np.array(masks, dtype=np.int64)))
        assert len(got) == len(masks)
        for mask, g6 in zip(masks, got):
            g = graph_from_mask(n, mask)
            assert g6 == to_graph6(g), (n, mask)
            assert parse_graph6(g6) == g, (n, mask)
        assert _graph6_text(n, _adjacency_stack(n, np.zeros(0, dtype=np.int64))) == []


def test_incident_graph6_equals_the_decoded_path():
    # with a huge band every non-tough order-5 graph is an incident, so
    # every record's graph6 comes from the mask path
    summary = verify_theorem(5, 1, eps_strict=5.0)
    assert len(summary.incidents) == summary.counts["not_tough"] - summary.counts["exceptional"]
    graphs = [graph_from_mask(5, mask) for mask in range(1 << 10)]
    violated = [
        mask for mask, g in enumerate(graphs)
        if is_connected(g) and not is_one_over_t_tough(g, 1)[0]
    ]
    named = set(summary.extras["exceptional_masks"])
    assert [rec["graph6"] for rec in summary.incidents] == [
        to_graph6(graphs[mask]) for mask in violated if mask not in named
    ]
    assert summary.extras["exceptional_graph6"] == [
        to_graph6(graphs[mask]) for mask in summary.extras["exceptional_masks"]
    ]


def test_scan_eigensolves_match_single_graph_solves(monkeypatch):
    # every order-6 graph the scan eigensolves, with curiosities on:
    # the batched radii equal one-matrix eigvalsh calls bit for bit
    seen = []
    real = toughcert.verify.spectral_radii

    def recording(stack):
        radii = real(stack)
        seen.append((stack, radii))
        return radii

    monkeypatch.setattr(toughcert.verify, "spectral_radii", recording)
    solved = 0
    for t in range(1, 5):
        eta = threshold(t, 6).value
        solved += _scan_chunk((6, t, 0, 1 << 15, eta, 1e-9, 1e-9, True))["eigensolves"]
    checked = 0
    for stack, radii in seen:
        for a, lam in zip(stack, radii.tolist()):
            g = from_edges(6, [(i, j) for i in range(6) for j in range(i + 1, 6) if a[i, j]])
            assert lam == eig_radius(g) == spectral_radius(g)
            checked += 1
    assert checked == solved > 1000


def test_enumerate_connected_order_6_count():
    # OEIS A001187: connected labeled graphs on 6 vertices, in
    # increasing mask order across the enumeration's blocks
    masks = [mask_of_graph(g) for g in enumerate_connected(6)]
    assert len(masks) == 26704
    assert masks == sorted(set(masks))


def test_enumerate_connected_counts():
    for n in range(1, 6):
        assert sum(1 for _ in enumerate_connected(n)) == connected_count(n)


def test_enumerate_connected_matches_brute_list():
    for n in range(1, 6):
        brute = [graph_from_mask(n, m) for m in range(1 << (n * (n - 1) // 2))]
        assert list(enumerate_connected(n)) == [g for g in brute if brute_connected(g)], n


def test_enumerate_connected_order_8_reads_the_packed_bytes():
    # order 8 has no table: its enumeration reads the level rows that
    # cover each block, nonzero exactly for the connected masks.  The
    # first 3,000 graphs run from the star at vertex 0 (mask 127) to
    # mask 15,323
    got = [mask_of_graph(g) for g in islice(enumerate_connected(8), 3000)]
    assert (got[0], got[-1]) == (127, 15323)
    assert got == [m for m in range(got[-1] + 1) if brute_connected(graph_from_mask(8, m))]


def test_enumerate_connected_order_and_guards():
    got = list(enumerate_connected(2))
    assert got == [complete(2)]
    masks = [mask_of_graph(g) for g in enumerate_connected(3)]
    assert masks == sorted(masks)
    with pytest.raises(SizeLimitError):
        next(enumerate_connected(9))
    with pytest.raises(DomainError):
        next(enumerate_connected(0))


def test_certify_verdicts():
    paw = build_extremal(1, 4)
    rep = certify(paw, 1)
    assert rep.verdict == VERDICT_EXCEPTIONAL
    assert rep.cross_check == {"tough": False, "witness": [0]}
    assert abs(rep.lambda1 - rep.threshold) <= 1e-9
    assert rep.graph6 == "C{"

    rep = certify(complete(4), 1)
    assert rep.verdict == VERDICT_TOUGH
    assert rep.cross_check["tough"] is True

    c4 = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    rep = certify(c4, 1)
    assert rep.verdict == VERDICT_INCONCLUSIVE

    d = rep.to_dict()
    assert json.dumps(d, sort_keys=True)
    assert d["verdict"] == VERDICT_INCONCLUSIVE


def test_certify_epsilon_only_narrows_the_claim():
    # the order-12 sharpness example minus a clique edge: not 1-tough
    # (the hub is a cut), with lambda1 = 9.8406 below eta = 10.0092
    g = build_extremal(1, 12)
    h = from_edges(12, [e for e in g.edges() if e != (1, 2)])
    assert not is_one_over_t_tough(h, 1)[0]
    rep = certify(h, 1, epsilon=0.5, cross_check=False)
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert abs(rep.lambda1 - eig_radius(h)) <= 1e-9
    assert rep.lambda1 < rep.threshold
    # a tough graph clears the threshold, but not the threshold plus a
    # wide epsilon
    k = complete(12)
    assert certify(k, 1, cross_check=False).verdict == VERDICT_TOUGH
    assert certify(k, 1, epsilon=0.0, cross_check=False).verdict == VERDICT_TOUGH
    margin = eig_radius(k) - certify(k, 1).threshold
    assert certify(k, 1, epsilon=2 * margin, cross_check=False).verdict == VERDICT_INCONCLUSIVE
    # the sharpness example is recognised by structure, whatever epsilon
    assert certify(g, 1, epsilon=0.5).verdict == VERDICT_EXCEPTIONAL
    # a negative epsilon would widen the claim, a NaN would fail every
    # comparison, an infinity or a Fraction is no JSON number, and a
    # bool, a string or None is not a tolerance
    for epsilon in (-1e-9, math.nan, math.inf, float("1e400"), True, False, "0.1", None,
                    Fraction(1, 10)):
        with pytest.raises(DomainError, match="epsilon must be finite and nonnegative"):
            certify(complete(5), 1, epsilon=epsilon)


def test_certify_cross_check_modes():
    k5 = complete(5)
    assert certify(k5, 1, cross_check=False).cross_check is None
    assert certify(k5, 1, cross_check=True).cross_check["tough"] is True
    # auto mode skips large orders
    big = complete(12)
    assert certify(big, 1).cross_check is None
    assert certify(big, 1, cross_check=True).cross_check["tough"] is True


def test_certify_reports_above_order_62():
    # the report's graph6 uses the long form from order 63 on
    rep = certify(complete(70), 1)
    assert rep.verdict == VERDICT_TOUGH
    assert rep.graph6.startswith("~?@E")
    assert parse_graph6(rep.graph6) == complete(70)


def test_certify_hypothesis_errors():
    with pytest.raises(HypothesisError):
        certify(disjoint_union(complete(2), complete(2)), 1)
    with pytest.raises(HypothesisError):
        certify(complete(2), 1)  # order below t + 2
    with pytest.raises(HypothesisError):
        certify(complete(4), 0)
    with pytest.raises(HypothesisError):
        certify(complete(4), True)


def test_certify_checks_connectivity_once(monkeypatch):
    import toughcert.graphs

    calls = []
    reach = toughcert.graphs._reach

    def counted(adj, start, within):
        calls.append(within)
        return reach(adj, start, within)

    monkeypatch.setattr(toughcert.graphs, "_reach", counted)
    rng = random.Random(12)
    for n in (8, 30):
        for _ in range(5):
            g = random_connected_graph(rng, n, 0.5)
            calls.clear()
            rep = certify(g, 1)
            assert len(calls) == 1, (n, len(calls))
            # the exact cross-check runs at order 8 and not at order 30
            assert (rep.cross_check is not None) == (n == 8)
    # the recognizer reads the sharpness example off its rows, so it
    # searches nothing, and neither does it for a graph one edge away
    for n, t in ((8, 1), (8, 2), (10, 3), (5, 3)):
        example = build_extremal(t, n)
        near = from_edges(n, list(example.edges()) + [(n - 2, n - 1)])
        for g, exceptional in ((example, True), (near, False)):
            calls.clear()
            assert (certify(g, t).verdict == VERDICT_EXCEPTIONAL) == exceptional
            assert len(calls) == 1, (n, t, len(calls))
    # a forced cross-check still refuses orders past the exhaustive limit
    with pytest.raises(SizeLimitError):
        certify(complete(21), 1, cross_check=True)


def test_certify_finds_every_sharpness_example_at_the_threshold():
    # the structural check runs only where lambda_1 is within
    # _AT_THRESHOLD of eta; the examples sit at eta exactly, whether the
    # cut eta + epsilon lies inside the squaring bracket or far above it
    for t in range(1, 6):
        for n in range(t + 2, 201):
            g = build_extremal(t, n)
            for epsilon in (0.0, 1e-9, 0.5):
                rep = certify(g, t, epsilon, cross_check=False)
                assert rep.verdict == VERDICT_EXCEPTIONAL, (t, n, epsilon)


def test_the_threshold_gate_changes_no_verdict(monkeypatch):
    # graphs one vertex pair away from a relabeled sharpness example:
    # verdicts and reports equal those with the structural check always on
    rng = random.Random(97)
    stream = []
    while len(stream) < 300:
        t = rng.randint(1, 5)
        n = rng.randint(t + 2, 70)
        perm = rng.sample(range(n), n)
        edges = {tuple(sorted((perm[u], perm[v]))) for u, v in build_extremal(t, n).edges()}
        edges ^= {tuple(sorted(rng.sample(range(n), 2)))}
        g = from_edges(n, sorted(edges))
        if is_connected(g):
            stream.append((g, t, rng.choice((0.0, 1e-9, 0.5))))
    gated = [certify(g, t, eps).to_dict() for g, t, eps in stream]
    monkeypatch.setattr(toughcert.verify, "_AT_THRESHOLD", math.inf)
    assert [certify(g, t, eps).to_dict() for g, t, eps in stream] == gated
    assert {rec["verdict"] for rec in gated} >= {VERDICT_TOUGH, VERDICT_INCONCLUSIVE}


def test_certify_skips_the_structural_check_far_from_the_threshold(monkeypatch):
    calls = []
    core = toughcert.verify._extremal_core

    def spy(adj, n, t):
        calls.append((n, t))
        return core(adj, n, t)

    monkeypatch.setattr(toughcert.verify, "_extremal_core", spy)
    rng = random.Random(40)
    for t in (1, 2, 3):
        g = random_connected_graph(rng, 40, 0.9)
        assert certify(g, t).verdict == VERDICT_INCONCLUSIVE
    assert calls == []
    assert certify(build_extremal(2, 40), 2).verdict == VERDICT_EXCEPTIONAL
    assert calls == [(40, 2)]


def test_writing_into_an_adjacency_matrix_changes_nothing_later():
    rng = random.Random(53)
    for n in (9, 40, 70):
        g = random_connected_graph(rng, n, 0.5)
        before = (adjacency_matrix(g).tolist(), to_graph6(g), spectral_radius(g),
                  certify(g, 1).to_dict())
        a = adjacency_matrix(g)
        a[:] = 1.0
        assert (adjacency_matrix(g).tolist(), to_graph6(g), spectral_radius(g),
                certify(g, 1).to_dict()) == before, n
        h = parse_graph6(to_graph6(g))
        adjacency_matrix(h)[0, :] = 7.0
        assert adjacency_matrix(h).tolist() == before[0], n


def test_certify_never_contradicts_exact_oracle_small():
    # certified-tough must imply 1/t-tough on every connected graph
    for n in range(3, 6):
        for g in enumerate_connected(n):
            for t in (1, 2):
                if n < t + 2:
                    continue
                rep = certify(g, t, cross_check=True)
                tough, _ = is_one_over_t_tough(g, t)
                if rep.verdict == VERDICT_TOUGH:
                    assert tough
                if rep.verdict == VERDICT_EXCEPTIONAL:
                    assert not tough


def test_verify_theorem_small_orders_clean():
    for n, t in [(3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (5, 3), (6, 2)]:
        summary = verify_theorem(n, t)
        assert summary.ok, summary.failures
        assert not summary.incidents
        assert summary.counts["connected"] == connected_count(n)
        assert (
            summary.counts["tough"] + summary.counts["not_tough"]
            == summary.counts["connected"]
        )


def test_verify_theorem_exceptional_sets_are_labelings():
    cases = {(4, 1): 12, (5, 2): 30, (4, 2): 4, (3, 1): 3}
    for (n, t), count in cases.items():
        summary = verify_theorem(n, t)
        got = set(summary.extras["exceptional_masks"])
        expected = labelings_masks(build_extremal(t, n))
        assert got == expected
        assert len(got) == count


def test_verify_theorem_toughness_flags_match_exact_oracle():
    for t in (1, 2):
        summary = verify_theorem(5, t)
        tough_count = sum(
            1
            for g in enumerate_connected(5)
            if is_one_over_t_tough(g, t)[0]
        )
        assert summary.counts["tough"] == tough_count


def test_extremal_masks_are_the_recognized_labelings():
    # every labeled graph of order <= 6 at every t <= n - 2: the
    # enumerated labelings are exactly the masks the recognizer accepts
    for n in range(3, 7):
        graphs = [graph_from_mask(n, m) for m in range(1 << (n * (n - 1) // 2))]
        for t in range(1, n - 1):
            accepted = [m for m, g in enumerate(graphs) if _extremal_core(g.adj, n, t)]
            assert _extremal_masks(n, t).tolist() == accepted, (n, t)


def test_extremal_masks_count():
    # one labeling per hub and leaf set; at n = t + 2 every leaf set of
    # a hub gives the same star
    for n in range(3, 9):
        for t in range(1, n - 1):
            masks = _extremal_masks(n, t)
            assert masks.dtype == np.int64
            assert np.all(np.diff(masks) > 0)
            assert masks.size == (n if n == t + 2 else n * comb(n - 1, t)), (n, t)


def test_extremal_masks_match_the_pairwise_enumeration():
    # the package ANDs the pairs each leaf avoids; the reference lists
    # every labeling pair by pair
    for n in range(3, 9):
        for t in range(1, n - 1):
            assert _extremal_masks(n, t).tolist() == enumerated_extremal_masks(n, t), (n, t)


def test_order_7_scan_reads_tables_as_slices(monkeypatch):
    # up to the table order a chunk is a slice of the level table, and
    # so is an enumeration block: once the tables are built, neither the
    # level reader nor a component table build runs
    def refuse(*args):
        raise AssertionError("table built again instead of sliced")

    _scan_tables(7, 0, 0)
    monkeypatch.setattr(toughcert.verify, "_comps_table", refuse)
    monkeypatch.setattr(toughcert.verify, "_level_rows", refuse)
    text = "".join(line + "\n" for line in report_lines(verify_theorem(7, 2)))
    assert hashlib.sha256(text.encode()).hexdigest() == ORDER_7_REPORT_SHA256[2]
    monkeypatch.setattr(toughcert.verify, "_SCAN_CHUNK", 100)
    assert verify_theorem(5, 1, log_curiosities=True).ok
    assert sum(1 for _ in enumerate_connected(6)) == 26704


def _sharpness_chunk(n: int, t: int):
    """One sharpness labeling of order ``n`` and the scan arguments of
    a 2^12-mask chunk holding it."""
    label = int(_extremal_masks(n, t)[5])
    lo = label & -(1 << 12)
    return label, (n, t, lo, lo + (1 << 12), threshold(t, n).value, 1e-9, 1e-9, False)


@pytest.mark.parametrize("n", [7, 8])
def test_scan_chunk_reports_a_sharpness_labeling_that_reads_tough(monkeypatch, n):
    # a labeling that reads tough came out tough: with its packed value
    # patched to 1 (connected, level 0) it is one extremal-tough failure
    # and one fewer exceptional graph.  Order 8 has no table, so its
    # level rows are patched.
    label, args = _sharpness_chunk(n, 2)
    before = _scan_chunk(args)
    assert label in before["exceptional_masks"] and not before["failures"]
    if n == 7:
        table = _level_table(7).copy()
        table[label] = 1
        monkeypatch.setattr(toughcert.verify, "_level_table", lambda *key: table)
    else:
        def reading_tough(r, deleted, rows):
            out = _level_rows(r, deleted, rows)
            if r == 8:
                out[rows == label >> 7, label & 127] = 1
            return out

        monkeypatch.setattr(toughcert.verify, "_level_rows", reading_tough)
    after = _scan_chunk(args)
    assert [(f["kind"], f["graph6"]) for f in after["failures"]] == [
        ("extremal-tough", to_graph6(graph_from_mask(n, label)))
    ]
    assert after["exceptional_masks"] == [m for m in before["exceptional_masks"] if m != label]
    assert after["connected"] == before["connected"]
    assert after["not_tough"] < before["not_tough"]


@pytest.mark.parametrize("n", [7, 8])
def test_scan_chunk_refuses_a_sharpness_labeling_read_disconnected(monkeypatch, n):
    # every labeling is connected, so a tough reading can only mean the
    # example came out tough if the labeling was scanned at all.  The
    # packed value 0 reads disconnected: order 7 reads it from its
    # table, and order 8 from the packed order-7 table at sub | clique[N]
    label, args = _sharpness_chunk(n, 2)
    table = _level_table(7).copy()
    if n == 7:
        table[label] = 0
    else:
        near = label & ((1 << 7) - 1)
        table[(label >> 7) | int(_clique(8)[near])] = 0
    monkeypatch.setattr(
        toughcert.verify, "_level_table",
        lambda r, deleted=0: table if (r, deleted) == (7, 0) else _level_table(r, deleted),
    )
    with pytest.raises(AssertionError, match="sharpness labeling was not scanned"):
        _scan_chunk(args)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_scan_chunk_order_8_counts_match_predicate(t):
    # order 8 reads the order-7 tables through the vertex-0 split
    eta = threshold(t, 8).value
    tough = not_tough = 0
    for lo in (0, 1 << 27, (1 << 28) - (1 << 12)):
        res = _scan_chunk((8, t, lo, lo + (1 << 12), eta, 1e-9, 1e-9, False))
        graphs = [graph_from_mask(8, m) for m in range(lo, lo + (1 << 12))]
        flags = [is_one_over_t_tough(g, t)[0] for g in graphs if brute_connected(g)]
        assert res["connected"] == len(flags)
        assert (res["tough"], res["not_tough"]) == (sum(flags), len(flags) - sum(flags))
        tough += res["tough"]
        not_tough += res["not_tough"]
    assert tough and not_tough


# The curiosities path at order 7 on three 2^16-mask chunks: (connected,
# not_tough, eigensolves, bound_skips, incident count) and the sha256 of
# the incidents' "kind graph6" lines.  The eigensolves count both bands'
# undecided graphs, so a bound window one count too wide or too narrow
# shows; lambda1 is left out, as its digits depend on the LAPACK build.
CURIOSITY_PINS = {
    (3, 0): ((40964, 1284, 20549, 1266, 30),
             "82ae7125a03188e26061b412c8cc1a64b5dfdeba663e51428e8ef9a8eadfce0d"),
    (3, 17): ((58292, 181, 31855, 181, 12),
              "e5ba7664ea9d6ba0ca0a865aeb719a2c2db004a0d622e0e89b4f9bb2c10fdf3b"),
    (3, 31): ((62460, 8, 12113, 4, 6),
              "462bfd01ba389673c3594dddd5f4b3bd354cea91d765d66f36b5bca712369d16"),
    (5, 0): ((40964, 3, 17220, 0, 114),
             "1b32e48eb39d0706664c9a49c7f3586038863f17859fc85eb3e97cc3a53901cf"),
    (5, 17): ((58292, 0, 9670, 0, 42),
              "9d7fdf9eef25def6b6cf2cc8918d997157f369ae7bd54c6519de0720a3d15bde"),
    (5, 31): ((62460, 0, 196, 0, 0),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("t, chunk", sorted(CURIOSITY_PINS))
def test_scan_chunk_curiosities_at_order_7(t, chunk):
    lo = chunk << 16
    res = _scan_chunk((7, t, lo, lo + (1 << 16), threshold(t, 7).value, 1e-9, 1e-9, True))
    counts = tuple(res[k] for k in ("connected", "not_tough", "eigensolves", "bound_skips"))
    text = "".join(f"{rec['kind']} {rec['graph6']}\n" for rec in res["incidents"])
    assert (counts + (len(res["incidents"]),), hashlib.sha256(text.encode()).hexdigest()) == (
        CURIOSITY_PINS[t, chunk]
    )
    assert not res["failures"]
    assert {rec["kind"] for rec in res["incidents"]} <= {"equality-curiosity"}


def test_bound_windows_hold_exactly_the_tabulated_bounds():
    # each cheap bound is monotone, so the counts it leaves undecided
    # form one window: tabulated the float way, every count inside the
    # window passes both bounds and every count outside fails one
    for n in range(2, 9):
        m = np.arange(n * (n - 1) // 2 + 1, dtype=np.float64)
        d = np.arange(n, dtype=np.float64)
        bands = [(threshold(t, n).value - eps, high)
                 for t in range(1, n - 1) for eps in (0.0, 1e-9, 5.0)
                 for high in (math.inf, threshold(t, n).value + eps)]
        for low, high in bands + [(0.0, math.inf), (float(n), math.inf), (-1.0, 0.5)]:
            by_edges = (np.sqrt(np.maximum(2.0 * m - n + 1.0, 0.0)) >= low) & (2.0 * m / n <= high)
            by_degree = (d >= low) & (np.sqrt(d) <= high)
            windows = _bound_windows(n, low, high)
            for table, (first, last) in zip((by_edges, by_degree), windows):
                assert type(first) is int and type(last) is int
                counts = np.arange(table.size)
                assert np.array_equal(table, (counts >= first) & (counts <= last)), (n, low, high)


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_verify_theorem_order_7_report_bytes(t):
    text = "".join(line + "\n" for line in report_lines(verify_theorem(7, t)))
    assert hashlib.sha256(text.encode()).hexdigest() == ORDER_7_REPORT_SHA256[t]


@pytest.mark.parametrize("ts", [(1, 2, 3, 4, 5), (5, 4, 3, 2, 1), (3, 1, 5, 2, 4)])
def test_verify_theorem_order_7_level_table_reuse(monkeypatch, ts):
    # one level table per order and process, built at the t = 1 cut cap:
    # every t reads it, whichever comes first, and the report bytes do
    # not depend on the order the t values come in.  The recursion on
    # order builds the lower tables it reads on the way, each once, and
    # the order-8 table (7, 1) is not among them.  Every order of t
    # builds the list that the empty-range warm-up builds.
    warmed = _record_table_builds(monkeypatch)
    _scan_tables(7, 0, 0)
    monkeypatch.undo()
    built = _record_table_builds(monkeypatch)
    for t in ts:
        text = "".join(line + "\n" for line in report_lines(verify_theorem(7, t)))
        assert hashlib.sha256(text.encode()).hexdigest() == ORDER_7_REPORT_SHA256[t], t
    assert built.count(("levels", 7, 0)) == 1
    assert ("levels", 7, 1) not in built
    # connectivity comes packed with the levels
    assert ("comps", 7) not in built
    assert len(set(built)) == len(built)
    assert built == warmed


def test_verify_theorem_order_7_report_bytes_with_large_chunks(monkeypatch):
    # twice the chunk gives the same report bytes
    monkeypatch.setattr(toughcert.verify, "_SCAN_CHUNK", 1 << 18)
    summary = verify_theorem(7, 2)
    text = "".join(line + "\n" for line in report_lines(summary))
    assert hashlib.sha256(text.encode()).hexdigest() == ORDER_7_REPORT_SHA256[2]


def test_verify_theorem_deterministic_reports(monkeypatch):
    base = report_lines(verify_theorem(5, 1))
    again = report_lines(verify_theorem(5, 1))
    monkeypatch.setattr(toughcert.verify, "_SCAN_CHUNK", 100)
    chunked = report_lines(verify_theorem(5, 1))
    monkeypatch.setattr(toughcert.verify, "_SCAN_CHUNK", 64)
    forked = report_lines(verify_theorem(5, 1, workers=2))
    assert base == again == chunked == forked
    closing = json.loads(base[-1])
    assert closing["record"] == "summary"
    assert closing["ok"] is True


def test_verify_theorem_guards(monkeypatch):
    for t in (0, True):
        with pytest.raises(DomainError, match="t must be a positive integer"):
            verify_theorem(4, t)
    with pytest.raises(DomainError, match=r"order n must be an integer >= t \+ 2 = 4"):
        verify_theorem(3, 2)  # n below t + 2
    with pytest.raises(SizeLimitError, match="order 9 exceeds the scan cap 8"):
        verify_theorem(9, 1)
    # order 8 needs no opt-in: the call reaches the chunk scan, here a
    # stand-in that scans nothing
    scanned = []

    def no_scan(args):
        scanned.append(args[:4])
        return {"connected": 0, "tough": 0, "not_tough": 0, "exceptional_masks": [],
                "exceptional_g6": [], "eigensolves": 0, "bound_skips": 0,
                "failures": [], "incidents": []}

    monkeypatch.setattr(toughcert.verify, "_scan_chunk", no_scan)
    monkeypatch.setattr(toughcert.verify, "_SCAN_CHUNK", 1 << 28)
    assert verify_theorem(8, 1).scope["n"] == 8
    assert scanned == [(8, 1, 0, 1 << 28)]
    # and the CLI flag that once enabled it is gone
    with pytest.raises(SystemExit) as exc:
        run(["verify-theorem", "--n", "8", "--t", "1", "--allow-order-8"])
    assert exc.value.code == 2


def test_verify_theorem_rejects_bad_tolerances_and_workers():
    # a NaN tolerance would make every band test false (a vacuous "ok"
    # scan with a bare NaN in its scope), a negative eps_eq would report
    # false spectral-bound failures at (5, 1), a bool would be reported
    # as true or false, a string, None or a Fraction is not a JSON
    # number, and workers=0 would run serially
    for kwargs in (
        {"eps_eq": math.nan},
        {"eps_strict": math.nan},
        {"eps_eq": math.inf},
        {"eps_strict": -math.inf},
        {"eps_eq": -1.0},
        {"eps_strict": -1e-12},
        {"eps_eq": True},
        {"eps_strict": False},
        {"eps_eq": None},
        {"eps_strict": "1e-9"},
        {"eps_eq": Fraction(1, 10**9)},
        {"workers": 0},
        {"workers": -2},
        {"workers": 2.0},
    ):
        with pytest.raises(DomainError):
            verify_theorem(5, 1, **kwargs)


def test_verify_theorem_caps_the_pool_at_the_chunk_count(monkeypatch):
    # no real processes: the fake context records the pool size it is
    # asked for and maps in this process.  The tables are emptied before
    # each run, and the warm-up before the pool must build every table
    # the chunks read.
    requested = []

    class FakePool:
        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            warmed = list(built)
            # connectivity comes packed with the levels: no order-5
            # component table
            assert ("levels", 5, 0) in warmed and ("comps", 5) not in warmed
            results = [fn(x) for x in items]
            assert built == warmed, "a table was built inside the pool"
            return results

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(toughcert.verify, "get_context", lambda method: FakeContext())
    serial = report_lines(verify_theorem(5, 1))
    monkeypatch.setattr(toughcert.verify, "_SCAN_CHUNK", 64)
    for cores, pools in ((64, [16]), (3, [3]), (1, [])):
        # 2^10 masks in chunks of 64, on the cores in the affinity set
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        requested.clear()
        built = _record_table_builds(monkeypatch)
        capped = verify_theorem(5, 1, workers=10**6)
        assert requested == pools, cores
        assert report_lines(capped) == serial
    # without an affinity call the core count caps the pool
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    requested.clear()
    built = _record_table_builds(monkeypatch)
    verify_theorem(5, 1, workers=10**6)
    assert requested == [5]


def test_verify_theorem_widened_band_reports_incidents_not_failures():
    # with a huge ambiguity band every non-tough graph lands in it, so
    # incidents appear but no failures
    summary = verify_theorem(4, 1, eps_strict=5.0)
    assert summary.ok
    assert summary.counts["eigensolves"] >= summary.counts["not_tough"]
    assert len(summary.incidents) == summary.counts["not_tough"] - summary.counts["exceptional"]


def test_verify_theorem_curiosity_logging():
    # K3 is the only tough graph at order 3 and sits well above the
    # threshold, so no curiosity records appear even when enabled
    summary = verify_theorem(3, 1, log_curiosities=True)
    assert summary.ok
    kinds = {rec["kind"] for rec in summary.incidents}
    assert "equality-curiosity" not in kinds


def test_partitions_desc():
    got = list(_partitions_desc(6, 3))
    assert got == [(4, 1, 1), (3, 2, 1), (2, 2, 2)]
    assert list(_partitions_desc(3, 1)) == [(3,)]
    assert list(_partitions_desc(2, 3)) == []


def test_verify_join_maximizer():
    for n, s, c in [(8, 1, 3), (12, 3, 4), (7, 2, 1), (9, 2, 2)]:
        summary = verify_join_maximizer(n, s, c)
        assert summary.ok, summary.failures
        assert summary.counts["shapes"] >= 1
    with pytest.raises(DomainError):
        verify_join_maximizer(3, 2, 2)  # no room for two parts


def test_bool_order_or_count_is_rejected():
    # True == 1 passes isinstance(..., int): every entry point refuses a
    # bool, or a float, as threshold does, with a DomainError rather than
    # a raw TypeError from deeper down
    for call in (
        lambda: is_extremal(build_extremal(1, 4), True),
        lambda: next(enumerate_connected(True)),
        lambda: verify_join_maximizer(4, True, 2),
        lambda: verify_join_maximizer(True, 1, 1),
        lambda: verify_join_maximizer(4, 1, True),
        lambda: verify_theorem(4, 1, workers=True),
        lambda: JoinCliqueSpec(True, (2,)),
        lambda: JoinCliqueSpec(2, (True,)),
        lambda: Graph(True, (0,)),
        lambda: complete(True),
        lambda: empty(True),
        lambda: empty(2.0),
        lambda: from_edges(2.0, []),
        lambda: graph_from_mask(True, 0),
        lambda: verify_subgraph_monotonicity(trials=True),
        # these two also take vertex sets and Fractions, so only the bool
        # is refused: True read as vertex 0, and as t = 1
        lambda: components_after_removal(build_extremal(1, 4), True),
        lambda: is_one_over_t_tough(build_extremal(1, 4), True),
    ):
        with pytest.raises(DomainError):
            call()


def test_empty_lemma_grids_are_domain_errors():
    # a grid with no member would report ok having checked nothing
    for call in (
        lambda: verify_quotient_embedding(n_max=2),
        lambda: verify_quotient_embedding(s_max=0),
        lambda: verify_threshold_identities(t_max=0),
        lambda: verify_threshold_identities(n_max=2),
        lambda: _maximizer_grid(3, 3, 4),
        lambda: _maximizer_grid(12, 0, 4),
        lambda: _maximizer_grid(12, 3, 0),
    ):
        with pytest.raises(DomainError):
            call()
    # the smallest grids hold one member each
    assert verify_quotient_embedding(1, 1, 3).counts == {"partitions": 1}
    assert verify_threshold_identities(1, 1, 3).counts == {"combinations": 1}
    assert [m.scope for m in _maximizer_grid(2, 1, 1)] == [
        {"n": 2, "s": 1, "c": 1, "eps": 1e-9}
    ]


def test_lemma_grid_bounds_are_integers():
    # a bool bound would run as 0 or 1 and be reported as true or false
    # in the scope, and a float one would reach range() as a TypeError
    for call in (
        lambda: verify_quotient_embedding(s_max=True, t_max=1, n_max=4),
        lambda: verify_quotient_embedding(s_max=2.5),
        lambda: verify_quotient_embedding(n_max=12.0),
        lambda: verify_threshold_identities(t_max=True),
        lambda: verify_threshold_identities(s_max=1, t_max=1, n_max=3.5),
        lambda: _maximizer_grid(12, True, 4),
        lambda: _maximizer_grid(12.0, 3, 4),
        lambda: _maximizer_grid(12, 3, 4.0),
    ):
        with pytest.raises(DomainError, match="must be integers"):
            call()


def test_verify_quotient_embedding():
    summary = verify_quotient_embedding(s_max=2, t_max=2, n_max=14)
    assert summary.ok, summary.failures
    assert summary.counts["partitions"] > 0


def test_verify_subgraph_monotonicity_deterministic():
    a = verify_subgraph_monotonicity(trials=60, seed=99)
    b = verify_subgraph_monotonicity(trials=60, seed=99)
    assert a.ok
    assert report_lines(a) == report_lines(b)
    with pytest.raises(DomainError):
        verify_subgraph_monotonicity(trials=0)


def test_monotonicity_subgraphs_are_the_deletions_they_claim(monkeypatch):
    # no report shows the subgraph while every trial passes, so the pins
    # cannot see a wrong one: record each (g, h) pair and each deletion
    # the suite draws, and rebuild h from g's edge list
    radii, choices = [], []

    def recording_radius(g, **kw):
        radii.append(g)
        return spectral_radius(g, **kw)

    class RecordingRandom(random.Random):
        def choice(self, seq):
            picked = super().choice(seq)
            choices.append(picked)
            return picked

    monkeypatch.setattr(toughcert.verify, "spectral_radius", recording_radius)
    monkeypatch.setattr(toughcert.verify, "random", SimpleNamespace(Random=RecordingRandom))
    summary = verify_subgraph_monotonicity(trials=60, seed=99)
    assert summary.ok
    assert len(radii) == 2 * len(choices) == 120
    assert {c[0] for c in choices} == {"edge", "vertex"}
    for g, h, choice in zip(radii[::2], radii[1::2], choices):
        edges = list(g.edges())
        if choice[0] == "edge":
            assert choice[1:] in edges
            want = from_edges(g.n, [e for e in edges if e != choice[1:]])
        else:
            v = choice[1]
            want = from_edges(
                g.n - 1, [(a - (a > v), b - (b > v)) for a, b in edges if v not in (a, b)]
            )
        assert h == want, (to_graph6(g), choice)
        assert is_connected(h)


def test_verify_threshold_identities_small_grid():
    summary = verify_threshold_identities(s_max=3, t_max=3, n_max=18)
    assert summary.ok, summary.failures
    assert summary.counts["combinations"] > 0


def test_report_lines_are_stable_json():
    summary = verify_theorem(4, 1)
    lines = report_lines(summary)
    for line in lines:
        rec = json.loads(line)
        assert json.dumps(rec, sort_keys=True) == line
    assert json.loads(lines[-1])["record"] == "summary"
