import math
import random

import numpy as np
import pytest

from toughcert import (
    DomainError,
    SizeLimitError,
    adjacency_matrix,
    complete,
    disjoint_union,
    empty,
    from_edges,
    full_spectrum,
    is_equitable,
    join,
    quotient_matrix,
    quotient_radius_check,
    quotient_spectrum,
    spectral_radius,
)
from toughcert.spectral import _perron_brackets
from toughcert.thresholds import build_extremal, threshold

from oracles import (
    eig_radius,
    eigvals_desc,
    radius_below,
    random_connected_graph,
    random_graph,
)


def p3():
    return join(complete(1), empty(2))


def test_adjacency_matrix():
    a = adjacency_matrix(p3())
    assert a.tolist() == [[0, 1, 1], [1, 0, 0], [1, 0, 0]]
    assert (a == a.T).all()
    k4 = adjacency_matrix(complete(4))
    assert k4.sum() == 12


def test_spectral_radius_known_values():
    assert spectral_radius(complete(1)) == 0.0
    assert spectral_radius(empty(4)) == 0.0
    assert abs(spectral_radius(complete(5)) - 4.0) <= 1e-11
    c4 = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert abs(spectral_radius(c4) - 2.0) <= 1e-11
    assert abs(spectral_radius(p3()) - math.sqrt(2)) <= 1e-11
    star = join(complete(1), empty(5))
    assert abs(spectral_radius(star) - math.sqrt(5)) <= 1e-11
    # above order 63 a neighbour row no longer fits one machine word
    assert abs(spectral_radius(complete(100)) - 99.0) <= 1e-9
    path = from_edges(70, [(i, i + 1) for i in range(69)])
    assert abs(spectral_radius(path) - 2 * math.cos(math.pi / 71)) <= 1e-11


def _barbell_with_leaf(a, inner):
    """Two copies of K_a joined by a path through ``inner`` new vertices,
    plus a leaf on vertex 0.  The two largest eigenvalues differ by only
    0.03-0.08 on the shapes tested."""
    n = 2 * a + inner
    edges = [(i, j) for i in range(a) for j in range(i + 1, a)]
    edges += [(i, j) for i in range(a + inner, n) for j in range(i + 1, n)]
    chain = [a - 1, *range(a, a + inner), a + inner]
    edges += list(zip(chain, chain[1:]))
    edges.append((0, n))
    return from_edges(n + 1, edges)


def test_spectral_radius_exact_bracket():
    rng = random.Random(23)
    graphs = [
        random_connected_graph(rng, rng.randint(2, 20), rng.uniform(0.2, 0.9))
        for _ in range(40)
    ]
    graphs += [
        _barbell_with_leaf(a, inner)
        for a, inners in ((4, range(3, 7)), (5, range(2, 6)), (6, (1, 2, 3)), (7, (1,)))
        for inner in inners
    ]
    for g in graphs:
        lam = spectral_radius(g)
        assert radius_below(g, lam + 1e-9)
        assert not radius_below(g, lam - 1e-9)


def _path(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _complete_bipartite(a, b):
    return join(empty(a), empty(b))


def test_squaring_brackets_contain_the_exact_radius():
    # the last bracket, where the ratios agree to rounding level or the
    # cap is reached, is the tightest: its ends sit within a few
    # rounding errors of lambda_1
    rng = random.Random(29)
    graphs = [
        random_connected_graph(rng, n, rng.uniform(0.15, 0.9)) for n in (24, 27, 31, 35, 40)
    ]
    graphs += [_path(30), _cycle(30), _complete_bipartite(11, 14), complete(30)]
    graphs += [build_extremal(t, 30) for t in (1, 2, 3)]
    for g in graphs:
        *_, (lo, hi, x, ax) = _perron_brackets(adjacency_matrix(g))
        assert lo <= float(x @ ax) / float(x @ x) <= hi, g
        assert not radius_below(g, lo), g
        assert radius_below(g, hi), g


def _power_rows(g):
    """Row 0 of (A + I)^(2^k) for k = 1, 2, ..., each divided by its
    largest entry: full squarings in Python integers, cut back to 200
    bits after each, so an entry down to 2^-140 of the largest keeps 60
    bits."""
    b = np.array(
        [[int(u == v or g.has_edge(u, v)) for u in range(g.n)] for v in range(g.n)],
        dtype=object,
    )
    while True:
        b = np.dot(b, b)
        b = b >> max(0, max(int(e).bit_length() for e in b.flat) - 200)
        top = max(b[0])
        yield [int(e) / top for e in b[0]]


def test_each_bracket_reads_row_0_of_the_next_power():
    # three squarings and a product give B^16 e0, then each bracket one
    # squaring and one product: the k-th vector is row 0 of B^(2^k), up
    # to scale, from the first bracket (k = 4, or the first k whose row
    # has no zero) to the last
    rng = random.Random(31)
    graphs = [
        random_connected_graph(rng, n, rng.uniform(0.1, 0.9)) for n in (24, 29, 37, 46, 58, 70)
    ]
    graphs += [_path(70), _cycle(64), _barbell_with_leaf(12, 3)]
    checked = 0
    for g in graphs:
        brackets = list(_perron_brackets(adjacency_matrix(g)))
        assert brackets, g.n
        rows = (row for k, row in enumerate(_power_rows(g), 1) if k >= 4 and min(row) > 0)
        for (lo, hi, x, ax), row in zip(brackets, rows):
            assert np.allclose(x / x.max(), row, rtol=1e-9, atol=0), (g.n, lo, hi)
            checked += 1
    # the path, cycle and barbell run to the cap of 14
    assert checked >= 3 * 8


def test_squaring_decides_bipartite_and_long_path_graphs(lapack_calls):
    # the +I shift is what lets bipartite graphs converge: without it
    # row 0 of every even power of A vanishes on the far side
    path = _path(70)
    assert (np.linalg.matrix_power(adjacency_matrix(path) + np.eye(70), 16)[0] == 0).any()
    cases = [
        (path, 2 * math.cos(math.pi / 71)),
        (_path(30), 2 * math.cos(math.pi / 31)),
        (_cycle(30), 2.0),
        (_cycle(64), 2.0),
        (_complete_bipartite(12, 14), math.sqrt(12 * 14)),
        (complete(30), 29.0),
        (complete(200), 199.0),
    ]
    for g, exact in cases:
        assert abs(spectral_radius(g) - exact) <= 1e-12 * exact, g.n
    assert lapack_calls == []


def test_disconnected_and_small_gap_graphs_take_lapack(lapack_calls):
    graphs = [
        disjoint_union(complete(12), complete(12)),
        disjoint_union(_path(29), complete(1)),
        disjoint_union(complete(1), _cycle(40)),
        # gaps 0.008 and 0.009 at orders 30 and 27: 14 squarings are
        # not enough for 12 digits
        _barbell_with_leaf(12, 3),
        _barbell_with_leaf(11, 4),
        # gaps 0.049 and 0.054 at orders 14 and 16, below the window
        _barbell_with_leaf(5, 3),
        _barbell_with_leaf(7, 1),
    ]
    for g in graphs:
        assert spectral_radius(g) == eig_radius(g), g.n
    assert lapack_calls == [1] * len(graphs)


def test_a_cut_inside_the_bracket_takes_lapack(lapack_calls):
    # lambda_1 of the sharpness example is exactly the threshold
    for t in (1, 2, 3):
        g = build_extremal(t, 40)
        eta = threshold(t, 40).value
        assert abs(spectral_radius(g, cuts=(eta + 1e-9,)) - eta) <= 1e-12 * eta
        assert lapack_calls == []
        assert spectral_radius(g, cuts=(1.0, eta)) == eig_radius(g)
        assert lapack_calls == [1]
        lapack_calls.clear()
    # on K_30 the ratios (Ax)_i/x_i all round to 29(1 - u): a cut 75 u
    # above 29 lies past the Collatz-Wielandt bracket (60 u) but inside
    # eigvalsh's error allowance (30 u more), so it still takes eigvalsh
    u = float(np.finfo(float).eps) / 2
    assert abs(spectral_radius(complete(30), cuts=(29 * (1 + 120 * u),)) - 29) <= 1e-12
    assert lapack_calls == []
    assert spectral_radius(complete(30), cuts=(29 * (1 + 75 * u),)) == eig_radius(complete(30))
    assert lapack_calls == [1]


def test_spectral_radius_matches_lapack_oracle():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 30)
        g = random_graph(rng, n, rng.uniform(0.0, 0.9))
        assert abs(spectral_radius(g) - eig_radius(g)) <= 1e-9


def test_spectral_radius_bounds():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 20)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        lam = spectral_radius(g)
        degs = g.degrees()
        maxdeg = max(degs)
        avg = sum(degs) / n
        assert lam <= maxdeg + 1e-9
        assert lam <= n - 1 + 1e-9
        assert lam >= avg - 1e-9
        assert lam >= math.sqrt(maxdeg) - 1e-9


def test_full_spectrum_known_values():
    spec = full_spectrum(adjacency_matrix(complete(2)))
    assert max(abs(a - b) for a, b in zip(spec.values, (1.0, -1.0))) <= 1e-11
    spec = full_spectrum(adjacency_matrix(complete(4)))
    assert max(abs(a - b) for a, b in zip(spec.values, (3.0, -1.0, -1.0, -1.0))) <= 1e-11
    assert spec.radius == spec.values[0]
    one = full_spectrum([[5.0]])
    assert one.values == (5.0,)


def test_full_spectrum_matches_lapack_oracle():
    rng = np.random.default_rng(19)
    for _ in range(25):
        m = int(rng.integers(2, 16))
        a = rng.normal(size=(m, m))
        a = (a + a.T) / 2
        mine = full_spectrum(a).values
        ref = eigvals_desc(a)
        assert max(abs(x - y) for x, y in zip(mine, ref)) <= 1e-9
        assert abs(sum(mine) - float(np.trace(a))) <= 1e-8


def test_full_spectrum_sorted_and_tolerance():
    a = adjacency_matrix(build_extremal(2, 7))
    spec = full_spectrum(a)
    assert all(x >= y for x, y in zip(spec.values, spec.values[1:]))
    assert spec.tolerance <= 1e-12 * max(1.0, float(np.linalg.norm(a)))


def test_full_spectrum_input_validation():
    with pytest.raises(DomainError):
        full_spectrum(np.zeros((2, 3)))
    with pytest.raises(DomainError):
        full_spectrum([[0.0, 1.0], [0.5, 0.0]])  # asymmetric
    with pytest.raises(DomainError):
        full_spectrum([[float("nan"), 0.0], [0.0, 0.0]])
    with pytest.raises(SizeLimitError):
        full_spectrum(np.zeros((600, 600)))


def test_quotient_matrix_examples():
    # path on 3 vertices, center first: blocks {center}, {leaves}
    q = quotient_matrix(adjacency_matrix(p3()), [[0], [1, 2]])
    assert q.tolist() == [[0.0, 2.0], [1.0, 0.0]]
    # dominating vertex over (K2 u K1): the 3x3 quotient
    paw = build_extremal(1, 4)
    q = quotient_matrix(adjacency_matrix(paw), [[0], [1, 2], [3]])
    assert q.tolist() == [[0.0, 2.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
    # single block: average degree
    q = quotient_matrix(adjacency_matrix(complete(4)), [[0, 1, 2, 3]])
    assert q.tolist() == [[3.0]]


def test_quotient_partition_validation():
    a = adjacency_matrix(complete(3))
    with pytest.raises(DomainError):
        quotient_matrix(a, [[0, 1]])  # misses vertex 2
    with pytest.raises(DomainError):
        quotient_matrix(a, [[0, 1], [1, 2]])  # overlap
    with pytest.raises(DomainError):
        quotient_matrix(a, [[0, 1, 2], []])
    with pytest.raises(DomainError):
        quotient_matrix(a, [[0, 1, 3]])


def test_is_equitable():
    a = adjacency_matrix(p3())
    assert is_equitable(a, [[0], [1, 2]])
    p4 = adjacency_matrix(from_edges(4, [(0, 1), (1, 2), (2, 3)]))
    assert is_equitable(p4, [[0, 3], [1, 2]])
    assert not is_equitable(p4, [[0, 1], [2, 3]])
    paw = adjacency_matrix(build_extremal(1, 4))
    assert is_equitable(paw, [[0], [1, 2], [3]])
    assert not is_equitable(paw, [[0], [1, 2, 3]])


def test_quotient_spectrum_matches_general_eigensolver():
    # the symmetrized quotient must carry the same eigenvalues as the
    # raw (non-symmetric) quotient matrix
    paw = build_extremal(1, 4)
    a = adjacency_matrix(paw)
    blocks = [[0], [1, 2], [3]]
    mine = quotient_spectrum(a, blocks).values
    raw = sorted(np.linalg.eigvals(quotient_matrix(a, blocks)).real, reverse=True)
    assert max(abs(x - y) for x, y in zip(mine, raw)) <= 1e-9


def test_quotient_radius_check_equitable_families():
    for t, n in [(1, 4), (1, 6), (2, 5), (3, 8)]:
        g = build_extremal(t, n)
        blocks = [[0], list(range(1, n - t)), list(range(n - t, n))]
        lam, qlam = quotient_radius_check(g, blocks)
        assert abs(lam - qlam) <= 1e-8
    lam, qlam = quotient_radius_check(complete(5), [[0, 1, 2, 3, 4]])
    assert abs(lam - 4.0) <= 1e-9 and abs(qlam - 4.0) <= 1e-9


def test_quotient_radius_check_rejects_non_equitable():
    paw = build_extremal(1, 4)
    with pytest.raises(DomainError):
        quotient_radius_check(paw, [[0], [1, 2, 3]])


def test_quotient_routines_read_blocks_once():
    # a generator of blocks, or a block given as an iterator, can be
    # read only once: each form gives what the list form gives
    g = build_extremal(2, 6)  # K1 v (K3 u 2K1)
    a = adjacency_matrix(g)
    blocks = [[0], [1, 2, 3], [4, 5]]
    forms = {
        "list": lambda: blocks,
        "generator": lambda: (list(b) for b in blocks),
        "iterator blocks": lambda: [iter(b) for b in blocks],
    }
    want_spectrum = quotient_spectrum(a, blocks)
    want_check = quotient_radius_check(g, blocks)
    assert abs(want_check[0] - want_check[1]) <= 1e-9
    for name, form in forms.items():
        assert quotient_spectrum(a, form()) == want_spectrum, name
        assert quotient_radius_check(g, form()) == want_check, name


def test_quotient_routines_match_the_block_pair_loops():
    # reference: one a[np.ix_(bi, bj)] sum per pair of blocks.  On a 0/1
    # matrix both routes sum exact integers, so the quotients are equal
    rng = random.Random(26)
    verdicts = set()
    for _ in range(300):
        n = rng.randint(1, 10)
        a = adjacency_matrix(random_graph(rng, n, rng.uniform(0.2, 0.9)))
        labels = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
        blocks = [[v for v in range(n) if labels[v] == b] for b in sorted(set(labels))]
        pair_sums = [[a[np.ix_(bi, bj)].sum(axis=1) for bj in blocks] for bi in blocks]
        want = np.array([[float(x.sum()) / len(x) for x in row] for row in pair_sums])
        assert np.array_equal(quotient_matrix(a, blocks), want)
        equitable = all(x.max() == x.min() for row in pair_sums for x in row)
        assert is_equitable(a, blocks) == equitable
        verdicts.add(equitable)
        raw = sorted(np.linalg.eigvals(want).real, reverse=True)
        got = quotient_spectrum(a, blocks).values
        assert max(abs(x - y) for x, y in zip(got, raw)) <= 1e-9 * n
    assert verdicts == {True, False}


def test_quotient_eigenvalues_embed_in_spectrum():
    for t, n in [(1, 5), (2, 6), (2, 8)]:
        g = build_extremal(t, n)
        a = adjacency_matrix(g)
        blocks = [[0], list(range(1, n - t)), list(range(n - t, n))]
        full = full_spectrum(a).values
        for q in quotient_spectrum(a, blocks).values:
            assert min(abs(q - x) for x in full) <= 1e-8
