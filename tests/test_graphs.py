import pickle
import random

import numpy as np
import pytest

from toughcert import (
    DomainError,
    Graph,
    Graph6ParseError,
    complete,
    components_after_removal,
    disjoint_union,
    empty,
    from_edges,
    is_connected,
    is_extremal,
    iter_graph6,
    join,
    parse_graph6,
    to_graph6,
)
from toughcert.graphs import _extremal_core, _matrix
from toughcert.thresholds import build_extremal
from toughcert.verify import enumerate_connected, graph_from_mask

from oracles import (
    _count_components,
    bfs_extremal,
    brute_components,
    brute_connected,
    graph6_decode,
    graph6_encode,
    isomorphic,
    neighbor_sets,
    random_graph,
    set_components,
)


def test_graph_validation():
    with pytest.raises(DomainError):
        Graph(0, ())
    with pytest.raises(DomainError):
        Graph(2, (1, 0))  # asymmetric
    with pytest.raises(DomainError):
        Graph(2, (1, 2))  # loop at vertex 1
    with pytest.raises(DomainError):
        Graph(2, (4, 0))  # names vertex 2
    with pytest.raises(DomainError):
        from_edges(3, [(0, 3)])


@pytest.mark.parametrize("n", [8, 9, 16, 17, 62, 100])
def test_graph_validation_across_byte_boundaries(n):
    last = n - 1
    cases = [
        ({last: 1 << last}, f"loop at vertex {last}"),
        ({0: 1 << last}, f"asymmetric adjacency between {last} and 0"),
        ({last: 1 << n}, f"adjacency of vertex {last} names a vertex >= n"),
    ]
    for rows, message in cases:
        adj = [rows.get(v, 0) for v in range(n)]
        with pytest.raises(DomainError, match=message):
            Graph(n, tuple(adj))


def test_trusted_builders_pass_the_public_checks():
    # parse_graph6 and graph_from_mask skip the constructor's re-check;
    # every graph they build must pass it and compare equal
    rng = random.Random(61)
    for n in range(1, 9):
        for _ in range(300):
            g = graph_from_mask(n, rng.getrandbits(n * (n - 1) // 2))
            assert Graph(g.n, g.adj) == g
    for n in range(1, 71):
        nbits = n * (n - 1) // 2
        ndata = -(-nbits // 6)
        header = to_graph6(empty(n))[: 1 if n <= 62 else 4]
        for _ in range(20):
            digits = [rng.randrange(64) for _ in range(ndata)]
            if digits:  # clear the last digit's pad bits
                digits[-1] &= -1 << (6 * ndata - nbits)
            g = parse_graph6(header + "".join(chr(d + 63) for d in digits))
            assert Graph(g.n, g.adj) == g
    with pytest.raises(DomainError):
        graph_from_mask(0, 0)


def test_complete_and_empty():
    k4 = complete(4)
    assert k4.degrees() == (3, 3, 3, 3)
    assert k4.edge_count() == 6
    assert empty(3).edge_count() == 0
    assert complete(1).n == 1
    with pytest.raises(DomainError):
        complete(0)


def test_union_and_join():
    g = disjoint_union(complete(2), complete(3))
    assert g.n == 5
    assert g.edge_count() == 4
    assert not is_connected(g)
    j = join(complete(2), complete(3))
    assert j.edge_count() == 4 + 6
    assert is_connected(j)
    # join edge count is additive plus the full bipartite bundle
    rng = random.Random(7)
    for _ in range(20):
        a = random_graph(rng, rng.randint(1, 6), 0.5)
        b = random_graph(rng, rng.randint(1, 6), 0.5)
        jj = join(a, b)
        assert jj.edge_count() == a.edge_count() + b.edge_count() + a.n * b.n
        assert is_connected(jj)


def test_star_is_join_of_point_and_empty():
    star = join(complete(1), empty(3))
    assert star.degrees() == (3, 1, 1, 1)
    assert star == build_extremal(2, 4)


def test_components_after_removal():
    p3 = join(complete(1), empty(2))  # center is vertex 0
    assert components_after_removal(p3, [0]) == 2
    assert components_after_removal(p3, [1]) == 1
    assert components_after_removal(complete(4), [0]) == 1
    paw = build_extremal(1, 4)
    assert components_after_removal(paw, [0]) == 2
    # bitmask form agrees with the iterable form
    assert components_after_removal(paw, 0b0001) == 2
    with pytest.raises(DomainError):
        components_after_removal(p3, [0, 1, 2])
    with pytest.raises(DomainError):
        components_after_removal(p3, [3])


def test_components_match_set_oracle():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        removed = {v for v in range(n) if rng.random() < 0.3}
        if len(removed) == n:
            removed.pop()
        assert components_after_removal(g, removed) == brute_components(g, removed)
        assert is_connected(g) == brute_connected(g)
    # _reach stops once the expanded rows cover what it searches; every
    # graph of order <= 5 and every removal set that leaves a vertex
    for n in range(1, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_mask(n, mask)
            assert is_connected(g) == brute_connected(g), (n, mask)
            for removed in range((1 << n) - 1):
                expected = brute_components(g, {v for v in range(n) if removed >> v & 1})
                assert components_after_removal(g, removed) == expected, (n, mask, removed)


def test_bitset_component_oracle_matches_the_set_count():
    # every graph of order <= 5 and every vertex subset left after a removal
    for n in range(1, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_mask(n, mask)
            nbrs = neighbor_sets(g)
            for left in range(1 << n):
                vertices = {v for v in range(n) if left >> v & 1}
                assert _count_components(g.adj, left) == set_components(nbrs, vertices), (n, mask, left)


def test_rows_and_matrix_match_a_plain_bit_loop():
    # orders up to 64 unpack each row from one machine word, larger ones
    # from bytes; 63, 64 and 65 sit on either side of the word
    rng = random.Random(71)
    for n in range(1, 71):
        full = (1 << n) - 1
        for rows in [(0,) * n, (full,) * n] + [
            tuple(rng.getrandbits(n) for _ in range(n)) for _ in range(4)
        ]:
            m = _matrix(n, rows)
            assert m.dtype == np.uint8 and m.shape == (n, n), n
            assert m.tolist() == [[row >> j & 1 for j in range(n)] for row in rows], n


def test_kept_matrix_is_a_cache_not_state():
    rng = random.Random(83)
    for n in (5, 30, 64, 65, 100):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        built = from_edges(n, edges)
        parsed = parse_graph6(to_graph6(built))
        masked = Graph._trusted(n, built.adj)  # unpacks on first use
        for g in (parsed, masked):
            assert g == built and hash(g) == hash(built), n
            assert repr(g) == repr(built), n
            assert g._bitmatrix.tolist() == built._bitmatrix.tolist(), n
            assert not g._bitmatrix.flags.writeable, n
            for h in (pickle.loads(pickle.dumps(g)), pickle.loads(pickle.dumps(built))):
                assert h == g and hash(h) == hash(g), n
                assert h._bitmatrix.tolist() == g._bitmatrix.tolist(), n
                assert to_graph6(h) == to_graph6(built), n


def test_is_extremal_examples():
    paw = build_extremal(1, 4)
    assert is_extremal(paw, 1)
    assert not is_extremal(complete(4), 1)
    c4 = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert not is_extremal(c4, 1)
    star = build_extremal(2, 4)
    assert is_extremal(star, 2)
    assert not is_extremal(star, 1)
    with pytest.raises(DomainError):
        is_extremal(paw, 3)  # order below t + 2
    with pytest.raises(DomainError):
        is_extremal(disjoint_union(complete(2), complete(2)), 1)
    with pytest.raises(DomainError):
        is_extremal(paw, 0)


def test_is_extremal_matches_isomorphism_oracle():
    # every connected graph of order <= 5, every feasible t
    for n in range(3, 6):
        for t in range(1, n - 1):
            target = build_extremal(t, n)
            for g in enumerate_connected(n):
                assert is_extremal(g, t) == isomorphic(g, target), (
                    to_graph6(g), t)


def test_is_extremal_matches_oracle_sampled_order_6():
    rng = random.Random(5)
    targets = {t: build_extremal(t, 6) for t in range(1, 5)}
    checked = 0
    for g in enumerate_connected(6):
        if rng.random() < 0.08:
            for t in range(1, 5):
                assert is_extremal(g, t) == isomorphic(g, targets[t])
            checked += 1
    assert checked > 1500


def test_row_recognizer_matches_bfs_reference():
    # the recognizer reads the shape off the rows; the reference splits
    # G - hub into components.  Every labeled graph of order <= 6,
    # disconnected ones included, at every t <= n - 2
    accepted = 0
    for n in range(3, 7):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_mask(n, mask)
            for t in range(1, n - 1):
                got = _extremal_core(g.adj, n, t)
                assert got == bfs_extremal(g, t), (n, mask, t)
                accepted += got
    # n * C(n - 1, t) labelings per (n, t), n of them for the star
    assert accepted == 3 + (4 * 3 + 4) + (5 * 4 + 5 * 6 + 5) + (6 * 5 + 6 * 10 + 6 * 10 + 6)


def test_graph6_known_strings():
    assert to_graph6(complete(2)) == "A_"
    assert to_graph6(complete(3)) == "Bw"
    # hand-decoded: order 5, first six pair bits 0, then the four
    # edges (0,4), (1,4), (2,4), (3,4): the star with center 4
    star = parse_graph6("D?{")
    assert star.degrees() == (1, 1, 1, 1, 4)
    paw = build_extremal(1, 4)
    assert to_graph6(paw) == "C{"
    # formats.txt: the long form writes order 63 as '~' then 0, 0, 63
    assert to_graph6(empty(63)).startswith("~??~?")


def test_graph6_round_trip_structured():
    for g in (
        complete(1),
        complete(2),
        empty(5),
        complete(62),
        build_extremal(3, 9),
        join(complete(2), empty(4)),
    ):
        assert parse_graph6(to_graph6(g)) == g


def test_graph6_matches_bit_list_reference_at_every_order():
    # the parser gathers a matrix one 64-bit word wide up to order 64,
    # two words wide from 65, and at 513 through an index it does not
    # cache; the graph keeps its first n columns
    rng = random.Random(17)
    for n in [*range(1, 71), 100, 513]:  # short form to 62, then long form
        graphs = [random_graph(rng, n, 0.5)]
        if n <= 100:
            graphs += [empty(n), complete(n)]
        for g in graphs:
            text = graph6_encode(g)
            assert to_graph6(g) == text, n
            parsed = parse_graph6(text)
            nbrs = graph6_decode(text)
            assert neighbor_sets(parsed) == nbrs, n
            assert all(type(row) is int for row in parsed.adj), n
            assert parsed._bitmatrix.tolist() == [
                [int(u in nbrs[v]) for u in range(n)] for v in range(n)
            ], n


def test_graph6_errors_carry_offsets():
    with pytest.raises(Graph6ParseError) as err:
        parse_graph6("")
    assert err.value.offset == 0
    with pytest.raises(Graph6ParseError) as err:
        parse_graph6("~~AAAAAA")  # 8-byte header of orders above 258047
    assert err.value.offset == 0
    with pytest.raises(Graph6ParseError) as err:
        parse_graph6("C")  # truncated: order 4 needs one data byte
    assert err.value.offset == 1
    with pytest.raises(Graph6ParseError) as err:
        parse_graph6("A_X")  # trailing garbage
    assert err.value.offset == 2
    with pytest.raises(Graph6ParseError) as err:
        parse_graph6("A" + chr(30))  # byte below 63
    assert err.value.offset == 1
    with pytest.raises(Graph6ParseError) as err:
        parse_graph6("A ")  # byte 32 below 63
    assert err.value.offset == 1
    # order 2 has one pair bit; group 010000 sets a padding bit
    with pytest.raises(Graph6ParseError) as err:
        parse_graph6("AO")
    assert err.value.offset == 1
    with pytest.raises(Graph6ParseError):
        parse_graph6("?")  # order 0


def test_graph6_long_form_errors_carry_offsets():
    cases = [
        ("~", 1),  # truncated header
        ("~?@", 3),
        ("~? @" + "?" * 340, 2),  # byte 32 in the header
        ("~???", 0),  # long header for order 0
        ("~??}", 0),  # order 62 belongs to the short form
        ("~?@?" + "?" * 335, 339),  # order 64 needs 336 data bytes
        ("~?@?" + "?" * 337, 340),  # trailing byte
        ("~??~" + "?" * 325 + "@", 329),  # order 63: 1953 bits, pad bits set
    ]
    for text, offset in cases:
        with pytest.raises(Graph6ParseError) as err:
            parse_graph6(text)
        assert err.value.offset == offset, text


def test_graph6_order_above_258047_rejected_on_write():
    class Huge:  # stand-in: a real graph of this order would not fit in memory
        n = 258048

    with pytest.raises(DomainError):
        to_graph6(Huge())


def test_iter_graph6_skips_header_and_blanks():
    lines = [">>graph6<<", "", "A_", "  Bw  ", ""]
    got = list(iter_graph6(lines))
    assert got == [complete(2), complete(3)]
