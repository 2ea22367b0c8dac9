import random

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
from toughcert.thresholds import build_extremal
from toughcert.verify import enumerate_connected

from oracles import (
    brute_components,
    brute_connected,
    graph6_decode,
    graph6_encode,
    isomorphic,
    neighbor_sets,
    random_graph,
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


def test_graph6_known_strings():
    assert to_graph6(complete(2)) == "A_"
    assert to_graph6(complete(3)) == "Bw"
    # hand-decoded: order 5, first six pair bits 0, then the four
    # edges (0,4), (1,4), (2,4), (3,4): the star with center 4
    star = parse_graph6("D?{")
    assert star.degrees() == (1, 1, 1, 1, 4)
    paw = build_extremal(1, 4)
    assert to_graph6(paw) == "C{"


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
    rng = random.Random(17)
    for n in range(1, 63):
        for g in (empty(n), complete(n), random_graph(rng, n, 0.5)):
            text = graph6_encode(g)
            assert to_graph6(g) == text, n
            assert neighbor_sets(parse_graph6(text)) == graph6_decode(text), n


def test_graph6_errors_carry_offsets():
    with pytest.raises(Graph6ParseError) as err:
        parse_graph6("")
    assert err.value.offset == 0
    with pytest.raises(Graph6ParseError) as err:
        parse_graph6("~AAAA")  # long form rejected
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


def test_graph6_order_63_rejected_on_write():
    with pytest.raises(DomainError):
        to_graph6(empty(63))


def test_iter_graph6_skips_header_and_blanks():
    lines = [">>graph6<<", "", "A_", "  Bw  ", ""]
    got = list(iter_graph6(lines))
    assert got == [complete(2), complete(3)]
