import json
import random
from fractions import Fraction

import numpy as np
import pytest

from toughcert import (
    DomainError,
    SizeLimitError,
    build_extremal,
    certify,
    complete,
    components_after_removal,
    disjoint_union,
    empty,
    from_edges,
    is_connected,
    is_one_over_t_tough,
    join,
    parse_graph6,
    toughness_exact,
)
from toughcert import toughness
from toughcert.toughness import _cut_order, _cut_plan, _degrees_rule_out
from toughcert.verify import _level_table, enumerate_connected, mask_of_graph

from oracles import brute_components, brute_toughness, brute_toughness_witness, random_connected_graph


def test_complete_graphs_are_infinitely_tough():
    for n in range(1, 7):
        res = toughness_exact(complete(n))
        assert res.infinite
        assert res.value() is None
        assert res.is_at_least(10**9)
        assert str(res) == "infinite"


def test_known_values_and_witnesses():
    star = join(complete(1), empty(3))
    res = toughness_exact(star)
    assert (res.numerator, res.denominator) == (1, 3)
    assert res.witness == (0,)
    assert res.value() == Fraction(1, 3)
    c4 = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    res = toughness_exact(c4)
    assert res.value() == 1
    assert (res.numerator, res.denominator) == (2, 2)  # kept unreduced
    assert res.witness == (0, 2)
    paw = build_extremal(1, 4)
    assert toughness_exact(paw).value() == Fraction(1, 2)


def test_witness_reproduces_the_ratio():
    rng = random.Random(37)
    for _ in range(80):
        g = random_connected_graph(rng, rng.randint(3, 8), rng.uniform(0.3, 0.8))
        res = toughness_exact(g)
        if res.infinite:
            continue
        c = components_after_removal(g, res.witness)
        assert c == res.denominator
        assert len(res.witness) == res.numerator
        assert c >= 2


def test_matches_unpruned_oracle_exhaustively_small():
    # also the exhaustive scan's toughness level, packed as level + 1
    # for a connected graph and 0 for every other mask: level >= t
    # exactly when the toughness is below 1/t, for every t, from one
    # level per graph over cuts up to the t = 1 cap; and the degree rule:
    # whenever it rules out every cut size the graph is 1/t-tough, and
    # from order 3 on it decides some graph whose plan is not empty
    ts = (Fraction(1, 2), Fraction(3, 2))
    rule_ts = (Fraction(1), Fraction(2), Fraction(3)) + ts
    for n in range(1, 7):
        graphs = list(enumerate_connected(n))
        masks = np.array([mask_of_graph(g) for g in graphs], dtype=np.int64)
        packed = _level_table(n)
        assert packed[masks].all() and np.count_nonzero(packed) == masks.size, n
        levels = (packed[masks] - 1).tolist()
        rules = [_cut_plan(n, t.numerator, t.denominator)[3] for t in rule_ts]
        decided = 0
        for g, level in zip(graphs, levels):
            mine = toughness_exact(g)
            first = brute_toughness_witness(g)
            ref = None if first is None else Fraction(*first[:2])
            for t, rule in zip(rule_ts, rules):
                if _degrees_rule_out(g.adj, rule):
                    assert ref is None or ref >= 1 / t, (n, g.adj, t)
                    decided += bool(rule)
            for t in range(1, 5):
                assert (level >= t) == (ref is not None and ref < Fraction(1, t)), (n, g.adj, t)
            if ref is None:
                assert mine.infinite
            else:
                # the unreduced ratio and the witness are the first
                # least ratio in (size, lexicographic) order
                assert (mine.numerator, mine.denominator, mine.witness) == first, (n, g.adj)
            for t in ts:
                ok, witness = is_one_over_t_tough(g, t)
                assert ok == (ref is None or ref >= 1 / t), (n, g.adj, t)
                if not ok:
                    assert t * len(witness) < brute_components(g, set(witness))
        assert decided or n < 3, n


def test_matches_unpruned_oracle_random():
    rng = random.Random(41)
    for _ in range(120):
        g = random_connected_graph(rng, rng.randint(3, 8), rng.uniform(0.25, 0.9))
        mine = toughness_exact(g)
        ref = brute_toughness(g)
        assert (ref is None) == mine.infinite
        if ref is not None:
            assert mine.value() == ref


def test_matches_unpruned_oracle_random_larger_orders():
    rng = random.Random(53)
    for n in range(11, 15):
        for _ in range(2):
            g = random_connected_graph(rng, n, rng.uniform(0.2, 0.85))
            mine = toughness_exact(g)
            assert mine.value() == brute_toughness(g), n
            assert brute_components(g, set(mine.witness)) == mine.denominator
            assert len(mine.witness) == mine.numerator


def test_exact_reads_its_cached_cut_arrays_unchanged():
    # toughness_exact reads the cuts' sets V - S cached per order; a
    # call leaves them as built
    rng = random.Random(101)
    for n in (5, 9, 12):
        cuts, rests, _ = _cut_order(n)
        for _ in range(3):
            g = random_connected_graph(rng, n, rng.uniform(0.3, 0.8))
            assert toughness_exact(g).value() == brute_toughness(g), n
        assert np.array_equal(rests, ((1 << n) - 1) ^ cuts)


def test_witness_is_first_in_size_then_lexicographic_order():
    # cuts (0, 5) and (1, 4) both leave three components; (0, 5) comes
    # first lexicographically although its mask 0b100001 exceeds 0b10010
    g = parse_graph6("GkzSIO")
    assert components_after_removal(g, (0, 5)) == 3
    assert components_after_removal(g, (1, 4)) == 3
    assert is_one_over_t_tough(g, 1) == (False, (0, 5))
    res = toughness_exact(g)
    assert (res.numerator, res.denominator, res.witness) == (2, 3, (0, 5))


def test_extremal_family_value():
    for t in range(1, 3):
        for n in range(t + 2, 9):
            res = toughness_exact(build_extremal(t, n))
            assert res.value() == Fraction(1, t + 1)


def test_adding_edges_never_lowers_toughness():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(3, 9)
        g = random_connected_graph(rng, n, rng.uniform(0.3, 0.7))
        non_edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if not g.has_edge(i, j)
        ]
        if not non_edges:
            continue
        u, v = rng.choice(non_edges)
        h = from_edges(n, list(g.edges()) + [(u, v)])
        a, b = toughness_exact(g), toughness_exact(h)
        if b.infinite:
            continue
        assert not a.infinite and a.value() <= b.value()


def test_predicate_examples():
    c4 = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert is_one_over_t_tough(c4, 1) == (True, None)
    star = join(complete(1), empty(3))
    ok, witness = is_one_over_t_tough(star, 2)
    assert not ok and witness == (0,)
    assert is_one_over_t_tough(star, 3) == (True, None)
    assert is_one_over_t_tough(complete(5), 1) == (True, None)
    paw = build_extremal(1, 4)
    ok, witness = is_one_over_t_tough(paw, 1)
    assert not ok and witness == (0,)


def test_predicate_accepts_fractions():
    c4 = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    # toughness(C4) = 1, so 1/t-tough iff 1 >= 1/t, i.e. any t >= 1
    assert is_one_over_t_tough(c4, Fraction(3, 2)) == (True, None)
    ok, witness = is_one_over_t_tough(c4, Fraction(1, 2))
    assert not ok and witness == (0, 2)
    star = join(complete(1), empty(3))
    # toughness 1/3: tough at threshold 1/t iff t >= 3
    assert is_one_over_t_tough(star, Fraction(5, 2)) == (False, (0,))
    assert is_one_over_t_tough(star, 3) == (True, None)
    with pytest.raises(DomainError):
        is_one_over_t_tough(c4, 0)
    with pytest.raises(DomainError):
        is_one_over_t_tough(c4, Fraction(-1, 2))


def test_cut_plan_cache_keys_t_exactly():
    # one process, one cache: each t reads a plan built for its own
    # numerator and denominator, in either order, whether t comes as an
    # int or a Fraction, and the cache stays bounded
    rng = random.Random(61)
    graphs = list(enumerate_connected(5))
    graphs += [random_connected_graph(rng, 7, rng.uniform(0.3, 0.8)) for _ in range(40)]
    refs = [brute_toughness(g) for g in graphs]
    order = [1, Fraction(1, 2), 3, Fraction(3, 2)]
    _cut_plan.cache_clear()
    for t in order + order[::-1]:
        for g, ref in zip(graphs, refs):
            expected = ref is None or ref >= 1 / Fraction(t)
            got = is_one_over_t_tough(g, t)
            assert got[0] == expected, (g.adj, t)
            assert is_one_over_t_tough(g, Fraction(t)) == got
    assert _cut_plan.cache_info().currsize <= _cut_plan.cache_info().maxsize == 8


def test_per_order_caches_hold_a_cycle_of_ten_orders():
    # a stream that cycles through orders builds each cut order once
    _cut_order.cache_clear()
    for _ in range(3):
        for n in range(3, 13):
            path = from_edges(n, [(v, v + 1) for v in range(n - 1)])
            assert toughness_exact(path).value() == Fraction(1, 2), n
    info = _cut_order.cache_info()
    assert (info.misses, info.hits) == (10, 20)


def test_degree_rule_equality_is_not_ruled_out():
    # P3 at t = 1: the two leaves' degrees sum to n - s + k (s - 1) = 2,
    # the bound itself, and the centre is a violating cut
    p3 = from_edges(3, [(0, 1), (1, 2)])
    assert _cut_plan(3, 1, 1)[3] == ((2, 2),)
    assert not _degrees_rule_out(p3.adj, _cut_plan(3, 1, 1)[3])
    assert is_one_over_t_tough(p3, 1) == (False, (1,))
    # the sharpness examples meet the bound with equality at |S| = 1
    for t in (1, 2, 3):
        g = build_extremal(t, 10)
        assert not _degrees_rule_out(g.adj, _cut_plan(10, t, 1)[3])
        assert is_one_over_t_tough(g, t) == (False, (0,))


def test_degree_rule_skips_the_subset_pass(monkeypatch):
    calls = []
    counts = toughness._component_counts

    def spy(g, rests):
        calls.append(g.n)
        return counts(g, rests)

    monkeypatch.setattr(toughness, "_component_counts", spy)
    # K10 minus a perfect matching: every degree is 8
    dense = from_edges(10, [(i, j) for i in range(10) for j in range(i + 1, 10) if j != i ^ 1])
    assert certify(dense, 1).cross_check == {"tough": True, "witness": None}
    assert is_one_over_t_tough(dense, Fraction(3, 2)) == (True, None)
    assert calls == []
    rep = certify(build_extremal(1, 10), 1)
    assert rep.cross_check == {"tough": False, "witness": [0]}
    assert calls == [10]


def _certify_stream(rng):
    """Connected graphs of orders 3-10: G(n, p) over a random spanning
    tree for p from 0.1 to 0.95, sharpness examples, and sharpness
    examples with one pair toggled."""
    graphs = []
    for n in range(3, 11):
        for _ in range(60):
            order = list(range(n))
            rng.shuffle(order)
            edges = {tuple(sorted((v, rng.choice(order[:i])))) for i, v in enumerate(order) if i}
            p = rng.uniform(0.1, 0.95)
            edges |= {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
            graphs.append(from_edges(n, sorted(edges)))
        for t in range(1, n - 1):
            g = build_extremal(t, n)
            graphs.append(g)
            for _ in range(3):
                u, v = rng.sample(range(n), 2)
                h = from_edges(n, list(set(g.edges()) ^ {(min(u, v), max(u, v))}))
                if is_connected(h):
                    graphs.append(h)
    return graphs


def test_degree_rule_leaves_certify_and_the_predicate_unchanged(monkeypatch):
    graphs = _certify_stream(random.Random(67))

    def outputs():
        lines = [
            json.dumps(certify(g, t).to_dict(), sort_keys=True)
            for t in (1, 2, 3)
            for g in graphs
            if g.n >= t + 2
        ]
        answers = [is_one_over_t_tough(g, t) for t in (Fraction(1, 2), Fraction(3, 2)) for g in graphs]
        return lines, answers

    decided = []
    rule_out = toughness._degrees_rule_out

    def spy(adj, rule):
        decided.append(rule_out(adj, rule))
        return decided[-1]

    monkeypatch.setattr(toughness, "_degrees_rule_out", spy)
    lines, answers = outputs()
    assert len(lines) >= 600
    # the rule decides a good share of the stream, and leaves the rest
    assert 0.2 < sum(decided) / len(decided) < 0.8
    # with no size ruled out every call takes the subset pass
    monkeypatch.setattr(toughness, "_degrees_rule_out", lambda adj, rule: not rule)
    assert outputs() == (lines, answers)


def test_predicate_agrees_with_exact_value():
    rng = random.Random(47)
    ts = [1, 2, 3, Fraction(1, 2), Fraction(3, 2)]
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(3, 8), rng.uniform(0.3, 0.8))
        res = toughness_exact(g)
        for t in ts:
            ok, witness = is_one_over_t_tough(g, t)
            expected = res.is_at_least(Fraction(1, 1) / Fraction(t))
            assert ok == expected
            if not ok:
                c = components_after_removal(g, witness)
                assert Fraction(t) * len(witness) < c


def test_input_guards():
    with pytest.raises(DomainError):
        toughness_exact(disjoint_union(complete(2), complete(2)))
    with pytest.raises(DomainError):
        is_one_over_t_tough(empty(3), 1)
    with pytest.raises(SizeLimitError):
        toughness_exact(complete(21))
    with pytest.raises(SizeLimitError):
        is_one_over_t_tough(complete(21), 1)
