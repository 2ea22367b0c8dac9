"""Acceptance suite: ten criteria, one printed pass/fail line each.

Tolerances and runtime budgets are pinned here and nowhere else; a
criterion that cannot be met must fail loudly rather than be loosened.
"""

import random
import time
from fractions import Fraction

from toughcert import (
    JoinCliqueSpec,
    adjacency_matrix,
    build_extremal,
    build_join_cliques,
    complete,
    complete_split_radius,
    components_after_removal,
    empty,
    is_equitable,
    is_one_over_t_tough,
    join,
    parse_graph6,
    quotient_spectrum,
    spectral_radius,
    threshold,
    to_graph6,
    toughness_exact,
    verify_join_maximizer,
    verify_subgraph_monotonicity,
    verify_theorem,
    verify_threshold_identities,
)
from toughcert.verify import enumerate_connected, graph_from_mask

import conftest
from oracles import labelings_masks


def _report(name: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    conftest.acceptance_lines.append(line)
    print(line)
    assert ok, line


def test_c1_extremal_radius_meets_threshold_across_grid():
    started = time.perf_counter()
    worst = 0.0
    combos = 0
    for t in range(1, 6):
        for n in range(t + 2, 41):
            lam = spectral_radius(build_extremal(t, n))
            eta = threshold(t, n).value
            worst = max(worst, abs(lam - eta))
            combos += 1
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(
        "C1 sharpness across t<=5, n<=40",
        ok,
        f"{combos} pairs, max |lambda1 - threshold| = {worst:.3e}, {elapsed:.2f}s",
    )


def test_c2_exhaustive_small_orders_with_exceptional_sets():
    failures = 0
    incidents = 0
    mismatched_sets = 0
    pairs = 0
    n7_elapsed = 0.0
    for t in range(1, 6):
        for n in range(t + 2, 8):
            workers = 4 if n == 7 else 1
            summary = verify_theorem(n, t, workers=workers)
            pairs += 1
            failures += len(summary.failures)
            incidents += len(summary.incidents)
            if n == 7:
                n7_elapsed += summary.elapsed
            expected = labelings_masks(build_extremal(t, n))
            if set(summary.extras["exceptional_masks"]) != expected:
                mismatched_sets += 1
    ok = failures == 0 and incidents == 0 and mismatched_sets == 0 and n7_elapsed < 300.0
    _report(
        "C2 exhaustive scan t<=5, n<=7",
        ok,
        f"{pairs} (t,n) pairs, {failures} failures, {incidents} incidents, "
        f"{mismatched_sets} exceptional-set mismatches, "
        f"order-7 portion {n7_elapsed:.1f}s on 4 workers",
    )


def test_c3_extremal_toughness_value():
    started = time.perf_counter()
    bad = 0
    combos = 0
    for t in range(1, 5):
        for n in range(t + 2, 13):
            res = toughness_exact(build_extremal(t, n))
            combos += 1
            value = res.value()
            if value != Fraction(1, t + 1) or not value < Fraction(1, t):
                bad += 1
    elapsed = time.perf_counter() - started
    ok = bad == 0 and elapsed < 30.0
    _report(
        "C3 extremal toughness equals 1/(t+1)",
        ok,
        f"{combos} pairs, {bad} mismatches, {elapsed:.2f}s",
    )


def test_c4_complete_split_closed_form():
    started = time.perf_counter()
    worst = 0.0
    for s in range(1, 7):
        for t in range(1, 7):
            lam = spectral_radius(join(complete(s), empty(t * s + 1)))
            worst = max(worst, abs(complete_split_radius(s, t) - lam))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(
        "C4 complete-split closed form s,t<=6",
        ok,
        f"36 pairs, max deviation = {worst:.3e}, {elapsed:.2f}s",
    )


def test_c5_quotient_partition_is_equitable_and_agrees():
    worst = 0.0
    not_equitable = 0
    combos = 0
    for s in range(1, 5):
        for t in range(1, 5):
            for n in range(t * s + s + 1, 25):
                shape = (n - t * s - s,) + (1,) * (t * s)
                g = build_join_cliques(JoinCliqueSpec(s, shape))
                blocks = [
                    list(range(s)),
                    list(range(s, n - t * s)),
                    list(range(n - t * s, n)),
                ]
                a = adjacency_matrix(g)
                combos += 1
                if not is_equitable(a, blocks):
                    not_equitable += 1
                    continue
                lam = spectral_radius(g)
                qlam = quotient_spectrum(a, blocks).radius
                worst = max(worst, abs(lam - qlam))
    ok = not_equitable == 0 and worst <= 1e-8
    _report(
        "C5 equitable quotient agreement s,t<=4, n<=24",
        ok,
        f"{combos} partitions, {not_equitable} non-equitable, "
        f"max |radius gap| = {worst:.3e}",
    )


def test_c6_join_maximizer_sweep():
    bad = 0
    sweeps = 0
    shapes = 0
    for s in range(1, 4):
        for c in range(1, 5):
            for n in range(s + c, 13):
                summary = verify_join_maximizer(n, s, c)
                sweeps += 1
                shapes += summary.counts["shapes"]
                bad += len(summary.failures)
    ok = bad == 0
    _report(
        "C6 join-of-cliques maximizer n<=12, s<=3, c<=4",
        ok,
        f"{sweeps} sweeps over {shapes} shapes, {bad} failures",
    )


def test_c7_subgraph_monotonicity_random_pairs():
    summary = verify_subgraph_monotonicity(trials=1000, seed=20260814)
    ok = summary.ok
    _report(
        "C7 proper-subgraph strict monotonicity",
        ok,
        f"{summary.counts['trials']} random pairs, {len(summary.failures)} failures, "
        f"{summary.elapsed:.2f}s",
    )


def test_c8_threshold_identity_grid():
    summary = verify_threshold_identities(s_max=6, t_max=5, n_max=40)
    ok = summary.ok
    _report(
        "C8 cubic identity grid s<=6, t<=5, n<=40",
        ok,
        f"{summary.counts['combinations']} combinations, "
        f"{len(summary.failures)} failures, {summary.elapsed:.2f}s",
    )


def test_c9_predicate_consistency_with_exact_toughness():
    bad = 0
    graphs = 0
    witness_bad = 0
    for n in range(1, 7):
        for g in enumerate_connected(n):
            graphs += 1
            exact = toughness_exact(g)
            for t in (1, 2, 3):
                ok_flag, witness = is_one_over_t_tough(g, t)
                expected = exact.is_at_least(Fraction(1, t))
                if ok_flag != expected:
                    bad += 1
                if not ok_flag:
                    c = components_after_removal(g, witness)
                    if not (c >= 2 and t * len(witness) < c):
                        witness_bad += 1
    ok = bad == 0 and witness_bad == 0
    _report(
        "C9 predicate matches exact toughness n<=6, t<=3",
        ok,
        f"{graphs} graphs x 3 thresholds, {bad} verdict mismatches, "
        f"{witness_bad} bad witnesses",
    )


def test_c10_graph6_round_trip_random():
    rng = random.Random(20260814)
    bad = 0
    for _ in range(10_000):
        n = rng.randint(1, 62)
        mask = rng.getrandbits(n * (n - 1) // 2)
        g = graph_from_mask(n, mask)
        if parse_graph6(to_graph6(g)) != g:
            bad += 1
    ok = bad == 0
    _report(
        "C10 graph6 round trip, 10000 random graphs",
        ok,
        f"{bad} mismatches",
    )
