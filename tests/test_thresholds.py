import math
import random
from fractions import Fraction

import pytest

from toughcert import (
    Cubic,
    DomainError,
    JoinCliqueSpec,
    build_extremal,
    build_join_cliques,
    complete,
    complete_split_radius,
    disjoint_union,
    empty,
    gap_bound,
    gap_factor,
    join,
    quotient_cubic,
    threshold,
    threshold_cubic,
)
from toughcert.thresholds import _threshold

from oracles import cubic_roots, cubic_sign, eig_radius

# frozen from the companion-matrix oracle (numpy.roots)
ETA_1_4 = 2.170086486626035
ETA_2_8 = 5.069517991915755


def test_cubic_evaluation_and_derivative():
    c = Cubic(1.0, -1.0, -3.0, 1.0)
    assert c(0.0) == 1.0
    assert c(1.0) == -2.0
    assert c.derivative(0.0) == -3.0
    assert c.derivative(2.0) == 12.0 - 4.0 - 3.0
    assert c.coefficients() == (1.0, -1.0, -3.0, 1.0)


def test_cubic_largest_root_against_roots_oracle():
    rng = random.Random(23)
    for _ in range(200):
        # distinct prescribed roots; the float coefficients move them
        # slightly, so the isolated top root is compared within 1e-9
        r0 = rng.uniform(-10, 0)
        r1 = r0 + rng.uniform(0.5, 5.0)
        r2 = r1 + rng.uniform(0.5, 5.0)
        c = Cubic(
            1.0,
            -(r0 + r1 + r2),
            r0 * r1 + r0 * r2 + r1 * r2,
            -(r0 * r1 * r2),
        )
        hi = r2 + rng.uniform(0.5, 5.0)
        root, bracket = c.largest_root_in(r0 - 1.0, hi)
        assert abs(root - r2) <= 1e-9 * max(1.0, abs(r2))
        assert bracket[0] <= root <= bracket[1]


def test_cubic_root_bracket_errors():
    c = Cubic(1.0, 0.0, 0.0, -8.0)  # root at 2
    with pytest.raises(DomainError):
        c.largest_root_in(0.0, 1.5)  # negative at the upper end
    with pytest.raises(DomainError):
        c.largest_root_in(3.0, 3.0)
    c_pos = Cubic(1.0, 0.0, 1.0, 1.0)  # no root in [0, 5]
    with pytest.raises(DomainError):
        c_pos.largest_root_in(0.0, 5.0)


def test_cubic_exact_zero_at_upper_end():
    c = Cubic(1.0, 0.0, 0.0, -8.0)
    root, bracket = c.largest_root_in(0.0, 2.0)
    assert root == 2.0 and bracket == (2.0, 2.0)


def test_cubic_root_input_checks():
    with pytest.raises(DomainError, match="leading coefficient"):
        Cubic(-1.0, 0.0, 0.0, 8.0).largest_root_in(-5.0, 5.0)
    with pytest.raises(DomainError, match="leading coefficient"):
        Cubic(0.0, 1.0, 0.0, -1.0).largest_root_in(0.0, 5.0)
    for cubic, lo, hi in [
        (Cubic(1.0, math.nan, 0.0, -8.0), 0.0, 5.0),
        (Cubic(1.0, 0.0, 0.0, math.inf), 0.0, 5.0),
        (Cubic(1.0, 0.0, 0.0, -8.0), math.nan, 5.0),
        (Cubic(1.0, 0.0, 0.0, -8.0), 0.0, math.inf),
        (Cubic(1.0, 0.0, 0.0, -8.0), -1e308, 1e308),  # width overflows
    ]:
        with pytest.raises(DomainError, match="finite"):
            cubic.largest_root_in(lo, hi)
    with pytest.raises(DomainError, match="above the bracket"):
        Cubic(1.0, 0.0, 0.0, -8.0).largest_root_in(0.0, 1.5)
    # (x - 1)(x - 2)(x - 3): 3.5 is positive, but the top root is above it
    with pytest.raises(DomainError, match="above the bracket"):
        Cubic(1.0, -6.0, 11.0, -6.0).largest_root_in(0.0, 1.5)


def test_cubic_multiple_lower_and_tied_roots():
    # (x - 1)(x - 2)^2: the top root is double
    assert Cubic(1.0, -5.0, 8.0, -4.0).largest_root_in(0.0, 3.0) == (2.0, (2.0, 2.0))
    # (x - 1)^2 (x - 2): a double root below a simple top root
    assert Cubic(1.0, -4.0, 5.0, -2.0).largest_root_in(0.0, 3.0) == (2.0, (2.0, 2.0))
    # x^3: a triple root
    assert Cubic(1.0, 0.0, 0.0, 0.0).largest_root_in(-1.0, 1.0) == (0.0, (0.0, 0.0))
    # x^3 - 3x is zero at the lower end 0, which is not the top root
    root, (lo, hi) = Cubic(1.0, 0.0, -3.0, 0.0).largest_root_in(0.0, 2.0)
    assert root == math.sqrt(3.0) and lo < hi == math.nextafter(lo, 2.0)
    # (2^1023 x - k 2^-52)(x^2 + 1) has its one root k 2^-1075 halfway
    # between adjacent subnormals for odd k; ties go to the even one
    u = math.ulp(0.0)
    for k, want in ((1, 0.0), (3, 2 * u), (5, 2 * u)):
        b = -k * 2.0**-52
        root, (lo, hi) = Cubic(2.0**1023, b, 2.0**1023, b).largest_root_in(-1.0, 1.0)
        assert root == want and hi - lo == u and lo < Fraction(k, 2) * Fraction(u) < hi


def _assert_exactly_isolated(cubic, root, bracket):
    """The bracket ends are equal or adjacent floats with p(lo) <= 0 <=
    p(hi) exactly, and the root is the end nearer the true root."""
    coeffs = cubic.coefficients()
    lo, hi = bracket
    assert lo == hi or math.nextafter(lo, math.inf) == hi
    assert cubic_sign(coeffs, lo) <= 0 <= cubic_sign(coeffs, hi)
    if lo == hi:
        assert root == lo
        return
    # p rises through its top root, so a negative sign at the exact
    # midpoint puts the root above it
    mid = cubic_sign(coeffs, (Fraction(lo) + Fraction(hi)) / 2)
    assert mid != 0
    assert root == (hi if mid < 0 else lo)
    top = cubic_roots(coeffs)[-1]
    assert abs(root - top) <= 1e-9 * max(1.0, top)


def test_threshold_is_correctly_rounded_with_exact_bracket():
    grid = [(2, 8)] + [(t, n) for t in range(1, 6) for n in range(t + 2, 3001, 7)]
    for t, n in grid:
        res = threshold(t, n)
        _assert_exactly_isolated(threshold_cubic(t, n), res.value, res.bracket)
    # the default grid of verify_threshold_identities
    for s in range(1, 7):
        for t in range(1, 6):
            for n in range(t * s + s + 1, 41):
                qc = quotient_cubic(s, t, n)
                _assert_exactly_isolated(qc, *qc.largest_root_in(0.0, float(n - 1)))


def test_threshold_cubic_coefficients():
    assert threshold_cubic(1, 4).coefficients() == (1.0, -1.0, -3.0, 1.0)
    assert threshold_cubic(2, 8).coefficients() == (1.0, -4.0, -7.0, 8.0)
    # minimal order collapses the cubic to x^3 - (t+1) x
    for t in range(1, 6):
        assert threshold_cubic(t, t + 2).coefficients() == (
            1.0, 0.0, -float(t + 1), 0.0)
    with pytest.raises(DomainError):
        threshold_cubic(0, 5)
    with pytest.raises(DomainError):
        threshold_cubic(2, 3)


def test_threshold_known_values():
    res = threshold(1, 4)
    assert abs(res.value - ETA_1_4) <= 1e-11
    assert res.bracket[0] <= res.value <= res.bracket[1]
    assert abs(threshold(2, 8).value - ETA_2_8) <= 1e-11
    # at the minimal order the threshold is sqrt(t + 1) (star value)
    for t in range(1, 8):
        assert abs(threshold(t, t + 2).value - math.sqrt(t + 1)) <= 1e-11


def test_threshold_memo_shares_results_and_keeps_domain_errors():
    assert threshold(2, 9) is threshold(2, 9)
    for t, n in ((0, 5), (2, 3), (1.0, 5), (1, 5.0), ([1], 5), (1, [5]), ({}, {})):
        with pytest.raises(DomainError):
            threshold(t, n)


def test_bool_arguments_are_rejected_and_leave_the_memo_alone():
    # True == 1 with the same hash: an accepted threshold(True, 5) would
    # be memoised under threshold(1, 5)'s key and returned for it
    _threshold.cache_clear()
    for call in (
        lambda: threshold(True, 5),
        lambda: threshold(2, True),
        lambda: quotient_cubic(True, 1, 5),
        lambda: quotient_cubic(1, True, 5),
        lambda: quotient_cubic(1, 1, True),
        lambda: complete_split_radius(True, 1),
        lambda: complete_split_radius(1, True),
    ):
        with pytest.raises(DomainError):
            call()
    assert type(threshold(1, 5).t) is int


def test_threshold_start_bracket_is_exact():
    # threshold isolates the root on [n - t - 1, n - 1]: the cubic is
    # exactly -t at the lower end and positive at the upper one
    for t in range(1, 21):
        for n in list(range(t + 2, 60)) + [500, 1067, 3000]:
            coeffs = threshold_cubic(t, n).coefficients()
            x = Fraction(n - t - 1)
            value = Fraction(0)
            for c in coeffs:
                value = value * x + Fraction(c)
            assert value == -t, (t, n)
            assert cubic_sign(coeffs, n - 1) > 0, (t, n)
            lo, hi = threshold(t, n).bracket
            assert n - t - 1 < lo <= hi <= n - 1


def test_threshold_matches_roots_oracle_on_grid():
    for t in range(1, 6):
        for n in range(t + 2, 30):
            top = cubic_roots(threshold_cubic(t, n).coefficients())[-1]
            assert abs(threshold(t, n).value - top) <= 1e-9


def test_threshold_is_extremal_radius():
    for t, n in [(1, 4), (1, 9), (2, 8), (3, 7), (4, 12)]:
        lam = eig_radius(build_extremal(t, n))
        assert abs(threshold(t, n).value - lam) <= 1e-9


def test_threshold_monotone_in_order():
    for t in range(1, 6):
        prev = threshold(t, t + 2).value
        for n in range(t + 3, 40):
            cur = threshold(t, n).value
            assert cur > prev
            prev = cur


def test_threshold_residual_is_tiny():
    # the correctly rounded root leaves only the float evaluation error
    # of the cubic, far below a relative 1e-10
    for t, n in [(1, 4), (2, 10), (5, 40), (3, 25)]:
        cubic = threshold_cubic(t, n)
        res = threshold(t, n)
        assert abs(cubic(res.value)) <= 1e-10 * max(
            1.0, *(abs(c) for c in cubic.coefficients()))


def test_threshold_returns_past_float_spacing():
    # above 512 adjacent floats are more than 1e-13 apart; the isolator
    # bisects on floats until its ends are adjacent, so its stopping
    # rule does not depend on the scale of the root
    for n in (520, 600, 1000):
        res = threshold(2, n)
        top = cubic_roots(threshold_cubic(2, n).coefficients())[-1]
        assert abs(res.value - top) <= 1e-9 * top
        assert res.bracket[0] <= res.value <= res.bracket[1]


def test_threshold_residual_gate_scales_with_order():
    # the float evaluation error of the cubic near its root grows like
    # n^3, so no float residual test can decide the root at large
    # orders; the exact integer sign tests bracket it at every order
    for t in range(1, 6):
        for n in range(t + 2, 3001, 7):
            res = threshold(t, n)
            assert res.bracket[0] <= res.value <= res.bracket[1]


def test_quotient_cubic_reduces_to_threshold_cubic_at_s1():
    for t in range(1, 5):
        for n in range(t + 2, 16):
            assert quotient_cubic(1, t, n).coefficients() == threshold_cubic(
                t, n).coefficients()
    with pytest.raises(DomainError):
        quotient_cubic(2, 2, 6)  # needs n >= ts + s + 1 = 7
    with pytest.raises(DomainError):
        quotient_cubic(0, 1, 5)


def test_quotient_cubic_root_is_join_family_radius():
    for s, t, n in [(2, 1, 8), (3, 2, 12), (2, 2, 9), (4, 1, 10)]:
        shape = (n - t * s - s,) + (1,) * (t * s)
        lam = eig_radius(build_join_cliques(JoinCliqueSpec(s, shape)))
        root, _ = quotient_cubic(s, t, n).largest_root_in(0.0, float(n - 1))
        assert abs(root - lam) <= 1e-9


def test_complete_split_radius():
    assert abs(complete_split_radius(1, 1) - math.sqrt(2)) <= 1e-12
    assert complete_split_radius(2, 1) == 3.0  # discriminant 25
    for s in range(1, 5):
        for t in range(1, 5):
            x = complete_split_radius(s, t)
            # positive root of x^2 - (s-1)x - s(ts+1)
            assert abs(x * x - (s - 1) * x - s * (t * s + 1)) <= 1e-9
            g = join(complete(s), empty(t * s + 1))
            assert abs(x - eig_radius(g)) <= 1e-9
    with pytest.raises(DomainError):
        complete_split_radius(0, 1)


def test_gap_factor_identity():
    # certification cubic minus quotient cubic factors through gap_factor
    rng = random.Random(29)
    for s, t, n in [(1, 1, 5), (2, 1, 8), (3, 2, 14), (5, 3, 30), (6, 5, 40)]:
        cert = threshold_cubic(t, n)
        quot = quotient_cubic(s, t, n)
        for _ in range(100):
            x = rng.uniform(-2.0, n)
            lhs = cert(x) - quot(x)
            rhs = (s - 1) * gap_factor(s, t, n, x)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


def test_gap_factor_bounded_once_order_is_minimal():
    rng = random.Random(31)
    for _ in range(300):
        s = rng.randint(1, 6)
        t = rng.randint(1, 5)
        n = rng.randint(t * s + s + 1, 60)
        x = rng.uniform(-5.0, 60.0)
        assert gap_factor(s, t, n, x) <= gap_bound(s, t, x) + 1e-9
        # equality exactly at the minimal order
        assert abs(
            gap_factor(s, t, t * s + s + 1, x) - gap_bound(s, t, x)
        ) <= 1e-9 * max(1.0, abs(gap_bound(s, t, x)))


def test_gap_bound_vertex_value():
    # the quadratic peaks at x = s/2 with value ts^2/4 + t^2 + t
    for s in range(1, 7):
        for t in range(1, 6):
            peak = t * s * s / 4.0 + t * t + t
            assert abs(gap_bound(s, t, s / 2.0) - peak) <= 1e-12
            assert gap_bound(s, t, s / 2.0 + 1.7) < peak


def test_build_extremal_shapes():
    paw = build_extremal(1, 4)
    assert sorted(paw.edges()) == [(0, 1), (0, 2), (0, 3), (1, 2)]
    star = build_extremal(2, 4)
    assert star.degrees() == (3, 1, 1, 1)
    g = build_extremal(3, 9)
    assert g.degrees() == (8,) + (5,) * 5 + (1,) * 3
    with pytest.raises(DomainError):
        build_extremal(1, 2)


def test_build_join_cliques():
    spec = JoinCliqueSpec(1, (2, 1))
    assert build_join_cliques(spec) == build_extremal(1, 4)
    for t, n in [(1, 5), (2, 7), (3, 8)]:
        spec = JoinCliqueSpec(1, (n - t - 1,) + (1,) * t)
        assert build_join_cliques(spec) == build_extremal(t, n)
    g = build_join_cliques(JoinCliqueSpec(2, (3, 2)))
    assert g.n == 7
    assert g.edge_count() == 1 + 3 + 1 + 2 * 5
    with pytest.raises(DomainError):
        JoinCliqueSpec(1, (1, 2))  # increasing parts
    with pytest.raises(DomainError):
        JoinCliqueSpec(1, ())
    with pytest.raises(DomainError):
        JoinCliqueSpec(0, (2,))
    with pytest.raises(DomainError):
        JoinCliqueSpec(1, (2, 0))


def test_join_cliques_order_property():
    assert JoinCliqueSpec(2, (3, 1, 1)).order == 7
