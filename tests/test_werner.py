"""Closed-form fidelity maps checked against 50-digit recomputation."""

import math
import random
import sys

import pytest
from mpmath import mp, mpf

from repeaterlab import (
    GateNoiseParams,
    NoValidRangeError,
    fidelity_from_weight,
    purification_fixed_points,
    purify_noisy,
    purify_success_probability,
    swap_chain_fidelity,
    validate_fidelity,
    werner_weight,
)

mp.dps = 50

# Values recomputed independently at mp.dps=50 and rounded to double.
PURIFY_IDEAL_AT_0P8 = 0.838150289017341
SWAP_L2_AT_0P96 = 0.9221333333333332
SWAP_L3_AT_0P96 = 0.8862862222222222
BASELINE = GateNoiseParams(p1=0.999, p2=0.99, eta=0.995)
BASELINE_F_MIN = 0.5352241580492108
BASELINE_F_MAX = 0.974927867254451
#: Gates at which, besides BASELINE, rounding alone would set the sign of the
#: purification gain at f = 1/4 unless 1/4 maps to itself exactly.
ABOVE_FLOOR_GATES = GateNoiseParams(
    p1=1.0, p2=0.9999999999999999, eta=0.8849302192997293
)


def hp_purify_perfect(f):
    F = mpf(f)
    Fb = (1 - F) / 3
    return float((F**2 + Fb**2) / (F**2 + 2 * F * Fb + 5 * Fb**2))


def hp_purify_noisy(f, g):
    return float(hp_purify_noisy_mp(f, g))


def hp_purify_noisy_mp(f, g):
    F, p2, eta = mpf(f), mpf(g.p2), mpf(g.eta)
    Fb = (1 - F) / 3
    etab = 1 - eta
    theta = eta**2 + etab**2
    xi = F * Fb + Fb**2
    pi_ = (1 - p2**2) / (8 * p2**2)
    phi = F**2 + Fb**2
    lam = F**2 + 2 * F * Fb + 5 * Fb**2
    return (theta * phi + 2 * eta * etab * xi + pi_) / (
        theta * lam + 4 * (2 * eta * etab * xi + pi_)
    )


def hp_purify_success(f, g):
    F, p2, eta = mpf(f), mpf(g.p2), mpf(g.eta)
    Fb = (1 - F) / 3
    etab = 1 - eta
    theta = eta**2 + etab**2
    xi = F * Fb + Fb**2
    pi_ = (1 - p2**2) / (8 * p2**2)
    lam = F**2 + 2 * F * Fb + 5 * Fb**2
    return float(p2**2 * (theta * lam + 4 * (2 * eta * etab * xi + pi_)))


def hp_swap(f, l, g):
    F, p1, p2, eta = mpf(f), mpf(g.p1), mpf(g.p2), mpf(g.eta)
    k = p1**2 * p2 * (4 * eta**2 - 1) / 3
    w = (4 * F - 1) / 3
    return float(mpf(1) / 4 + mpf(3) / 4 * k ** (l - 1) * w**l)


NOISE_GRID = [
    GateNoiseParams(),
    GateNoiseParams(p1=0.99, p2=0.99, eta=0.99),
    GateNoiseParams(p1=0.95, p2=0.96, eta=0.97),
    GateNoiseParams(p1=1.0, p2=0.9, eta=0.8),
    BASELINE,
]
FIDELITY_GRID = [0.3, 0.45, 0.55, 0.7, 0.8, 0.9, 0.96, 0.999, 1.0]


def test_werner_weight_roundtrip():
    rng = random.Random(7)
    for _ in range(100):
        f = rng.uniform(0.0, 1.0)
        assert math.isclose(fidelity_from_weight(werner_weight(f)), f,
                            rel_tol=0, abs_tol=1e-15)
    assert werner_weight(1.0) == 1.0
    assert werner_weight(0.25) == 0.0


def test_validate_fidelity():
    assert validate_fidelity(0.8) == 0.8
    # tiny numerical overshoot is clamped, genuine violations are not
    assert validate_fidelity(1.0 + 5e-13) == 1.0
    assert validate_fidelity(-5e-13) == 0.0
    # ... but only within FIDELITY_TOL (1e-12) of the interval
    for beyond in (1.0 + 2e-12, -2e-12):
        with pytest.raises(ValueError, match=r"\[-1e-12, 1\.000000000001\]"):
            validate_fidelity(beyond)
    with pytest.raises(ValueError):
        validate_fidelity(1.01)
    with pytest.raises(ValueError):
        validate_fidelity(-0.1)


def test_gate_noise_params_validation():
    with pytest.raises(ValueError):
        GateNoiseParams(p1=0.0, p2=1.0, eta=1.0)
    with pytest.raises(ValueError):
        GateNoiseParams(p1=1.0, p2=1.1, eta=1.0)
    with pytest.raises(ValueError):
        GateNoiseParams(p1=1.0, p2=1.0, eta=0.5)  # readout no better than a coin
    # p2**2 underflows to 0: every CNOT pair fails and the kept pair is mixed.
    g = GateNoiseParams(p1=1.0, p2=1e-200, eta=1.0)
    assert purify_noisy(0.5, g) == 0.25
    assert purify_success_probability(0.5, g) == 0.5
    # With readout this close to a coin, p2**2 * c underflows too (both p2).
    for g in (g, GateNoiseParams(p1=1.0, p2=1e-200, eta=0.500000001),
              GateNoiseParams(p1=1.0, p2=1e-155, eta=0.500000001)):
        with pytest.raises(NoValidRangeError):
            purification_fixed_points(g)


def test_purify_perfect_gates_frozen_value():
    assert purify_noisy(0.8, GateNoiseParams()) == pytest.approx(
        PURIFY_IDEAL_AT_0P8, abs=1e-15
    )


def test_purify_perfect_gates_fixed_points_and_gain():
    assert purify_noisy(0.5, GateNoiseParams()) == pytest.approx(0.5, abs=1e-15)
    assert purify_noisy(1.0, GateNoiseParams()) == pytest.approx(1.0, abs=1e-15)
    for f in [0.55, 0.7, 0.9, 0.99]:
        assert purify_noisy(f, GateNoiseParams()) > f
    for f in [0.3, 0.4, 0.45]:
        # below the basin the map loses ground
        assert purify_noisy(f, GateNoiseParams()) < f


def test_purify_perfect_gates_matches_high_precision():
    for f in FIDELITY_GRID:
        assert purify_noisy(f, GateNoiseParams()) == pytest.approx(
            hp_purify_perfect(f), abs=1e-13
        )


def test_purify_noisy_reduces_to_ideal():
    # Perfect gates reduce the map to f_out = phi/lam, kept with probability
    # lam, in the Bell coefficients f and fb = (1 - f)/3.
    ideal = GateNoiseParams()
    for f in FIDELITY_GRID + [i / 200 for i in range(201)]:
        fb = (1.0 - f) / 3.0
        phi, lam = f * f + fb * fb, f * f + 2.0 * f * fb + 5.0 * fb * fb
        assert purify_noisy(f, ideal) == pytest.approx(phi / lam, abs=1e-15)
        assert purify_success_probability(f, ideal) == pytest.approx(lam, abs=1e-15)


def test_purify_noisy_matches_high_precision():
    for g in NOISE_GRID:
        for f in FIDELITY_GRID:
            assert purify_noisy(f, g) == pytest.approx(hp_purify_noisy(f, g),
                                                       abs=1e-13)


def test_purify_noisy_ignores_one_qubit_gate_quality():
    # the purification circuit contains no one-qubit gates
    a = GateNoiseParams(p1=1.0, p2=0.97, eta=0.98)
    b = GateNoiseParams(p1=0.8, p2=0.97, eta=0.98)
    for f in FIDELITY_GRID:
        assert purify_noisy(f, a) == purify_noisy(f, b)
        assert purify_success_probability(f, a) == purify_success_probability(f, b)


def test_purify_success_probability():
    # ideal gates: the joint-pass weight at F=0.7 is 0.49 + 0.14 + 0.05
    assert purify_success_probability(0.7, GateNoiseParams()) == pytest.approx(
        0.68, abs=1e-15
    )
    assert purify_success_probability(1.0, GateNoiseParams()) == pytest.approx(
        1.0, abs=1e-15
    )
    for g in NOISE_GRID:
        for f in FIDELITY_GRID:
            s = purify_success_probability(f, g)
            assert 0.0 < s <= 1.0 + 1e-12
            assert s == pytest.approx(hp_purify_success(f, g), abs=1e-13)


@pytest.mark.parametrize("g", NOISE_GRID + [ABOVE_FLOOR_GATES])
def test_fully_mixed_pair_is_an_exact_fixed_point(g):
    assert purify_noisy(0.25, g) == 0.25
    for l in (1, 2, 3, 5):
        assert swap_chain_fidelity(0.25, l, g) == 0.25


def test_swap_chain_frozen_values():
    ideal = GateNoiseParams()
    assert swap_chain_fidelity(0.96, 2, ideal) == pytest.approx(SWAP_L2_AT_0P96,
                                                                abs=1e-15)
    assert swap_chain_fidelity(0.96, 3, ideal) == pytest.approx(SWAP_L3_AT_0P96,
                                                                abs=1e-15)
    # a "chain" of one segment is the identity
    assert swap_chain_fidelity(0.87, 1, ideal) == pytest.approx(0.87, abs=1e-15)


def test_swap_chain_matches_high_precision():
    for g in NOISE_GRID:
        for f in FIDELITY_GRID:
            for l in (1, 2, 3, 5):
                assert swap_chain_fidelity(f, l, g) == pytest.approx(
                    hp_swap(f, l, g), abs=1e-13
                )


def test_swap_chain_composes():
    # merging l1*l2 segments at once equals merging l1, then l2 of the results
    for g in NOISE_GRID:
        for f in (0.8, 0.9, 0.96):
            for l1, l2 in ((2, 2), (2, 3), (3, 2)):
                once = swap_chain_fidelity(f, l1 * l2, g)
                twice = swap_chain_fidelity(swap_chain_fidelity(f, l1, g), l2, g)
                assert once == pytest.approx(twice, abs=1e-12)


def test_swap_chain_validates_segments():
    with pytest.raises(ValueError):
        swap_chain_fidelity(0.9, 0, GateNoiseParams())
    # A fractional l is the wrong type, as it is for ChainConfig.
    with pytest.raises(TypeError, match="^l must be an integer, got 2.5$"):
        swap_chain_fidelity(0.9, 2.5, GateNoiseParams())


def test_fixed_points_ideal():
    fp = purification_fixed_points(GateNoiseParams())
    assert abs(fp.f_min - 0.5) <= 1e-15
    assert abs(fp.f_max - 1.0) <= 1e-12
    assert not fp.marginal


@pytest.mark.parametrize("eta", [0.51, 0.7, 0.85])
def test_fixed_points_perfect_two_qubit_gates_pin_the_top(eta):
    # With p2 = 1 the quadratic's other root 1/(2 - 4a) lies above 1, so
    # only the pure state is left and the interval closes onto it.
    fp = purification_fixed_points(GateNoiseParams(p1=1.0, p2=1.0, eta=eta))
    assert (fp.f_min, fp.f_max, fp.marginal) == (1.0, 1.0, True)


def test_fixed_points_one_ulp_from_a_tangency_are_not_marginal():
    # One ulp of p2 above the tangency at eta = 0.99 opens the roots 1.9e-8
    # apart, which is as close as distinct roots come here: apart by more
    # than the 1e-9 that marks a merged pair.
    fp = purification_fixed_points(GateNoiseParams(p1=1.0, p2=0.9542903459463078, eta=0.99))
    assert 1e-8 < fp.f_max - fp.f_min < 1e-7
    assert not fp.marginal
    with pytest.raises(NoValidRangeError):
        purification_fixed_points(GateNoiseParams(p1=1.0, p2=0.9542903459463077, eta=0.99))


def test_fixed_points_are_roots_of_the_full_residual():
    # The closed form drops the trivial root 1/4 from the cubic residual;
    # its roots must still zero the undivided map at 50 digits.
    for g in (
        GateNoiseParams(),
        GateNoiseParams(p1=0.99, p2=0.99, eta=0.99),
        GateNoiseParams(p1=0.95, p2=0.985, eta=0.99),
        BASELINE,
    ):
        fp = purification_fixed_points(g)
        for root in (fp.f_min, fp.f_max):
            exact = mp.findroot(
                lambda f: hp_purify_noisy_mp(f, g) - f, mpf(root)
            )
            assert abs(root - float(exact)) <= 1e-14


def test_fixed_points_baseline_frozen():
    fp = purification_fixed_points(BASELINE)
    assert fp.f_min == pytest.approx(BASELINE_F_MIN, abs=1e-9)
    assert fp.f_max == pytest.approx(BASELINE_F_MAX, abs=1e-9)


def test_fixed_points_match_independent_scan():
    # recompute the roots with a twice-finer scan and plain interval halving
    def refine(lo, hi, g):
        rlo = purify_noisy(lo, g) - lo
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            rmid = purify_noisy(mid, g) - mid
            if (rlo > 0) == (rmid > 0):
                lo, rlo = mid, rmid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    for g in (BASELINE, GateNoiseParams(p1=0.95, p2=0.985, eta=0.99)):
        fp = purification_fixed_points(g)
        step = 5e-5
        grid = [0.25 + 1e-6 + i * step for i in range(int(0.75 / step) + 1)]
        grid = [f for f in grid if f <= 1.0] + [1.0]
        roots = []
        prev_f, prev_r = grid[0], purify_noisy(grid[0], g) - grid[0]
        for f in grid[1:]:
            r = purify_noisy(f, g) - f
            if (prev_r > 0) != (r > 0):
                roots.append(refine(prev_f, f, g))
            prev_f, prev_r = f, r
        roots = [r for r in roots if r > 0.25 + 1e-9]
        assert len(roots) == 2
        assert fp.f_min == pytest.approx(roots[0], abs=1e-9)
        assert fp.f_max == pytest.approx(roots[1], abs=1e-9)


def test_fixed_points_interval_shrinks_with_noise():
    mild = purification_fixed_points(GateNoiseParams(p1=1.0, p2=0.995, eta=0.995))
    harsh = purification_fixed_points(GateNoiseParams(p1=1.0, p2=0.98, eta=0.98))
    assert harsh.f_min > mild.f_min
    assert harsh.f_max < mild.f_max


def test_fixed_points_gain_only_inside_interval():
    fp = purification_fixed_points(BASELINE)
    for f in (fp.f_min + 1e-3, 0.7, fp.f_max - 1e-3):
        assert purify_noisy(f, BASELINE) > f
    for f in (0.3, fp.f_min - 1e-3):
        assert purify_noisy(f, BASELINE) < f
    assert purify_noisy(fp.f_max + 1e-3, BASELINE) < fp.f_max + 1e-3


def test_no_valid_range_for_strong_noise():
    for triple in ((1.0, 0.9, 0.9), (1.0, 0.94, 1.0)):
        with pytest.raises(NoValidRangeError):
            purification_fixed_points(GateNoiseParams(*triple))


def test_swap_refuses_an_l_past_the_float_range_by_its_digit_count():
    g = GateNoiseParams(p1=0.99, p2=0.98, eta=0.99)
    assert 0.25 <= swap_chain_fidelity(0.9, 10**300, g) <= 1.0
    with pytest.raises(OverflowError, match="^l has 401 digits, past the float range$"):
        swap_chain_fidelity(0.9, 10**400, g)
    # Too long for str as well: the count is given as a bound.
    limit = sys.get_int_max_str_digits()
    with pytest.raises(OverflowError, match=f"^l has more than {limit} digits"):
        swap_chain_fidelity(0.9, 10 ** (limit + 1), g)
