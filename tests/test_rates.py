"""Rate curves, threshold location, scaling classification."""

import ast
import importlib
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections.abc import Sequence
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repeaterlab
from repeaterlab import (
    ChainConfig,
    GateNoiseParams,
    InsufficientPointsError,
    LinkModel,
    MemoryModel,
    NoValidRangeError,
    RateCurve,
    RatePoint,
    curves_from_csv,
    curves_to_csv,
    link_success_probability,
    purification_fixed_points,
    repeater_rate,
    scaling_fit,
    sweep_rates,
    threshold_distance,
    usefulness_weight,
)
from repeaterlab import rates
from repeaterlab.chain import _steps
from repeaterlab.rates import CURVES

IDEAL = GateNoiseParams()
BASELINE = GateNoiseParams(p1=0.999, p2=0.99, eta=0.995)
BASELINE_F_MIN = 0.5352241580492108


def curve_from_fn(fn, distances, metric="resource_normalized"):
    return RateCurve(
        "synthetic", tuple(RatePoint(d, fn(d), metric) for d in distances)
    )


def within(curve, lo, hi):
    """The part of ``curve`` with ``lo <= D <= hi``, as a curve of its own."""
    return RateCurve(
        curve.regime, tuple(p for p in curve.points if lo <= p.distance_km <= hi)
    )


def test_direct_rate_is_link_success_probability():
    link = LinkModel(alpha_db_per_km=0.2)
    assert link_success_probability(100.0, link) == pytest.approx(0.01, abs=1e-15)
    assert link_success_probability(0.0, link) == 1.0
    half = LinkModel(alpha_db_per_km=0.1)
    assert link_success_probability(100.0, half) == pytest.approx(
        math.sqrt(link_success_probability(100.0, link)), rel=1e-12
    )
    with pytest.raises(ValueError):
        link_success_probability(-5.0, link)


def test_usefulness_weight():
    assert usefulness_weight(0.9, 0.5352) == 1.0
    assert usefulness_weight(0.5352, 0.5352) == 1.0
    w = (4 * 0.4 - 1) / 3
    assert usefulness_weight(0.4, 0.5352) == pytest.approx(w * w, abs=1e-15)
    assert usefulness_weight(0.25, 0.5352) == 0.0
    assert usefulness_weight(0.1, 0.5352) == 0.0  # never negative


def test_repeater_rate_ideal_is_inverse_resource():
    link = LinkModel(d_km=25.0, f0=1.0)
    for n in (1, 2, 4, 7):
        cfg = ChainConfig(l=2, n=n, link=link, epp_rounds_per_level=1)
        rr = repeater_rate(cfg, IDEAL, MemoryModel.none())
        assert rr.final_fidelity == pytest.approx(1.0, abs=1e-12)
        assert rr.rate_resource == 0.25**n
        assert rr.rate_time > 0.0


def test_repeater_rate_zero_depth_has_no_latency():
    link = LinkModel(d_km=25.0, f0=1.0)
    cfg = ChainConfig(l=2, n=0, link=link)
    rr = repeater_rate(cfg, IDEAL, MemoryModel.none())
    assert rr.rate_resource == 1.0
    assert math.isinf(rr.rate_time)


def test_repeater_rate_degenerate_chain_is_worthless():
    cfg = ChainConfig(l=2, n=5, link=LinkModel(), epp_rounds_per_level=0)
    rr = repeater_rate(cfg, BASELINE, MemoryModel.exponential(1e-7))
    assert rr.rate_resource == 0.0
    assert rr.rate_time == 0.0


@pytest.mark.parametrize("f_useful, error", [
    (1.5, ValueError), (math.nan, ValueError), (True, TypeError), ("0.9", TypeError),
])
def test_a_bad_f_useful_is_refused_on_entry(f_useful, error):
    """Even where no walk end is scored: a chain fully mixed at level 1, or
    a sweep over no depths."""
    cfg = ChainConfig(l=2, n=1, link=LinkModel(), epp_rounds_per_level=0)
    mem = MemoryModel.exponential(1e-7)
    assert [s.degenerate for s in _steps(cfg, BASELINE, mem)] == [False, False, True]
    for call in (
        lambda: repeater_rate(cfg, BASELINE, mem, f_useful),
        lambda: sweep_rates(cfg, BASELINE, mem, [1], f_useful),
        lambda: sweep_rates(cfg, BASELINE, mem, [], f_useful),
    ):
        with pytest.raises(error, match=r"\bf_useful\b"):
            call()


def test_threshold_infinite_without_memory_noise():
    cfg = ChainConfig(l=2, n=8, link=LinkModel(), epp_rounds_per_level=1)
    th = threshold_distance(cfg, BASELINE, MemoryModel.none())
    assert math.isinf(th.distance_km)
    assert th.level is None
    assert th.f_min == pytest.approx(BASELINE_F_MIN, abs=1e-9)


def test_threshold_immediate_for_instant_decay():
    cfg = ChainConfig(l=2, n=4, link=LinkModel(), epp_rounds_per_level=1)
    th = threshold_distance(cfg, BASELINE, MemoryModel.exponential(1e-30))
    assert th.level == 1
    assert th.distance_km == pytest.approx(50.0)


def test_threshold_baseline_frozen():
    link = LinkModel(d_km=25.0, f0=0.96, c_signal_km_s=3e5)
    cfg = ChainConfig(l=2, n=8, link=link, epp_rounds_per_level=0)
    th = threshold_distance(cfg, BASELINE, MemoryModel.exponential(5e-3))
    assert th.level == 3
    assert th.distance_km == pytest.approx(200.0)
    assert th.crossing_fidelity == pytest.approx(0.5213808810026224, abs=1e-12)
    assert th.crossing_fidelity < th.f_min


def test_threshold_propagates_missing_validity_range():
    cfg = ChainConfig(l=2, n=4, link=LinkModel())
    bad = GateNoiseParams(p1=1.0, p2=0.9, eta=0.9)
    with pytest.raises(NoValidRangeError):
        threshold_distance(cfg, bad, MemoryModel.exponential(1e-3))


def test_threshold_monotone_in_memory_lifetime():
    link = LinkModel(d_km=25.0, f0=0.96, c_signal_km_s=3e5)
    cfg = ChainConfig(l=2, n=10, link=link, epp_rounds_per_level=0)
    taus = [1e-4, 5e-4, 2e-3, 5e-3, 2e-2]
    distances = []
    for tau in taus:
        th = threshold_distance(cfg, BASELINE, MemoryModel.exponential(tau))
        distances.append(th.distance_km)
    assert distances == sorted(distances)


def test_threshold_crossing_level_monotone_in_link_length():
    # Longer elementary links mean longer waits at every level, so the
    # crossing can only arrive at the same level or an earlier one.  (The
    # distance L^x * d itself is a sawtooth in d, not monotone.)
    levels = []
    for d in (10.0, 25.0, 50.0, 100.0, 200.0):
        link = LinkModel(d_km=d, f0=0.96, c_signal_km_s=3e5)
        cfg = ChainConfig(l=2, n=12, link=link, epp_rounds_per_level=0)
        th = threshold_distance(cfg, BASELINE, MemoryModel.exponential(5e-3))
        levels.append(th.level)
    assert levels == sorted(levels, reverse=True)


def test_scaling_fit_synthetic_polynomial():
    distances = [100.0 * 2**k for k in range(8)]
    fit = scaling_fit(curve_from_fn(lambda d: d**-2, distances))
    assert fit.kind == "polynomial"
    assert fit.parameter == pytest.approx(2.0, abs=0.01)
    assert fit.goodness >= 0.999


def test_scaling_fit_synthetic_exponential():
    distances = [50.0 * k for k in range(1, 11)]
    fit = scaling_fit(curve_from_fn(lambda d: math.exp(-d / 50.0), distances))
    assert fit.kind == "exponential"
    assert fit.parameter == pytest.approx(0.020, abs=2e-4)
    assert fit.goodness >= 0.999


def test_scaling_fit_of_points_too_close_to_square_is_insufficient():
    # Offsets of a few 1e-322 km square to zero in floating point.
    curve = curve_from_fn(lambda d: math.exp(-d), [k * 5e-324 for k in range(8, 14)])
    with pytest.raises(InsufficientPointsError, match="too close together"):
        scaling_fit(curve)


def test_scaling_fit_window_and_minimum_points():
    distances = [100.0 * 2**k for k in range(8)]
    curve = curve_from_fn(lambda d: d**-1.5, distances)
    fit = scaling_fit(within(curve, 200.0, 3200.0))  # 5 surviving points
    assert fit.kind == "polynomial"
    assert fit.parameter == pytest.approx(1.5, abs=0.01)
    with pytest.raises(InsufficientPointsError):
        scaling_fit(within(curve, 200.0, 1600.0))
    with pytest.raises(InsufficientPointsError):
        scaling_fit(curve_from_fn(lambda d: d**-1.0, distances[:4]))


def test_scaling_fit_goodness_stays_in_unit_interval():
    rng = random.Random(99)
    distances = [10.0 * (k + 1) for k in range(12)]
    curve = curve_from_fn(lambda d: math.exp(rng.uniform(-8.0, 0.0)), distances)
    fit = scaling_fit(curve)
    assert 0.0 <= fit.goodness <= 1.0
    assert 0.0 <= fit.polynomial_goodness <= 1.0
    assert 0.0 <= fit.exponential_goodness <= 1.0


def test_rate_point_and_curve_validation():
    with pytest.raises(ValueError):
        RatePoint(100.0, 0.5, "per_fortnight")
    with pytest.raises(ValueError):
        RatePoint(100.0, 0.0, "resource_normalized")
    with pytest.raises(ValueError):
        RatePoint(-1.0, 0.5, "resource_normalized")
    for distance, rate in ((math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
                           (100.0, math.nan), (100.0, math.inf)):
        with pytest.raises(ValueError):
            RatePoint(distance, rate, "resource_normalized")
    good = RatePoint(100.0, 0.5, "resource_normalized")
    with pytest.raises(ValueError):
        RateCurve("x", (good, RatePoint(50.0, 0.5, "resource_normalized")))
    # A point that skipped RatePoint's checks: NaN compares false both ways,
    # so the curve's strict order must not read it as in order.
    stray = SimpleNamespace(distance_km=math.nan, rate=1.0, metric="resource_normalized")
    for points in ((good, stray), (stray, good)):
        with pytest.raises(ValueError):
            RateCurve("x", points)


@pytest.mark.parametrize("distances, accepted", [
    ((), True),
    ((5.0,), True),
    ((math.nan,), True),
    ((1.0, 2.0, 3.0, 4.0), True),
    ((1.0, 1.0, 3.0, 4.0), False),
    ((1.0, 2.0, 2.0, 4.0), False),
    ((1.0, 2.0, 3.0, 3.0), False),
    ((2.0, 1.0, 3.0, 4.0), False),
    ((1.0, 3.0, 2.0, 4.0), False),
    ((1.0, 2.0, 4.0, 3.0), False),
    ((math.nan, 2.0, 3.0, 4.0), False),
    ((1.0, 2.0, math.nan, 4.0), False),
    ((1.0, 2.0, 3.0, math.nan), False),
])
def test_a_curve_accepts_only_strictly_increasing_distances(distances, accepted):
    # Equal, decreasing and NaN distances at the first, a middle and the last
    # pair; the points are duck-typed, so nothing but the curve checks them.
    points = tuple(SimpleNamespace(distance_km=d) for d in distances)
    if accepted:
        assert RateCurve("x", points).points is points
    else:
        with pytest.raises(ValueError, match="^curve distances must increase strictly$"):
            RateCurve("x", points)


def test_a_curve_reads_its_distances_and_rates_in_point_order():
    curve = curve_from_fn(lambda d: 1.0 / d, (50.0, 100.0, 200.0))
    assert curve.distances == (50.0, 100.0, 200.0)
    assert curve.rates == (0.02, 0.01, 0.005)


def test_sweep_rates_structure():
    link = LinkModel(d_km=25.0, f0=0.96, c_signal_km_s=3e5)
    cfg = ChainConfig(l=2, n=8, link=link, epp_rounds_per_level=0)
    curves = sweep_rates(cfg, BASELINE, MemoryModel.exponential(5e-3),
                         list(range(1, 9)))
    assert [c.regime for c in curves] == [
        "direct",
        "repeater_ideal_memory",
        "repeater_ideal_memory",
        "repeater_noisy_memory",
        "repeater_noisy_memory",
    ]
    direct = curves[0]
    assert len(direct.points) == 8
    assert direct.points[0].distance_km == pytest.approx(50.0)
    assert direct.points[-1].distance_km == pytest.approx(6400.0)
    # the memory-noise regime loses its deepest point to degeneracy
    noisy_resource = curves[3]
    assert len(noisy_resource.points) == 7
    for curve in curves:
        distances = [p.distance_km for p in curve.points]
        assert distances == sorted(distances)
    for n_values in ([3, 2, 1], [1, 1], [0, 2, 2, 3]):
        with pytest.raises(ValueError, match="strictly increasing"):
            sweep_rates(cfg, BASELINE, MemoryModel.none(), n_values)


@pytest.mark.parametrize("n_values, error", [
    ([-1], ValueError),
    ([-1, 2], ValueError),
    ([1.5], TypeError),
    ([1, 2.0], TypeError),
    ([True], TypeError),
])
def test_sweep_rates_refuses_the_depths_chain_config_refuses(n_values, error):
    cfg = ChainConfig(l=2, n=3, link=LinkModel())
    with pytest.raises(error):
        sweep_rates(cfg, BASELINE, MemoryModel.none(), n_values)


class _Depths(Sequence):
    """Depths 0 .. size - 1 that refuse to be read more than ``reads`` times."""

    def __init__(self, size, reads):
        self.size, self.reads = size, reads

    def __len__(self):
        return self.size

    def __getitem__(self, i):
        self.reads -= 1
        if self.reads < 0:
            raise AssertionError("read more depths than a sweep can use")
        return range(self.size)[i]


def test_sweep_rates_checks_each_depth_only_when_it_gets_there():
    # Past depth 1020 the total distance leaves the float range, so no more
    # than that many depths of a million can ever be read.
    cfg = ChainConfig(l=2, n=3, link=LinkModel())
    with pytest.raises(OverflowError, match="depth 1020: total distance"):
        sweep_rates(cfg, IDEAL, MemoryModel.none(), _Depths(10**6, 2000))


def test_sweep_rates_refuses_a_huge_depth_without_building_its_span():
    # The chain goes fully mixed in its first levels, so the walk stops
    # before it counts a huge pair count; 2**(10**8) links alone would
    # take 12.5 MB.
    cfg = ChainConfig(l=2, n=3, link=LinkModel(f0=0.5), epp_rounds_per_level=0)
    g = GateNoiseParams(p1=0.9, p2=0.99, eta=0.99)
    tracemalloc.start()
    try:
        with pytest.raises(OverflowError,
                           match="^depth 100000000: total distance is past the float range$"):
            sweep_rates(cfg, g, MemoryModel.none(), [10**8])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("reader", ["sweep_rates", "threshold_distance", "repeater_rate"])
def test_rate_readers_keep_no_trace(reader):
    # 1,400 purification rounds a level: 14,000 steps, each with an exact
    # pair count of up to 2**14011, still printable.  A stored trace holds
    # all of them (about 16 MB); a reader needs only a few.
    cfg = ChainConfig(l=2, n=10, link=LinkModel(), epp_rounds_per_level=1400)
    mem = MemoryModel.exponential(1000.0)
    call = {
        "sweep_rates": lambda: sweep_rates(cfg, IDEAL, mem, range(1, 11)),
        "threshold_distance": lambda: threshold_distance(cfg, IDEAL, mem),
        "repeater_rate": lambda: repeater_rate(cfg, IDEAL, mem),
    }[reader]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sys.set_int_max_str_digits(limit)
    assert peak < 1_000_000


def test_resource_rate_is_zero_once_the_pair_count_leaves_the_float_range():
    # 16 pairs per level: 16**255 = 2**1020 pairs fit a float, 16**256 do not.
    link = LinkModel(f0=0.99)
    for n, fits in ((255, True), (256, False)):
        cfg = ChainConfig(l=2, n=n, link=link, epp_rounds_per_level=3)
        rate = repeater_rate(cfg, IDEAL, MemoryModel.none())
        assert rate.rate_time > 0.0
        assert (rate.rate_resource > 0.0) == fits


def test_curves_csv_round_trip():
    link = LinkModel(d_km=25.0, f0=0.96, c_signal_km_s=3e5)
    cfg = ChainConfig(l=2, n=6, link=link, epp_rounds_per_level=0)
    curves = sweep_rates(cfg, BASELINE, MemoryModel.exponential(5e-3),
                         [1, 2, 3, 4, 5, 6])
    text = curves_to_csv(curves)
    parsed = curves_from_csv(text)
    assert curves_to_csv(parsed) == text
    assert [c.regime for c in parsed] == [c.regime for c in curves]
    assert [len(c.points) for c in parsed] == [len(c.points) for c in curves]
    with pytest.raises(ValueError):
        curves_from_csv("bad,header,row\n")
    with pytest.raises(ValueError, match="^rate-curve CSV row 1: expected 4 CSV columns"):
        curves_from_csv("distance_km,rate,metric,regime\n1,2,3\n")
    header = "distance_km,rate,metric,regime\n50,0.5,resource_normalized,direct\n"
    for row in ("nan,0.5", "inf,0.5", "-50,0.5", "100,nan", "100,inf", "100,0", "x,0.5",
                "100,abc", "100"):
        with pytest.raises(ValueError, match="rate-curve CSV row 2: "):
            curves_from_csv(header + row + ",resource_normalized,direct\n")
    # A block whose distances do not increase names the row and the regime.
    for distance in ("40", "50"):
        with pytest.raises(ValueError, match=f"^rate-curve CSV row 2: distance {distance} "
                                             "of regime 'direct' does not exceed"):
            curves_from_csv(header + distance + ",0.5,resource_normalized,direct\n")
    # A new block may start at any distance.
    assert len(curves_from_csv(header + "40,0.5,time_normalized,direct\n")) == 2


@pytest.mark.parametrize(
    "cfg, g, mem, n_values",
    [
        # perfect memory, purification every level, depth 0 included
        (ChainConfig(l=2, n=1, link=LinkModel(), epp_rounds_per_level=1),
         BASELINE, MemoryModel.none(), [0, 1, 2, 3, 5, 8]),
        # lossy memory that takes the pair to exactly 1/4 at depth 8
        (ChainConfig(l=2, n=1, link=LinkModel(d_km=25.0, f0=0.96,
                                              c_signal_km_s=3e5),
                     epp_rounds_per_level=0),
         BASELINE, MemoryModel.exponential(5e-3), list(range(0, 9))),
        # degenerates at level 4 only 9e-14 above 1/4, where the usefulness
        # weight is still positive: depths 4 and up must still read 0
        (ChainConfig(l=2, n=1, link=LinkModel(d_km=40.5, f0=0.85),
                     epp_rounds_per_level=1),
         GateNoiseParams(p1=0.972, p2=0.986, eta=0.961),
         MemoryModel.exponential(0.001987), list(range(0, 8))),
        # three-way merges, two purification rounds, sparse depths
        (ChainConfig(l=3, n=1, link=LinkModel(d_km=40.0, f0=0.98),
                     epp_rounds_per_level=2),
         BASELINE, MemoryModel.exponential(2e-2), [0, 2, 4, 5]),
    ],
)
def test_sweep_rates_equals_per_depth_repeater_rate(cfg, g, mem, n_values):
    # sweep_rates walks each regime's chain once at the deepest depth; every
    # point must equal what a separate run at its own depth gives, exactly.
    f_min = purification_fixed_points(g).f_min
    curves = sweep_rates(cfg, g, mem, n_values, f_min)
    expected = {key: [] for key in (
        ("repeater_ideal_memory", "resource_normalized"),
        ("repeater_ideal_memory", "time_normalized"),
        ("repeater_noisy_memory", "resource_normalized"),
        ("repeater_noisy_memory", "time_normalized"),
    )}
    for n in n_values:
        cfg_n = cfg._replace(n=n)
        for regime, regime_mem in (
            ("repeater_ideal_memory", MemoryModel.none()),
            ("repeater_noisy_memory", mem),
        ):
            rr = repeater_rate(cfg_n, g, regime_mem, f_min)
            for metric, value in (
                ("resource_normalized", rr.rate_resource),
                ("time_normalized", rr.rate_time),
            ):
                if value > 0.0 and math.isfinite(value):
                    expected[(regime, metric)].append(
                        (cfg_n.span_km(n), value, metric)
                    )
    got = [
        [(p.distance_km, p.rate, p.metric) for p in c.points] for c in curves[1:]
    ]
    assert got == list(expected.values())
    if mem.mode == "exponential" and cfg.l == 2:
        # these cases lose their deepest points to degeneracy mid-sweep
        assert 0 < len(got[2]) < len(n_values)


@pytest.mark.parametrize("mem, walks", [
    (MemoryModel(), [MemoryModel.none()]),
    (MemoryModel.exponential(5e-3), [MemoryModel.none(), MemoryModel.exponential(5e-3)]),
], ids=["perfect", "lossy"])
def test_sweep_rates_walks_each_memory_once(monkeypatch, mem, walks):
    # A perfect ``mem`` equals the ideal memory by value, not identity, and
    # shares its walk; the per-depth test above checks the points themselves.
    walked = []

    def counting_steps(cfg, g, memory):
        walked.append(memory)
        return _steps(cfg, g, memory)

    monkeypatch.setattr(rates, "_steps", counting_steps)
    cfg = ChainConfig(l=2, n=1, link=LinkModel(), epp_rounds_per_level=1)
    curves = sweep_rates(cfg, BASELINE, mem, [0, 1, 2, 3, 5, 8])
    assert walked == walks
    ideal, noisy = curves[1:3], curves[3:5]
    assert [c.points for c in ideal] != [()] * 2
    assert ([c.points for c in ideal] == [c.points for c in noisy]) == (len(walks) == 1)


def test_sweep_rates_with_no_depths():
    cfg = ChainConfig(l=2, n=3, link=LinkModel())
    curves = sweep_rates(cfg, BASELINE, MemoryModel.none(), [])
    assert len(curves) == 5
    assert all(c.points == () for c in curves)


def test_sweep_rates_keeps_emptied_curves_in_curve_order():
    # The noisy-memory chain is fully mixed from level 1 on, so both of its
    # curves come back empty but still in their places.
    link = LinkModel(d_km=25.0, f0=0.96, c_signal_km_s=3e5)
    cfg = ChainConfig(l=2, n=8, link=link, epp_rounds_per_level=0)
    curves = sweep_rates(cfg, BASELINE, MemoryModel.exponential(1e-9),
                         list(range(1, 9)))
    assert len(curves) == len(CURVES)
    for curve, (regime, metric) in zip(curves, CURVES):
        assert curve.regime == regime
        assert all(p.metric == metric for p in curve.points)
    assert [len(c.points) for c in curves] == [8, 8, 8, 0, 0]


def _polyfit_r2(x, y):
    # The former numpy implementation, kept as the reference.
    x, y = np.asarray(x), np.asarray(y)
    slope, intercept = np.polyfit(x, y, 1)
    residual = y - (slope * x + intercept)
    ss_res = float(np.dot(residual, residual))
    centered = y - float(np.mean(y))
    ss_tot = float(np.dot(centered, centered))
    return float(slope), min(1.0, max(0.0, 1.0 - ss_res / ss_tot))


def test_scaling_fit_matches_numpy_polyfit():
    link = LinkModel(d_km=25.0, f0=0.96, c_signal_km_s=3e5)
    cfg = ChainConfig(l=2, n=1, link=link, epp_rounds_per_level=0)
    curves = sweep_rates(cfg, BASELINE, MemoryModel.exponential(5e-3),
                         list(range(1, 12)))
    rng = random.Random(3)
    curves.append(curve_from_fn(lambda d: d**-1.7 * rng.uniform(0.5, 2.0),
                                [30.0 * 1.6**k for k in range(9)]))
    curves.append(curve_from_fn(lambda d: math.exp(-d / 80.0) * rng.uniform(0.8, 1.2),
                                [15.0 * k for k in range(1, 14)]))
    fitted = 0
    for curve in curves:
        if len(curve.points) < 5:
            continue
        fit = scaling_fit(curve)
        d = [p.distance_km for p in curve.points]
        y = [math.log(p.rate) for p in curve.points]
        poly_slope, poly_r2 = _polyfit_r2([math.log(v) for v in d], y)
        expo_slope, expo_r2 = _polyfit_r2(d, y)
        assert fit.polynomial_degree == pytest.approx(-poly_slope, rel=1e-12)
        assert fit.polynomial_goodness == pytest.approx(poly_r2, rel=1e-12)
        assert fit.exponential_constant_per_km == pytest.approx(-expo_slope,
                                                                rel=1e-12)
        assert fit.exponential_goodness == pytest.approx(expo_r2, rel=1e-12)
        fitted += 1
    assert fitted >= 5


def test_scalar_modules_do_not_import_numpy():
    """Checked in fresh interpreters, where nothing is imported yet: numpy
    loads only with ``dmsim``, and the package root loads a module only when
    that module or one of its names is first used."""
    src = Path(repeaterlab.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))

    def fresh(code):
        return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True).stdout

    loaded = "print(sorted(m for m in sys.modules if m.startswith('repeaterlab.')))"
    # Nor do they load ``dataclasses`` or the ``inspect`` it pulls in.
    assert fresh(
        "import sys, repeaterlab, repeaterlab.werner, repeaterlab.noise, "
        "repeaterlab.chain, repeaterlab.rates, repeaterlab.cli; "
        "print(sorted({'numpy', 'dataclasses', 'inspect'} & set(sys.modules)))"
    ) == "[]\n"
    assert fresh(f"import sys, repeaterlab; {loaded}") == "[]\n"
    assert fresh(f"import sys, repeaterlab.werner; {loaded}") == "['repeaterlab.werner']\n"
    assert fresh(
        "import sys, repeaterlab; chain = repeaterlab.chain; "
        "print(chain is sys.modules['repeaterlab.chain'], 'numpy' in sys.modules)"
    ) == "True False\n"
    assert fresh(
        "import repeaterlab\n"
        "try:\n    repeaterlab.no_such_name\n"
        "except AttributeError as exc:\n    print(exc)"
    ) == "module 'repeaterlab' has no attribute 'no_such_name'\n"


#: The package's public names, frozen.
PUBLIC_NAMES = [
    "BellKind", "ChainConfig", "DEGENERACY_THRESHOLD", "EppResult", "EsResult",
    "FidelityTrace", "FixedPoints", "GateNoiseParams", "InsufficientPointsError",
    "LinkModel", "MeasurementBranch", "MemoryModel", "NoValidRangeError", "RateCurve",
    "RatePoint", "RepeaterRate", "ScalingFit", "ScheduleRound", "ThresholdResult",
    "TraceStep", "apply_one_qubit_noisy", "apply_two_qubit_noisy", "bell_state",
    "build_schedule", "check_density_matrix", "classical_comm_time", "curves_from_csv",
    "curves_to_csv", "epp_oracle", "es_oracle", "expand_operator", "expected_attempts",
    "fidelity_from_weight", "fidelity_to_bell", "link_success_probability",
    "map_deviations", "measure_noisy", "memory_decay", "partial_trace",
    "purification_fixed_points", "purify_noisy", "purify_success_probability",
    "repeater_rate", "resource_count", "resource_scaling_form", "round_time",
    "scaling_fit", "simulate_chain", "swap_chain_fidelity", "sweep_rates",
    "threshold_distance", "trace_from_csv", "trace_to_csv", "usefulness_weight",
    "validate_fidelity", "werner_state", "werner_weight",
]


def test_every_function_the_benchmark_traces_exists():
    """``perfbench/tracer.py`` wraps each ``module.fn`` of its ``LAYERS``;
    one that no longer resolves would break every traced benchmark run."""
    tracer = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text(encoding="utf-8"))
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    )
    for module, names in layers.items():
        home = importlib.import_module(f"repeaterlab.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"{module}.{name}"


def test_package_names_are_their_modules_objects():
    """Each public name is the object of the module that defines it, looked
    up anew on every access rather than copied into the package."""
    assert repeaterlab.__all__ == PUBLIC_NAMES
    for module, names in repeaterlab._EXPORTS.items():
        home = importlib.import_module(f"repeaterlab.{module}")
        assert getattr(repeaterlab, module) is home
        for name in names:
            assert getattr(repeaterlab, name) is getattr(home, name)
    assert not set(PUBLIC_NAMES) & set(vars(repeaterlab))
    assert set(PUBLIC_NAMES) | set(repeaterlab._EXPORTS) <= set(dir(repeaterlab))
