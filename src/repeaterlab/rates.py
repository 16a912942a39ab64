"""Rate-versus-distance analysis: curves, threshold location, scaling fits.

Rates come in two deliberately separate flavors, because "bit rate" is
meaningless without a denominator: ``resource_normalized`` is end-to-end
yield per elementary pair consumed, ``time_normalized`` is yield per second
of protocol latency.  Every curve point carries its metric label.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .chain import ChainConfig, TraceStep, _steps
from .noise import MemoryModel, link_success_probability
from .werner import (
    GateNoiseParams, _integer, _real, _Record, _setattr, purification_fixed_points,
    validate_fidelity, werner_weight,
)

METRICS = ("resource_normalized", "time_normalized")

#: The ``(regime, metric)`` of each curve :func:`sweep_rates` returns, in order.
CURVES = (
    ("direct", "resource_normalized"),
    ("repeater_ideal_memory", "resource_normalized"),
    ("repeater_ideal_memory", "time_normalized"),
    ("repeater_noisy_memory", "resource_normalized"),
    ("repeater_noisy_memory", "time_normalized"),
)


class InsufficientPointsError(ValueError):
    """A scaling fit needs at least five points, spread far enough apart
    that the squares of their offsets stay nonzero."""


class RatePoint(_Record):
    __slots__ = ("distance_km", "rate", "metric")

    def __init__(self, distance_km: float, rate: float, metric: str) -> None:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; expected {METRICS}")
        _setattr(self, "distance_km", _real("distance_km", distance_km, 0.0, open_low=True))
        _setattr(self, "rate", _real("rate", rate, 0.0, open_low=True))
        _setattr(self, "metric", metric)


class RateCurve(_Record):
    """One regime's rate-versus-distance points, strictly increasing in D."""

    __slots__ = ("regime", "points")

    def __init__(self, regime: str, points: tuple[RatePoint, ...]) -> None:
        if points:
            previous = points[0].distance_km
            for point in points[1:]:
                # Written as "not a < b" so that a NaN distance fails it too.
                if not previous < point.distance_km:
                    raise ValueError("curve distances must increase strictly")
                previous = point.distance_km
        _setattr(self, "regime", regime)
        _setattr(self, "points", points)

    @property
    def distances(self) -> tuple[float, ...]:
        return tuple(p.distance_km for p in self.points)

    @property
    def rates(self) -> tuple[float, ...]:
        return tuple(p.rate for p in self.points)


def usefulness_weight(f: float, f_useful: float) -> float:
    """QKD usefulness gate s(F): 1 above ``f_useful``, else squared weight.

    Below the useful band the pair still carries some correlation; weighting
    by the squared Werner weight keeps the rate continuous and sends it to
    zero exactly at the fully mixed state, instead of a hard step that would
    flatten every asymptotic-shape question into "rate is zero".
    """
    return _usefulness(validate_fidelity(f), validate_fidelity(f_useful, "f_useful"))


def _usefulness(f: float, f_useful: float) -> float:
    """:func:`usefulness_weight` of fidelities already checked."""
    if f >= f_useful:
        return 1.0
    return max(0.0, werner_weight(f)) ** 2


class RepeaterRate(NamedTuple):
    rate_resource: float
    rate_time: float
    final_fidelity: float


def _rates_at(end: TraceStep, f_useful: float) -> tuple[float, float]:
    """Both rates of a chain whose trace ends at ``end``, for a checked ``f_useful``."""
    s = 0.0 if end.degenerate else _usefulness(end.fidelity, f_useful)
    try:
        rate_resource = s / end.pairs_consumed
    except OverflowError:  # a count past the float range: under 2**-1024 per pair
        rate_resource = 0.0
    if end.elapsed_seconds > 0.0:
        rate_time = s / end.elapsed_seconds
    else:
        rate_time = math.inf if s > 0.0 else 0.0
    return rate_resource, rate_time


def repeater_rate(
    cfg: ChainConfig,
    g: GateNoiseParams,
    mem: MemoryModel,
    f_useful: float | None = None,
) -> RepeaterRate:
    """Both rate metrics for one chain, from the last step of its walk.

    ``f_useful`` defaults to the lower purification fixed point of ``g`` —
    the fidelity below which purification stops winning.  A degenerate
    (truncated) trace yields rate 0 in both metrics, and so does the resource
    rate of an exact pair count past the float range.  A zero-latency run
    (n = 0) has no meaningful time normalization; its ``rate_time`` is
    ``inf`` when the pair is useful at all.  ``f_useful`` is checked first.
    """
    f_useful = (purification_fixed_points(g).f_min if f_useful is None
                else validate_fidelity(f_useful, "f_useful"))
    for end in _steps(cfg, g, mem):
        pass
    return RepeaterRate(*_rates_at(end, f_useful), end.fidelity)


class ThresholdResult(NamedTuple):
    """Where memory decay first defeats purification, if anywhere.

    ``distance_km`` is ``l**level * d`` for the first level whose post-swap,
    post-decay fidelity drops below ``f_min``; ``inf`` (with ``level`` None)
    when no level up to the configured depth crosses.
    """

    distance_km: float
    level: int | None
    f_min: float
    crossing_fidelity: float | None


def threshold_distance(
    cfg: ChainConfig, g: GateNoiseParams, mem: MemoryModel
) -> ThresholdResult:
    """Locate the first level where stored pairs decay below ``f_min``.

    Levels nest, so one walk at depth ``cfg.n`` exposes every prefix: the
    crossing is its first post-decay step below ``f_min``, or the fully mixed
    step it stops at.  Below ``f_min`` purification only lowers fidelity, so
    the walk ends at the first dip.  A perfect memory has nothing to cross.
    """
    fp = purification_fixed_points(g)
    if mem.mode == "none":
        return ThresholdResult(math.inf, None, fp.f_min, None)
    for step in _steps(cfg, g, mem):
        if step.degenerate or (step.stage == "after_memory" and step.fidelity < fp.f_min):
            distance = cfg.span_km(step.level)
            return ThresholdResult(distance, step.level, fp.f_min, step.fidelity)
    return ThresholdResult(math.inf, None, fp.f_min, None)


class ScalingFit(NamedTuple):
    """Winner of the polynomial-versus-exponential decay comparison.

    ``parameter`` is the polynomial degree or the exponential constant per
    km, depending on ``kind``; both hypotheses' full results are kept so a
    caller can see how decisive the classification was.
    """

    kind: str
    parameter: float
    goodness: float
    polynomial_degree: float
    polynomial_goodness: float
    exponential_constant_per_km: float
    exponential_goodness: float


def _linear_fit_r2(x: list[float], dy: list[float], ss_tot: float) -> tuple[float, float]:
    """Least-squares slope on x of y, given as ``dy``, its offsets from its
    mean, with ``ss_tot`` their sum of squares; and the R^2, clamped into [0, 1]."""
    x_mean = math.fsum(x) / len(x)
    dx = [v - x_mean for v in x]
    sxx = math.fsum([a * a for a in dx])
    if sxx == 0.0:
        raise InsufficientPointsError("points too close together to fit a slope")
    slope = math.fsum([a * b for a, b in zip(dx, dy)]) / sxx
    ss_res = math.fsum([(b - slope * a) ** 2 for a, b in zip(dx, dy)])
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return slope, min(1.0, max(0.0, r2))


def scaling_fit(curve: RateCurve) -> ScalingFit:
    """Classify a rate curve's decay as polynomial or exponential in D.

    Fits log(rate) against log(D) (polynomial hypothesis, slope = -degree)
    and against D (exponential hypothesis, slope = -constant per km) over
    all of the curve's points, then returns whichever hypothesis explains
    more variance.  Requires at least five points; a caller fitting only
    part of a curve passes a :class:`RateCurve` of that part.
    """
    points = curve.points
    if len(points) < 5:
        raise InsufficientPointsError(
            f"need >= 5 points for a scaling fit, got {len(points)}"
        )
    d = [p.distance_km for p in points]
    log_rate = [math.log(p.rate) for p in points]
    mean = math.fsum(log_rate) / len(log_rate)
    dy = [v - mean for v in log_rate]
    ss_tot = math.fsum([b * b for b in dy])
    poly_slope, poly_r2 = _linear_fit_r2([math.log(v) for v in d], dy, ss_tot)
    expo_slope, expo_r2 = _linear_fit_r2(d, dy, ss_tot)
    degree = -poly_slope
    constant = -expo_slope
    if poly_r2 >= expo_r2:
        return ScalingFit("polynomial", degree, poly_r2, degree, poly_r2, constant, expo_r2)
    return ScalingFit("exponential", constant, expo_r2, degree, poly_r2, constant, expo_r2)


def sweep_rates(
    cfg: ChainConfig,
    g: GateNoiseParams,
    mem: MemoryModel,
    n_values: Sequence[int],
    f_useful: float | None = None,
) -> list[RateCurve]:
    """Rate curves over chain depth for the three regimes under study.

    ``f_useful`` is checked first.  For each depth in ``n_values`` (strictly
    ascending, each checked against the one before it): direct transmission
    over the same total distance, the repeater with a perfect memory, and the
    repeater with ``mem``.  Repeater regimes yield one curve per metric; points
    whose rate is exactly zero (degenerate chains, pair counts past the float
    range) are omitted, since a rate curve carries only positive rates.  A
    depth whose total distance is past the float range raises ``OverflowError``.

    Levels nest and a level's latency does not depend on the depth, so each
    memory is walked once, to the deepest depth, keeping each level's last
    step, where a shallower chain ends; a perfect ``mem`` shares the ideal
    regime's walk.  Depths past a fully mixed stop get no repeater point.
    """
    f_useful = (purification_fixed_points(g).f_min if f_useful is None
                else validate_fidelity(f_useful, "f_useful"))
    deepest = cfg._replace(n=n_values[-1] if n_values else 0)
    ideal = {step.level: step for step in _steps(deepest, g, MemoryModel.none())}
    noisy = (ideal if mem.mode == "none"
             else {step.level: step for step in _steps(deepest, g, mem)})
    points = [[] for _ in CURVES]
    direct, ideal_resource, ideal_time, noisy_resource, noisy_time = points
    regimes = ((ideal, ideal_resource, ideal_time), (noisy, noisy_resource, noisy_time))
    previous = -math.inf
    for n in n_values:
        if _integer("n", n, 0) <= previous:
            raise ValueError("n_values must be strictly increasing")
        previous = n
        distance = cfg.span_km(n)
        if math.isinf(distance):
            raise OverflowError(f"depth {n}: total distance is past the float range")
        direct_rate = link_success_probability(distance, cfg.link)
        if direct_rate > 0.0:
            direct.append(RatePoint(distance, direct_rate, "resource_normalized"))
        for ends, resource, timed in regimes:
            end = ends.get(n)
            if end is not None:
                rate_resource, rate_time = _rates_at(end, f_useful)
                if 0.0 < rate_resource < math.inf:
                    resource.append(RatePoint(distance, rate_resource, "resource_normalized"))
                if 0.0 < rate_time < math.inf:
                    timed.append(RatePoint(distance, rate_time, "time_normalized"))
    return [RateCurve(regime, tuple(pts)) for (regime, _), pts in zip(CURVES, points)]


def curves_to_csv(curves: Sequence[RateCurve]) -> str:
    """All curves in one CSV: distance_km, rate, metric, regime."""
    lines = ["distance_km,rate,metric,regime"]
    for curve in curves:
        for p in curve.points:
            lines.append(
                f"{p.distance_km:.12g},{p.rate:.12g},{p.metric},{curve.regime}"
            )
    return "\n".join(lines) + "\n"


def curves_from_csv(text: str) -> list[RateCurve]:
    """Inverse of :func:`curves_to_csv`; curves are contiguous row blocks.

    A row that is not a valid :class:`RatePoint`, or whose distance does not
    exceed the one before it in its block, raises ``ValueError`` naming the
    row.
    """
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != "distance_km,rate,metric,regime":
        raise ValueError("missing or malformed rate-curve CSV header")
    curves: list[RateCurve] = []
    block: list[RatePoint] = []
    block_key: tuple[str, str] | None = None
    for row, line in enumerate(lines[1:], 1):
        cells = line.split(",")
        try:
            if len(cells) != 4:
                raise ValueError(f"expected 4 CSV columns, got {line!r}")
            distance, rate, metric, regime = cells
            point = RatePoint(float(distance), float(rate), metric)
        except ValueError as exc:
            raise ValueError(f"rate-curve CSV row {row}: {exc}") from None
        key = (regime, metric)
        if key != block_key:
            if block:
                curves.append(RateCurve(block_key[0], tuple(block)))
            block, block_key = [], key
        elif not block[-1].distance_km < point.distance_km:
            raise ValueError(
                f"rate-curve CSV row {row}: distance {distance} of regime {regime!r} "
                "does not exceed the row before it; curve distances must increase strictly"
            )
        block.append(point)
    if block:
        curves.append(RateCurve(block_key[0], tuple(block)))
    return curves
