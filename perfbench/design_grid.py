"""``design_grid``: the paper's analysis loop, one design cell per operation.

A cell is a seeded gate set, chain shape, link and memory.  The operation
finds the purification interval (``purification_fixed_points``), then runs
``threshold_distance``, ``sweep_rates`` over depths 1..N with that
interval's ``f_min`` as the usefulness floor, ``scaling_fit`` on every
curve's tail, ``expected_attempts`` and ``build_schedule``.  A share of the
gate sets is too noisy to purify, where ``NoValidRangeError`` is the correct
answer and the rate sweep, which needs ``f_min``, is skipped.
"""

from __future__ import annotations

import math
import random

from repeaterlab import chain, noise, rates, werner

import reference
from draws import DESIGN_KINDS, draw_cell, stratified

#: Distinct cells; a run passes over them repeatedly, about 20 times in
#: 30 s at the seed commit.  Six blocks of eight keep the gate-class mix.
POOL = 48
NVR = "NoValidRangeError"
#: Relative slack for comparing floats that went through different
#: arithmetic orders.
REL_TOL = 1e-9


class Workload:
    name = "design_grid"
    in_process = True
    pool = POOL
    trace_ops = 16

    def __init__(self, seed: int, workdir, env) -> None:
        self.seed = seed

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.params = [draw_cell(rng, kind) for kind in stratified(rng, DESIGN_KINDS, POOL)]
        self.cells = [self._build(p) for p in self.params]
        self.run_op(0)

    @staticmethod
    def _build(p: dict):
        link = noise.LinkModel(d_km=p["d_km"], f0=p["f0"])
        cfg = chain.ChainConfig(
            l=p["l"], n=p["n"], link=link, epp_rounds_per_level=p["epp_rounds_per_level"]
        )
        gates = werner.GateNoiseParams(p["p1"], p["p2"], p["eta"])
        mem = (
            noise.MemoryModel.none()
            if p["tau_s"] is None
            else noise.MemoryModel.exponential(p["tau_s"])
        )
        return cfg, gates, mem, list(range(1, p["sweep_stop"] + 1))

    def describe(self, i: int) -> dict:
        return self.params[i % POOL]

    def run_op(self, i: int, tracer=None) -> dict:
        cfg, gates, mem, n_values = self.cells[i % POOL]
        out = {}
        for key, call in (
            ("fixed_points", lambda: werner.purification_fixed_points(gates)),
            ("threshold", lambda: rates.threshold_distance(cfg, gates, mem)),
        ):
            try:
                out[key] = call()
            except werner.NoValidRangeError:
                out[key] = NVR
        if out["fixed_points"] != NVR:
            curves = rates.sweep_rates(cfg, gates, mem, n_values, out["fixed_points"].f_min)
            # Fit the tails only, strictly beyond four elementary links, as
            # the ``rate-sweep`` subcommand does.  ``scaling_fit``'s window is
            # inclusive, so the point at exactly four links is dropped here.
            cut = 4.0 * cfg.link.d_km
            fits = []
            for curve in curves:
                tail = rates.RateCurve(
                    curve.regime, tuple(p for p in curve.points if p.distance_km > cut)
                )
                try:
                    fits.append(rates.scaling_fit(tail))
                except rates.InsufficientPointsError:
                    fits.append(None)
            out["curves"], out["fits"] = curves, fits
        out["attempts"] = chain.expected_attempts(cfg, gates, mem)
        out["schedule"] = chain.build_schedule(cfg)
        return out

    def check(self, i: int, out: dict) -> str | None:
        cfg, gates, mem, n_values = self.cells[i % POOL]
        p2, eta = gates.p2, gates.eta
        fp, th = out["fixed_points"], out["threshold"]
        if (fp == NVR) != (th == NVR):
            return f"NoValidRangeError from only one of fixed points {fp!r}, threshold {th!r}"
        if fp == NVR:
            worst = max(reference.residual(f, p2, eta) for f in reference.COARSE_GRID)
            if worst >= 0.0:
                return f"NoValidRangeError, but the reference residual reaches {worst!r}"
        else:
            if not fp.f_min <= fp.f_max:
                return f"fixed points out of order: {fp!r}"
            for root in (fp.f_min, fp.f_max):
                r = reference.residual(root, p2, eta)
                if not abs(r) <= 1e-9:
                    return f"fixed point {root!r} has reference residual {r!r}"
            if th.f_min != fp.f_min:
                return f"threshold f_min {th.f_min!r} != fixed point {fp.f_min!r}"
            reason = self._check_threshold(cfg, mem, th) or self._check_sweep(cfg, out)
            if reason:
                return reason
        return self._check_trace(cfg, gates, mem, out) or self._check_schedule(cfg, out["schedule"])

    @staticmethod
    def _check_threshold(cfg, mem, th) -> str | None:
        if th.level is None:
            if th.distance_km != math.inf:
                return f"threshold without a level at {th.distance_km!r} km"
            return None
        if mem.mode == "none":
            return "a perfect memory crossed the threshold"
        if th.distance_km != cfg.l**th.level * cfg.link.d_km:
            return f"threshold distance {th.distance_km!r} is not l**{th.level} * d"
        if not th.crossing_fidelity < th.f_min:
            return f"crossing fidelity {th.crossing_fidelity!r} is not below f_min"
        return None

    @staticmethod
    def _check_sweep(cfg, out) -> str | None:
        link = cfg.link
        per_level = cfg.l * cfg.m**cfg.epp_rounds_per_level
        depth_of = {cfg.l**n * link.d_km: n for n in range(0, 64)}
        direct, *repeaters = out["curves"]
        for p in direct.points:
            want = reference.link_transmission(p.distance_km, link.alpha_db_per_km)
            if not math.isclose(p.rate, want, rel_tol=REL_TOL):
                return f"direct rate {p.rate!r} at {p.distance_km!r} km, expected {want!r}"
        for curve in repeaters:
            for p in curve.points:
                n = depth_of.get(p.distance_km)
                if n is None:
                    return f"{curve.regime} point at {p.distance_km!r} km is not a chain length"
                if not (0.0 < p.rate < math.inf):
                    return f"{curve.regime} rate {p.rate!r} is not finite and positive"
                if p.metric == "resource_normalized" and p.rate > (1 + REL_TOL) / per_level**n:
                    return f"{curve.regime} yield {p.rate!r} exceeds one per pair consumed"
        cut = 4.0 * link.d_km
        for curve, fit in zip(out["curves"], out["fits"]):
            tail = sum(1 for p in curve.points if p.distance_km > cut)
            if (fit is None) != (tail < 5):
                return f"{curve.regime}: fit {fit!r} with {tail} tail points"
            if fit is None:
                continue
            chosen = fit.polynomial_degree if fit.kind == "polynomial" else fit.exponential_constant_per_km
            if fit.kind not in ("polynomial", "exponential") or fit.parameter != chosen:
                return f"{curve.regime}: inconsistent fit {fit!r}"
            if not (0.0 <= fit.goodness <= 1.0 and math.isfinite(fit.parameter)):
                return f"{curve.regime}: fit out of range {fit!r}"
        return None

    @staticmethod
    def _check_trace(cfg, gates, mem, out) -> str | None:
        trace = chain.simulate_chain(cfg, gates, mem)
        for step in trace.steps:
            if not 0.25 <= step.fidelity <= 1.0:
                return f"trace fidelity {step.fidelity!r} at level {step.level} {step.stage}"
        pairs = (cfg.l * cfg.m**cfg.epp_rounds_per_level) ** cfg.n
        if trace.degenerate:
            return None
        if trace.total_pairs_consumed != pairs or chain.resource_count(cfg) != pairs:
            return f"pairs consumed {trace.total_pairs_consumed} != resource count {pairs}"
        # Attempts: pairs over link transmission, divided by the reference pass
        # probability of every purification round at the fidelity it received.
        attempts = pairs / reference.link_transmission(cfg.link.d_km, cfg.link.alpha_db_per_km)
        entering = None
        for step in trace.steps:
            if step.stage == "after_epp":
                attempts /= reference.purify(entering, gates.p2, gates.eta)[1]
            entering = step.fidelity
        if not math.isclose(out["attempts"], attempts, rel_tol=REL_TOL):
            return f"expected_attempts {out['attempts']!r}, reference {attempts!r}"
        return None

    @staticmethod
    def _check_schedule(cfg, schedule) -> str | None:
        l, n = cfg.l, cfg.n
        if [r.level for r in schedule] != list(range(1, n + 1)):
            return f"schedule levels {[r.level for r in schedule]}"
        for r in schedule:
            swaps, purifies = set(r.swap_checkpoints), set(r.purify_checkpoints)
            stride = l ** (r.level - 1)
            if (
                len(swaps) != l ** (n - r.level + 1) - l ** (n - r.level)
                or len(purifies) != l ** (n - r.level) - 1
                or swaps & purifies
                or any(s % stride or not s % (stride * l) for s in swaps)
                or any(s % (stride * l) for s in purifies)
            ):
                return f"level {r.level}: wrong station sets"
        return None
