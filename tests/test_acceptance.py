"""Acceptance suite: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a single pass/fail
line per criterion.  Each test also prints a short detail line (visible with
``-s`` or in captured output) and enforces its own wall-clock budget.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from repeaterlab import (
    ChainConfig,
    GateNoiseParams,
    LinkModel,
    MemoryModel,
    RateCurve,
    apply_one_qubit_noisy,
    apply_two_qubit_noisy,
    build_schedule,
    check_density_matrix,
    map_deviations,
    measure_noisy,
    partial_trace,
    purification_fixed_points,
    purify_noisy,
    resource_count,
    resource_scaling_form,
    scaling_fit,
    simulate_chain,
    sweep_rates,
    threshold_distance,
)
from repeaterlab.dmsim import CNOT, ORACLE_TOLERANCE, H, X, Z


def _stopwatch(budget_s):
    start = time.perf_counter()

    def check():
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, (
            f"exceeded time budget: {elapsed:.2f}s >= {budget_s}s"
        )
        return elapsed

    return check


def test_criterion_1_circuit_oracles_match_closed_forms():
    done = _stopwatch(10.0)
    fidelities = [float(f) for f in np.linspace(0.3, 1.0, 50)]
    triples = [
        (1.0, 1.0, 1.0),
        (0.99, 1.0, 1.0),
        (1.0, 0.99, 1.0),
        (1.0, 1.0, 0.99),
        (0.95, 0.95, 0.95),
        (0.99, 0.99, 0.99),
        (0.95, 0.99, 1.0),
        (1.0, 0.95, 0.95),
    ]
    grid = [GateNoiseParams(p1=p1, p2=p2, eta=eta) for p1, p2, eta in triples]
    worst = map_deviations(fidelities, grid)
    assert max(worst.values()) < ORACLE_TOLERANCE, worst
    elapsed = done()
    print(f"criterion 1: PASS (max deviations {worst}, {elapsed:.2f}s)")


def test_criterion_2_ideal_fixed_points_and_gain():
    done = _stopwatch(1.0)
    fp = purification_fixed_points(GateNoiseParams())
    assert abs(fp.f_min - 0.5) <= 1e-12
    assert abs(fp.f_max - 1.0) <= 1e-12
    grid = np.linspace(0.5, 1.0, 201)[1:-1]
    for f in grid:
        assert purify_noisy(float(f), GateNoiseParams()) > float(f)
    elapsed = done()
    print(
        f"criterion 2: PASS (f_min={fp.f_min!r}, f_max={fp.f_max!r}, "
        f"gain on {len(grid)} interior points, {elapsed:.2f}s)"
    )


def test_criterion_3_resource_count_matches_both_closed_forms():
    done = _stopwatch(1.0)
    link = LinkModel()
    cells = 0
    for l, k in itertools.product(range(2, 6), range(0, 4)):
        pairs_per_level = 2**k
        for n in range(0, 9):
            cfg = ChainConfig(l=l, n=n, link=link, epp_rounds_per_level=k)
            count = resource_count(cfg)
            assert count == (l * pairs_per_level) ** n
            checkpoints = l**n
            via_scaling = checkpoints ** (math.log(pairs_per_level, l) + 1.0)
            form = resource_scaling_form(cfg)
            assert form == pytest.approx(via_scaling, rel=1e-12)
            assert count == pytest.approx(form, rel=1e-12)
            cells += 1
    elapsed = done()
    print(f"criterion 3: PASS ({cells} (l, k, n) cells, {elapsed:.2f}s)")


def test_criterion_4_lossless_doubling_rate_is_inverse_square():
    done = _stopwatch(5.0)
    cfg = ChainConfig(
        l=2,
        n=1,
        link=LinkModel(d_km=25.0, f0=1.0),
        epp_rounds_per_level=1,
    )
    curves = sweep_rates(
        cfg, GateNoiseParams(), MemoryModel.none(), range(1, 11)
    )
    curve = next(
        c
        for c in curves
        if c.regime == "repeater_ideal_memory" and c.points[0].metric == "resource_normalized"
    )
    assert len(curve.points) == 10
    fit = scaling_fit(curve)
    assert fit.kind == "polynomial"
    assert abs(fit.polynomial_degree - 2.0) <= 0.1
    assert fit.polynomial_goodness >= 0.999
    elapsed = done()
    print(
        f"criterion 4: PASS (degree={fit.polynomial_degree:.6f}, "
        f"R2={fit.polynomial_goodness:.6f}, {elapsed:.2f}s)"
    )


def _per_level_drops(trace, epp_rounds):
    """Map level -> (total drop, memory-decay drop) for fully recorded levels."""
    drops = {}
    steps = trace.steps
    for idx, step in enumerate(steps):
        if step.stage != "after_es":
            continue
        level_steps = [s for s in steps if s.level == step.level]
        stages = [s.stage for s in level_steps]
        if "after_memory" not in stages:
            continue
        if stages.count("after_epp") != epp_rounds:
            continue
        entering = steps[idx - 1].fidelity
        after_memory = next(
            s.fidelity for s in level_steps if s.stage == "after_memory"
        )
        total = entering - level_steps[-1].fidelity
        memory = step.fidelity - after_memory
        drops[step.level] = (total, memory)
    return drops


def test_criterion_5_memory_decay_threshold_and_exponential_tail():
    done = _stopwatch(10.0)
    gates = GateNoiseParams(p1=0.999, p2=0.99, eta=0.995)
    memory = MemoryModel.exponential(5e-3)
    link = LinkModel(d_km=25.0, f0=0.96, c_signal_km_s=3e5)
    cfg = ChainConfig(l=2, n=8, link=link, epp_rounds_per_level=0)

    threshold = threshold_distance(cfg, gates, memory)
    assert math.isfinite(threshold.distance_km)
    assert threshold.crossing_fidelity < threshold.f_min

    curves = sweep_rates(cfg, gates, memory, range(1, 9))
    curve = next(
        c
        for c in curves
        if c.regime == "repeater_noisy_memory"
        and c.points[0].metric == "time_normalized"
    )
    # Fit from the crossing on, the crossing itself included.
    tail = RateCurve(
        curve.regime,
        tuple(p for p in curve.points if p.distance_km >= threshold.distance_km),
    )
    fit = scaling_fit(tail)
    assert fit.kind == "exponential"
    assert fit.exponential_goodness >= 0.99

    # Past the crossing the per-level fidelity loss is dominated from below
    # by the memory-decay share: the swap itself only ever loses fidelity,
    # and so does purification once the input sits under f_min.
    for epp_rounds in (0, 1):
        variant = ChainConfig(
            l=2, n=8, link=link, epp_rounds_per_level=epp_rounds
        )
        th = threshold_distance(variant, gates, memory)
        assert math.isfinite(th.distance_km)
        trace = simulate_chain(variant, gates, memory)
        drops = _per_level_drops(trace, epp_rounds)
        qualifying = {
            level: pair for level, pair in drops.items() if level >= th.level
        }
        assert qualifying, f"no complete levels at/after crossing (k={epp_rounds})"
        for level, (total, mem_share) in qualifying.items():
            assert total >= mem_share - 1e-15, (epp_rounds, level, total, mem_share)

    elapsed = done()
    print(
        f"criterion 5: PASS (D_th={threshold.distance_km:g} km at level "
        f"{threshold.level}, exp R2={fit.exponential_goodness:.6f} vs poly "
        f"R2={fit.polynomial_goodness:.6f}, {elapsed:.2f}s)"
    )


def test_criterion_6_fixed_point_interval_shrinks_with_worse_gates():
    done = _stopwatch(5.0)
    p1_values = [0.9, 0.925, 0.95, 0.975, 1.0]
    shared = [0.98, 0.985, 0.99, 0.995, 1.0]  # used for both p2 and eta
    width = {}
    for p1, p2, eta in itertools.product(p1_values, shared, shared):
        fp = purification_fixed_points(GateNoiseParams(p1=p1, p2=p2, eta=eta))
        width[(p1, p2, eta)] = fp.f_max - fp.f_min
    slack = 1e-9
    for i, p1 in enumerate(p1_values[:-1]):
        for p2, eta in itertools.product(shared, shared):
            assert (
                width[(p1, p2, eta)]
                <= width[(p1_values[i + 1], p2, eta)] + slack
            )
    for j, p2 in enumerate(shared[:-1]):
        for p1, eta in itertools.product(p1_values, shared):
            assert width[(p1, p2, eta)] <= width[(p1, shared[j + 1], eta)] + slack
    for k, eta in enumerate(shared[:-1]):
        for p1, p2 in itertools.product(p1_values, shared):
            assert width[(p1, p2, eta)] <= width[(p1, p2, shared[k + 1])] + slack
    elapsed = done()
    narrowest = min(width.values())
    widest = max(width.values())
    print(
        f"criterion 6: PASS (125 cells, widths {narrowest:.6f}..{widest:.6f}, "
        f"{elapsed:.2f}s)"
    )


def _merge_simulated_schedule(l, n):
    """Independent schedule derivation: merge segments round by round."""
    boundaries = list(range(l**n + 1))
    rounds = []
    for x in range(1, n + 1):
        swaps = []
        merged = [boundaries[0]]
        for j in range(0, len(boundaries) - 1, l):
            block = boundaries[j : j + l + 1]
            swaps.extend(block[1:-1])
            merged.append(block[-1])
        boundaries = merged
        purifies = boundaries[1:-1]
        rounds.append((x, tuple(swaps), tuple(purifies)))
    return rounds


def test_criterion_7_schedule_matches_segment_merging():
    done = _stopwatch(1.0)
    link = LinkModel()
    cases = 0
    for l in (2, 3, 4):
        for n in range(1, 6):
            cfg = ChainConfig(l=l, n=n, link=link)
            got = [
                (r.level, r.swap_checkpoints, r.purify_checkpoints)
                for r in build_schedule(cfg)
            ]
            assert got == _merge_simulated_schedule(l, n), (l, n)
            cases += 1
    elapsed = done()
    print(f"criterion 7: PASS ({cases} (l, n) schedules, {elapsed:.2f}s)")


def _random_state(rng, n):
    dim = 2**n
    raw = np.array(
        [
            [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(dim)]
            for _ in range(dim)
        ]
    )
    rho = raw @ raw.conj().T
    return rho / np.trace(rho).real


def _random_operation(rng, rho):
    n = int(math.log2(rho.shape[0]))
    kind = rng.choice(["one", "two", "measure", "trace"])
    if kind == "one":
        op = rng.choice([H, X, Z])
        return apply_one_qubit_noisy(
            rho, rng.randrange(n), op, rng.uniform(0.9, 1.0)
        )
    if kind == "two":
        a, b = rng.sample(range(n), 2)
        return apply_two_qubit_noisy(rho, (a, b), CNOT, rng.uniform(0.9, 1.0))
    if kind == "measure":
        branches = measure_noisy(rho, rng.randrange(n), rng.uniform(0.8, 1.0))
        pick = rng.random()
        acc = 0.0
        for branch in branches:
            acc += branch.probability
            if pick <= acc:
                return branch.state
        return branches[-1].state
    keep = tuple(sorted(rng.sample(range(n), rng.randrange(1, n + 1))))
    return partial_trace(rho, keep)


def test_criterion_8_density_matrix_hygiene_under_random_noise():
    done = _stopwatch(5.0)
    rng = random.Random(20260814)
    for _ in range(200):
        rho = _random_state(rng, rng.choice([2, 3, 4]))
        check_density_matrix(rho)
        out = _random_operation(rng, rho)
        check_density_matrix(out)
        assert abs(np.trace(out).real - 1.0) <= 1e-12
        assert abs(np.trace(out).imag) <= 1e-12
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh(out).min() >= -1e-10
    elapsed = done()
    print(f"criterion 8: PASS (200 randomized states, {elapsed:.2f}s)")
