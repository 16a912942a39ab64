"""Seeded inputs shared by the workloads: plain numbers, no package types."""

from __future__ import annotations

import random


#: Gate classes of the design cells, in the shares every block of eight
#: keeps: 1 ideal, 5 noisy but purifiable, 2 too noisy to purify.
DESIGN_KINDS = ("ideal",) + ("noisy",) * 5 + ("unpurifiable",) * 2


def stratified(rng: random.Random, pattern, count: int) -> list:
    """``count`` labels in shuffled blocks of ``pattern``.

    Every seed then has the same mix of input classes, so seeds differ in
    the inputs but not in how much of each kind of work they ask for.
    """
    labels = []
    while len(labels) < count:
        block = list(pattern)
        rng.shuffle(block)
        labels += block
    return labels[:count]


def draw_cell(rng: random.Random, kind: str) -> dict:
    """Seeded parameters of one design cell of gate class ``kind``."""
    if kind == "ideal":
        p1 = p2 = eta = 1.0
    elif kind == "noisy":
        p1, p2, eta = (rng.uniform(0.98, 1.0) for _ in range(3))
    else:
        p1, p2, eta = rng.uniform(0.95, 1.0), rng.uniform(0.85, 0.93), rng.uniform(0.9, 1.0)
    l = rng.choice((2, 3))
    n = rng.randint(2, 6) if l == 2 else rng.randint(2, 4)
    sweep_stop = rng.randint(6, 10) if l == 2 else rng.randint(4, 7)
    # A third of the cells keep pairs perfectly; the rest decay with a time
    # constant spread over four decades, so the memory threshold falls inside
    # the chain for some cells and beyond it for others.
    tau_s = None if rng.random() < 1 / 3 else 10.0 ** rng.uniform(-4.0, 0.0)
    return {
        "kind": kind,
        "p1": p1,
        "p2": p2,
        "eta": eta,
        "l": l,
        "n": n,
        "epp_rounds_per_level": rng.randint(0, 2),
        "d_km": rng.uniform(5.0, 50.0),
        "f0": rng.uniform(0.9, 0.99),
        "tau_s": tau_s,
        "sweep_stop": sweep_stop,
    }
