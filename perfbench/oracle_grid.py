"""``oracle_grid``: circuit oracles against closed forms, one (f, g) cell per operation.

Each operation runs ``map_deviations`` on a single fidelity and gate set,
which builds the swap and purification circuits gate by gate in ``dmsim``
and compares them with the ``werner`` maps.
"""

from __future__ import annotations

import math
import random

from repeaterlab import dmsim

from draws import stratified
from reference import ORACLE_TOLERANCE

#: Distinct cells; a run passes over them repeatedly, about 50 times in 30 s
#: at the seed commit.
POOL = 200


#: Gate classes, in the shares every block of five keeps: ideal triples run
#: every ``p == 1`` shortcut in the oracle, mixed ones set each parameter to
#: exactly 1 with even odds, noisy ones take the depolarizing branches.
#: Noisy cells cost the most; with three in five the median operation lies
#: inside their narrow band rather than on the edge between two classes.
KINDS = ("ideal", "mixed", "noisy", "noisy", "noisy")


def draw_cell(rng: random.Random, kind: str) -> tuple[float, tuple[float, float, float]]:
    """A fidelity in [0.3, 1] and a gate triple of class ``kind``."""
    f = rng.uniform(0.3, 1.0)
    if kind == "ideal":
        return f, (1.0, 1.0, 1.0)
    if kind == "mixed":
        return f, tuple(1.0 if rng.random() < 0.5 else rng.uniform(0.95, 1.0) for _ in range(3))
    return f, tuple(rng.uniform(0.9, 1.0) for _ in range(3))


class Workload:
    name = "oracle_grid"
    in_process = True
    pool = POOL
    trace_ops = POOL

    def __init__(self, seed: int, workdir, env) -> None:
        self.seed = seed
        #: Replaced by the self-test with a deliberately wrong map.
        self.swap_map = None

    def setup(self) -> None:
        from repeaterlab import GateNoiseParams

        rng = random.Random(self.seed)
        self.params = [draw_cell(rng, kind) for kind in stratified(rng, KINDS, POOL)]
        self.cells = [(f, GateNoiseParams(*g)) for f, g in self.params]
        self.run_op(0)

    def describe(self, i: int) -> dict:
        f, (p1, p2, eta) = self.params[i % POOL]
        return {"f": f, "p1": p1, "p2": p2, "eta": eta}

    def run_op(self, i: int, tracer=None) -> dict:
        f, gates = self.cells[i % POOL]
        return dmsim.map_deviations([f], [gates], swap_map=self.swap_map)

    def check(self, i: int, worst: dict) -> str | None:
        if sorted(worst) != ["purify", "purify_success", "swap"]:
            return f"unexpected deviation keys {sorted(worst)}"
        for name, value in worst.items():
            if not (math.isfinite(value) and value <= ORACLE_TOLERANCE):
                return f"{name} deviation {value!r} exceeds {ORACLE_TOLERANCE}"
        return None
