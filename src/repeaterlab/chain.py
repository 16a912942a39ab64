"""Recursive repeater-chain protocol: station schedule and analytic simulation.

A chain of ``N = l**n`` elementary links is merged level by level.  At level
``x`` every surviving station swaps or purifies according to its index, the
merged pairs wait out the classical-communication latency of their new span,
and ``epp_rounds_per_level`` purification rounds run on the result.  The
simulation tracks one representative fidelity per level (all pairs at a level
are interchangeable under the symmetric noise models), so the whole protocol
reduces to composing the closed-form maps from :mod:`repeaterlab.werner` and
:mod:`repeaterlab.noise`.  Those maps take and give Werner pairs, so the
protocol twirls every stage's output back to Werner form (the random bilateral
rotation of Bennett et al., PRL 76, 722 (1996)), which keeps the fidelity.  A
noisy swap's output is not Werner: in the density-matrix circuits, an untwirled
``l = 3`` swap misses :func:`swap_chain_fidelity` by 1.3e-4, a twirled one by 1.1e-15.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .noise import (
    LinkModel,
    MemoryModel,
    classical_comm_time,
    link_success_probability,
    memory_decay,
)
from .werner import (
    DEGENERACY_THRESHOLD,
    _FLOAT_MAX,
    GateNoiseParams,
    _integer,
    _Record,
    _setattr,
    purify_noisy,
    purify_success_probability,
    swap_chain_fidelity,
)

#: Most elementary links :func:`build_schedule` lays out.  A schedule holds
#: about ``2 * l**n`` station indices; the paper's chains and every test use
#: at most ``4**5``.
MAX_SCHEDULE_LINKS = 2**16

STAGES = ("init", "after_es", "after_memory", "after_epp")


class ChainConfig(_Record):
    """Static description of one repeater chain: its shape only.

    ``l`` links merge per swap level, ``n`` levels deep, so the chain has
    ``l**n`` elementary links, and ``epp_rounds_per_level`` purification
    rounds run after each swap level.  The protocol fixes the rest: a round
    is the two-pair recurrence of Bennett et al., so it consumes ``m = 2``
    pairs to output one, and a level waits ``1 + 2k`` one-way messages over
    its span (see :func:`round_time`).
    """

    __slots__ = ("l", "n", "link", "epp_rounds_per_level")

    #: Pairs one purification round consumes; a constant of the protocol.
    m = 2

    def __init__(self, l: int, n: int, link: LinkModel, epp_rounds_per_level: int = 1) -> None:
        _setattr(self, "l", _integer("l", l, 2))
        _setattr(self, "n", _integer("n", n, 0))
        _setattr(self, "link", link)
        _setattr(self, "epp_rounds_per_level",
                 _integer("epp_rounds_per_level", epp_rounds_per_level, 0))

    @property
    def checkpoints(self) -> int:
        """Number of elementary links, N = l**n."""
        return self.l**self.n

    @property
    def total_distance_km(self) -> float:
        return self.span_km(self.n)

    def span_km(self, x: int) -> float:
        """Length of ``l**x`` elementary links, in km.

        An ``l**x`` past the float range reads as ``inf``, as it would in
        floating point, rather than failing to convert.
        """
        try:
            return self.l**x * self.link.d_km
        except OverflowError:
            return math.inf


class ScheduleRound(NamedTuple):
    """Which stations act at one level: swap set and purify set are disjoint."""

    level: int
    swap_checkpoints: tuple[int, ...]
    purify_checkpoints: tuple[int, ...]


def build_schedule(cfg: ChainConfig) -> list[ScheduleRound]:
    """Station assignments for every level of the recursive protocol.

    At level ``x`` the stations at interior multiples of ``l**(x-1)`` that are
    not multiples of ``l**x`` perform a swap; the interior multiples of
    ``l**x`` purify the pairs that now terminate there.  The endpoints (0 and
    N) never act.  Raises ``ValueError`` for more than
    :data:`MAX_SCHEDULE_LINKS` elementary links.
    """
    # With l >= 2, a depth past log2 of the bound exceeds it; testing that
    # first never computes l**n for a huge n.
    if cfg.n >= MAX_SCHEDULE_LINKS.bit_length() or cfg.checkpoints > MAX_SCHEDULE_LINKS:
        raise ValueError(
            f"schedule of {cfg.l}**{cfg.n} links exceeds {MAX_SCHEDULE_LINKS} links"
        )
    n_links = cfg.checkpoints
    rounds = []
    for x in range(1, cfg.n + 1):
        stride = cfg.l ** (x - 1)
        block = stride * cfg.l
        swaps = tuple([i for i in range(stride, n_links, stride) if i % block != 0])
        purifies = tuple(range(block, n_links, block))
        rounds.append(ScheduleRound(x, swaps, purifies))
    return rounds


def round_time(x: int, cfg: ChainConfig) -> float:
    """Classical-communication latency spent at level ``x``, in seconds.

    The merged pairs span ``l**x`` links; the swap corrections cost one
    one-way message over that span and each of the ``k`` purification rounds
    a two-way exchange of outcomes, so the level waits ``1 + 2k`` messages.
    Raises ``OverflowError`` when the span or the latency is not a finite
    float.
    """
    return _round_time(_integer("level", x, 1, cfg.n), cfg)


def _round_time(x: int, cfg: ChainConfig) -> float:
    """:func:`round_time` of a level already checked."""
    span_km = cfg.span_km(x)
    k = cfg.epp_rounds_per_level
    # k is compared first, as 2.0 * k raises for a k past the float range.
    if math.isfinite(span_km) and k <= _FLOAT_MAX:
        latency = (1.0 + 2.0 * k) * classical_comm_time(span_km, cfg.link)
        if math.isfinite(latency):
            return latency
    raise OverflowError(f"level {x} latency is not a finite float (span {span_km!r} km)")


class TraceStep(NamedTuple):
    level: int
    stage: str
    fidelity: float
    elapsed_seconds: float
    pairs_consumed: int

    @property
    def degenerate(self) -> bool:
        """Whether the pair is at the fully mixed floor, where a walk stops."""
        return self.fidelity <= DEGENERACY_THRESHOLD


class FidelityTrace(_Record):
    """Stage-by-stage record of one simulated chain, ``degenerate`` when it
    was cut short at a step on the fully mixed floor.  Every property reads
    the last step, so ``steps`` may not be empty."""

    __slots__ = ("steps",)

    def __init__(self, steps: tuple[TraceStep, ...]) -> None:
        if not steps:
            raise ValueError("steps must hold at least one step, got none")
        _setattr(self, "steps", steps)

    @property
    def degenerate(self) -> bool:
        return self.steps[-1].degenerate

    @property
    def final_fidelity(self) -> float:
        return self.steps[-1].fidelity

    @property
    def total_elapsed_seconds(self) -> float:
        return self.steps[-1].elapsed_seconds

    @property
    def total_pairs_consumed(self) -> int:
        return self.steps[-1].pairs_consumed


def _walk(cfg: ChainConfig, g: GateNoiseParams, mem: MemoryModel, floor: bool = False):
    """Yield every stage of the protocol as a ``TraceStep``.

    Per level, in order: the swap update over ``l`` segments, memory decay
    over the level's full latency (time advances even when the memory is
    perfect), then each purification round.  Pair accounting is cumulative:
    a swap multiplies consumption by ``l``, each purification round by
    ``m = 2``.  A count a digit or more past what ``str`` prints raises
    ``OverflowError`` where it is built.  With ``floor`` the walk stops right
    after the first degenerate step, at the fully mixed floor; without it, it
    never stops early.  The maps are looked up in this module once per walk,
    as it starts, so a map rebound before a walk is the one that walk calls.
    """
    swap, decay, purify, make = swap_chain_fidelity, memory_decay, purify_noisy, TraceStep._make
    l, m, rounds = cfg.l, cfg.m, range(cfg.epp_rounds_per_level)
    limit = sys.get_int_max_str_digits()
    # 2**max_bits >= 10**(limit + 1); a longer count has limit + 2 digits.
    max_bits = math.ceil((limit + 1) * math.log2(10)) if limit else math.inf
    f = cfg.link.f0
    elapsed = 0.0
    pairs = 1
    step = make((0, "init", f, elapsed, pairs))
    yield step
    if floor and step.degenerate:
        return
    for x in range(1, cfg.n + 1):
        f = swap(f, l, g)
        pairs *= l
        if pairs.bit_length() > max_bits:
            raise _too_long(pairs.bit_length())
        step = make((x, "after_es", f, elapsed, pairs))
        yield step
        if floor and step.degenerate:
            return
        dt = _round_time(x, cfg)
        f = decay(f, dt, mem)
        elapsed += dt
        step = make((x, "after_memory", f, elapsed, pairs))
        yield step
        if floor and step.degenerate:
            return
        for _ in rounds:
            f = purify(f, g)
            pairs *= m
            if pairs.bit_length() > max_bits:
                raise _too_long(pairs.bit_length())
            step = make((x, "after_epp", f, elapsed, pairs))
            yield step
            if floor and step.degenerate:
                return


def _steps(cfg: ChainConfig, g: GateNoiseParams, mem: MemoryModel):
    """The walk's ``TraceStep``s, up to and including the first degenerate one."""
    return _walk(cfg, g, mem, floor=True)


def simulate_chain(
    cfg: ChainConfig, g: GateNoiseParams, mem: MemoryModel
) -> FidelityTrace:
    """Run the analytic protocol and record every stage.

    The stages are those of the protocol walk, in order; the final pair
    count equals :func:`resource_count`.  If the fidelity ever falls to the
    fully mixed floor the trace stops there, ``degenerate``.
    """
    # A list first: a tuple built from a generator is resized as it grows.
    return FidelityTrace(tuple(list(_steps(cfg, g, mem))))


def resource_count(cfg: ChainConfig) -> int:
    """Elementary pairs consumed by one full protocol execution, exactly.

    Every level multiplies consumption by ``l`` (swapping) and by ``m = 2``
    per purification round, giving ``(l * 2**k)**n``: the exact int the last
    step of a full trace carries.  Raises ``OverflowError`` for a count too
    long to print, without building it or ``2**k`` when its log10,
    ``n * (log10(l) + k * log10(2))``, is a digit or more past the limit.
    Success probabilities are deliberately excluded; see
    :func:`expected_attempts` for the probabilistic cost.
    """
    l, m, k, n = cfg.l, cfg.m, cfg.epp_rounds_per_level, cfg.n
    limit = sys.get_int_max_str_digits()
    # Compared rather than multiplied, and k bounded before it meets a
    # float, so no huge n or k overflows one.  n = 0 counts 1 for any k.
    if limit and n and (
        k >= (limit + 1) / math.log10(m)
        or n >= (limit + 1) / (math.log10(l) + k * math.log10(m))
    ):
        # About n * (log2(l) + k) bits, as log2(m) is 1.
        lp, lq = math.log2(l).as_integer_ratio()
        raise _too_long(n * (lp + k * lq) // lq + 1)
    return _printable(l**n * m ** (k * n))


def _too_long(bits: int) -> OverflowError:
    return OverflowError(
        f"pair count of about 2**{bits} has more than "
        f"{sys.get_int_max_str_digits()} digits"
    )


def _printable(count: int) -> int:
    """``count``, or ``OverflowError`` if it has more digits than ``str`` allows."""
    try:
        str(count)  # refuses exactly the ints with more digits than the limit
    except ValueError:
        raise _too_long(count.bit_length()) from None
    return count


def resource_scaling_form(cfg: ChainConfig) -> float:
    """The same count written as N**(log_l(M) + 1) with N = l**n, M = 2**k.

    Floating-point cross-check of :func:`resource_count`; the two agree to
    rounding error, which is the point: total resources are polynomial in the
    number of links.
    """
    pairs_per_level = cfg.m**cfg.epp_rounds_per_level
    exponent = math.log(pairs_per_level, cfg.l) + 1.0
    return float(cfg.checkpoints) ** exponent


def expected_attempts(
    cfg: ChainConfig, g: GateNoiseParams, mem: MemoryModel
) -> float:
    """Expected elementary-pair generation attempts, counting failures.

    Extends :func:`resource_count` with the transmission success probability
    of each elementary link and the keep probability of each purification
    round (evaluated at the fidelity entering that round): a round multiplies
    the attempts by ``2 / p_pass``.  Purification keep probabilities stay
    positive even for useless states, so this walks every level; it measures
    the cost of finishing the protocol, not of producing something worth
    keeping.  The count is ``inf`` once it leaves the float range, which it
    does before the walk's pair count grows too long to print: the attempts
    are never fewer than the pairs.
    """
    l, m, success = cfg.l, cfg.m, purify_success_probability
    transmission = link_success_probability(cfg.link.d_km, cfg.link)
    attempts = 1.0 / transmission if transmission > 0.0 else math.inf
    f = cfg.link.f0
    for step in _walk(cfg, g, mem):
        if step.stage == "after_es":
            attempts *= l
        elif step.stage == "after_epp":
            attempts *= m / success(f, g)
        if attempts == math.inf:
            return attempts
        f = step.fidelity
    return attempts


def _fidelity_text(f: float) -> str:
    """``f`` to 12 significant digits, or in full where rounding would move
    it across ``DEGENERACY_THRESHOLD`` (which :func:`trace_from_csv` reads)."""
    text = f"{f:.12g}"
    if (float(text) <= DEGENERACY_THRESHOLD) != (f <= DEGENERACY_THRESHOLD):
        return repr(f)
    return text


def trace_to_csv(trace: FidelityTrace) -> str:
    """Render a trace as CSV with 12-significant-digit numeric columns.

    A fidelity within rounding of the degeneracy floor is written in full,
    so the flag :func:`trace_from_csv` re-derives from it stays exact.  A
    pair count too long to print raises ``OverflowError`` before any row.
    """
    _printable(max((abs(s.pairs_consumed) for s in trace.steps), default=0))
    lines = ["level,stage,fidelity,elapsed_seconds,pairs_consumed"]
    for s in trace.steps:
        lines.append(
            f"{s.level},{s.stage},{_fidelity_text(s.fidelity)},"
            f"{s.elapsed_seconds:.12g},{s.pairs_consumed}"
        )
    return "\n".join(lines) + "\n"


def trace_from_csv(text: str) -> FidelityTrace:
    """Inverse of :func:`trace_to_csv`.

    The degeneracy flag is not a CSV column; it is read off the last row,
    which is exact because :func:`trace_to_csv` never rounds a fidelity
    across the floor.  A row that does not parse, or has a fidelity outside
    [0, 1], an elapsed time that is negative or not finite, or a pair count
    below 1, raises ``ValueError`` naming the row.
    """
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != "level,stage,fidelity,elapsed_seconds,pairs_consumed":
        raise ValueError("missing or malformed trace CSV header")
    steps = []
    for row, line in enumerate(lines[1:], 1):
        cells = line.split(",")
        try:
            if len(cells) != 5:
                raise ValueError(f"expected 5 CSV columns, got {line!r}")
            level, stage, fidelity, elapsed, pairs = cells
            if stage not in STAGES:
                raise ValueError(f"unknown trace stage {stage!r}")
            step = TraceStep(int(level), stage, float(fidelity), float(elapsed), int(pairs))
        except ValueError as exc:
            raise ValueError(f"trace CSV row {row}: {exc}") from None
        if not (
            0.0 <= step.fidelity <= 1.0
            and 0.0 <= step.elapsed_seconds < math.inf
            and step.pairs_consumed >= 1
        ):
            raise ValueError(f"trace CSV row {row} is out of range: {line!r}")
        steps.append(step)
    if not steps:
        raise ValueError("trace CSV has no rows")
    return FidelityTrace(tuple(steps))
