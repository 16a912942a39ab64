"""Property tests: invariants of the maps, the oracle's kernels,
the CSV round trips and the command line's exit contract."""

import functools
import io
import itertools
import math
import os
import re
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repeaterlab import (
    ChainConfig,
    FixedPoints,
    GateNoiseParams,
    LinkModel,
    MemoryModel,
    NoValidRangeError,
    RatePoint,
    apply_one_qubit_noisy,
    apply_two_qubit_noisy,
    check_density_matrix,
    classical_comm_time,
    curves_from_csv,
    curves_to_csv,
    epp_oracle,
    es_oracle,
    expand_operator,
    expected_attempts,
    link_success_probability,
    map_deviations,
    measure_noisy,
    memory_decay,
    partial_trace,
    purification_fixed_points,
    purify_noisy,
    purify_success_probability,
    resource_count,
    round_time,
    simulate_chain,
    swap_chain_fidelity,
    sweep_rates,
    trace_from_csv,
    trace_to_csv,
    usefulness_weight,
    validate_fidelity,
    werner_state,
)
from repeaterlab.cli import _SECTION_KEYS, main
from repeaterlab import chain, dmsim
from repeaterlab.dmsim import CNOT, ORACLE_TOLERANCE, H, X, Z, num_qubits
from test_werner import ABOVE_FLOOR_GATES, BASELINE

#: Rounding slack of an order comparison only: the maps stay in [1/4, 1]
#: exactly, but neighbouring inputs can swap order.  Over 200,000 seeded
#: draws, edge-heavy in f, p2 and eta, ``purify_noisy(f) > purify_noisy(f')``
#: for the next float ``f'`` above ``f`` in 2,352 of them, by at most 2.2e-16.
ULP_SLACK = 1e-15

unit = st.floats(0.0, 1.0, exclude_min=True)
gates = st.builds(
    GateNoiseParams,
    p1=unit,
    p2=unit,
    eta=st.floats(0.5, 1.0, exclude_min=True),
)
fidelity = st.floats(0.25, 1.0)


def in_range(f: float) -> bool:
    return 0.25 <= f <= 1.0


@given(gates, fidelity, fidelity)
@example(BASELINE, 0.25, 0.25)
@example(ABOVE_FLOOR_GATES, 0.25, 0.25)
def test_purify_stays_physical_and_monotone(g, a, b):
    lo, hi = sorted((a, b))
    f_lo, f_hi = purify_noisy(lo, g), purify_noisy(hi, g)
    assert in_range(f_lo) and in_range(f_hi)
    assert f_lo <= f_hi + ULP_SLACK
    assert 0.0 < purify_success_probability(lo, g) <= 1.0


@given(gates, fidelity, fidelity, st.sampled_from((2, 3)))
@example(BASELINE, 0.25, 0.25, 2)
@example(ABOVE_FLOOR_GATES, 0.25, 0.25, 2)
def test_swap_stays_physical_and_monotone(g, a, b, l):
    lo, hi = sorted((a, b))
    f_lo, f_hi = swap_chain_fidelity(lo, l, g), swap_chain_fidelity(hi, l, g)
    assert in_range(f_lo) and in_range(f_hi)
    assert f_lo <= f_hi + ULP_SLACK


@given(gates, st.sampled_from(("p1", "p2", "eta")), st.floats(0.0, 1.0), fidelity,
       st.sampled_from((2, 3)))
def test_maps_are_monotone_in_each_gate_parameter(g, name, u, f, l):
    """Raising one of p1, p2, eta toward 1 never lowers a fidelity or the
    purification pass probability."""
    value = getattr(g, name)
    better = g._replace(**{name: value + u * (1.0 - value)})
    for worse_out, better_out in (
        (swap_chain_fidelity(f, l, g), swap_chain_fidelity(f, l, better)),
        (purify_noisy(f, g), purify_noisy(f, better)),
    ):
        assert in_range(worse_out) and in_range(better_out)
        assert worse_out <= better_out + ULP_SLACK
    p_worse = purify_success_probability(f, g)
    p_better = purify_success_probability(f, better)
    assert 0.0 < p_worse <= 1.0 and 0.0 < p_better <= 1.0
    assert p_worse <= p_better + ULP_SLACK


memories = st.one_of(
    st.just(MemoryModel.none()),
    st.floats(1e-9, 10.0).map(MemoryModel.exponential),
)


@given(
    g=gates,
    mem=memories,
    f0=fidelity,
    d_km=st.floats(0.1, 100.0),
    l=st.integers(2, 4),
    n=st.integers(0, 4),
    m=st.integers(2, 3),
    k=st.integers(0, 2),
    f_useful=st.floats(0.0, 1.0),
)
@example(g=GateNoiseParams(), mem=MemoryModel.none(), f0=0.25 + 5e-13,
         d_km=25.0, l=2, n=0, m=2, k=1, f_useful=0.5)
def test_accepted_chains_round_trip_through_csv(g, mem, f0, d_km, l, n, m, k,
                                                f_useful):
    try:
        link = LinkModel(d_km=d_km, f0=f0)
    except ValueError:
        return  # not an accepted chain
    cfg = ChainConfig(l=l, n=n, link=link, m=m, epp_rounds_per_level=k)

    trace = simulate_chain(cfg, g, mem)
    text = trace_to_csv(trace)
    parsed = trace_from_csv(text)
    assert parsed.degenerate == trace.degenerate
    assert len(parsed.steps) == len(trace.steps)
    assert trace_to_csv(parsed) == text

    curves = sweep_rates(cfg, g, mem, range(n + 1), f_useful)
    text = curves_to_csv(curves)
    parsed_curves = curves_from_csv(text)
    assert curves_to_csv(parsed_curves) == text
    # An empty curve writes no rows, so only the others come back.
    kept = [c for c in curves if c.points]
    assert [c.regime for c in parsed_curves] == [c.regime for c in kept]
    assert [len(c.points) for c in parsed_curves] == [len(c.points) for c in kept]


@given(
    g=gates,
    mem=memories,
    f0=fidelity,
    d_km=st.floats(0.1, 100.0),
    l=st.integers(2, 4),
    m=st.integers(2, 4),
    n=st.integers(1, 4),
    k=st.integers(1, 3),
)
@example(g=GateNoiseParams(), mem=MemoryModel.none(), f0=0.99, d_km=10.0,
         l=3, m=2, n=3, k=2)
def test_pair_and_attempt_counts_tell_l_from_m(g, mem, f0, d_km, l, m, n, k):
    """With l != m and purification on, a swap's factor l and a round's
    factor m land in different places of every count."""
    assume(l != m)
    try:
        link = LinkModel(d_km=d_km, f0=f0)
    except ValueError:
        return  # not an accepted chain
    cfg = ChainConfig(l=l, n=n, link=link, m=m, epp_rounds_per_level=k)
    walk = list(chain._walk(cfg, g, mem))
    # Each level is a swap, a memory step and k purification rounds.
    for x in range(n + 1):
        end = walk[x * (k + 2)]
        assert end.level == x
        assert end.pairs_consumed == l**x * m ** (k * x)
    trace = simulate_chain(cfg, g, mem)
    if not trace.degenerate:
        assert trace.steps[-1].pairs_consumed == resource_count(cfg)
    # Each round passes with the probability of the fidelity entering it.
    passes = math.prod(
        purify_success_probability(before.fidelity, g)
        for before, step in itertools.pairwise(walk)
        if step.stage == "after_epp"
    )
    attempts = l**n * m ** (k * n) / link_success_probability(d_km, link) / passes
    assert math.isclose(expected_attempts(cfg, g, mem), attempts, rel_tol=1e-12)


#: Distance kept from the fixed points when checking where purification
#: gains: the gain vanishes at the roots, so rounding decides right next to
#: them.
ROOT_MARGIN = 1e-9


#: Gate sets drawn where purification mostly has a valid interval: it needs
#: p2 >= 0.9487 and eta > 0.854 at the least.
purifiable_gates = st.builds(
    GateNoiseParams,
    p1=unit,
    p2=st.floats(0.94, 1.0),
    eta=st.floats(0.85, 1.0),
)


@given(purifiable_gates, fidelity, st.floats(0.0, 1.0))
@example(BASELINE, 0.25, 0.0)
@example(ABOVE_FLOOR_GATES, 0.25, 0.0)
def test_purification_gains_exactly_inside_its_interval(g, f, u):
    try:
        fp = purification_fixed_points(g)
    except NoValidRangeError:
        assume(False)
    assert fp.f_min <= fp.f_max
    inside = fp.f_min + u * (fp.f_max - fp.f_min)
    for point in (f, inside):
        if fp.f_min + ROOT_MARGIN < point < fp.f_max - ROOT_MARGIN:
            assert purify_noisy(point, g) > point
        elif point <= fp.f_min - ROOT_MARGIN or point >= fp.f_max + ROOT_MARGIN:
            assert purify_noisy(point, g) <= point


@given(gates)
@example(GateNoiseParams(p1=1.0, p2=1e-200, eta=0.500000001))
@example(GateNoiseParams(p1=1.0, p2=1e-155, eta=0.500000001))
def test_fixed_points_are_found_or_refused_for_any_gates(g):
    try:
        fp = purification_fixed_points(g)
    except NoValidRangeError:
        return
    assert 0.25 < fp.f_min <= fp.f_max <= 1.0


#: The oracle's kernels must equal their references to this absolute
#: tolerance, entry by entry.
KERNEL_TOL = 1e-13

seeds = st.integers(0, 2**32 - 1)


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random density matrix on n qubits: A A^H over its trace."""
    dim = 2**n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_operator(rng: np.random.Generator, k: int) -> np.ndarray:
    dim = 2**k
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


@st.composite
def gate_on_state(draw):
    """(rho, targets, op): a state on 1..5 qubits and a 1- or 2-qubit gate."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, min(2, n)))
    targets = tuple(draw(st.permutations(range(n)))[:k])
    rng = np.random.default_rng(draw(seeds))
    named = {1: (X, Z, H), 2: (CNOT,)}[k]
    op = draw(st.sampled_from(named + (None,)))
    if op is None:
        op = random_operator(rng, k)
    return random_state(rng, n), targets, op


@st.composite
def operator_on_qubits(draw):
    """(op, targets, n): an operator on 1..n distinct targets of n = 1..5 qubits."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    targets = tuple(draw(st.permutations(range(n)))[:k])
    return random_operator(np.random.default_rng(draw(seeds)), k), targets, n


@given(operator_on_qubits())
def test_embedded_operator_entries_follow_the_index_bits(case):
    """Entry (r, c) of the embedded operator is ``op[a, b]``, where a and b
    read the target bits of r and c in target order, if r and c agree on
    every other qubit, and 0 otherwise.  Qubit 0 is the leading bit."""
    op, targets, n = case
    rest = [q for q in range(n) if q not in targets]
    index = np.arange(2**n)
    bits = (index[:, None] >> (n - 1 - np.arange(n))) & 1
    local = sum(bits[:, q] << (len(targets) - 1 - j) for j, q in enumerate(targets))
    agree = (bits[:, None, rest] == bits[None, :, rest]).all(axis=-1)
    expected = np.where(agree, op[local[:, None], local[None, :]], 0)
    assert np.array_equal(expand_operator(op, targets, n), expected)


PAULIS = (np.eye(2, dtype=complex), X, 1j * X @ Z, Z)

#: A four-qubit state: failed gates on it must leave the bystanders of
#: targets 1 and (0, 2) in their slots.
FOUR_QUBITS = random_state(np.random.default_rng(7), 4)


@given(gate_on_state(), st.floats(0.0, 1.0))
@example((FOUR_QUBITS, (1,), H), 0.0)
@example((FOUR_QUBITS, (0, 2), CNOT), 0.0)
def test_gate_failure_matches_pauli_twirl(case, p):
    """A failed gate leaves its targets fully depolarized: the uniform average
    of P rho P over Pauli strings P on the targets."""
    rho, targets, op = case
    n = num_qubits(rho)
    full = expand_operator(op, targets, n)
    strings = list(itertools.product(PAULIS, repeat=len(targets)))
    twirled = np.zeros_like(rho)
    for paulis in strings:
        pauli = expand_operator(functools.reduce(np.kron, paulis), targets, n)
        twirled = twirled + pauli @ rho @ pauli.conj().T
    expected = p * (full @ rho @ full.conj().T) + (1.0 - p) * twirled / len(strings)
    if len(targets) == 1:
        got = apply_one_qubit_noisy(rho, targets[0], op, p)
    else:
        got = apply_two_qubit_noisy(rho, targets, op, p)
    assert np.max(np.abs(got - expected)) <= KERNEL_TOL


@given(gate_on_state(), st.floats(0.5, 1.0, exclude_min=True))
def test_measurement_branches_match_projector_reference(case, eta):
    rho, targets, _ = case
    n = num_qubits(rho)
    target = targets[0]
    projected = []
    for value in (0, 1):
        ket = np.zeros((2, 1), dtype=complex)
        ket[value, 0] = 1.0
        proj = expand_operator(ket @ ket.conj().T, (target,), n)
        sub = proj @ rho @ proj
        projected.append((np.real(np.trace(sub)), sub))
    branches = measure_noisy(rho, target, eta)
    assert [b.outcome for b in branches] == [0, 1]
    for b in branches:
        (p_true, s_true), (p_flip, s_flip) = projected[b.outcome], projected[1 - b.outcome]
        prob = eta * p_true + (1.0 - eta) * p_flip
        state = (eta * s_true + (1.0 - eta) * s_flip) / prob
        assert abs(b.probability - prob) <= KERNEL_TOL
        assert np.max(np.abs(b.state - state)) <= KERNEL_TOL


def traced_out(rho: np.ndarray, qubits) -> np.ndarray:
    """Reference partial trace of each matrix of ``rho``: the ``qubits`` are
    traced out one row/column axis pair at a time, highest first, by
    ``np.trace``; the other qubits keep their order."""
    batch = rho.shape[:-2]
    n = rho.shape[-1].bit_length() - 1
    tensor = rho.reshape(batch + (2,) * (2 * n))
    for left, q in enumerate(sorted(qubits, reverse=True), start=1):
        row = len(batch) + q
        tensor = np.trace(tensor, axis1=row, axis2=row + n - left + 1)
    dim = 2 ** (n - len(qubits))
    return tensor.reshape(batch + (dim, dim))


@given(st.integers(1, 5), seeds)
def test_partial_trace_matches_the_axis_pair_reference(n, seed):
    rho = random_state(np.random.default_rng(seed), n)
    for size in range(n + 1):
        for keep in itertools.combinations(range(n), size):
            traced = [q for q in range(n) if q not in keep]
            got = partial_trace(rho, keep)
            assert np.max(np.abs(got - traced_out(rho, traced))) <= KERNEL_TOL, keep


@given(st.integers(1, 5), st.data())
def test_depolarized_matches_kron_reference(n, data):
    rng = np.random.default_rng(data.draw(seeds))
    rho = random_state(rng, n)
    k = data.draw(st.integers(1, n))
    targets = tuple(data.draw(st.permutations(range(n)))[:k])
    keep = [q for q in range(n) if q not in targets]
    # Reference: trace the targets out, put I/2^k on as the last tensor
    # factors, then let each slot take the axis of the qubit that owns it.
    dim = 2 ** len(keep)
    grown = np.kron(traced_out(rho, targets), np.eye(2**k) / 2**k)
    owner = keep + sorted(targets)
    src = [owner.index(q) for q in range(n)]
    expected = grown.reshape((2,) * (2 * n)).transpose(src + [s + n for s in src])
    got = dmsim._depolarized(rho, targets)
    assert np.max(np.abs(got - expected.reshape(2**n, 2**n))) <= KERNEL_TOL


#: A kernel on a stack of states must equal the same kernel slice by slice
#: to this absolute tolerance, entry by entry.
BATCH_TOL = 1e-15


@st.composite
def stacked_kernel_calls(draw):
    """A stack of states on 1..4 qubits with batch shape of one or two axes,
    and arguments for every kernel: targets, operators embedded on them, p,
    kept qubits."""
    n = draw(st.integers(1, 4))
    batch = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    rng = np.random.default_rng(draw(seeds))
    count = int(np.prod(batch))
    states = np.stack([random_state(rng, n) for _ in range(count)])
    k = draw(st.integers(1, min(2, n)))
    targets = tuple(draw(st.permutations(range(n)))[:k])
    # Operators of spectral norm 1 keep every entry of U rho U^H within 1.
    ops = [random_operator(rng, k) for _ in range(count)]
    ops = np.stack(
        [expand_operator(op / np.linalg.norm(op, 2), targets, n) for op in ops]
    )
    keep = tuple(sorted(draw(st.sets(st.integers(0, n - 1)))))
    return {
        "states": states.reshape(batch + states.shape[1:]),
        "ops": ops.reshape(batch + ops.shape[1:]),
        "targets": targets,
        "p": draw(st.floats(0.0, 1.0)),
        "keep": keep,
    }


def parts(result):
    return result if isinstance(result, tuple) else (result,)


def slice_by_slice(kernel, states, *stacks):
    """``kernel`` called on each matrix of ``states`` and the matching matrix
    of each stack in ``stacks``; each part of its results stacked again."""
    batch = states.shape[:-2]
    flat = [x.reshape((-1,) + x.shape[-2:]) for x in (states, *stacks)]
    results = [parts(kernel(*args)) for args in zip(*flat)]
    return [np.stack(part).reshape(batch + part[0].shape) for part in zip(*results)]


@given(stacked_kernel_calls())
def test_kernels_on_a_stack_equal_the_kernels_slice_by_slice(case):
    states, ops, targets, p = case["states"], case["ops"], case["targets"], case["p"]
    one_op = ops.reshape((-1,) + ops.shape[-2:])[0]
    kernels = {
        "conjugate": (lambda r: dmsim._conjugate(r, one_op),),
        "conjugate by a stack": (lambda r, op: dmsim._conjugate(r, op), ops),
        "noisy": (lambda r: dmsim._noisy(r, one_op, targets, p),),
        "noisy by a stack": (lambda r, op: dmsim._noisy(r, op, targets, p), ops),
        "partial trace": (lambda r: dmsim._partial_trace(r, case["keep"]),),
        "depolarized": (lambda r: dmsim._depolarized(r, targets),),
    }
    for name, (kernel, *stacks) in kernels.items():
        got = parts(kernel(states, *stacks))
        want = slice_by_slice(kernel, states, *stacks)
        assert [x.shape for x in got] == [x.shape for x in want], name
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= BATCH_TOL, name


#: The station qubits each circuit reads out and discards, and where the
#: circuit gathers their diagonal blocks.
CIRCUIT_READOUTS = {
    "swap": ((1, 2), dmsim._SWAP_BLOCKS),
    "purify": ((2, 3), dmsim._PURIFY_BLOCKS),
}


@given(
    st.sampled_from(sorted(CIRCUIT_READOUTS)),
    st.lists(st.integers(1, 3), max_size=2),
    seeds,
    st.floats(0.5, 1.0, exclude_min=True),
)
def test_fused_readout_equals_readout_then_partial_trace(circuit, batch, seed, eta):
    """One weighted sum of the measured qubits' gathered diagonal blocks
    equals the projections onto each pair of values (u, v) the qubits can
    read, weighted by ``W[m1, u] * W[m2, v]`` for the reports (m1, m2), and a
    partial trace that drops the qubits; for purification, summed over the
    branches whose reports agree."""
    measured, blocks = CIRCUIT_READOUTS[circuit]
    rng = np.random.default_rng(seed)
    batch = tuple(batch)
    states = np.stack([random_state(rng, 4) for _ in range(math.prod(batch))])
    states = states.reshape(batch + (16, 16))
    values = np.eye(2)
    projectors = np.array([
        [expand_operator(np.kron(np.outer(u, u), np.outer(v, v)), measured, 4) for v in values]
        for u in values
    ])
    projected = traced_out(projectors @ states[..., None, None, :, :] @ projectors, measured)
    report = dmsim._report_matrix(eta)
    want = np.einsum("au,bv,...uvij->...abij", report, report, projected)
    if circuit == "swap":
        weights = report[:, None, :, None] * report[None, :, None, :]
        got = dmsim._measure_and_discard(states, blocks, weights.reshape(2, 2, 4))
    else:
        want = want[..., (0, 1), (0, 1), :, :].sum(axis=-3)
        got = dmsim._measure_and_discard(states, blocks, (report.T @ report).reshape(4))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= BATCH_TOL


@given(st.lists(st.integers(1, 3), max_size=2), seeds, st.floats(0.0, 1.0))
def test_the_swap_recovery_is_one_channel(batch, seed, p1):
    """The recovery X^m2 Z^m1 as one channel of reliability ``p1**2`` equals
    the two it stands for, Z^m1 and then X^m2, each of reliability ``p1``
    and each twirling qubit 1 of the pair over the Paulis when it fails."""
    rng = np.random.default_rng(seed)
    batch = tuple(batch) + (2, 2)
    pair = np.stack([random_state(rng, 2) for _ in range(math.prod(batch))])
    pair = pair.reshape(batch + (4, 4))
    paulis = [expand_operator(P, (1,), 2) for P in PAULIS]

    def channel(rho, op, p):
        twirled = sum(P @ rho @ P.conj().T for P in paulis) / len(paulis)
        return p * (op @ rho @ op.conj().swapaxes(-1, -2)) + (1.0 - p) * twirled

    z = np.stack([expand_operator(P, (1,), 2) for P in (np.eye(2), Z)])[:, None]
    x = np.stack([expand_operator(P, (1,), 2) for P in (np.eye(2), X)])
    want = channel(channel(pair, z, p1), x, p1)
    got = dmsim._apply(pair, dmsim._CORRECTIONS, p1 * p1)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= BATCH_TOL


#: Each noisy gate of the circuits, the qubits it acts on, and the gate
#: before embedding, or the stack of recoveries indexed by the reported bits.
CIRCUIT_GATES = {
    "cnot 1-2": (dmsim._CNOT_12, (1, 2), CNOT),
    "cnot 0-2": (dmsim._CNOT_02, (0, 2), CNOT),
    "cnot 1-3": (dmsim._CNOT_13, (1, 3), CNOT),
    "recovery": (dmsim._CORRECTIONS, (1,),
                 np.array([[x @ z for x in (np.eye(2), X)] for z in (np.eye(2), Z)])),
}


@given(
    st.sampled_from(sorted(CIRCUIT_GATES)),
    st.lists(st.integers(1, 3), max_size=2),
    st.booleans(),
    seeds,
    st.floats(0.0, 1.0),
)
def test_circuit_gates_equal_the_per_call_kernels(name, batch, branches, seed, p):
    """A circuit gate's constant maps give what the per-call path gives: its
    failure equals :func:`dmsim._depolarized`, and the whole channel equals
    :func:`dmsim._noisy` on the stack and the public ``apply_*_noisy`` on
    each matrix.  The recovery always carries the swap's report axes; the
    other gates have them when ``branches`` is set."""
    gate, targets, small = CIRCUIT_GATES[name]
    n = dmsim._qubits(gate[0])
    batch = tuple(batch) + ((2, 2) if branches or small.ndim > 2 else ())
    rng = np.random.default_rng(seed)
    states = np.stack([random_state(rng, n) for _ in range(math.prod(batch))])
    states = states.reshape(batch + states.shape[-2:])
    assert np.max(np.abs(
        dmsim._apply(states, gate, 0.0) - dmsim._depolarized(states, targets)
    )) <= BATCH_TOL
    got = dmsim._apply(states, gate, p)
    assert np.max(np.abs(got - dmsim._noisy(states, gate[0], targets, p))) <= BATCH_TOL
    ops = np.broadcast_to(small, batch + small.shape[-2:])
    for index in np.ndindex(batch):
        if len(targets) == 1:
            want = apply_one_qubit_noisy(states[index], targets[0], ops[index], p)
        else:
            want = apply_two_qubit_noisy(states[index], targets, ops[index], p)
        assert np.max(np.abs(got[index] - want)) <= BATCH_TOL


#: Values a key is tried with besides its in-range ones: the edges of the
#: float range, non-finite values, text that is no number, and nothing.
edge_values = st.sampled_from(
    ("0", "1", "-1", "0.25", "1e308", "5e-324", "1e-310", "nan", "inf", "-inf", "")
) | st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6)


def floats_between(low, high):
    return st.floats(low, high).map(repr)


def ints_between(low, high):
    return st.integers(low, high).map(str)


def optional_keys(**keys):
    return st.fixed_dictionaries({}, optional=keys)


#: In-range values of every section the CLI reads.  The work of a run grows
#: with the depth ``n``, the sweep's ``stop`` and the digits of the pair
#: count, so those keys are bounded where one run takes milliseconds; ``n``
#: and ``stop`` still reach past 512, where 4**n pairs leave the float range.
SECTIONS = {
    "chain": optional_keys(
        l=ints_between(2, 8),
        n=ints_between(0, 600),
        m=ints_between(2, 5),
        epp_rounds_per_level=ints_between(0, 4),
        c_es=floats_between(0.0, 4.0),
        c_epp=floats_between(0.0, 4.0),
    ),
    "link": optional_keys(
        d_km=floats_between(0.1, 100.0),
        f0=floats_between(0.25, 1.0),
        alpha_db_per_km=floats_between(0.0, 1.0),
        c_signal_km_s=floats_between(1e4, 3e5),
    ),
    "gates": optional_keys(**{key: floats_between(0.8, 1.0) for key in ("p1", "p2", "eta")}),
    # An exponential memory needs tau_s and no other mode takes it; edge
    # values break that rule too.
    "memory": optional_keys(mode=st.sampled_from(("none", "gaussian")))
    | st.fixed_dictionaries(
        {"mode": st.just("exponential"), "tau_s": floats_between(1e-6, 1.0)}
    ),
    "sweep": optional_keys(
        start=ints_between(0, 40), stop=ints_between(0, 600), step=ints_between(1, 40)
    ),
    "rate": optional_keys(f_useful=floats_between(0.0, 1.0)),
    "query": optional_keys(f=floats_between(0.0, 1.0)),
    # configparser's special section name, which the CLI must refuse like any
    # unknown section; it gets keys only from an edge slot.
    "DEFAULT": optional_keys(),
}

#: Where an edge value can go: any ``[section] key`` the CLI accepts, a key
#: that the section does not know, or a key under [DEFAULT].
EDGE_SLOTS = [
    (name, key)
    for name, keys in {**_SECTION_KEYS, "DEFAULT": ("p2",)}.items()
    for key in [*keys, "unknown"]
]


@st.composite
def config_files(draw):
    """INI text with some keys set in range and up to three set to an edge
    value; few enough edges that a third of the files get past the config
    checks and reach the analysis."""
    sections = {name: draw(section) for name, section in SECTIONS.items()}
    for name, key in draw(st.lists(st.sampled_from(EDGE_SLOTS), max_size=3, unique=True)):
        sections[name][key] = draw(edge_values)
    lines = []
    for name, values in sections.items():
        if values:
            lines.append(f"[{name}]")
            lines += [f"{key} = {value}" for key, value in values.items()]
    return "\n".join(lines) + "\n"


CLI_COMMANDS = ("fixed-points", "purify", "swap", "trace", "threshold", "rate-sweep")


def with_config_examples(test):
    """``test`` with the configs every CLI fuzz tries first: edge values at
    the float range, a huge depth and sweeps past the float range of pair
    counts."""
    for text in (
        "[query]\nf = 1.5\n",
        "[link]\nc_signal_km_s = 1e-310\n",
        "[link]\nd_km = 1e308\n",
        "[chain]\nc_es = 1e308\nc_epp = 1e308\n[memory]\nmode = exponential\ntau_s = 0.01\n",
        "[sweep]\nstop = 32\n",
        "[chain]\nn = 10000\n",
        "[link]\nd_km = 1e300\n[sweep]\nstop = 30\n",
    ):
        test = example(text)(test)
    return test


def run_commands(text, traced=False):
    """``(exit code, stderr, tracemalloc peak)`` of each of ``CLI_COMMANDS``
    run on config ``text``; the peak is 0 unless ``traced``."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in CLI_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            if traced:
                tracemalloc.start()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = main([command, "--config", path, "--out",
                                 os.path.join(tmp, "out.csv")])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                if traced:
                    tracemalloc.stop()
            results.append((code, err.getvalue(), peak))
    return results


@given(config_files())
@with_config_examples
def test_cli_answers_any_config_with_a_clean_exit(text):
    """Exit 0, 1 or 2 and no traceback; stderr holds one ``config error``
    line exactly when the exit is 2, and nothing otherwise."""
    for code, err, _ in run_commands(text):
        assert code in (0, 1, 2)
        if code == 2:
            assert err.startswith("config error: ")
            assert err.count("\n") == 1
        else:
            assert err == ""


#: Most bytes a refused run may hold at once, whatever the config asks for.
REFUSAL_PEAK_BYTES = 1_000_000


# Tracing makes each run about three times slower, hence fewer examples.
@settings(max_examples=25)
@given(config_files())
@with_config_examples
@example("[chain]\nn = 100000000\n")
@example("[chain]\nn = 1\nepp_rounds_per_level = 100000000\n")
@example("[sweep]\nstop = 1000000\n")
def test_cli_refuses_any_config_at_a_bounded_memory_peak(text):
    """Every run that exits 1 or 2 peaks under ``REFUSAL_PEAK_BYTES``: no
    refusal first builds the huge pair count, power or depth list that the
    last three examples ask for."""
    for code, _, peak in run_commands(text, traced=True):
        if code != 0:
            assert peak < REFUSAL_PEAK_BYTES


#: Hostile numbers for every numeric parameter of the public API: NaN, the
#: infinities, subnormals, the float range's edges and ints past it, flags,
#: non-numbers, and the edges 0, 1/4 and 1.
HOSTILE = (
    math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308, -1e308, 10**400, -10**400,
    True, False, "0.5", None, 0, 0.25, 1,
)
hostile = st.one_of(st.sampled_from(HOSTILE), st.floats(), st.integers())

NOISY = GateNoiseParams(p1=0.99, p2=0.98, eta=0.99)
PAIR = werner_state(0.9)
CHAIN = ChainConfig(l=2, n=3, link=LinkModel())


def physical(f) -> bool:
    return 0.0 <= f <= 1.0


def positive_finite(x) -> bool:
    return 0.0 < x < math.inf


def density_matrix(rho) -> bool:
    check_density_matrix(rho)
    return True


def full_probability(branches) -> bool:
    return abs(sum(b.probability for b in branches) - 1.0) <= 1e-12


def a_float_field(name, low=0.0):
    """A constructed object's field ``name`` holds a finite number >= ``low``."""
    def holds(obj):
        value = getattr(obj, name)
        return type(value) in (int, float) and low <= value < math.inf
    return holds


def an_int_field(name, low):
    return lambda obj: type(getattr(obj, name)) is int and getattr(obj, name) >= low


#: ``(parameter, call, invariant)``: the name a refusal must carry, a call
#: that puts the drawn value in that parameter, and what an answer satisfies.
#: ``werner_weight`` and ``fidelity_from_weight`` are left out: they are
#: unchecked affine converters, called only on values already checked.
NUMERIC_PARAMETERS = {
    "validate_fidelity": ("f", validate_fidelity, physical),
    "purify_noisy": ("f", lambda v: purify_noisy(v, NOISY), physical),
    "purify_success_probability": (
        "f", lambda v: purify_success_probability(v, NOISY), lambda p: 0.0 < p <= 1.0),
    "swap_chain_fidelity.f": ("f", lambda v: swap_chain_fidelity(v, 2, NOISY), physical),
    "swap_chain_fidelity.l": ("l", lambda v: swap_chain_fidelity(0.9, v, NOISY), physical),
    "memory_decay.f": (
        "f", lambda v: memory_decay(v, 1e-3, MemoryModel.exponential(0.01)), physical),
    "memory_decay.t_s": (
        "t_s", lambda v: memory_decay(0.9, v, MemoryModel.exponential(0.01)), physical),
    "link_success_probability": (
        "distance_km", lambda v: link_success_probability(v, LinkModel()), physical),
    "classical_comm_time": (
        "span_km", lambda v: classical_comm_time(v, LinkModel()),
        lambda t: 0.0 <= t < math.inf),
    "round_time": ("level", lambda v: round_time(v, CHAIN), positive_finite),
    "usefulness_weight.f": ("f", lambda v: usefulness_weight(v, 0.5), physical),
    "usefulness_weight.f_useful": (
        "f_useful", lambda v: usefulness_weight(0.9, v), physical),
    "RatePoint.distance_km": (
        "distance_km", lambda v: RatePoint(v, 1.0, "resource_normalized"),
        a_float_field("distance_km")),
    "RatePoint.rate": (
        "rate", lambda v: RatePoint(1.0, v, "resource_normalized"), a_float_field("rate")),
    "werner_state": ("f", werner_state, density_matrix),
    "measure_noisy.eta": ("eta", lambda v: measure_noisy(PAIR, 0, v), full_probability),
    "measure_noisy.target": (
        "positions", lambda v: measure_noisy(PAIR, v, 0.9), full_probability),
    "apply_one_qubit_noisy.p1": (
        "p1", lambda v: apply_one_qubit_noisy(PAIR, 0, X, v), density_matrix),
    "apply_one_qubit_noisy.target": (
        "positions", lambda v: apply_one_qubit_noisy(PAIR, v, X, 0.9), density_matrix),
    "apply_two_qubit_noisy.p2": (
        "p2", lambda v: apply_two_qubit_noisy(PAIR, (0, 1), CNOT, v), density_matrix),
    "es_oracle.f_a": ("f_a", lambda v: es_oracle(v, 0.9, NOISY), lambda r: physical(r.fidelity)),
    "es_oracle.f_b": ("f_b", lambda v: es_oracle(0.9, v, NOISY), lambda r: physical(r.fidelity)),
    "epp_oracle": (
        "f", lambda v: epp_oracle(v, NOISY),
        lambda r: physical(r.f_out) and 0.0 < r.success_probability <= 1.0),
    "map_deviations": (
        "f", lambda v: map_deviations([v], [NOISY]),
        lambda worst: all(d <= ORACLE_TOLERANCE for d in worst.values())),
    "FixedPoints.f_min": ("f_min", lambda v: FixedPoints(v, 1.0), a_float_field("f_min", 0.25)),
    "FixedPoints.f_max": ("f_max", lambda v: FixedPoints(0.5, v), a_float_field("f_max", 0.5)),
    "GateNoiseParams.p1": ("p1", lambda v: GateNoiseParams(p1=v), a_float_field("p1")),
    "GateNoiseParams.p2": ("p2", lambda v: GateNoiseParams(p2=v), a_float_field("p2")),
    "GateNoiseParams.eta": ("eta", lambda v: GateNoiseParams(eta=v), a_float_field("eta")),
    "LinkModel.d_km": ("d_km", lambda v: LinkModel(d_km=v), a_float_field("d_km")),
    "LinkModel.f0": ("f0", lambda v: LinkModel(f0=v), a_float_field("f0", 0.25)),
    "LinkModel.alpha_db_per_km": (
        "alpha_db_per_km", lambda v: LinkModel(alpha_db_per_km=v),
        a_float_field("alpha_db_per_km")),
    "LinkModel.c_signal_km_s": (
        "c_signal_km_s", lambda v: LinkModel(c_signal_km_s=v), a_float_field("c_signal_km_s")),
    "MemoryModel.exponential": ("tau_s", MemoryModel.exponential, a_float_field("tau_s")),
    "MemoryModel.none": (
        "tau_s", lambda v: MemoryModel("none", v), lambda mem: mem.tau_s is None),
    "ChainConfig.l": ("l", lambda v: CHAIN._replace(l=v), an_int_field("l", 2)),
    "ChainConfig.n": ("n", lambda v: CHAIN._replace(n=v), an_int_field("n", 0)),
    "ChainConfig.m": ("m", lambda v: CHAIN._replace(m=v), an_int_field("m", 2)),
    "ChainConfig.epp_rounds_per_level": (
        "epp_rounds_per_level", lambda v: CHAIN._replace(epp_rounds_per_level=v),
        an_int_field("epp_rounds_per_level", 0)),
    "ChainConfig.c_es": ("c_es", lambda v: CHAIN._replace(c_es=v), a_float_field("c_es")),
    "ChainConfig.c_epp": ("c_epp", lambda v: CHAIN._replace(c_epp=v), a_float_field("c_epp")),
}


def every_hostile_value(test):
    """``test`` with each :data:`HOSTILE` value in each parameter as an
    explicit example, so every run tries all of them."""
    for site in reversed(NUMERIC_PARAMETERS):
        for value in reversed(HOSTILE):
            test = example(site=site, value=value)(test)
    return test


@given(site=st.sampled_from(list(NUMERIC_PARAMETERS)), value=hostile)
@every_hostile_value
def test_every_number_the_api_takes_gets_an_answer_or_a_named_error(site, value):
    """An answer that passes its invariant, or a ``TypeError`` or
    ``ValueError`` whose message names the parameter as a word, or an
    ``OverflowError`` in the package's own words, which name it too."""
    parameter, call, invariant = NUMERIC_PARAMETERS[site]
    try:
        result = call(value)
    except (TypeError, ValueError, OverflowError) as exc:
        assert re.search(rf"\b{parameter}\b", str(exc)), f"{type(exc).__name__}: {exc}"
    else:
        assert invariant(result), result
