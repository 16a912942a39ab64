"""Small dense density-matrix simulator used as ground truth for the maps.

Everything here enumerates measurement branches exhaustively; nothing is
sampled.  A state is an ndarray of shape ``(*batch, 2^n, 2^n)`` with qubit 0
as the leftmost tensor factor.  The public functions take a single matrix,
batch shape ``()``; the private kernels under them take any number of leading
batch axes and act on every matrix of the stack in one call.  The two
reference circuits (`es_oracle`, `epp_oracle`) rebuild the swap and
purification fidelity maps from explicit noisy gates, measurements and
recovery operations, so the closed forms in :mod:`repeaterlab.werner` can be
checked against circuit-level truth.

Every gate, Bell vector and Werner state of the circuits is real, so the
constants here are float64 and the circuits run in real arithmetic end to
end.  The public primitives still take complex states and operators; numpy's
type promotion keeps their results complex.

Gates act as ``U rho U^H`` with ``U`` the full ``2^n x 2^n`` embedded
operator, by two matrix products that broadcast over the batch axes and
over a stack of operators.  Every other channel acts on the diagonal blocks
of some qubits, and reads their flat positions from one table,
:func:`_blocks` (row ``t``: the block where those qubits read the bits of
``t``).  A partial trace sums the blocks of the qubits it drops.  A failed
gate puts the mean of its targets' blocks back on each of them, leaving the
targets maximally mixed in place, and zeroes the rest.  A readout weighs
the block of each value v found by the report matrix ``W[m, v]`` (eta if
the reported m is v, else 1 - eta), so the branch of report m is ``sum_v
W[m, v] P_v rho P_v`` with ``P_v`` the projector ``|v><v|`` on the measured
qubit (:func:`measure_noisy`); its trace is its probability.  The table of
k of n qubits holds 4^n / 2^k int64 positions.

The public primitives embed their operator and build and gather their
blocks on every call, since dense maps for n qubits grow as 16^n.  The
circuits act on fixed qubits and apply constant maps built at import
(:func:`_circuit_gate`): each gate, its adjoint, and its failure as two
dense maps on the flattened state, built from the same table.  A failure is then two small matrix products;
gathering the blocks on every call instead ran the ``oracle_grid``
benchmark about 9% slower (2-core machine).

A circuit is one straight-line pass over a batch.  A readout puts the
reported outcome on a new axis just before the matrix axes and leaves the
branch states unnormalized, so a branch's trace is its probability, every
later step acts on all branches at once, and a branch of probability zero is
a zero matrix that adds nothing to the result.  Both circuits read out two
station qubits and discard them in one step, a gather of their four
diagonal blocks weighed by the reports in one matrix product
(:func:`_measure_and_discard`).  The swap's recovery is one stack of
operators, one per reported pair, broadcast against the branch axes and
applied as one noisy channel.  :func:`map_deviations` puts the fidelities
of one gate set on the batch axis, so each gate set costs one pass of each
circuit.

The public primitives check their arguments on every call, and refuse a
state with a NaN or infinite entry; the circuits take a gate set that
checked itself when it was built, and their qubit positions are literals.
The Bell vectors and their projectors are built once, at import, and are
read-only, as are ``I2`` and the circuits' block tables and maps.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from typing import NamedTuple

import numpy as np

from .werner import GateNoiseParams, _real, validate_fidelity

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=float)
Z = np.array([[1, 0], [0, -1]], dtype=float)
H = np.array([[1, 1], [1, -1]], dtype=float) / math.sqrt(2.0)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float
)

TRACE_TOL = 1e-12
HERMITICITY_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


class BellKind(enum.Enum):
    """The four maximally entangled two-qubit states."""

    PHI_PLUS = "phi_plus"
    PHI_MINUS = "phi_minus"
    PSI_PLUS = "psi_plus"
    PSI_MINUS = "psi_minus"

    @property
    def vector(self) -> np.ndarray:
        return _BELL_VECTORS[self].copy()


_SQRT_HALF = 1.0 / math.sqrt(2.0)
_BELL_VECTORS = {
    BellKind.PHI_PLUS: np.array([1, 0, 0, 1], dtype=float) * _SQRT_HALF,
    BellKind.PHI_MINUS: np.array([1, 0, 0, -1], dtype=float) * _SQRT_HALF,
    BellKind.PSI_PLUS: np.array([0, 1, 1, 0], dtype=float) * _SQRT_HALF,
    BellKind.PSI_MINUS: np.array([0, 1, -1, 0], dtype=float) * _SQRT_HALF,
}
_BELL_PROJECTORS = {kind: np.outer(v, v) for kind, v in _BELL_VECTORS.items()}
# The kernels use these without copying, so none of them may change.
for _constant in (I2, *_BELL_VECTORS.values(), *_BELL_PROJECTORS.values()):
    _constant.flags.writeable = False
del _constant

#: Largest disagreement between a circuit and a closed form that is still
#: read as rounding: 64 ulp of 1, about 1.4e-14.  The circuits stay within
#: 9e-16 of the maps on the ``oracle-check`` grid, while a relative error of
#: 1e-12 in a map moves it by at least 2.5e-13.
ORACLE_TOLERANCE = 64 * sys.float_info.epsilon


def num_qubits(rho: np.ndarray) -> int:
    """Qubit count of a square matrix whose dimension is a power of two."""
    shape = rho.shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"expected a square matrix, got shape {shape}")
    n = shape[0].bit_length() - 1
    if n < 0 or shape[0] != 1 << n:
        raise ValueError(f"dimension {shape[0]} is not a power of two")
    return n


def check_density_matrix(rho: np.ndarray) -> None:
    """Raise if ``rho`` is not a valid state: finite, unit trace, Hermitian, PSD.

    Tolerances: |tr - 1| <= 1e-12, max |rho - rho^H| <= 1e-12, and all
    eigenvalues >= -1e-10 (tiny negative dust from repeated floating-point
    updates is tolerated, genuine negativity is not).
    """
    num_qubits(rho)
    _check_finite(rho)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian within 1e-12")
    if float(np.min(np.linalg.eigvalsh(rho))) < EIGENVALUE_FLOOR:
        raise ValueError("matrix has an eigenvalue below -1e-10")


def _check_finite(rho: np.ndarray) -> None:
    if not np.isfinite(rho).all():
        raise ValueError("matrix has a NaN or infinite entry")


def bell_state(kind: BellKind) -> np.ndarray:
    """Density matrix of one Bell state."""
    return _BELL_PROJECTORS[kind].copy()


def werner_state(f: float) -> np.ndarray:
    """Werner pair: weight ``f`` on phi+, ``(1-f)/3`` on each other Bell state."""
    return _werner_states(validate_fidelity(f))


def _werner_states(f) -> np.ndarray:
    """Werner pairs of the checked fidelities ``f``, shape ``np.shape(f) + (4, 4)``."""
    f = np.asarray(f, dtype=float)[..., None, None]
    rest = (1.0 - f) / 3.0
    phi_plus, phi_minus, psi_plus, psi_minus = _BELL_PROJECTORS.values()
    return f * phi_plus + rest * phi_minus + rest * psi_plus + rest * psi_minus


def _pair_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of each pair of two-qubit states: ``a`` on qubits (0, 1),
    ``b`` on (2, 3).  The outer product's axes (a row, b row, a column, b
    column) are already the row and column order of the product."""
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (16, 16))


def fidelity_to_bell(rho: np.ndarray, kind: BellKind = BellKind.PHI_PLUS) -> float:
    """Overlap <bell| rho |bell> of a two-qubit state with a Bell state."""
    if num_qubits(rho) != 2:
        raise ValueError("fidelity_to_bell expects a two-qubit state")
    _check_finite(rho)
    return float(_bell_overlap(rho, kind))


def _bell_overlap(rho: np.ndarray, kind: BellKind = BellKind.PHI_PLUS) -> np.ndarray:
    """Real part of <bell| rho |bell> for each two-qubit state of the batch;
    the Bell vectors are real, so the bra is the vector itself."""
    bell = _BELL_VECTORS[kind]
    return np.real(bell @ rho @ bell)


def _check_targets(shape: tuple[int, ...] | None, positions, n: int) -> None:
    """Raise unless ``positions`` are distinct integer qubit indices in
    ``range(n)`` and, unless ``shape`` is ``None``, an operator of that shape
    acts on ``len(positions)`` qubits."""
    positions = tuple(positions)
    k = len(positions)
    if shape is not None and shape != (2**k, 2**k):
        raise ValueError(f"operator shape {shape} does not match {k} qubits")
    # Negative indices are rejected too: an axis index would silently read
    # ``-1`` as the last qubit.  A bool is no qubit index, as it is no number
    # anywhere in the package.  Only ints reach the set.
    if not all(
        isinstance(q, numbers.Integral) and not isinstance(q, bool) and 0 <= q < n
        for q in positions
    ) or len(set(positions)) != k:
        raise ValueError(f"positions {positions} invalid for {n} qubits")


def expand_operator(op: np.ndarray, positions: tuple[int, ...], n: int) -> np.ndarray:
    """Embed a k-qubit operator acting on ``positions`` into n qubits.

    ``positions[0]`` is the first tensor factor of ``op``.  Positions must be
    distinct and in range.
    """
    _check_targets(op.shape, positions, n)
    k = len(positions)
    rest = [q for q in range(n) if q not in positions]
    slot_owner = list(positions) + rest
    full = np.kron(op, np.eye(2 ** (n - k)))
    src = [slot_owner.index(q) for q in range(n)]
    tensor = full.reshape([2] * (2 * n))
    tensor = tensor.transpose(src + [s + n for s in src])
    return np.ascontiguousarray(tensor.reshape(2**n, 2**n))


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, marked read-only: the kernels use it without copying."""
    array.flags.writeable = False
    return array


def _qubits(rho: np.ndarray) -> int:
    """Qubit count of a stack of ``2^n x 2^n`` matrices, unchecked."""
    return rho.shape[-1].bit_length() - 1


def _conjugate(rho: np.ndarray, op: np.ndarray) -> np.ndarray:
    """``U rho U^H`` for the embedded operator ``op`` on each matrix of ``rho``;
    ``op`` may be a stack whose batch axes broadcast against ``rho``'s."""
    return op @ rho @ op.conj().swapaxes(-1, -2)


def partial_trace(rho: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Trace out every qubit not listed in ``keep`` (order preserved, sorted)."""
    n = num_qubits(rho)
    keep = tuple(keep)
    _check_targets(None, keep, n)
    if list(keep) != sorted(keep):
        raise ValueError(f"keep indices must be sorted, got {keep!r}")
    _check_finite(rho)
    return _partial_trace(rho, keep)


def _blocks(n: int, qubits: tuple[int, ...]) -> np.ndarray:
    """Row ``t``: the flat positions, in a ``2^n x 2^n`` state, of the
    diagonal block where the sorted ``qubits`` read the bits of ``t``
    (``qubits[0]`` the leading bit), in row-major order of the block."""
    # basis[t, a]: the basis state where ``qubits`` read t and the rest a.
    rest = [q for q in range(n) if q not in qubits]
    basis = np.arange(1 << n).reshape((2,) * n).transpose([*qubits, *rest])
    basis = basis.reshape(1 << len(qubits), -1)
    positions = ((basis[:, :, None] << n) + basis[:, None, :]).reshape(len(basis), -1)
    # The sum follows the memory order of the transposed basis; the circuits
    # gather through these tables on every cell, a little faster in row order.
    return np.ascontiguousarray(positions)


def _partial_trace(rho: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """The reduced states on the sorted qubits ``keep``, for each matrix of
    ``rho``: the sum of the other qubits' diagonal blocks."""
    n = _qubits(rho)
    blocks = _blocks(n, tuple(q for q in range(n) if q not in keep))
    batch, dim = rho.shape[:-2], 1 << len(keep)
    gathered = rho.reshape(batch + (-1,)).take(blocks, axis=-1)
    return gathered.sum(axis=-2).reshape(batch + (dim, dim))


def _depolarized(rho: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """Each matrix of ``rho`` with the qubits ``targets`` replaced by
    maximally mixed ones in place: the mean of the targets' diagonal blocks
    on each of them, and zero elsewhere."""
    blocks = _blocks(_qubits(rho), tuple(sorted(targets)))
    flat = rho.reshape(rho.shape[:-2] + (-1,))
    mixed = np.zeros_like(flat)
    mixed[..., blocks] = flat.take(blocks, axis=-1).mean(axis=-2, keepdims=True)
    return mixed.reshape(rho.shape)


def _noisy(
    rho: np.ndarray, op: np.ndarray, targets: tuple[int, ...], p: float
) -> np.ndarray:
    """Depolarizing gate: with probability ``p`` the embedded ``op`` acts,
    otherwise the qubits ``targets`` are replaced by maximally mixed ones in
    place.  ``op`` may be a stack, as in :func:`_conjugate`.
    """
    ideal = _conjugate(rho, op)
    if p == 1.0:
        return ideal
    return p * ideal + (1.0 - p) * _depolarized(rho, targets)


def _circuit_gate(op: np.ndarray, targets: tuple[int, ...]) -> tuple:
    """``(op, adjoint, trace, fresh)`` of the embedded real ``op`` (or a stack)
    on the sorted ``targets``: the failure maps act on the flat state, ``trace``
    summing the targets' diagonal blocks (:func:`_partial_trace`) and ``fresh``
    putting ``1/2^k`` of the result on each of them (:func:`_depolarized`)."""
    blocks = _blocks(_qubits(op), targets)
    trace = np.zeros((op.shape[-1] ** 2, blocks.shape[1]))
    trace[blocks, np.arange(blocks.shape[1])] = 1.0
    maps = (op, op.swapaxes(-1, -2), trace, trace.T / len(blocks))
    return tuple(_read_only(np.ascontiguousarray(m, dtype=float)) for m in maps)


def _apply(rho: np.ndarray, gate: tuple, p: float) -> np.ndarray:
    """:func:`_noisy` through the constant maps of :func:`_circuit_gate`; each
    matrix is its own one-row product, so it rounds alike in any batch."""
    op, adjoint, trace, fresh = gate
    ideal = op @ rho @ adjoint
    if p == 1.0:
        return ideal
    flat = rho.reshape(rho.shape[:-2] + (1, trace.shape[0]))
    return p * ideal + (1.0 - p) * (flat @ trace @ fresh).reshape(rho.shape)


#: The circuits' gates.  The swap's recovery ``_CORRECTIONS[0][m1, m2]`` is
#: X^m2 Z^m1 on qubit 1 of the remaining pair (0, 3), indexed by the reported
#: bits.  The Hadamard never fails, and is real and symmetric: its own adjoint.
_CNOT_12 = _circuit_gate(expand_operator(CNOT, (1, 2), 4), (1, 2))
_CNOT_02 = _circuit_gate(expand_operator(CNOT, (0, 2), 4), (0, 2))
_CNOT_13 = _circuit_gate(expand_operator(CNOT, (1, 3), 4), (1, 3))
_H_1 = _read_only(expand_operator(H, (1,), 4))
_CORRECTIONS = _circuit_gate(np.array(
    [[expand_operator(x @ z, (1,), 2) for x in (I2, X)] for z in (I2, Z)]), (1,))


def apply_one_qubit_noisy(
    rho: np.ndarray, target: int, op: np.ndarray, p1: float
) -> np.ndarray:
    """Depolarizing one-qubit operation.

    With probability ``p1`` the ideal ``op`` acts on ``target``; otherwise the
    target qubit is discarded and replaced by a maximally mixed one in place.
    """
    _real("p1", p1, 0.0, 1.0)
    _check_finite(rho)
    return _noisy(rho, expand_operator(op, (target,), num_qubits(rho)), (target,), p1)


def apply_two_qubit_noisy(
    rho: np.ndarray, targets: tuple[int, int], op: np.ndarray, p2: float
) -> np.ndarray:
    """Depolarizing two-qubit operation; failure replaces both targets by I/4."""
    _real("p2", p2, 0.0, 1.0)
    targets = tuple(targets)
    _check_finite(rho)
    return _noisy(rho, expand_operator(op, targets, num_qubits(rho)), targets, p2)


class MeasurementBranch(NamedTuple):
    outcome: int
    probability: float
    state: np.ndarray


def _report_matrix(eta: float) -> np.ndarray:
    """The readout rule: ``W[m, v]`` is the probability that a qubit found in
    ``v`` is reported as ``m``, eta if they agree and 1 - eta otherwise."""
    return np.array([[eta, 1.0 - eta], [1.0 - eta, eta]])


#: The station qubits each circuit reads out and discards.
_SWAP_BLOCKS = _read_only(_blocks(4, (1, 2)))
_PURIFY_BLOCKS = _read_only(_blocks(4, (2, 3)))


def _measure_and_discard(rho: np.ndarray, blocks: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Read out two qubits and trace them out, for each matrix of ``rho``, by
    one product of ``weights[*reports, 2u + v]`` with the diagonal blocks
    gathered at ``blocks`` (:func:`_blocks`).

    Returns the unnormalized states of the other qubits, shape ``batch +
    reports + (dim, dim)``.  With weights from :func:`_report_matrix`, each
    is :func:`measure_noisy`'s projector readout of both qubits, weighted by
    W, then :func:`_partial_trace` onto the rest; its trace is the probability
    of its reports."""
    batch, dim = rho.shape[:-2], rho.shape[-1]
    diagonal = rho.reshape(batch + (dim * dim,)).take(blocks, axis=-1)
    states = weights.reshape(-1, 4) @ diagonal
    return states.reshape(batch + weights.shape[:-1] + (dim >> 2, dim >> 2))


def measure_noisy(rho: np.ndarray, target: int, eta: float) -> list[MeasurementBranch]:
    """Computational-basis readout with misreporting probability ``1 - eta``.

    The qubit physically projects onto |0> or |1>; the classical record is
    correct with probability ``eta``.  Returns one branch per reported
    outcome with its total probability and normalized post state (the
    measured qubit is kept, collapsed).  Zero-probability branches are
    omitted.  A NaN or infinite entry in ``rho`` raises ``ValueError``.
    """
    _real("eta", eta, 0.5, 1.0, open_low=True)
    n = num_qubits(rho)
    _check_targets(None, (target,), n)
    _check_finite(rho)
    # found[v] marks the target's value-v block, where it was found in v.
    found = np.zeros((2, rho.size))
    found[[[0], [1]], _blocks(n, (target,))] = 1.0
    states = (_report_matrix(eta) @ found * rho.reshape(-1)).reshape((2,) + rho.shape)
    probabilities = np.trace(states, axis1=-2, axis2=-1).real
    return [
        MeasurementBranch(reported, prob, states[reported] / prob)
        for reported, prob in enumerate(probabilities.tolist())
        if prob > 0.0
    ]


class EsResult(NamedTuple):
    """Outcome-averaged entanglement-swapping result."""

    fidelity: float
    outcome_probabilities: dict


class EppResult(NamedTuple):
    """Purification round result: kept-pair fidelity and pass probability."""

    f_out: float
    success_probability: float


def _swap_circuit(rho: np.ndarray, g: GateNoiseParams) -> tuple[np.ndarray, np.ndarray]:
    """:func:`es_oracle`'s circuit on a batch of four-qubit states.

    Returns the outcome-averaged fidelity of pair (0, 3), shape ``batch``,
    and the probabilities of the reported bits ``(m1, m2)``, shape
    ``batch + (2, 2)``.
    """
    report = _report_matrix(g.eta)
    rho = _apply(rho, _CNOT_12, g.p2)
    rho = _H_1 @ rho @ _H_1
    # Qubits 1 and 2 are read out and done with: one state of the pair
    # (0, 3) per reported (m1, m2), weighted W[m1, u] * W[m2, v].
    weights = report[:, None, :, None] * report[None, :, None, :]
    pair = _measure_and_discard(rho, _SWAP_BLOCKS, weights.reshape(2, 2, 4))
    joint = np.trace(pair, axis1=-2, axis2=-1).real
    # The recovery acts on qubit 3, which is qubit 1 of the pair.
    pair = _apply(pair, _CORRECTIONS, g.p1 * g.p1)
    return _bell_overlap(pair).sum(axis=(-2, -1)), joint


def _purify_circuit(rho: np.ndarray, g: GateNoiseParams) -> tuple[np.ndarray, np.ndarray]:
    """:func:`epp_oracle`'s circuit on a batch of four-qubit states.

    Returns the kept pair's fidelity given a pass and the pass probability,
    each of shape ``batch``.
    """
    report = _report_matrix(g.eta)
    rho = _apply(rho, _CNOT_02, g.p2)
    rho = _apply(rho, _CNOT_13, g.p2)
    # The pair (0, 1) survives when the two reports agree: qubits 2 and 3
    # found (u, v) pass with weight sum_m W[m, u] * W[m, v].
    kept = _measure_and_discard(rho, _PURIFY_BLOCKS, (report.T @ report).reshape(4))
    success = np.trace(kept, axis1=-2, axis2=-1).real
    if (success <= 0.0).any():
        raise ValueError("coincidence probability vanished; inputs are unphysical")
    return _bell_overlap(kept) / success, success


def es_oracle(f_a: float, f_b: float, g: GateNoiseParams) -> EsResult:
    """Entanglement swapping on two Werner pairs, built from explicit gates.

    Qubits (0, 1) hold a pair of fidelity ``f_a`` and (2, 3) one of ``f_b``;
    qubits 1 and 2 sit at the middle station.  The station applies a noisy
    CNOT (1 -> 2), a Hadamard on 1, and reads both qubits out with
    misreporting probability ``1 - eta``.  Conditioned on the reported pair
    (m1, m2), the far node applies Z^m1 then X^m2 to qubit 3.

    The Hadamard is treated as part of the (already imperfect) readout and
    the two conditional recovery operations carry the one-qubit depolarizing
    noise, applied as channels on every branch.  This is the convention
    under which the circuit reproduces the closed-form
    :func:`repeaterlab.werner.swap_chain_fidelity` exactly.  The two
    channels run as one: X^m2 Z^m1 with probability ``p1**2``, qubit 3
    depolarized otherwise.  They are equal because a depolarization absorbs
    a Pauli applied before it, and depolarizing twice is depolarizing once.

    Returns the probability-weighted fidelity of the surviving pair (0, 3)
    together with the probabilities of the reported pairs that can occur.
    """
    f_a, f_b = validate_fidelity(f_a, "f_a"), validate_fidelity(f_b, "f_b")
    fidelity, joint = _swap_circuit(
        _pair_product(werner_state(f_a), werner_state(f_b)), g
    )
    probabilities = {
        (m1, m2): prob
        for m1, row in enumerate(joint.tolist())
        for m2, prob in enumerate(row)
        if prob > 0.0
    }
    return EsResult(float(fidelity), probabilities)


def epp_oracle(f: float, g: GateNoiseParams) -> EppResult:
    """One purification round on two Werner pairs, built from explicit gates.

    Qubits (0, 1) are the pair to keep, (2, 3) the pair to sacrifice; one
    station holds (0, 2), the other (1, 3).  Each station applies a noisy
    CNOT from its kept qubit onto its sacrificed qubit, both sacrificed
    qubits are read out with misreporting probability ``1 - eta``, and the
    pair survives when the two reported bits agree.  No one-qubit gate
    appears anywhere in the circuit, so ``p1`` never enters.

    Returns the fidelity of the kept pair conditioned on passing, and the
    pass probability itself.
    """
    pair = werner_state(f)
    f_out, success = _purify_circuit(_pair_product(pair, pair), g)
    return EppResult(float(f_out), float(success))


def map_deviations(fidelities, noise_params, *, swap_map=None) -> dict:
    """Worst absolute disagreement between circuits and closed-form maps.

    Runs both reference circuits over the fidelity x noise grid and compares
    against the package's own maps.  Returns the maxima keyed by ``swap``,
    ``purify`` and ``purify_success``.  ``swap_map`` replaces the swap map,
    so a deliberately wrong formula can be fed in to confirm the comparison
    actually discriminates.  Each gate set runs each circuit once, on all
    the fidelities stacked.  A deviation above :data:`ORACLE_TOLERANCE` is
    more than rounding; a NaN deviation makes its maximum NaN.
    """
    from .werner import purify_noisy, purify_success_probability, swap_chain_fidelity

    if swap_map is None:
        swap_map = swap_chain_fidelity
    fidelities = list(fidelities)
    pairs = _werner_states([validate_fidelity(f) for f in fidelities])
    start = _pair_product(pairs, pairs)
    worst = {"swap": 0.0, "purify": 0.0, "purify_success": 0.0}
    for g in noise_params:
        swapped, _ = _swap_circuit(start, g)
        purified, passed = _purify_circuit(start, g)
        for f, s, f_out, p_pass in zip(
            fidelities, swapped.tolist(), purified.tolist(), passed.tolist()
        ):
            worst["swap"] = _worse(worst["swap"], abs(s - swap_map(f, 2, g)))
            worst["purify"] = _worse(worst["purify"], abs(f_out - purify_noisy(f, g)))
            worst["purify_success"] = _worse(
                worst["purify_success"], abs(p_pass - purify_success_probability(f, g))
            )
    return worst


def _worse(worst: float, deviation: float) -> float:
    """The larger of two deviations; NaN, once seen, is kept (``max`` drops
    it when it comes second)."""
    return deviation if deviation > worst or math.isnan(deviation) else worst
