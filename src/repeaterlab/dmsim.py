"""Small dense density-matrix simulator used as ground truth for the maps.

Everything here enumerates measurement branches exhaustively; nothing is
sampled.  States are plain complex ndarrays of shape (2^n, 2^n) with qubit 0
as the leftmost tensor factor.  The two reference circuits (`es_oracle`,
`epp_oracle`) rebuild the swap and purification fidelity maps from explicit
noisy gates, measurements and recovery operations, so the closed forms in
:mod:`repeaterlab.werner` can be checked against circuit-level truth.

Operators are applied by contracting the ``(2,)*2n`` state tensor on the
target axes, from the left and the right, so no ``2^n x 2^n`` operator is
ever built: gates are two ``np.einsum`` calls, readout weights the blocks
of the target's row and column axes, and a fresh mixed qubit is an outer
product with ``I/2``.  :func:`expand_operator` builds the full embedded operator
explicitly; the oracles never call it, and it is the reference the
contraction paths are tested against.

The primitives keep their per-call cost low without changing a bit of
their arithmetic.  Position checks run once per (operator shape, positions,
position types, qubit count) and are memoized after that.
The Bell vectors, their conjugates and their projectors are built once, at
import, and are read-only, as is ``I2``.  A correction that is the
identity ``I2`` copies the state instead of contracting it.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import string
from dataclasses import dataclass

import numpy as np

from .werner import GateNoiseParams, validate_fidelity

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
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
    BellKind.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex) * _SQRT_HALF,
    BellKind.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex) * _SQRT_HALF,
    BellKind.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex) * _SQRT_HALF,
    BellKind.PSI_MINUS: np.array([0, 1, -1, 0], dtype=complex) * _SQRT_HALF,
}
_BELL_BRAS = {kind: v.conj() for kind, v in _BELL_VECTORS.items()}
_BELL_PROJECTORS = {kind: np.outer(v, v.conj()) for kind, v in _BELL_VECTORS.items()}
#: The state a depolarized qubit is replaced by.
_HALF_I2 = I2 / 2.0
# The primitives use these without copying, and apply_one_qubit_noisy treats
# ``op is I2`` as the identity, so none of them may change.
for _constant in (
    I2, _HALF_I2,
    *_BELL_VECTORS.values(), *_BELL_BRAS.values(), *_BELL_PROJECTORS.values(),
):
    _constant.flags.writeable = False
del _constant

def num_qubits(rho: np.ndarray) -> int:
    """Qubit count of a square matrix whose dimension is a power of two."""
    shape = rho.shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"expected a square matrix, got shape {shape}")
    n = shape[0].bit_length() - 1
    if n < 0 or shape[0] != 1 << n:
        raise ValueError(f"dimension {shape[0]} is not a power of two")
    return n


def _check_probability(p: float, name: str) -> None:
    """Raise unless the gate reliability ``p`` lies in [0, 1]; NaN is refused."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {p!r}")


def check_density_matrix(rho: np.ndarray) -> None:
    """Raise if ``rho`` is not a valid state: finite, unit trace, Hermitian, PSD.

    Tolerances: |tr - 1| <= 1e-12, max |rho - rho^H| <= 1e-12, and all
    eigenvalues >= -1e-10 (tiny negative dust from repeated floating-point
    updates is tolerated, genuine negativity is not).
    """
    num_qubits(rho)
    if not np.isfinite(rho).all():
        raise ValueError("matrix has a NaN or infinite entry")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian within 1e-12")
    if float(np.min(np.linalg.eigvalsh(rho))) < EIGENVALUE_FLOOR:
        raise ValueError("matrix has an eigenvalue below -1e-10")


def bell_state(kind: BellKind) -> np.ndarray:
    """Density matrix of one Bell state."""
    return _BELL_PROJECTORS[kind].copy()


def werner_state(f: float) -> np.ndarray:
    """Werner pair: weight ``f`` on phi+, ``(1-f)/3`` on each other Bell state."""
    f = validate_fidelity(f)
    rest = (1.0 - f) / 3.0
    phi_plus, phi_minus, psi_plus, psi_minus = _BELL_PROJECTORS.values()
    return f * phi_plus + rest * phi_minus + rest * psi_plus + rest * psi_minus


def fidelity_to_bell(rho: np.ndarray, kind: BellKind = BellKind.PHI_PLUS) -> float:
    """Overlap <bell| rho |bell> of a two-qubit state with a Bell state."""
    if num_qubits(rho) != 2:
        raise ValueError("fidelity_to_bell expects a two-qubit state")
    return float(np.real(_BELL_BRAS[kind] @ rho @ _BELL_VECTORS[kind]))


def _check_targets(shape: tuple[int, ...] | None, positions, n: int) -> None:
    """Raise unless ``positions`` are distinct integer qubit indices in
    ``range(n)`` and, unless ``shape`` is ``None``, an operator of that shape
    acts on ``len(positions)`` qubits.

    Each key is checked once.  It holds each position's type beside its
    value: ``(1.0, 2)`` equals and hashes like ``(1, 2)``, so a cache keyed
    on values alone would pass the float once the int had passed.  A
    position that cannot be hashed is no qubit index either.
    """
    key = tuple(positions)
    try:
        _check_targets_once(shape, key, tuple(map(type, key)), n)
    except TypeError:
        raise ValueError(f"positions {key} invalid for {n} qubits") from None


# Only keys that pass are stored, and the oracles use a few dozen.
@functools.lru_cache(maxsize=1024)
def _check_targets_once(
    shape: tuple[int, ...] | None, positions: tuple, types: tuple[type, ...], n: int
) -> None:
    k = len(positions)
    if shape is not None and shape != (2**k, 2**k):
        raise ValueError(f"operator shape {shape} does not match {k} qubits")
    # Negative indices are rejected too: an einsum subscript or slice would
    # silently read ``-1`` as the last qubit.
    if len(set(positions)) != len(positions) or not all(
        isinstance(q, numbers.Integral) and 0 <= q < n for q in positions
    ):
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
    full = np.kron(op, np.eye(2 ** (n - k), dtype=complex))
    src = [slot_owner.index(q) for q in range(n)]
    tensor = full.reshape([2] * (2 * n))
    tensor = tensor.transpose(src + [s + n for s in src])
    return np.ascontiguousarray(tensor.reshape(2**n, 2**n))


@functools.lru_cache(maxsize=None)
def _left_subscripts(n: int, targets: tuple[int, ...]) -> str:
    """Einsum subscripts of ``op @ rho`` for a k-qubit ``op`` on ``targets``.

    The state tensor has row axes ``rows`` and column axes ``cols``; ``op``,
    reshaped to ``(2,)*2k``, has its output axes first.  The contraction sums
    the target row axes against ``op``'s input axes and puts its output axes
    in their place.
    """
    k = len(targets)
    rows, cols = string.ascii_letters[:n], string.ascii_letters[n : 2 * n]
    fresh = string.ascii_letters[2 * n : 2 * n + k]
    out = list(rows)
    for q, letter in zip(targets, fresh):
        out[q] = letter
    summed = "".join(rows[q] for q in targets)
    return f"{fresh}{summed},{rows}{cols}->{''.join(out)}{cols}"


def _conjugate(
    rho: np.ndarray, op: np.ndarray, targets: tuple[int, ...], n: int
) -> np.ndarray:
    """``U rho U^H`` for ``op`` acting on ``targets``, by tensor contraction.

    The caller has checked ``op`` and ``targets`` against the ``n`` qubits
    of ``rho``.  The right factor is applied as ``U rho U^H = (U (U
    rho)^H)^H``, so both contractions sum over row axes.  With the column
    axes innermost in memory, einsum runs a row-side contraction about three
    times as fast as the same contraction on the column side (four qubits).
    """
    subscripts = _left_subscripts(n, targets)
    gate = op.reshape((2,) * (2 * len(targets)))
    tensor_shape = (2,) * (2 * n)
    half = np.einsum(subscripts, gate, rho.reshape(tensor_shape))
    half = np.ascontiguousarray(half.reshape(rho.shape).conj().T)
    full = np.einsum(subscripts, gate, half.reshape(tensor_shape))
    return np.ascontiguousarray(full.reshape(rho.shape).conj().T)


def partial_trace(rho: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Trace out every qubit not listed in ``keep`` (order preserved, sorted)."""
    n = num_qubits(rho)
    keep = tuple(keep)
    _check_targets(None, keep, n)
    if list(keep) != sorted(keep):
        raise ValueError(f"keep indices must be sorted, got {keep!r}")
    tensor = rho.reshape([2] * (2 * n))
    reduced = np.einsum(_trace_subscripts(n, keep), tensor)
    k = len(keep)
    return np.ascontiguousarray(reduced.reshape(2**k, 2**k))


@functools.lru_cache(maxsize=None)
def _trace_subscripts(n: int, keep: tuple[int, ...]) -> str:
    """Einsum subscripts of :func:`partial_trace` keeping the sorted ``keep``."""
    rows = [chr(ord("a") + q) for q in range(n)]
    cols = [rows[q].upper() if q in keep else rows[q] for q in range(n)]
    out = "".join(rows[q] for q in keep) + "".join(rows[q].upper() for q in keep)
    return "".join(rows) + "".join(cols) + "->" + out


def _insert_mixed_qubit(rho: np.ndarray, position: int) -> np.ndarray:
    """Tensor a fresh maximally mixed qubit into ``rho`` at ``position``."""
    n = num_qubits(rho) + 1
    grown = np.multiply.outer(rho.reshape((2,) * (2 * n - 2)), _HALF_I2)
    # The new qubit's row and column axes come last; move them to ``position``
    # and ``n + position``.  A plain transpose costs less than np.moveaxis,
    # which normalises its axis arguments on every call.
    order = list(range(2 * n - 2))
    order.insert(position, 2 * n - 2)
    order.insert(n + position, 2 * n - 1)
    return grown.transpose(order).reshape(2**n, 2**n)


def apply_one_qubit_noisy(
    rho: np.ndarray, target: int, op: np.ndarray, p1: float
) -> np.ndarray:
    """Depolarizing one-qubit operation.

    With probability ``p1`` the ideal ``op`` acts on ``target``; otherwise the
    target qubit is discarded and replaced by a maximally mixed one in place.
    For ``op is I2`` the ideal part is a copy of ``rho``: contracting the
    identity would compute ``1*x + 0*y == x`` for every entry.
    """
    n = num_qubits(rho)
    _check_targets(op.shape, (target,), n)
    _check_probability(p1, "p1")
    ideal = rho.copy() if op is I2 else _conjugate(rho, op, (target,), n)
    if p1 == 1.0:
        return ideal
    others = tuple(q for q in range(n) if q != target)
    stripped = partial_trace(rho, others)
    return p1 * ideal + (1.0 - p1) * _insert_mixed_qubit(stripped, target)


def apply_two_qubit_noisy(
    rho: np.ndarray, targets: tuple[int, int], op: np.ndarray, p2: float
) -> np.ndarray:
    """Depolarizing two-qubit operation; failure replaces both targets by I/4."""
    n = num_qubits(rho)
    targets = tuple(targets)
    _check_targets(op.shape, targets, n)
    _check_probability(p2, "p2")
    ideal = _conjugate(rho, op, targets, n)
    if p2 == 1.0:
        return ideal
    others = tuple(q for q in range(n) if q not in targets)
    stripped = partial_trace(rho, others)
    lo, hi = sorted(targets)
    regrown = _insert_mixed_qubit(_insert_mixed_qubit(stripped, lo), hi)
    return p2 * ideal + (1.0 - p2) * regrown


@dataclass(frozen=True)
class MeasurementBranch:
    outcome: int
    probability: float
    state: np.ndarray


def measure_noisy(rho: np.ndarray, target: int, eta: float) -> list[MeasurementBranch]:
    """Computational-basis readout with misreporting probability ``1 - eta``.

    The qubit physically projects onto |0> or |1>; the classical record is
    correct with probability ``eta``.  Returns one branch per reported
    outcome with its total probability and normalized post state (the
    measured qubit is kept, collapsed).  Zero-probability branches are
    omitted.
    """
    if not 0.5 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0.5, 1], got {eta!r}")
    n = num_qubits(rho)
    _check_targets(None, (target,), n)
    # Row and column index each split around the target qubit's axis; the
    # projection onto |v> keeps the block where both of those axes read v.
    split = (2**target, 2, 2 ** (n - target - 1))
    tensor = rho.reshape(split + split)
    # Row v of ``masked`` is the diagonal with the other value's entries
    # zeroed rather than sliced away, so each weight sums the whole diagonal
    # in the order np.trace uses.
    diagonal = rho.diagonal().real.reshape(split)
    masked = np.zeros((2,) + split)
    masked[0, :, 0, :] = diagonal[:, 0, :]
    masked[1, :, 1, :] = diagonal[:, 1, :]
    weights = masked.reshape(2, -1).sum(axis=1).tolist()
    # Weight of each (row, column) value pair of the target, per reported
    # value: eta on the reported block, 1 - eta on the other, 0 on the
    # coherences between.
    blocks = np.array(
        [[[eta, 0.0], [0.0, 1.0 - eta]], [[1.0 - eta, 0.0], [0.0, eta]]]
    ).reshape(2, 1, 2, 1, 1, 2, 1)
    branches = []
    for reported in (0, 1):
        prob = eta * weights[reported] + (1.0 - eta) * weights[1 - reported]
        if prob <= 0.0:
            continue
        state = (tensor * blocks[reported]).reshape(rho.shape)
        state /= prob
        branches.append(MeasurementBranch(reported, prob, state))
    return branches


@dataclass(frozen=True)
class EsResult:
    """Outcome-averaged entanglement-swapping result."""

    fidelity: float
    outcome_probabilities: dict


@dataclass(frozen=True)
class EppResult:
    """Purification round result: kept-pair fidelity and pass probability."""

    f_out: float
    success_probability: float


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
    :func:`repeaterlab.werner.swap_chain_fidelity` exactly.

    Returns the probability-weighted fidelity of the surviving pair (0, 3)
    together with the four branch probabilities.
    """
    rho = np.kron(werner_state(f_a), werner_state(f_b))
    rho = apply_two_qubit_noisy(rho, (1, 2), CNOT, g.p2)
    rho = apply_one_qubit_noisy(rho, 1, H, 1.0)

    fidelity = 0.0
    probabilities = {}
    for b1 in measure_noisy(rho, 1, g.eta):
        for b2 in measure_noisy(b1.state, 2, g.eta):
            joint = b1.probability * b2.probability
            state = apply_one_qubit_noisy(b2.state, 3, Z if b1.outcome else I2, g.p1)
            state = apply_one_qubit_noisy(state, 3, X if b2.outcome else I2, g.p1)
            pair = partial_trace(state, (0, 3))
            fidelity += joint * fidelity_to_bell(pair, BellKind.PHI_PLUS)
            probabilities[(b1.outcome, b2.outcome)] = joint
    return EsResult(fidelity, probabilities)


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
    rho = np.kron(werner_state(f), werner_state(f))
    rho = apply_two_qubit_noisy(rho, (0, 2), CNOT, g.p2)
    rho = apply_two_qubit_noisy(rho, (1, 3), CNOT, g.p2)

    success = 0.0
    kept = 0.0
    for b2 in measure_noisy(rho, 2, g.eta):
        for b3 in measure_noisy(b2.state, 3, g.eta):
            if b2.outcome != b3.outcome:
                continue
            joint = b2.probability * b3.probability
            pair = partial_trace(b3.state, (0, 1))
            success += joint
            kept += joint * fidelity_to_bell(pair, BellKind.PHI_PLUS)
    if success <= 0.0:
        raise ValueError("coincidence probability vanished; inputs are unphysical")
    return EppResult(kept / success, success)


def map_deviations(fidelities, noise_params, *, swap_map=None) -> dict:
    """Worst absolute disagreement between circuits and closed-form maps.

    Runs both reference circuits over the fidelity x noise grid and compares
    against the package's own maps.  Returns the maxima keyed by ``swap``,
    ``purify`` and ``purify_success``.  ``swap_map`` replaces the swap map,
    so a deliberately wrong formula can be fed in to confirm the comparison
    actually discriminates.
    """
    from .werner import purify_noisy, purify_success_probability, swap_chain_fidelity

    if swap_map is None:
        swap_map = swap_chain_fidelity
    worst = {"swap": 0.0, "purify": 0.0, "purify_success": 0.0}
    for g in noise_params:
        for f in fidelities:
            swapped = es_oracle(f, f, g)
            worst["swap"] = max(
                worst["swap"], abs(swapped.fidelity - swap_map(f, 2, g))
            )
            purified = epp_oracle(f, g)
            worst["purify"] = max(
                worst["purify"], abs(purified.f_out - purify_noisy(f, g))
            )
            worst["purify_success"] = max(
                worst["purify_success"],
                abs(purified.success_probability - purify_success_probability(f, g)),
            )
    return worst
