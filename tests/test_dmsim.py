"""Density-matrix building blocks and the two reference circuits."""

import itertools
import math
import random
import warnings

import numpy as np
import pytest

from repeaterlab import (
    BellKind,
    GateNoiseParams,
    apply_one_qubit_noisy,
    apply_two_qubit_noisy,
    bell_state,
    check_density_matrix,
    epp_oracle,
    es_oracle,
    expand_operator,
    fidelity_to_bell,
    map_deviations,
    measure_noisy,
    partial_trace,
    purify_noisy,
    purify_success_probability,
    swap_chain_fidelity,
    werner_state,
)
from repeaterlab import dmsim, werner
from repeaterlab.dmsim import CNOT, H, I2, ORACLE_TOLERANCE, X, Z


def random_mixed_state(rng, n_qubits):
    """Wishart-style random density matrix: manifestly PSD, unit trace."""
    dim = 2**n_qubits
    a = np.array(
        [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)]
         for _ in range(dim)]
    )
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_bell_states_orthonormal():
    kinds = list(BellKind)
    for a, b in itertools.product(kinds, kinds):
        overlap = abs(np.vdot(a.vector, b.vector))
        assert overlap == pytest.approx(1.0 if a is b else 0.0, abs=1e-15)


def test_bell_state_is_a_writable_copy_of_its_projector():
    for kind in BellKind:
        rho = bell_state(kind)
        assert np.array_equal(rho, np.outer(kind.vector, kind.vector))
        rho[0, 0] = 7.0
        assert bell_state(kind)[0, 0] != 7.0


@pytest.mark.parametrize("shape", [(4,), (2, 4), (2, 2, 2)])
def test_num_qubits_refuses_a_matrix_that_is_not_square(shape):
    with pytest.raises(ValueError, match="expected a square matrix"):
        dmsim.num_qubits(np.zeros(shape))


def test_fidelity_to_bell_refuses_a_state_that_is_not_two_qubits():
    for n in (1, 3):
        with pytest.raises(ValueError, match="expects a two-qubit state"):
            fidelity_to_bell(np.eye(2**n) / 2**n)


def test_werner_state_spectrum_and_fidelity():
    for f in (0.3, 0.6, 0.85, 1.0):
        rho = werner_state(f)
        check_density_matrix(rho)
        eigs = sorted(np.linalg.eigvalsh(rho))
        rest = (1.0 - f) / 3.0
        expected = sorted([f, rest, rest, rest])
        assert np.allclose(eigs, expected, atol=1e-14)
        assert fidelity_to_bell(rho) == pytest.approx(f, abs=1e-14)
        assert fidelity_to_bell(rho, BellKind.PSI_MINUS) == pytest.approx(
            rest, abs=1e-14
        )


def test_expand_operator_against_explicit_kron():
    assert np.allclose(expand_operator(X, (1,), 2), np.kron(I2, X))
    assert np.allclose(expand_operator(X, (0,), 2), np.kron(X, I2))
    assert np.allclose(expand_operator(CNOT, (0, 1), 2), CNOT)
    # control on qubit 1, target on qubit 0
    reversed_cnot = np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    )
    assert np.allclose(expand_operator(CNOT, (1, 0), 2), reversed_cnot)
    # embedding is unitary whenever the seed is
    u = expand_operator(CNOT, (2, 0), 3)
    assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-14)
    with pytest.raises(ValueError):
        expand_operator(X, (0, 1), 2)
    with pytest.raises(ValueError):
        expand_operator(CNOT, (0, 0), 2)
    with pytest.raises(ValueError):
        expand_operator(X, (3,), 2)


def test_partial_trace_recovers_product_factors():
    rng = random.Random(11)
    a = random_mixed_state(rng, 1)
    b = random_mixed_state(rng, 2)
    joint = np.kron(a, b)
    assert np.allclose(partial_trace(joint, (0,)), a, atol=1e-14)
    assert np.allclose(partial_trace(joint, (1, 2)), b, atol=1e-14)
    assert partial_trace(joint, (0, 1, 2)).shape == (8, 8)
    assert np.trace(partial_trace(joint, (1,))) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        partial_trace(joint, (1, 0))  # keep list must be sorted
    with pytest.raises(ValueError):
        partial_trace(joint, (5,))


def test_apply_one_qubit_noisy_limits():
    rho = werner_state(0.9)
    # p = 1 is the plain unitary action
    ideal = apply_one_qubit_noisy(rho, 0, X, 1.0)
    full_x = expand_operator(X, (0,), 2)
    assert np.allclose(ideal, full_x @ rho @ full_x.conj().T, atol=1e-14)
    # p = 0 replaces the target with the maximally mixed qubit
    scrambled = apply_one_qubit_noisy(rho, 0, X, 0.0)
    assert np.allclose(
        scrambled, np.kron(I2 / 2.0, partial_trace(rho, (1,))), atol=1e-14
    )
    check_density_matrix(apply_one_qubit_noisy(rho, 1, H, 0.7))


def test_apply_two_qubit_noisy_limits():
    rng = random.Random(3)
    rho = random_mixed_state(rng, 3)
    ideal = apply_two_qubit_noisy(rho, (0, 2), CNOT, 1.0)
    full = expand_operator(CNOT, (0, 2), 3)
    assert np.allclose(ideal, full @ rho @ full.conj().T, atol=1e-13)
    scrambled = apply_two_qubit_noisy(rho, (0, 2), CNOT, 0.0)
    # both gate qubits end maximally mixed, the bystander keeps its state
    assert np.allclose(
        partial_trace(scrambled, (0,)), I2 / 2.0, atol=1e-13
    )
    assert np.allclose(
        partial_trace(scrambled, (2,)), I2 / 2.0, atol=1e-13
    )
    assert np.allclose(
        partial_trace(scrambled, (1,)), partial_trace(rho, (1,)), atol=1e-13
    )
    check_density_matrix(apply_two_qubit_noisy(rho, (2, 1), CNOT, 0.9))


@pytest.mark.parametrize("p", [1.5, -0.1, float("nan")])
def test_noisy_gates_refuse_a_reliability_outside_the_unit_interval(p):
    rho = werner_state(0.9)
    with pytest.raises(ValueError, match=r"p1 must lie in \[0, 1\]"):
        apply_one_qubit_noisy(rho, 0, X, p)
    with pytest.raises(ValueError, match=r"p2 must lie in \[0, 1\]"):
        apply_two_qubit_noisy(rho, (0, 1), CNOT, p)


def test_measure_noisy_misreport_probabilities():
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1.0
    branches = measure_noisy(ket0, 0, 0.9)
    probs = {b.outcome: b.probability for b in branches}
    assert probs[0] == pytest.approx(0.9, abs=1e-15)
    assert probs[1] == pytest.approx(0.1, abs=1e-15)
    # whatever is reported, the qubit itself collapsed to |0>
    for b in branches:
        assert b.state[0, 0] == pytest.approx(1.0, abs=1e-15)
    # perfect readout drops the impossible branch
    sure = measure_noisy(ket0, 0, 1.0)
    assert [b.outcome for b in sure] == [0]
    with pytest.raises(ValueError):
        measure_noisy(ket0, 0, 0.5)


def test_measure_noisy_branches_partition_probability():
    rng = random.Random(5)
    for _ in range(20):
        rho = random_mixed_state(rng, 3)
        eta = rng.uniform(0.6, 1.0)
        target = rng.randrange(3)
        branches = measure_noisy(rho, target, eta)
        assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-12)
        for b in branches:
            check_density_matrix(b.state)
        # the branch mixture reproduces the dephased state's statistics
        mixed = sum(b.probability * b.state for b in branches)
        assert np.trace(mixed) == pytest.approx(1.0, abs=1e-12)


def test_check_density_matrix_rejects_bad_inputs():
    good = werner_state(0.8)
    check_density_matrix(good)
    with pytest.raises(ValueError):
        check_density_matrix(good * 1.001)  # trace off
    lopsided = good.copy()
    lopsided[0, 1] += 1e-6
    with pytest.raises(ValueError):
        check_density_matrix(lopsided)  # not Hermitian
    v = BellKind.PHI_PLUS.vector
    negative = 1.1 * np.outer(v, v.conj()) - 0.1 * werner_state(0.25)
    with pytest.raises(ValueError):
        check_density_matrix(negative)  # negative eigenvalue
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(3, dtype=complex) / 3.0)  # not qubits
    with pytest.raises(ValueError, match="dimension 0 is not a power of two"):
        check_density_matrix(np.zeros((0, 0), dtype=complex))
    # NaN fails every tolerance comparison; it must not reach eigvalsh,
    # whose LinAlgError is a ValueError too but says nothing about the input.
    with pytest.raises(ValueError, match="NaN or infinite entry"):
        check_density_matrix(np.full((4, 4), np.nan, dtype=complex))


SMALL_NOISE_GRID = [
    GateNoiseParams(),
    GateNoiseParams(p1=0.99, p2=0.99, eta=0.995),
    GateNoiseParams(p1=0.95, p2=0.96, eta=0.97),
    GateNoiseParams(p1=1.0, p2=0.9, eta=0.8),
]


def test_es_oracle_ideal_case():
    result = es_oracle(1.0, 1.0, GateNoiseParams())
    assert result.fidelity == pytest.approx(1.0, abs=1e-12)
    assert sorted(result.outcome_probabilities) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for p in result.outcome_probabilities.values():
        assert p == pytest.approx(0.25, abs=1e-12)


def test_es_oracle_matches_closed_form():
    for g in SMALL_NOISE_GRID:
        for f in (0.5, 0.75, 0.9, 1.0):
            result = es_oracle(f, f, g)
            assert result.fidelity == pytest.approx(
                swap_chain_fidelity(f, 2, g), abs=1e-12
            )
            assert sum(result.outcome_probabilities.values()) == pytest.approx(
                1.0, abs=1e-12
            )


def test_es_oracle_asymmetric_inputs_multiply_weights():
    g = GateNoiseParams(p1=0.97, p2=0.96, eta=0.98)
    f_a, f_b = 0.9, 0.8
    k = g.p1**2 * g.p2 * (4 * g.eta**2 - 1) / 3
    w_a = (4 * f_a - 1) / 3
    w_b = (4 * f_b - 1) / 3
    expected = 0.25 + 0.75 * k * w_a * w_b
    assert es_oracle(f_a, f_b, g).fidelity == pytest.approx(expected, abs=1e-12)


def test_epp_oracle_perfect_inputs():
    result = epp_oracle(1.0, GateNoiseParams())
    assert result.f_out == pytest.approx(1.0, abs=1e-12)
    assert result.success_probability == pytest.approx(1.0, abs=1e-12)


def test_epp_oracle_matches_closed_form():
    for g in SMALL_NOISE_GRID:
        for f in (0.4, 0.6, 0.8, 0.95, 1.0):
            result = epp_oracle(f, g)
            assert result.f_out == pytest.approx(purify_noisy(f, g), abs=1e-12)
            assert result.success_probability == pytest.approx(
                purify_success_probability(f, g), abs=1e-12
            )


def test_map_deviations_flags_a_corrupted_formula():
    fidelities = [0.6, 0.8, 1.0]
    noise = [GateNoiseParams(), GateNoiseParams(p1=0.99, p2=0.98, eta=0.99)]
    honest = map_deviations(fidelities, noise)
    assert max(honest.values()) < 1e-12

    def corrupted_swap(f, l, g):
        return swap_chain_fidelity(f, l, g) + 1e-6

    rigged = map_deviations(fidelities, noise, swap_map=corrupted_swap)
    assert rigged["swap"] > 1e-9
    assert rigged["purify"] < 1e-12


@pytest.mark.parametrize(
    "call",
    [
        lambda rho: apply_one_qubit_noisy(rho, -1, X, 1.0),
        lambda rho: apply_one_qubit_noisy(rho, 3, X, 0.9),
        lambda rho: apply_one_qubit_noisy(rho, 0, CNOT, 1.0),
        lambda rho: apply_two_qubit_noisy(rho, (0, -1), CNOT, 1.0),
        lambda rho: apply_two_qubit_noisy(rho, (1, 3), CNOT, 0.9),
        lambda rho: apply_two_qubit_noisy(rho, (2, 2), CNOT, 1.0),
        lambda rho: apply_two_qubit_noisy(rho, (0, 1), X, 1.0),
        lambda rho: measure_noisy(rho, -1, 0.9),
        lambda rho: measure_noisy(rho, 3, 0.9),
        lambda rho: measure_noisy(rho, 1.5, 0.9),
        lambda rho: partial_trace(rho, (1.0, 2)),
        lambda rho: partial_trace(rho, (1, 1)),
        lambda rho: partial_trace(rho, (3,)),
    ],
    ids=[
        "one-negative", "one-out-of-range", "one-wrong-shape",
        "two-negative", "two-out-of-range", "two-repeated", "two-wrong-shape",
        "measure-negative", "measure-out-of-range", "measure-fractional",
        "trace-fractional", "trace-repeated", "trace-out-of-range",
    ],
)
def test_bad_targets_and_shapes_raise_value_error(call):
    rho = random_mixed_state(random.Random(2), 3)
    with pytest.raises(ValueError, match="positions|shape"):
        call(rho)


@pytest.mark.parametrize(
    "valid, invalid",
    [
        (lambda rho: partial_trace(rho, (1, 2)), lambda rho: partial_trace(rho, (1.0, 2))),
        (lambda rho: measure_noisy(rho, 1, 0.9), lambda rho: measure_noisy(rho, 1.5, 0.9)),
        (lambda rho: measure_noisy(rho, 1, 0.9), lambda rho: measure_noisy(rho, 1.0, 0.9)),
        (lambda rho: apply_one_qubit_noisy(rho, 1, X, 0.9),
         lambda rho: apply_one_qubit_noisy(rho, 1.0, X, 0.9)),
        (lambda rho: apply_one_qubit_noisy(rho, 1, I2, 1.0),
         lambda rho: apply_one_qubit_noisy(rho, 1.5, I2, 1.0)),
        (lambda rho: apply_two_qubit_noisy(rho, (1, 2), CNOT, 1.0),
         lambda rho: apply_two_qubit_noisy(rho, (1.0, 2), CNOT, 1.0)),
    ],
    ids=["trace", "measure-fractional", "measure-float", "one", "one-identity", "two"],
)
def test_checks_remembered_for_an_int_target_still_refuse_a_float(valid, invalid):
    # (1.0, 2) equals and hashes like (1, 2); a float position is refused
    # however often the int one has passed.
    rho = random_mixed_state(random.Random(2), 3)
    for _ in range(2):
        valid(rho)
        with pytest.raises(ValueError, match="positions"):
            invalid(rho)


def test_numpy_integer_targets_act_like_python_ints():
    rho = random_mixed_state(random.Random(4), 3)
    one = np.int64(1)
    pairs = [
        (apply_one_qubit_noisy(rho, 1, H, 0.9), apply_one_qubit_noisy(rho, one, H, 0.9)),
        (apply_one_qubit_noisy(rho, 1, I2, 0.9), apply_one_qubit_noisy(rho, one, I2, 0.9)),
        (apply_two_qubit_noisy(rho, (1, 2), CNOT, 0.9),
         apply_two_qubit_noisy(rho, (one, np.int64(2)), CNOT, 0.9)),
        (partial_trace(rho, (0, 1)), partial_trace(rho, (0, one))),
        (expand_operator(X, (1,), 3), expand_operator(X, (one,), 3)),
    ]
    pairs += [
        (a.state, b.state)
        for a, b in zip(measure_noisy(rho, 1, 0.9), measure_noisy(rho, one, 0.9))
    ]
    for want, got in pairs:
        assert np.array_equal(want, got)


@pytest.mark.parametrize(
    "target", [[1], np.array(1), None, "1", (1,), 1 + 0j, np.float64(1.0), True, False],
    ids=["list", "array", "none", "str", "tuple", "complex", "float64", "true", "false"],
)
def test_unhashable_or_odd_targets_raise_value_error(target):
    rho = random_mixed_state(random.Random(2), 3)
    calls = [
        lambda: apply_one_qubit_noisy(rho, target, X, 0.9),
        lambda: apply_one_qubit_noisy(rho, target, I2, 1.0),
        lambda: apply_two_qubit_noisy(rho, (0, target), CNOT, 0.9),
        lambda: measure_noisy(rho, target, 0.9),
        lambda: partial_trace(rho, (0, target)),
        lambda: expand_operator(X, (target,), 3),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="positions"):
            call()


@pytest.mark.parametrize("p", [1.0, 0.9])
def test_identity_correction_equals_its_contraction(p):
    # The read-only constant I2 and a fresh identity embed to the same
    # operator, and the result is a new array either way.
    rng = random.Random(11)
    explicit = np.eye(2, dtype=complex)
    for n in range(1, 6):
        for _ in range(3):
            rho = random_mixed_state(rng, n)
            for target in range(n):
                skipped = apply_one_qubit_noisy(rho, target, I2, p)
                assert skipped is not rho
                assert np.array_equal(
                    skipped, apply_one_qubit_noisy(rho, target, explicit, p)
                )


def _measure_noisy_reference(rho, target, eta):
    """measure_noisy's arithmetic written out as a loop per outcome: the
    target's diagonal blocks weighted by the report, the coherences between
    them masked to zero, and the probability read off the trace."""
    n = int(round(math.log2(rho.shape[0])))
    split = (2**target, 2, 2 ** (n - target - 1))
    tensor = rho.reshape(split + split)
    branches = []
    for reported in (0, 1):
        keep = [1.0 - eta, 1.0 - eta]
        keep[reported] = eta
        state = (tensor * np.diag(keep).reshape(1, 2, 1, 1, 2, 1)).reshape(rho.shape)
        prob = float(np.trace(state).real)
        if prob <= 0.0:
            continue
        branches.append((reported, prob, state / prob))
    return branches


def test_measure_noisy_matches_its_loop_reference_exactly():
    rng = random.Random(12)
    for n in range(1, 6):
        for _ in range(3):
            rho = random_mixed_state(rng, n)
            for target in range(n):
                for eta in (1.0, 0.97, rng.uniform(0.5, 1.0)):
                    got = measure_noisy(rho, target, eta)
                    want = _measure_noisy_reference(rho, target, eta)
                    assert [(b.outcome, b.probability) for b in got] == [
                        (o, p) for o, p, _ in want
                    ]
                    for b, (_, _, state) in zip(got, want):
                        assert np.array_equal(b.state, state)


@pytest.mark.parametrize("entry", [(0, 0), (1, 2)], ids=["diagonal", "coherence"])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_measure_noisy_refuses_a_non_finite_state(bad, entry):
    rho = werner_state(0.9)
    rho[entry] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="matrix has a NaN or infinite entry"):
            measure_noisy(rho, 0, 0.9)


@pytest.mark.parametrize("primitive", [
    lambda rho: partial_trace(rho, (0,)),
    lambda rho: apply_one_qubit_noisy(rho, 0, X, 0.9),
    lambda rho: apply_two_qubit_noisy(rho, (0, 1), CNOT, 0.9),
    fidelity_to_bell,
], ids=["partial_trace", "apply_one_qubit_noisy", "apply_two_qubit_noisy", "fidelity_to_bell"])
@pytest.mark.parametrize("entry", [(0, 0), (1, 2)], ids=["diagonal", "coherence"])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_state_primitives_refuse_a_non_finite_state(primitive, bad, entry):
    # A coherence that partial_trace traces away must not vanish unseen.
    rho = werner_state(0.9)
    rho[entry] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="matrix has a NaN or infinite entry"):
            primitive(rho)


def test_gate_application_does_not_assume_a_hermitian_input():
    # U m U^H is taken as written, for any matrix m.
    rng = np.random.default_rng(9)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    u = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    full = expand_operator(u, (2, 0), 3)
    expected = full @ m @ full.conj().T
    assert np.allclose(apply_two_qubit_noisy(m, (2, 0), u, 1.0), expected,
                       rtol=0, atol=1e-13)


#: ``es_oracle``/``epp_oracle`` outputs recorded before the oracle switched
#: from embedded operators to tensor contraction: gates (p1, p2, eta), f,
#: swap fidelity, the four swap branch probabilities in outcome order,
#: purified fidelity, purification pass probability.
FROZEN_ORACLE_OUTPUTS = [
    ((1.0, 1.0, 1.0), 0.3, 0.25333333333333313, (0.24999999999999983, 0.24999999999999983, 0.24999999999999983, 0.24999999999999983), 0.28761061946902655, 0.5022222222222219),
    ((1.0, 1.0, 1.0), 0.5, 0.333333333333333, (0.2499999999999998, 0.2499999999999998, 0.2499999999999998, 0.2499999999999998), 0.4999999999999998, 0.5555555555555554),
    ((1.0, 1.0, 1.0), 0.75, 0.5833333333333329, (0.2499999999999998, 0.2499999999999998, 0.2499999999999998, 0.2499999999999998), 0.7884615384615383, 0.7222222222222218),
    ((1.0, 1.0, 1.0), 0.9, 0.8133333333333327, (0.24999999999999983, 0.24999999999999983, 0.24999999999999983, 0.24999999999999983), 0.9263959390862941, 0.8755555555555551),
    ((1.0, 1.0, 1.0), 1.0, 0.9999999999999991, (0.24999999999999983, 0.24999999999999983, 0.24999999999999983, 0.24999999999999983), 0.9999999999999998, 0.9999999999999996),
    ((0.95, 0.95, 0.95), 0.3, 0.2524863874999998, (0.2499999999999998, 0.2499999999999998, 0.2499999999999998, 0.2499999999999998), 0.28075554744856185, 0.5016244999999997),
    ((0.95, 0.95, 0.95), 0.5, 0.3121596874999998, (0.24999999999999983, 0.24999999999999983, 0.24999999999999983, 0.24999999999999983), 0.4598346525674324, 0.5406124999999998),
    ((0.95, 0.95, 0.95), 0.75, 0.4986387499999994, (0.24999999999999978, 0.24999999999999978, 0.24999999999999978, 0.24999999999999978), 0.7294774867704897, 0.6624499999999995),
    ((0.95, 0.95, 0.95), 0.9, 0.6701994874999994, (0.24999999999999983, 0.24999999999999983, 0.24999999999999983, 0.24999999999999983), 0.8745056298253966, 0.7745404999999995),
    ((0.95, 0.95, 0.95), 1.0, 0.8094371874999992, (0.24999999999999983, 0.24999999999999983, 0.24999999999999983, 0.24999999999999983), 0.9577562426885803, 0.8655124999999996),
    ((0.99, 0.95, 1.0), 0.3, 0.25310364999999974, (0.2499999999999998, 0.2499999999999998, 0.2499999999999998, 0.2499999999999998), 0.28395823419395533, 0.5020055555555553),
    ((0.99, 0.95, 1.0), 0.5, 0.3275912499999997, (0.24999999999999983, 0.24999999999999983, 0.24999999999999983, 0.24999999999999983), 0.4778465034082302, 0.5501388888888886),
    ((0.99, 0.95, 1.0), 0.75, 0.5603649999999994, (0.24999999999999978, 0.24999999999999978, 0.24999999999999978, 0.24999999999999978), 0.7509912767644724, 0.700555555555555),
    ((0.99, 0.95, 1.0), 0.9, 0.7745168499999993, (0.24999999999999983, 0.24999999999999983, 0.24999999999999983, 0.24999999999999983), 0.8870911667516505, 0.8389388888888883),
    ((0.99, 0.95, 1.0), 1.0, 0.9483212499999991, (0.24999999999999983, 0.24999999999999983, 0.24999999999999983, 0.24999999999999983), 0.9615637319316686, 0.9512499999999995),
]


@pytest.mark.parametrize("row", FROZEN_ORACLE_OUTPUTS, ids=lambda r: f"{r[0]}-{r[1]}")
def test_oracle_outputs_match_frozen_values(row):
    gates, f, swapped, branch_probs, purified, passed = row
    g = GateNoiseParams(*gates)
    es = es_oracle(f, f, g)
    epp = epp_oracle(f, g)
    assert sorted(es.outcome_probabilities) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    got = [es.fidelity, epp.f_out, epp.success_probability] + [
        es.outcome_probabilities[k] for k in sorted(es.outcome_probabilities)
    ]
    want = [swapped, purified, passed, *branch_probs]
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-15


def test_intermediate_oracle_states_are_density_matrices():
    """Walk both batched circuits step by step, as ``_swap_circuit`` and
    ``_purify_circuit`` run them, checking every normalized branch state."""
    g = GateNoiseParams(p1=0.95, p2=0.93, eta=0.97)
    pairs = dmsim._werner_states([0.3, 0.8, 1.0])
    report = dmsim._report_matrix(g.eta)
    checked = []

    def check(states):
        """Normalize each matrix of the stack by its trace and check it."""
        for state in states.reshape((-1,) + states.shape[-2:]):
            check_density_matrix(state / np.trace(state))
            checked.append(state)
        return states

    # Entanglement swapping, as in _swap_circuit.
    rho = check(dmsim._pair_product(pairs, pairs))
    rho = check(dmsim._apply(rho, dmsim._CNOT_12, g.p2))
    rho = check(dmsim._H_1 @ rho @ dmsim._H_1)
    weights = report[:, None, :, None] * report[None, :, None, :]
    pair = check(dmsim._measure_and_discard(rho, dmsim._SWAP_BLOCKS, weights.reshape(2, 2, 4)))
    joint = np.trace(pair, axis1=-2, axis2=-1).real
    pair = check(dmsim._apply(pair, dmsim._CORRECTIONS, g.p1 * g.p1))
    assert pair.shape == (3, 2, 2, 4, 4)
    assert np.allclose(np.trace(pair, axis1=-2, axis2=-1), joint, rtol=0, atol=1e-15)
    assert np.allclose(joint.sum(axis=(-2, -1)), 1.0, rtol=0, atol=1e-15)

    # Purification, as in _purify_circuit.
    rho = check(dmsim._pair_product(pairs, pairs))
    rho = check(dmsim._apply(rho, dmsim._CNOT_02, g.p2))
    rho = check(dmsim._apply(rho, dmsim._CNOT_13, g.p2))
    kept = check(dmsim._measure_and_discard(
        rho, dmsim._PURIFY_BLOCKS, (report.T @ report).reshape(4)))
    assert kept.shape == (3, 4, 4)
    # Swap: 3 four-qubit states after each of three steps, then 12 branch
    # pairs after each of two; purification: 3 states after each of four.
    assert len(checked) == 3 * 3 + 12 * 2 + 3 * 4
    assert {state.dtype for state in checked} == {np.dtype(np.float64)}


def test_the_circuits_run_in_real_arithmetic():
    for op in (*dmsim._CNOT_12, *dmsim._CNOT_02, *dmsim._CNOT_13, dmsim._H_1,
               *dmsim._CORRECTIONS):
        assert op.dtype == np.float64
    g = GateNoiseParams(p1=0.95, p2=0.93, eta=0.97)
    pairs = dmsim._werner_states([0.3, 0.8])
    start = dmsim._pair_product(pairs, pairs)
    outputs = (*dmsim._swap_circuit(start, g), *dmsim._purify_circuit(start, g))
    assert [x.dtype for x in outputs] == [np.dtype(np.float64)] * 4
    # The public primitives still take complex input and keep it complex.
    rho = werner_state(0.9).astype(complex)
    assert apply_one_qubit_noisy(rho, 0, 1j * X @ Z, 0.9).dtype == np.complex128
    assert partial_trace(rho, (0,)).dtype == np.complex128
    assert measure_noisy(rho, 1, 0.9)[0].state.dtype == np.complex128


def test_purification_refuses_a_state_no_branch_of_which_passes():
    # |0001>: with ideal gates both CNOTs leave it alone, so the sacrificed
    # qubits always read (0, 1) and never agree.  The state is physical.
    rho = np.zeros((1, 16, 16))
    rho[0, 1, 1] = 1.0
    with pytest.raises(ValueError, match="^no branch passes the coincidence check$"):
        dmsim._purify_circuit(rho, GateNoiseParams(1.0, 1.0, 1.0))


def test_the_circuits_constants_are_read_only():
    # The circuits apply their gates, failure maps and block positions
    # without copying them, in row order.
    constants = (*dmsim._CNOT_12, *dmsim._CNOT_02, *dmsim._CNOT_13, dmsim._H_1,
                 *dmsim._CORRECTIONS, dmsim._SWAP_BLOCKS, dmsim._PURIFY_BLOCKS)
    for constant in constants:
        assert constant.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            constant[...] = 0


def test_a_zero_probability_branch_is_masked_not_skipped(monkeypatch):
    # A basis state read out with eta = 1: qubit 1 of |00> never reads 1.
    # Projected onto qubit 1 reading 1, it is the zero matrix, so that
    # report's branch is masked to zero and measure_noisy leaves it out.
    basis = np.zeros((4, 4), dtype=complex)
    basis[0, 0] = 1.0
    reads_one = np.diag([0.0, 1.0, 0.0, 1.0])
    assert not (reads_one @ basis @ reads_one).any()
    branches = measure_noisy(basis, 1, 1.0)
    assert [(b.outcome, b.probability) for b in branches] == [(0, 1.0)]
    assert np.array_equal(branches[0].state, basis)
    # In the swap circuit on |0000>, qubit 2 always reads 0: the branches
    # with m2 = 1 carry zero matrices through the corrections, add nothing
    # to the fidelity, and are left out of the outcome probabilities.
    ket00 = np.zeros((4, 4), dtype=complex)
    ket00[0, 0] = 1.0
    monkeypatch.setattr(dmsim, "werner_state", lambda f: ket00)
    result = es_oracle(1.0, 1.0, GateNoiseParams())
    assert sorted(result.outcome_probabilities) == [(0, 0), (1, 0)]
    for prob in result.outcome_probabilities.values():
        assert prob == pytest.approx(0.5, abs=1e-15)
    assert result.fidelity == pytest.approx(0.5, abs=1e-15)


def test_map_deviations_over_a_grid_is_the_max_of_its_cells():
    fidelities = [0.3, 0.55, 0.8, 1.0]
    noise = SMALL_NOISE_GRID

    def skewed(f, l, g):
        return swap_chain_fidelity(f, l, g) * (1.0 + 1e-3 * f)

    for swap_map in (None, skewed):
        grid = map_deviations(fidelities, noise, swap_map=swap_map)
        cells = [map_deviations([f], [g], swap_map=swap_map) for g in noise for f in fidelities]
        assert grid == {key: max(cell[key] for cell in cells) for key in grid}
    assert map_deviations([], noise) == {"swap": 0.0, "purify": 0.0, "purify_success": 0.0}
    assert map_deviations([0.5], []) == {"swap": 0.0, "purify": 0.0, "purify_success": 0.0}


@pytest.mark.parametrize("name", ["swap", "purify", "purify_success"])
def test_a_relative_error_of_1e_12_in_any_map_is_caught(name, monkeypatch):
    fidelities = [0.3, 0.6, 0.9, 1.0]
    noise = SMALL_NOISE_GRID
    swap_map = None
    if name == "swap":
        def swap_map(f, l, g):
            return swap_chain_fidelity(f, l, g) * (1.0 + 1e-12)
    else:
        module_name = {"purify": "purify_noisy",
                       "purify_success": "purify_success_probability"}[name]
        genuine = getattr(werner, module_name)
        monkeypatch.setattr(werner, module_name, lambda f, g: genuine(f, g) * (1.0 + 1e-12))
    worst = map_deviations(fidelities, noise, swap_map=swap_map)
    assert worst[name] > ORACLE_TOLERANCE
    assert all(v <= ORACLE_TOLERANCE for key, v in worst.items() if key != name)


def test_a_nan_deviation_sticks_in_its_key():
    g = GateNoiseParams(p1=0.99, p2=0.98, eta=0.99)

    def nan_at_half(f, l, g):
        return float("nan") if f == 0.5 else swap_chain_fidelity(f, l, g)

    for swap_map in (lambda f, l, g: float("nan"), nan_at_half):
        worst = map_deviations([0.5, 0.9], [g, GateNoiseParams()], swap_map=swap_map)
        assert sorted(worst) == ["purify", "purify_success", "swap"]
        assert math.isnan(worst["swap"])
        assert worst["purify"] <= ORACLE_TOLERANCE
        assert worst["purify_success"] <= ORACLE_TOLERANCE


@pytest.mark.parametrize(
    "call",
    [
        lambda g: werner.validate_fidelity(True),
        lambda g: swap_chain_fidelity(0.9, True, g),
        lambda g: swap_chain_fidelity(False, 2, g),
        lambda g: purify_noisy(True, g),
        lambda g: purify_success_probability(True, g),
        lambda g: werner_state(True),
        lambda g: map_deviations([0.9, True], [g]),
    ],
    ids=["validate", "swap-l", "swap-f", "purify", "purify-success", "werner-state",
         "map-deviations"],
)
def test_the_maps_refuse_bool_arguments(call):
    with pytest.raises(TypeError, match="must be a number, got (True|False)"):
        call(GateNoiseParams(p1=0.99, p2=0.98, eta=0.99))


def test_no_circuit_pass_builds_an_operator(monkeypatch):
    # The circuits' gates are embedded once, at import; a pass that rebuilt
    # one would call expand_operator or np.kron.
    def refuse(*args, **kwargs):
        raise AssertionError("an operator was built during a circuit pass")

    monkeypatch.setattr(dmsim, "expand_operator", refuse)
    monkeypatch.setattr(np, "kron", refuse)
    worst = map_deviations([0.3, 0.75, 1.0], SMALL_NOISE_GRID)
    assert all(v <= ORACLE_TOLERANCE for v in worst.values())
    es_oracle(0.9, 0.8, SMALL_NOISE_GRID[2])
    epp_oracle(0.9, SMALL_NOISE_GRID[3])
