"""Link, memory and timing models."""

import math

import pytest

from repeaterlab import (
    LinkModel,
    MemoryModel,
    classical_comm_time,
    link_success_probability,
    memory_decay,
)

# 0.25 + 0.65 * exp(-1), recomputed at 50 digits and rounded to double.
DECAY_ONE_TAU_FROM_0P9 = 0.4891216367614375


def test_link_model_defaults_and_validation():
    link = LinkModel()
    assert link.d_km == 25.0
    assert link.f0 == 0.96
    assert link.alpha_db_per_km == 0.2
    assert link.c_signal_km_s == 2e5
    with pytest.raises(ValueError):
        LinkModel(d_km=0.0)
    with pytest.raises(ValueError):
        LinkModel(alpha_db_per_km=-0.1)
    with pytest.raises(ValueError):
        LinkModel(c_signal_km_s=0.0)
    with pytest.raises(ValueError):
        LinkModel(f0=0.25)  # an elementary pair must start above fully mixed
    with pytest.raises(ValueError):
        LinkModel(f0=0.25 + 5e-13)  # ... and above the degeneracy floor
    with pytest.raises(ValueError):
        LinkModel(f0=1.2)


def test_memory_model_factories():
    none = MemoryModel.none()
    assert none.mode == "none"
    exp = MemoryModel.exponential(5e-3)
    assert exp.mode == "exponential"
    assert exp.tau_s == 5e-3
    with pytest.raises(ValueError):
        MemoryModel.exponential(0.0)
    with pytest.raises(ValueError, match="mode=exponential requires tau_s"):
        MemoryModel(mode="exponential", tau_s=None)
    with pytest.raises(ValueError, match="tau_s only applies to mode=exponential"):
        MemoryModel(mode="none", tau_s=1.0)
    with pytest.raises(ValueError):
        MemoryModel(mode="gaussian", tau_s=1.0)


def test_memory_decay_identity_cases():
    none = MemoryModel.none()
    for f in (0.3, 0.7, 1.0):
        assert memory_decay(f, 12.0, none) == f
    exp = MemoryModel.exponential(1e-3)
    assert memory_decay(0.9, 0.0, exp) == 0.9


def test_memory_decay_frozen_value():
    exp = MemoryModel.exponential(5e-3)
    assert memory_decay(0.9, 5e-3, exp) == pytest.approx(DECAY_ONE_TAU_FROM_0P9,
                                                         abs=1e-15)


def test_memory_decay_limits():
    exp = MemoryModel.exponential(1e-3)
    # the fully mixed state is the decay fixed point
    assert memory_decay(0.25, 7e-3, exp) == pytest.approx(0.25, abs=1e-15)
    # long storage drives everything to it
    assert memory_decay(1.0, 1.0, exp) == pytest.approx(0.25, abs=1e-12)
    # decay is monotone in time
    times = [0.0, 1e-4, 5e-4, 2e-3, 1e-2]
    values = [memory_decay(0.9, t, exp) for t in times]
    assert values == sorted(values, reverse=True)


def test_memory_decay_rejects_negative_time():
    with pytest.raises(ValueError):
        memory_decay(0.9, -1e-6, MemoryModel.exponential(1e-3))


def test_link_success_probability():
    link = LinkModel(alpha_db_per_km=0.2)
    assert link_success_probability(100.0, link) == pytest.approx(0.01, abs=1e-15)
    assert link_success_probability(0.0, link) == 1.0
    lossless = LinkModel(alpha_db_per_km=0.0)
    assert link_success_probability(1e4, lossless) == 1.0
    # halving the attenuation takes the square root of the success probability
    half = LinkModel(alpha_db_per_km=0.1)
    assert link_success_probability(100.0, half) == pytest.approx(0.1, abs=1e-12)


def test_classical_comm_time():
    link = LinkModel(c_signal_km_s=2e5)
    assert classical_comm_time(200.0, link) == pytest.approx(1e-3, abs=1e-18)
    assert classical_comm_time(0.0, link) == 0.0
    with pytest.raises(ValueError):
        classical_comm_time(-1.0, link)
