"""Channel-level noise: fiber attenuation, classical latency, memory decay."""

from __future__ import annotations

import math

from .werner import (
    DEGENERACY_THRESHOLD, FIDELITY_TOL, MIXED_FIDELITY, _real, _Record, _setattr,
    validate_fidelity,
)


class LinkModel(_Record):
    """One elementary link: spacing, loss, signalling speed, fresh-pair fidelity."""

    __slots__ = ("d_km", "f0", "alpha_db_per_km", "c_signal_km_s")

    def __init__(
        self, d_km: float = 25.0, f0: float = 0.96, alpha_db_per_km: float = 0.2,
        c_signal_km_s: float = 2.0e5,
    ) -> None:
        _setattr(self, "d_km", _real("d_km", d_km, 0.0, open_low=True))
        _setattr(self, "alpha_db_per_km", _real("alpha_db_per_km", alpha_db_per_km, 0.0))
        _setattr(self, "c_signal_km_s",
                 _real("c_signal_km_s", c_signal_km_s, 0.0, open_low=True))
        # At or below the degeneracy floor the chain would stop before it
        # starts; rounding spill past 1 is clamped, as validate_fidelity does.
        f0 = _real("f0", f0, DEGENERACY_THRESHOLD, 1.0 + FIDELITY_TOL, open_low=True)
        _setattr(self, "f0", f0 if f0 <= 1.0 else 1.0)


class MemoryModel(_Record):
    """Quantum-memory behaviour while a pair idles.

    ``mode="none"`` keeps stored pairs pristine and takes no ``tau_s``;
    ``mode="exponential"`` pulls the fidelity toward the fully mixed 1/4 with
    the time constant ``tau_s``, which it requires.
    """

    __slots__ = ("mode", "tau_s")

    def __init__(self, mode: str = "none", tau_s: float | None = None) -> None:
        if mode not in ("none", "exponential"):
            raise ValueError(f"mode must be 'none' or 'exponential', got {mode!r}")
        if mode == "none" and tau_s is not None:
            raise ValueError("tau_s only applies to mode=exponential")
        if mode == "exponential":
            if tau_s is None:
                raise ValueError("mode=exponential requires tau_s")
            _real("tau_s", tau_s, 0.0, open_low=True)
        _setattr(self, "mode", mode)
        _setattr(self, "tau_s", tau_s)

    @classmethod
    def none(cls) -> "MemoryModel":
        return cls("none", None)

    @classmethod
    def exponential(cls, tau_s: float) -> "MemoryModel":
        return cls("exponential", tau_s)


def memory_decay(f: float, t_s: float, mem: MemoryModel) -> float:
    """Fidelity after storing a pair for ``t_s`` seconds.

    Exponential memories shrink the distance to the mixed state:
    ``1/4 + (f - 1/4) * exp(-t/tau)``; the floor 1/4 is never crossed.
    """
    f = validate_fidelity(f)
    _real("t_s", t_s, 0.0)
    if mem.mode == "none" or t_s == 0.0:
        return f
    assert mem.tau_s is not None
    return MIXED_FIDELITY + (f - MIXED_FIDELITY) * math.exp(-t_s / mem.tau_s)


def link_success_probability(distance_km: float, link: LinkModel) -> float:
    """Transmission probability over ``distance_km`` of fiber, 10^(-alpha*d/10)."""
    return 10.0 ** (-link.alpha_db_per_km * _real("distance_km", distance_km, 0.0) / 10.0)


def classical_comm_time(span_km: float, link: LinkModel) -> float:
    """One-way classical signalling time across ``span_km``, in seconds."""
    return _real("span_km", span_km, 0.0) / link.c_signal_km_s
