"""Channel-level noise: fiber attenuation, classical latency, memory decay."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .werner import DEGENERACY_THRESHOLD, MIXED_FIDELITY, _refuse_bool, validate_fidelity


@dataclass(frozen=True)
class LinkModel:
    """One elementary link: spacing, loss, signalling speed, fresh-pair fidelity."""

    d_km: float = 25.0
    f0: float = 0.96
    alpha_db_per_km: float = 0.2
    c_signal_km_s: float = 2.0e5

    def __post_init__(self) -> None:
        for name in ("d_km", "f0", "alpha_db_per_km", "c_signal_km_s"):
            _refuse_bool(name, getattr(self, name))
        if not (math.isfinite(self.d_km) and self.d_km > 0.0):
            raise ValueError(f"d_km must be positive, got {self.d_km!r}")
        if not (math.isfinite(self.alpha_db_per_km) and self.alpha_db_per_km >= 0.0):
            raise ValueError(
                f"alpha_db_per_km must be >= 0, got {self.alpha_db_per_km!r}"
            )
        if not (math.isfinite(self.c_signal_km_s) and self.c_signal_km_s > 0.0):
            raise ValueError(
                f"c_signal_km_s must be positive, got {self.c_signal_km_s!r}"
            )
        # At or below the degeneracy floor the chain would stop before it starts.
        if validate_fidelity(self.f0, "f0") <= DEGENERACY_THRESHOLD:
            raise ValueError(f"f0 must exceed 1/4 + 1e-12, got {self.f0!r}")


@dataclass(frozen=True)
class MemoryModel:
    """Quantum-memory behaviour while a pair idles.

    ``mode="none"`` keeps stored pairs pristine and takes no ``tau_s``;
    ``mode="exponential"`` pulls the fidelity toward the fully mixed 1/4 with
    the time constant ``tau_s``, which it requires.
    """

    mode: str = "none"
    tau_s: float | None = None

    def __post_init__(self) -> None:
        _refuse_bool("tau_s", self.tau_s)
        if self.mode not in ("none", "exponential"):
            raise ValueError(f"mode must be 'none' or 'exponential', got {self.mode!r}")
        if self.mode == "none" and self.tau_s is not None:
            raise ValueError("tau_s only applies to mode=exponential")
        if self.mode == "exponential":
            if self.tau_s is None:
                raise ValueError("mode=exponential requires tau_s")
            if not (math.isfinite(self.tau_s) and self.tau_s > 0.0):
                raise ValueError(
                    f"exponential memory needs tau_s > 0, got {self.tau_s!r}"
                )

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
    if not (math.isfinite(t_s) and t_s >= 0.0):
        raise ValueError(f"t_s must be >= 0, got {t_s!r}")
    if mem.mode == "none" or t_s == 0.0:
        return f
    assert mem.tau_s is not None
    return MIXED_FIDELITY + (f - MIXED_FIDELITY) * math.exp(-t_s / mem.tau_s)


def link_success_probability(distance_km: float, link: LinkModel) -> float:
    """Transmission probability over ``distance_km`` of fiber, 10^(-alpha*d/10)."""
    if not (math.isfinite(distance_km) and distance_km >= 0.0):
        raise ValueError(f"distance_km must be finite and >= 0, got {distance_km!r}")
    return 10.0 ** (-link.alpha_db_per_km * distance_km / 10.0)


def classical_comm_time(span_km: float, link: LinkModel) -> float:
    """One-way classical signalling time across ``span_km``, in seconds."""
    if not (math.isfinite(span_km) and span_km >= 0.0):
        raise ValueError(f"span_km must be >= 0, got {span_km!r}")
    return span_km / link.c_signal_km_s
