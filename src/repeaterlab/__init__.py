"""Analytic toolkit for nested entanglement-swapping repeater chains.

Closed-form Werner-state fidelity maps (swapping, purification), a small
density-matrix simulator that rederives those maps from explicit noisy
circuits, the recursive chain protocol with memory decay during classical
communication, and rate-versus-distance analysis with polynomial/exponential
scaling classification.
"""

from .chain import (
    DEGENERACY_THRESHOLD,
    ChainConfig,
    FidelityTrace,
    ScheduleRound,
    TraceStep,
    build_schedule,
    expected_attempts,
    resource_count,
    resource_scaling_form,
    round_time,
    simulate_chain,
    trace_from_csv,
    trace_to_csv,
)
from .noise import (
    LinkModel,
    MemoryModel,
    classical_comm_time,
    link_success_probability,
    memory_decay,
)
from .rates import (
    InsufficientPointsError,
    RateCurve,
    RatePoint,
    RepeaterRate,
    ScalingFit,
    ThresholdResult,
    curves_from_csv,
    curves_to_csv,
    direct_transmission_rate,
    repeater_rate,
    scaling_fit,
    sweep_rates,
    threshold_distance,
    usefulness_weight,
)
from .werner import (
    FixedPoints,
    GateNoiseParams,
    NoValidRangeError,
    fidelity_from_weight,
    purification_fixed_points,
    purify_ideal,
    purify_noisy,
    purify_success_probability,
    swap_chain_fidelity,
    validate_fidelity,
    werner_weight,
)

__version__ = "0.1.0"

# The density-matrix oracle needs numpy; the scalar modules do not.  Its
# names resolve on first use, so importing the package leaves numpy out.
_DMSIM_NAMES = frozenset({
    "BellKind",
    "EppResult",
    "EsResult",
    "MeasurementBranch",
    "apply_one_qubit_noisy",
    "apply_two_qubit_noisy",
    "bell_state",
    "check_density_matrix",
    "epp_oracle",
    "es_oracle",
    "expand_operator",
    "fidelity_to_bell",
    "map_deviations",
    "measure_noisy",
    "partial_trace",
    "werner_state",
})


def __getattr__(name: str):
    if name in _DMSIM_NAMES:
        from . import dmsim

        return getattr(dmsim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BellKind",
    "ChainConfig",
    "DEGENERACY_THRESHOLD",
    "EppResult",
    "EsResult",
    "FidelityTrace",
    "FixedPoints",
    "GateNoiseParams",
    "InsufficientPointsError",
    "LinkModel",
    "MeasurementBranch",
    "MemoryModel",
    "NoValidRangeError",
    "RateCurve",
    "RatePoint",
    "RepeaterRate",
    "ScalingFit",
    "ScheduleRound",
    "ThresholdResult",
    "TraceStep",
    "apply_one_qubit_noisy",
    "apply_two_qubit_noisy",
    "bell_state",
    "build_schedule",
    "check_density_matrix",
    "classical_comm_time",
    "curves_from_csv",
    "curves_to_csv",
    "direct_transmission_rate",
    "epp_oracle",
    "es_oracle",
    "expand_operator",
    "expected_attempts",
    "fidelity_from_weight",
    "fidelity_to_bell",
    "link_success_probability",
    "map_deviations",
    "measure_noisy",
    "memory_decay",
    "partial_trace",
    "purification_fixed_points",
    "purify_ideal",
    "purify_noisy",
    "purify_success_probability",
    "repeater_rate",
    "resource_count",
    "resource_scaling_form",
    "round_time",
    "scaling_fit",
    "simulate_chain",
    "swap_chain_fidelity",
    "sweep_rates",
    "threshold_distance",
    "trace_from_csv",
    "trace_to_csv",
    "usefulness_weight",
    "validate_fidelity",
    "werner_state",
    "werner_weight",
]
