"""Analytic toolkit for nested entanglement-swapping repeater chains.

Closed-form Werner-state fidelity maps (swapping, purification), a small
density-matrix simulator that rederives those maps from explicit noisy
circuits, the recursive chain protocol with memory decay during classical
communication, and rate-versus-distance analysis with polynomial/exponential
scaling classification.

Importing the package loads none of its modules: each public name, and each
module, is imported on first use.  So numpy, which only the density-matrix
oracle ``dmsim`` needs, loads only with it.
"""

import importlib

__version__ = "0.1.0"

#: Every public name, under the module that defines it.
_EXPORTS = {
    "chain": (
        "ChainConfig", "FidelityTrace", "ScheduleRound", "TraceStep", "build_schedule",
        "expected_attempts", "resource_count", "resource_scaling_form", "round_time",
        "simulate_chain", "trace_from_csv", "trace_to_csv",
    ),
    "noise": (
        "LinkModel", "MemoryModel", "classical_comm_time", "link_success_probability",
        "memory_decay",
    ),
    "rates": (
        "InsufficientPointsError", "RateCurve", "RatePoint", "RepeaterRate",
        "ScalingFit", "ThresholdResult", "curves_from_csv", "curves_to_csv",
        "repeater_rate", "scaling_fit", "sweep_rates", "threshold_distance",
        "usefulness_weight",
    ),
    "werner": (
        "DEGENERACY_THRESHOLD", "FixedPoints", "GateNoiseParams", "NoValidRangeError",
        "fidelity_from_weight", "purification_fixed_points", "purify_noisy",
        "purify_success_probability", "swap_chain_fidelity", "validate_fidelity",
        "werner_weight",
    ),
    "dmsim": (
        "BellKind", "EppResult", "EsResult", "MeasurementBranch",
        "apply_one_qubit_noisy", "apply_two_qubit_noisy", "bell_state",
        "check_density_matrix", "epp_oracle", "es_oracle", "expand_operator",
        "fidelity_to_bell", "map_deviations", "measure_noisy", "partial_trace",
        "werner_state",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Looked up on every access, never stored here, so a function rebound in
    # its module is what the package hands out too.
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
