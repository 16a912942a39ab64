"""Configuration-driven command line for every analysis in the package.

One flat INI-style config file (sections, ``key = value`` lines, ``#``
comments) feeds all subcommands; anything not set falls back to documented
defaults.  Numeric output is printed with 12 significant digits, except
``fixed-points``, which prints 12 decimal places; the pipeline contains no
randomness, so identical configs produce byte-identical output — golden files
are diffable.  Only the CSV writers ``trace`` and ``rate-sweep`` take
``--out PATH``, and they require it.

Pair counts are exact integers.  Exit codes: 0 success, 1 analysis-level
failure (no valid purification range, oracle deviation, too few points to
fit, a pair count too long to print, a level latency or sweep distance past
the float range) or a stdout closed by its reader, 2 usage or config errors.
``trace`` refuses a pair count too long to print before it writes anything;
``rate-sweep`` and ``threshold`` refuse it at the level of the walk that
builds it, so ``threshold`` answers when a crossing comes first.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from typing import NamedTuple

from .chain import ChainConfig, resource_count, simulate_chain, trace_to_csv
from .noise import LinkModel, MemoryModel
from .werner import (
    GateNoiseParams,
    NoValidRangeError,
    _integer,
    purification_fixed_points,
    purify_noisy,
    purify_success_probability,
    swap_chain_fidelity,
    validate_fidelity,
)

#: Every config key and the type its value converts to.  Keys left out fall
#: back to the defaults of the object their section builds.
_SECTION_KEYS = {
    "chain": {"l": int, "n": int, "m": int, "epp_rounds_per_level": int,
              "c_es": float, "c_epp": float},
    "link": {"d_km": float, "f0": float, "alpha_db_per_km": float,
             "c_signal_km_s": float},
    "gates": {"p1": float, "p2": float, "eta": float},
    "memory": {"mode": str, "tau_s": float},
    "sweep": {"start": int, "stop": int, "step": int},
    "rate": {"f_useful": float},
    "query": {"f": float},
}


class ConfigError(Exception):
    """Anything wrong with the config file or its values."""


class RunConfig(NamedTuple):
    """Everything a subcommand reads; ``sweep`` holds the chain depths n."""

    chain: ChainConfig
    gates: GateNoiseParams
    memory: MemoryModel
    sweep: range
    query_f: float
    f_useful: float | None


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _convert(raw: str, section: str, key: str, kind):
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(
            f"section [{section}] key '{key}': expected {kind.__name__}, "
            f"got {raw!r}"
        ) from None


def load_run_config(path: str | None) -> RunConfig:
    """Parse a config file into validated domain objects (or pure defaults)."""
    # Values are read literally: a '%' is text, not an interpolation.  No
    # header spells the empty name, so [DEFAULT] is an ordinary section.
    cp = configparser.ConfigParser(
        inline_comment_prefixes=("#",), interpolation=None, default_section=""
    )
    if path is not None:
        try:
            found = cp.read(path)
        except (configparser.Error, UnicodeError) as exc:
            raise ConfigError(" ".join(str(exc).split())) from None
        if not found:
            raise ConfigError(f"config file not found or unreadable: {path}")
    for name in cp.sections():
        if name not in _SECTION_KEYS:
            raise ConfigError(f"unknown config section [{name}]")
        for key in cp[name]:
            if key not in _SECTION_KEYS[name]:
                raise ConfigError(f"section [{name}]: unknown key '{key}'")

    def build(name: str, make, **defaults):
        """``make`` called with section ``name``'s keys, converted to their
        types, laid over ``defaults``; its ``ValueError`` becomes a
        ``ConfigError`` that names the section."""
        values = cp[name] if cp.has_section(name) else {}
        for key, kind in _SECTION_KEYS[name].items():
            if key in values:
                defaults[key] = _convert(values[key], name, key, kind)
        try:
            return make(**defaults)
        except ValueError as exc:
            raise ConfigError(f"section [{name}]: {exc}") from None

    link = build("link", LinkModel)
    gates = build("gates", GateNoiseParams)
    memory = build("memory", MemoryModel)
    # The defaults no built object holds: the chain's shape, the swept depths
    # n = start, start + step, ... up to stop, and the query fidelity.
    chain = build("chain", ChainConfig, l=2, n=3, link=link)
    sweep = build("sweep", lambda start, stop, step: range(
        _integer("start", start, 0), _integer("stop", stop, start) + 1,
        _integer("step", step, 1),
    ), start=1, stop=8, step=1)
    f_useful = build("rate", lambda f_useful=None: (
        None if f_useful is None else validate_fidelity(f_useful, "f_useful")
    ))
    query_f = build("query", validate_fidelity, f=0.8)
    return RunConfig(chain, gates, memory, sweep, query_f, f_useful)


def cmd_fixed_points(run: RunConfig, args) -> int:
    fp = purification_fixed_points(run.gates)
    print(f"f_min={fp.f_min:.12f} f_max={fp.f_max:.12f}")
    return 0


def cmd_purify(run: RunConfig, args) -> int:
    f_out = purify_noisy(run.query_f, run.gates)
    success = purify_success_probability(run.query_f, run.gates)
    print(f"f_out={_fmt(f_out)} success_probability={_fmt(success)}")
    return 0


def cmd_swap(run: RunConfig, args) -> int:
    f_out = swap_chain_fidelity(run.query_f, run.chain.l, run.gates)
    print(f"f_out={_fmt(f_out)}")
    return 0


def cmd_trace(run: RunConfig, args) -> int:
    pairs = resource_count(run.chain)  # fails before any output if too long to print
    trace = simulate_chain(run.chain, run.gates, run.memory)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(trace_to_csv(trace))
    print(f"final_fidelity={_fmt(trace.final_fidelity)}")
    print(f"total_elapsed_seconds={_fmt(trace.total_elapsed_seconds)}")
    print(f"resource_count={pairs}")
    if trace.degenerate:
        print("degenerate=true")
    return 0


def cmd_threshold(run: RunConfig, args) -> int:
    from .rates import threshold_distance

    th = threshold_distance(run.chain, run.gates, run.memory)
    if math.isinf(th.distance_km):
        print(f"D_th_km=Infinite f_min={_fmt(th.f_min)}")
    else:
        print(
            f"D_th_km={_fmt(th.distance_km)} level={th.level} "
            f"f_min={_fmt(th.f_min)} crossing_fidelity={_fmt(th.crossing_fidelity)}"
        )
    return 0


def cmd_rate_sweep(run: RunConfig, args) -> int:
    # Only the two rate subcommands load rates, as only oracle-check loads dmsim.
    from .rates import (
        CURVES, InsufficientPointsError, RateCurve, curves_to_csv, scaling_fit, sweep_rates,
    )

    curves = sweep_rates(run.chain, run.gates, run.memory, run.sweep, run.f_useful)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(curves_to_csv(curves))

    # Fit beyond the small-n transient: only distances above four elementary
    # links enter the polynomial/exponential discrimination.
    cut = 4.0 * run.chain.link.d_km
    fits = []
    failures = []
    for curve, (regime, metric) in zip(curves, CURVES):
        tail = RateCurve(
            curve.regime, tuple(p for p in curve.points if p.distance_km > cut)
        )
        try:
            fits.append((regime, metric, scaling_fit(tail)))
        except InsufficientPointsError as exc:
            failures.append((regime, metric, str(exc)))
    for regime, metric, fit in fits:
        print(
            f"fit regime={regime} metric={metric} kind={fit.kind} "
            f"parameter={_fmt(fit.parameter)} goodness={_fmt(fit.goodness)}"
        )
    for regime, metric, fit in fits:
        for name, value in zip(fit._fields, fit):
            text = value if isinstance(value, str) else _fmt(value)
            print(f"{regime}.{metric}.{name}={text}")
    for regime, metric, message in failures:
        print(f"InsufficientPoints regime={regime} metric={metric}: {message}")
    return 1 if failures else 0


def cmd_oracle_check(run: RunConfig, args) -> int:
    # The oracle is the only numpy user; other subcommands skip its import.
    from .dmsim import ORACLE_TOLERANCE, map_deviations

    # The 15 points of numpy.linspace(0.3, 1.0, 15), bit for bit.
    fidelities = [0.3 + i * ((1.0 - 0.3) / 14) for i in range(14)] + [1.0]
    triples = (
        (1.0, 1.0, 1.0),
        (0.99, 0.99, 0.99),
        (0.95, 0.95, 0.95),
        (1.0, 0.99, 0.95),
        (0.95, 1.0, 0.99),
        (0.99, 0.95, 1.0),
        (0.999, 0.99, 0.995),
        (0.95, 0.99, 0.95),
    )
    noise = [GateNoiseParams(*t) for t in triples]
    worst = map_deviations(fidelities, noise)
    for name in ("swap", "purify", "purify_success"):
        print(f"{name}_max_deviation={_fmt(worst[name])}")
    if not all(value <= ORACLE_TOLERANCE for value in worst.values()):
        print(f"oracle deviation exceeds tolerance {_fmt(ORACLE_TOLERANCE)}")
        return 1
    return 0


_COMMANDS = (
    ("fixed-points", "purification fixed points of the configured gate noise",
     cmd_fixed_points),
    ("purify", "one purification round on the query fidelity", cmd_purify),
    ("swap", "swap a chain of l pairs at the query fidelity", cmd_swap),
    ("trace", "simulate the chain and write its stage-by-stage CSV", cmd_trace),
    ("rate-sweep", "rate-versus-distance curves and scaling fits",
     cmd_rate_sweep),
    ("threshold", "distance where memory decay defeats purification",
     cmd_threshold),
    ("oracle-check", "compare closed-form maps against circuit oracles",
     cmd_oracle_check),
)
#: The subcommands that write a CSV file, the only ones that take ``--out``.
_WRITERS = ("trace", "rate-sweep")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="INI-style config file")
    parser = argparse.ArgumentParser(
        prog="repeaterlab",
        description="Analytic repeater-chain toolkit: fidelity maps, chain "
                    "traces, rate scaling, thresholds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler in _COMMANDS:
        sp = sub.add_parser(name, parents=[common], help=help_text)
        if name in _WRITERS:
            sp.add_argument("--out", metavar="PATH", required=True, help="output CSV path")
        sp.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = load_run_config(args.config)
        code = args.handler(run, args)
        # Flush now, so a reader that closed the pipe is caught below rather
        # than by the interpreter's flush at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left early (``| head``).  Point stdout at devnull so the
        # exit-time flush of the unsent output stays silent too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NoValidRangeError, OverflowError) as exc:
        print(f"{type(exc).__name__.removesuffix('Error')}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
