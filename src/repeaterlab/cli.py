"""Configuration-driven command line for every analysis in the package.

One flat INI-style config file (sections, ``key = value`` lines, ``#``
comments) feeds all subcommands; anything not set falls back to documented
defaults.  Only the CSV writers ``trace`` and ``rate-sweep`` take
``--out PATH``, and they require it.

Each ``cmd_*`` handler takes the :class:`RunConfig` and returns its exit
code, its CSV text (``None`` but for the writers) and its stdout as lines of
``(key, value)`` pairs; :func:`main` alone writes the CSV and prints.  Stdout
is ``key=value`` lines, a float with 12 significant digits (``fixed-points``:
12 decimal places) and a pair count exactly.  The pipeline contains no
randomness, so identical configs produce byte-identical output — golden files
are diffable.

Exit codes: 0 success, 1 analysis-level failure (no valid purification
range, oracle deviation, too few points to fit, a pair count too long to
print, a level latency or sweep distance past the float range) or a stdout
closed by its reader, 2 usage or config errors or an ``--out`` path that
cannot be written.  ``trace`` refuses a pair count too long to print before
it walks the chain;
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
    "chain": {"l": int, "n": int, "epp_rounds_per_level": int},
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


def cmd_fixed_points(run: RunConfig):
    fp = purification_fixed_points(run.gates)
    return 0, None, [(("f_min", fp.f_min), ("f_max", fp.f_max))]


def cmd_purify(run: RunConfig):
    f_out = purify_noisy(run.query_f, run.gates)
    success = purify_success_probability(run.query_f, run.gates)
    return 0, None, [(("f_out", f_out), ("success_probability", success))]


def cmd_swap(run: RunConfig):
    return 0, None, [(("f_out", swap_chain_fidelity(run.query_f, run.chain.l, run.gates)),)]


def cmd_trace(run: RunConfig):
    pairs = resource_count(run.chain)  # refuses a count too long to print before the walk
    trace = simulate_chain(run.chain, run.gates, run.memory)
    lines = [(("final_fidelity", trace.final_fidelity),),
             (("total_elapsed_seconds", trace.total_elapsed_seconds),),
             (("resource_count", pairs),)]
    if trace.degenerate:
        lines.append((("degenerate", "true"),))
    return 0, trace_to_csv(trace), lines


def cmd_threshold(run: RunConfig):
    from .rates import threshold_distance

    th = threshold_distance(run.chain, run.gates, run.memory)
    if math.isinf(th.distance_km):
        return 0, None, [(("D_th_km", "Infinite"), ("f_min", th.f_min))]
    return 0, None, [(("D_th_km", th.distance_km), ("level", th.level), ("f_min", th.f_min),
                      ("crossing_fidelity", th.crossing_fidelity))]


def cmd_rate_sweep(run: RunConfig):
    # Only the two rate subcommands load rates, as only oracle-check loads dmsim.
    from .rates import (
        CURVES, InsufficientPointsError, RateCurve, curves_to_csv, scaling_fit, sweep_rates,
    )

    curves = sweep_rates(run.chain, run.gates, run.memory, run.sweep, run.f_useful)
    # Fit beyond the small-n transient: only distances above four elementary
    # links enter the polynomial/exponential discrimination.
    cut = 4.0 * run.chain.link.d_km
    fits, failures = [], []
    for curve, (regime, metric) in zip(curves, CURVES):
        tail = RateCurve(curve.regime, tuple(p for p in curve.points if p.distance_km > cut))
        try:
            fits.append((regime, metric, scaling_fit(tail)))
        except InsufficientPointsError as exc:
            failures.append(((None, "InsufficientPoints"), ("regime", regime),
                             ("metric", f"{metric}:"), (None, str(exc))))
    # Each fit shows twice: its kind, parameter and goodness (the first three
    # fields) on one summary line, then every field on a line of its own.
    lines = [((None, "fit"), ("regime", regime), ("metric", metric), *zip(fit._fields[:3], fit))
             for regime, metric, fit in fits]
    lines += [((f"{regime}.{metric}.{name}", value),)
              for regime, metric, fit in fits for name, value in zip(fit._fields, fit)]
    return (1 if failures else 0), curves_to_csv(curves), lines + failures


def cmd_oracle_check(run: RunConfig):
    # The oracle is the only numpy user; other subcommands skip its import.
    from .dmsim import ORACLE_TOLERANCE, map_deviations

    # The 15 points of numpy.linspace(0.3, 1.0, 15), bit for bit.
    fidelities = [0.3 + i * ((1.0 - 0.3) / 14) for i in range(14)] + [1.0]
    triples = ((1.0, 1.0, 1.0), (0.99, 0.99, 0.99), (0.95, 0.95, 0.95), (1.0, 0.99, 0.95),
               (0.95, 1.0, 0.99), (0.99, 0.95, 1.0), (0.999, 0.99, 0.995), (0.95, 0.99, 0.95))
    noise = [GateNoiseParams(*t) for t in triples]
    worst = map_deviations(fidelities, noise)
    lines = [((f"{name}_max_deviation", worst[name]),)
             for name in ("swap", "purify", "purify_success")]
    if all(value <= ORACLE_TOLERANCE for value in worst.values()):
        return 0, None, lines
    lines.append(((None, "oracle deviation exceeds tolerance"), (None, ORACLE_TOLERANCE)))
    return 1, None, lines


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


def _print(lines, fixed: bool) -> None:
    """Print a record by the output rule of this module, one stdout line
    per tuple of pairs; a pair whose key is None prints its value alone."""
    for line in lines:
        fields = []
        for key, value in line:
            if isinstance(value, float):
                value = f"{value:.12f}" if fixed else f"{value:.12g}"
            fields.append(f"{value}" if key is None else f"{key}={value}")
        print(" ".join(fields))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, csv, lines = args.handler(load_run_config(args.config))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NoValidRangeError, OverflowError) as exc:
        code, csv = 1, None
        lines = [((None, f"{type(exc).__name__.removesuffix('Error')}: {exc}"),)]
    if csv is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(csv)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    try:
        _print(lines, fixed=args.command == "fixed-points")
        # Flush now, so a reader that closed the pipe is caught below rather
        # than by the interpreter's flush at exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (``| head``).  Point stdout at devnull so the
        # exit-time flush of the unsent output stays silent too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
