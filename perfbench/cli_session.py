"""``cli_session``: one fresh ``repeaterlab`` process per operation.

A pool of thirteen invocations covers the seven subcommands over seeded
INI configs: readers (``fixed-points``, ``threshold``, ``purify``,
``swap``), the CSV writers (``trace``, ``rate-sweep``) and one
``oracle-check`` run.  One reader gets a deliberately invalid
config, for which exit code 2 and a ``config error:`` line are the correct
answer.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from draws import DESIGN_KINDS, draw_cell, stratified
from reference import ORACLE_TOLERANCE

SUBCOMMANDS = (
    "fixed-points",
    "purify",
    "swap",
    "trace",
    "threshold",
    "rate-sweep",
    "oracle-check",
)
#: The pool of invocations.  Each reader appears twice, so one can take the
#: invalid config and one still gives its wall time.  ``oracle-check`` costs
#: about two other invocations; with one of it a run passes over the pool
#: about 10 times in 30 s at the seed commit.
POOL = (
    "fixed-points", "fixed-points", "threshold", "threshold", "purify", "purify",
    "swap", "swap", "trace", "trace", "rate-sweep", "rate-sweep", "oracle-check",
)
READERS = ("fixed-points", "threshold", "purify", "swap")
WRITERS = ("trace", "rate-sweep")
INVALID = {
    "non_numeric": ("[gates]", "p1 = 0.99", "p1 = high"),
    "out_of_range": ("[gates]", "p2 = 0.99", "p2 = 1.5"),
    "unknown_key": ("[chain]", "l = 2", "l = 2\nlinks = 4"),
}
#: The grid ``oracle-check`` evaluates: ``np.linspace(0.3, 1.0, 15)`` and
#: these gate triples (p1, p2, eta).
ORACLE_TRIPLES = (
    (1.0, 1.0, 1.0),
    (0.99, 0.99, 0.99),
    (0.95, 0.95, 0.95),
    (1.0, 0.99, 0.95),
    (0.95, 1.0, 0.99),
    (0.99, 0.95, 1.0),
    (0.999, 0.99, 0.995),
    (0.95, 0.99, 0.95),
)
RATE_ORDER = (
    ("direct", "resource_normalized"),
    ("repeater_ideal_memory", "resource_normalized"),
    ("repeater_ideal_memory", "time_normalized"),
    ("repeater_noisy_memory", "resource_normalized"),
    ("repeater_noisy_memory", "time_normalized"),
)
BOOTSTRAP = Path(__file__).resolve().parent / "cli_traced.py"
CHILD_TIMEOUT_S = 120


def config_text(p: dict, query_f: float) -> str:
    """INI text for one cell; unset keys fall back to the CLI defaults."""
    lines = [
        "[chain]",
        f"l = {p['l']}",
        f"n = {p['n']}",
        f"epp_rounds_per_level = {p['epp_rounds_per_level']}",
        "[link]",
        f"d_km = {p['d_km']!r}",
        f"f0 = {p['f0']!r}",
        "[gates]",
        f"p1 = {p['p1']!r}",
        f"p2 = {p['p2']!r}",
        f"eta = {p['eta']!r}",
        "[memory]",
    ]
    if p["tau_s"] is None:
        lines.append("mode = none")
    else:
        lines += ["mode = exponential", f"tau_s = {p['tau_s']!r}"]
    lines += ["[sweep]", "start = 1", f"stop = {p['sweep_stop']}", "[query]", f"f = {query_f!r}"]
    return "\n".join(lines) + "\n"


def invalid_text(kind: str) -> str:
    """A config that must be refused: valid defaults with one bad line."""
    section, good, bad = INVALID[kind]
    base = {"[gates]": "[gates]\np1 = 0.99\np2 = 0.99\neta = 0.99\n", "[chain]": "[chain]\nl = 2\nn = 3\n"}
    return base[section].replace(good, bad)


def parse_stdout(text: str) -> dict:
    """``key=value`` tokens of a run's stdout, keyed so every key is unique.

    Error lines map to their message: ``NoValidRange: msg`` to
    ``NoValidRange`` and ``InsufficientPoints regime=R metric=M: msg`` to
    ``InsufficientPoints.R.M``.
    """
    out = {}
    for line in text.splitlines():
        if line.startswith(("NoValidRange:", "InsufficientPoints")):
            head, message = line.split(": ", 1)
            tokens = head.split()
        else:
            tokens = line.split()
        if tokens[0] == "NoValidRange":
            out["NoValidRange"] = message
            continue
        if tokens[0] in ("fit", "InsufficientPoints"):
            fields = dict(t.split("=", 1) for t in tokens[1:])
            prefix = f"{tokens[0]}.{fields.pop('regime')}.{fields.pop('metric')}"
            if tokens[0] == "InsufficientPoints":
                out[prefix] = message
            else:
                out.update((f"{prefix}.{k}", v) for k, v in fields.items())
            continue
        for token in tokens:
            key, value = token.split("=", 1)
            out[key] = value
    return out


def same_number(printed: str, value) -> bool:
    """Whether ``printed`` is ``value`` to the 12 digits the CLI prints."""
    if isinstance(value, str):
        return printed == value
    if isinstance(value, int):
        return printed == str(value)
    number = float(printed)
    return number in (float(f"{value:.12g}"), float(f"{value:.12f}"))


def startup_probes(workdir: Path, env: dict, repeats: int = 5) -> dict:
    """Interpreter start and package import cost, medians over fresh processes."""
    def wall(cmd) -> tuple[float, str]:
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        return time.perf_counter() - t0, proc.stderr

    start = [wall([sys.executable, "-c", "pass"])[0] for _ in range(repeats)]
    numpy_ms, import_ms = [], []
    for _ in range(repeats):
        _, log = wall([sys.executable, "-X", "importtime", "-c", "import repeaterlab.cli"])
        cumulative = {}
        for line in log.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line.split("|")
                if not cum.strip().isdigit():
                    continue
                cumulative.setdefault(name.strip(), int(cum) / 1000.0)
        numpy_ms.append(cumulative.get("numpy", 0.0))
        import_ms.append(cumulative["repeaterlab.cli"])
    return {
        "cli.interpreter_start_ms": (statistics.median(start) * 1e3, "ms"),
        "cli.numpy_import_ms": (statistics.median(numpy_ms), "ms"),
        "cli.import_ms": (statistics.median(import_ms), "ms"),
    }


class Workload:
    name = "cli_session"
    in_process = False
    pool = len(POOL)
    trace_ops = len(POOL)

    def __init__(self, seed: int, workdir: Path, env: dict) -> None:
        self.seed = seed
        self.workdir = workdir
        self.env = env
        self._oracle = None
        self._spans = []
        #: stdout + stderr + CSV bytes of each untraced invocation, in order.
        self.out_bytes = []

    def setup(self) -> None:
        rng = random.Random(self.seed)
        kinds = iter(stratified(rng, DESIGN_KINDS, len(POOL)))
        order = list(POOL)
        rng.shuffle(order)
        bad_slot = rng.choice([k for k, sub in enumerate(order) if sub in READERS])
        bad_kind = rng.choice(sorted(INVALID))
        self.invocations = []
        for k, sub in enumerate(order):
            params, query_f = draw_cell(rng, next(kinds)), rng.uniform(0.3, 1.0)
            invalid = bad_kind if k == bad_slot else None
            path = self.workdir / f"config-{k}.ini"
            path.write_text(invalid_text(invalid) if invalid else config_text(params, query_f))
            self.invocations.append((sub, path.name, params, query_f, invalid))
        warm = self.workdir / "warmup.ini"
        warm.write_text("[gates]\np1 = 1.0\n")
        proc = self._invoke(["fixed-points", "--config", warm.name])
        if proc.returncode != 0:
            raise RuntimeError(f"warm-up invocation failed: {proc.stderr.strip()}")

    def _invoke(self, argv, spans=None):
        if spans is None:
            cmd = [sys.executable, "-m", "repeaterlab.cli", *argv]
        else:
            cmd = [sys.executable, str(BOOTSTRAP), spans, *argv]
        return subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)

    def describe(self, i: int) -> dict:
        sub, config, params, query_f, invalid = self.invocations[i % len(self.invocations)]
        return {"subcommand": sub, "config": config, "invalid": invalid, **params, "query_f": query_f}

    def run_op(self, i: int, tracer=None) -> dict:
        sub, config, _, _, _ = self.invocations[i % len(self.invocations)]
        argv = [sub, "--config", config]
        out = self.workdir / f"out-{i}.csv"
        if sub in WRITERS:
            argv += ["--out", out.name]
        spans = None
        if tracer is not None:
            spans = f"spans-{i}.tsv"
            self._spans.append((i, self.workdir / spans))
        proc = self._invoke(argv, spans)
        res = {
            "exit": proc.returncode,
            "stdout": proc.stdout,
            "stderr": proc.stderr,
            "csv": out.read_text() if sub in WRITERS and out.exists() else None,
        }
        if tracer is None:
            self.out_bytes.append(sum(len((res[k] or "").encode()) for k in ("stdout", "stderr", "csv")))
        return res

    def finish_trace(self, tracer) -> None:
        """Merge the span files the traced children wrote."""
        from tracer import Tracer

        for i, path in self._spans:
            operator_bytes, rows = Tracer.load(str(path))
            tracer.absorb(rows, i)
            tracer.operator_bytes += operator_bytes
        self._spans = []

    def layer_metrics(self, best) -> dict:
        """Per-subcommand wall time on valid configs and output volume.

        ``best`` holds each pooled invocation's fastest wall time.
        """
        walls = {sub: [] for sub in SUBCOMMANDS}
        for (sub, _, _, _, invalid), lat in zip(self.invocations, best):
            if not invalid:
                walls[sub].append(lat)
        metrics = {
            f"cli.{sub}.wall_p50_ms": (statistics.median(w) * 1e3 if w else 0.0, "ms")
            for sub, w in walls.items()
        }
        metrics["cli.out_bytes_per_op"] = (statistics.mean(self.out_bytes), "bytes")
        return metrics

    def check(self, i: int, res: dict) -> str | None:
        sub, _, params, query_f, invalid = self.invocations[i % len(self.invocations)]
        if invalid:
            if res["exit"] != 2 or not res["stderr"].startswith("config error:") or res["stdout"]:
                return f"invalid config ({invalid}) gave exit {res['exit']}: {res['stderr'].strip()!r}"
            return None
        if res["stderr"]:
            return f"unexpected stderr {res['stderr'].strip()!r}"
        exit_code, expected, check_csv = self._expected(sub, params, query_f)
        if res["exit"] != exit_code:
            return f"exit {res['exit']}, expected {exit_code}"
        try:
            printed = parse_stdout(res["stdout"])
        except (ValueError, KeyError):
            return f"unparseable stdout {res['stdout']!r}"
        if sorted(printed) != sorted(expected):
            return f"stdout keys {sorted(printed)}, expected {sorted(expected)}"
        for key, value in expected.items():
            if not same_number(printed[key], value):
                return f"{key}={printed[key]}, library gives {value!r}"
        return check_csv(res["csv"]) if check_csv else None

    def _expected(self, sub, p, query_f):
        """Exit code, stdout values and CSV check the library predicts."""
        from repeaterlab import chain, rates, werner

        from design_grid import Workload as Design

        cfg, gates, mem, n_values = Design._build(p)
        if sub == "fixed-points":
            try:
                fp = werner.purification_fixed_points(gates)
            except werner.NoValidRangeError as exc:
                return 1, {"NoValidRange": str(exc)}, None
            return 0, {"f_min": fp.f_min, "f_max": fp.f_max}, None
        if sub == "purify":
            return 0, {
                "f_out": werner.purify_noisy(query_f, gates),
                "success_probability": werner.purify_success_probability(query_f, gates),
            }, None
        if sub == "swap":
            return 0, {"f_out": werner.swap_chain_fidelity(query_f, cfg.l, gates)}, None
        if sub == "threshold":
            try:
                th = rates.threshold_distance(cfg, gates, mem)
            except werner.NoValidRangeError as exc:
                return 1, {"NoValidRange": str(exc)}, None
            if th.level is None:
                return 0, {"D_th_km": "Infinite", "f_min": th.f_min}, None
            return 0, {
                "D_th_km": th.distance_km,
                "level": th.level,
                "f_min": th.f_min,
                "crossing_fidelity": th.crossing_fidelity,
            }, None
        if sub == "trace":
            trace = chain.simulate_chain(cfg, gates, mem)
            expected = {
                "final_fidelity": trace.final_fidelity,
                "total_elapsed_seconds": trace.total_elapsed_seconds,
                "resource_count": chain.resource_count(cfg),
            }
            if trace.degenerate:
                expected["degenerate"] = "true"
            return 0, expected, lambda text: _check_trace_csv(chain, trace, text)
        if sub == "rate-sweep":
            try:
                curves = rates.sweep_rates(cfg, gates, mem, n_values)
            except werner.NoValidRangeError as exc:
                return 1, {"NoValidRange": str(exc)}, None
            expected = {}
            cut = 4.0 * cfg.link.d_km
            for curve, (regime, metric) in zip(curves, RATE_ORDER):
                tail = rates.RateCurve(regime, tuple(q for q in curve.points if q.distance_km > cut))
                try:
                    fit = rates.scaling_fit(tail)
                except rates.InsufficientPointsError as exc:
                    expected[f"InsufficientPoints.{regime}.{metric}"] = str(exc)
                    continue
                expected[f"fit.{regime}.{metric}.kind"] = fit.kind
                expected[f"fit.{regime}.{metric}.parameter"] = fit.parameter
                expected[f"fit.{regime}.{metric}.goodness"] = fit.goodness
                for field in ("kind", "parameter", "goodness", "polynomial_degree",
                              "polynomial_goodness", "exponential_constant_per_km",
                              "exponential_goodness"):
                    expected[f"{regime}.{metric}.{field}"] = getattr(fit, field)
            exit_code = 1 if any(k.startswith("InsufficientPoints") for k in expected) else 0
            return exit_code, expected, lambda text: _check_curves_csv(rates, curves, text)
        if sub == "oracle-check":
            if self._oracle is None:
                import numpy as np
                from repeaterlab import GateNoiseParams, dmsim

                fidelities = [float(f) for f in np.linspace(0.3, 1.0, 15)]
                worst = dmsim.map_deviations(fidelities, [GateNoiseParams(*t) for t in ORACLE_TRIPLES])
                self._oracle = {f"{k}_max_deviation": worst[k] for k in ("swap", "purify", "purify_success")}
            exit_code = 1 if max(self._oracle.values()) > ORACLE_TOLERANCE else 0
            return exit_code, self._oracle, None
        raise ValueError(f"unknown subcommand {sub!r}")


def _check_trace_csv(chain, trace, text) -> str | None:
    if text is None:
        return "trace wrote no CSV"
    parsed = chain.trace_from_csv(text)
    if chain.trace_to_csv(parsed) != text:
        return "trace CSV does not round-trip"
    if parsed.degenerate != trace.degenerate or len(parsed.steps) != len(trace.steps):
        return "trace CSV has the wrong shape"
    for got, want in zip(parsed.steps, trace.steps):
        if (got.level, got.stage, got.pairs_consumed) != (want.level, want.stage, want.pairs_consumed):
            return f"trace CSV row {got!r}, library gives {want!r}"
        if not (same_number(repr(got.fidelity), want.fidelity)
                and same_number(repr(got.elapsed_seconds), want.elapsed_seconds)):
            return f"trace CSV row {got!r}, library gives {want!r}"
    return None


def _check_curves_csv(rates, curves, text) -> str | None:
    if text is None:
        return "rate-sweep wrote no CSV"
    parsed = rates.curves_from_csv(text)
    if rates.curves_to_csv(parsed) != text:
        return "rate CSV does not round-trip"
    got = [(c.regime, q.metric, q.distance_km, q.rate) for c in parsed for q in c.points]
    want = [(c.regime, q.metric, q.distance_km, q.rate) for c in curves for q in c.points]
    if len(got) != len(want):
        return f"rate CSV has {len(got)} rows, library gives {len(want)}"
    for g, w in zip(got, want):
        if g[:2] != w[:2] or not (same_number(repr(g[2]), w[2]) and same_number(repr(g[3]), w[3])):
            return f"rate CSV row {g!r}, library gives {w!r}"
    return None
