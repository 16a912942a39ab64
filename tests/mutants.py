"""Textual mutants of the package, each of which the Tier-1 suite must fail.

    python3 tests/mutants.py [NAME ...]

Run from anywhere in a checkout; with names, only those mutants run.  Each
entry of :data:`MUTANTS` replaces one exact piece of text in one file under
``src/repeaterlab/`` and names an output the replacement changes, which keeps
equivalent mutants off the list.  For each mutant the script copies ``src/``,
``tests/``, ``perfbench/`` and ``pyproject.toml`` to a fresh temporary
directory, applies the replacement there (never to the working tree) and runs
the Tier-1 suite with ``-x``.  It prints one line per mutant and exits 0 only
if the suite failed on every one; it names each survivor, and each entry
whose text no longer occurs exactly once, and exits 1.

pytest does not collect this file.  A caught mutant costs 3 to 25 s on a 2-core
machine, a survivor a full Tier-1 run.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
TIER1 = (sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors")

#: ``name: (file, old, new, output)``; ``file`` is relative to ``src/repeaterlab/``.
MUTANTS = {
    # validate_fidelity's fast path.
    "fast-path-takes-zero": (
        "werner.py", "0.0 < f <= 1.0", "0.0 <= f <= 1.0",
        "validate_fidelity(-0.0) gives -0.0, not 0.0"),
    "fast-path-skips-clamp": (
        "werner.py", "0.0 < f <= 1.0", "0.0 < f <= 1.0 + FIDELITY_TOL",
        "validate_fidelity(1 + 1e-12) gives 1.000000000001, not 1.0"),
    # Tolerance constants.
    "fidelity-tolerance": (
        "werner.py", "FIDELITY_TOL = 1e-12", "FIDELITY_TOL = 1e-11",
        "validate_fidelity(1 + 2e-12) clamps to 1.0 instead of refusing"),
    "degeneracy-floor": (
        "werner.py", "MIXED_FIDELITY + 1e-12", "MIXED_FIDELITY + 1e-11",
        "trace@trace and rate-sweep@trace stop a level earlier"),
    "marginal-gap": (
        "werner.py", "(hi - lo) < 1e-9", "(hi - lo) < 1e-6",
        "purification_fixed_points marks roots 1.9e-8 apart marginal"),
    "oracle-tolerance": (
        "dmsim.py", "ORACLE_TOLERANCE = 64 * sys.float_info.epsilon",
        "ORACLE_TOLERANCE = 1e4 * sys.float_info.epsilon",
        "oracle-check passes a swap skewed by 1e-12"),
    # Swap.
    "swap-gate-factor": (
        "werner.py", "k = g.p1 * g.p1 * g.p2", "k = g.p1 * g.p2",
        "swap@baseline: swap_chain_fidelity with p1 < 1"),
    "swap-readout-factor": (
        "werner.py", "(4.0 * g.eta * g.eta - 1.0) / 3.0", "(4.0 * g.eta - 1.0) / 3.0",
        "swap@baseline: swap_chain_fidelity with eta < 1"),
    "swap-exponent-beyond-three": (
        "werner.py", "(k ** (l - 1))", "(k ** min(l - 1, 1))",
        "swap_chain_fidelity with l >= 3 and noisy gates"),
    # Purification.
    "purify-readout-term": (
        "werner.py", "return g.p2 * g.p2, (2.0 * g.eta - 1.0) ** 2",
        "return g.p2 * g.p2, (2.0 * g.eta - 1.0)",
        "purify@baseline and fixed-points@baseline with eta < 1"),
    "purify-gain": (
        "werner.py", "w * (1.0 + 2.0 * w) / (4.0 * den)", "w * (1.0 + w) / (4.0 * den)",
        "purify_noisy everywhere above 1/4"),
    "purify-pass-probability": (
        "werner.py", "den = 1.0 + q * c * w * w", "den = 1.0 + q * w * w",
        "purify_success_probability with eta < 1"),
    # Fixed points.
    "fixed-point-discriminant": (
        "werner.py", "disc = (2.0 * c - 1.0) ** 2", "disc = (2.0 * c - 1.0)",
        "fixed-points@baseline"),
    "fixed-point-lower-root": (
        "werner.py", "(9.0 - q) / s", "(9.0 - q * q) / s",
        "fixed-points@baseline: f_min with p2 < 1"),
    "fixed-point-upper-root": (
        "werner.py", "s / (16.0 * q * c)", "s / (16.0 * q)",
        "fixed-points@baseline: f_max with eta < 1"),
    # Memory decay, link transmission and latency.
    "memory-decay-rate": (
        "noise.py", "math.exp(-t_s / mem.tau_s)", "math.exp(-2.0 * t_s / mem.tau_s)",
        "trace@baseline: every after_memory fidelity"),
    "link-transmission": (
        "noise.py", "* _real(\"distance_km\", distance_km, 0.0) / 10.0)",
        "* _real(\"distance_km\", distance_km, 0.0) / 20.0)",
        "rate-sweep@default: the direct curve"),
    "classical-latency": (
        "noise.py", "/ link.c_signal_km_s", "/ (2.0 * link.c_signal_km_s)",
        "trace@default: every elapsed_seconds"),
    # Accounting.
    "pairs-per-round": (
        "chain.py", "pairs *= m", "pairs *= l",
        "pairs_consumed of a chain with l != 2"),
    "attempts-per-round": (
        "chain.py", "attempts *= m / ", "attempts *= l / ",
        "expected_attempts of a chain with l != 2"),
    "two-pairs-per-round": (
        "chain.py", "\n    m = 2\n", "\n    m = 3\n",
        "trace@trace: every pairs_consumed after a purification round"),
    "messages-per-level": (
        "chain.py", "(1.0 + 2.0 * k)", "(1.0 + 2.0)",
        "round_time with epp_rounds_per_level != 1"),
    # Size rule.
    "print-budget-digit": (
        "chain.py", "(limit + 1) * math.log2(10)", "(limit + 2) * math.log2(10)",
        "the walk hands on a pair count two digits past what str prints"),
    "bit-estimate-plus-one": (
        "chain.py", "n * (lp + k * lq) // lq + 1", "n * (lp + k * lq) // lq",
        "resource_count's refusal names a count one bit short"),
    "f0-clamp": (
        "noise.py", '_setattr(self, "f0", f0 if f0 <= 1.0 else 1.0)', '_setattr(self, "f0", f0)',
        "LinkModel(f0=1 + 5e-13) keeps a fidelity past 1"),
    # The walk's floor.
    "steps-past-floor": (
        "chain.py", "_walk(cfg, g, mem, floor=True)", "_walk(cfg, g, mem, floor=False)",
        "trace@trace: the trace walks past the fully mixed floor"),
    # Rates.
    "usefulness-below-floor": (
        "rates.py", "max(0.0, werner_weight(f)) ** 2", "max(0.0, werner_weight(f)) ** 3",
        "rate-sweep@trace: rates of pairs below f_useful"),
    "usefulness-at-floor": (
        "rates.py", "if f >= f_useful:", "if f > f_useful:",
        "usefulness_weight(f_useful, f_useful) gives w**2, not 1"),
    "curve-order-not-strict": (
        "rates.py", "previous < ", "previous <= ",
        "RateCurve accepts equal distances"),
    "shared-ss-tot": (
        "rates.py", "ss_tot = math.fsum([b * b for b in dy])",
        "ss_tot = math.fsum([b * b for b in dy[1:]])",
        "rate-sweep@baseline: every fit goodness"),
    # Command line.
    "out-required": (
        "cli.py", 'required=True, help="output CSV path"',
        'required=False, help="output CSV path"',
        "trace without --out reaches open(None) and raises TypeError"),
    "cli-number-format": (
        "cli.py", 'f"{value:.12g}"', 'f"{value:.11g}"',
        "every golden case that prints a float outside fixed-points"),
    "csv-only-on-success": (
        "cli.py", "if csv is not None:", "if csv is not None and code == 0:",
        "rate-sweep with too few points to fit writes no CSV"),
}


def run(name: str) -> str:
    """``caught``, ``survived`` or ``stale`` for one mutant."""
    file, old, new, _ = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = pathlib.Path(tmp)
        for part in COPIED:
            source = ROOT / part
            if source.is_dir():
                shutil.copytree(source, tree / part, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".perfbench_work"))
            else:
                shutil.copy2(source, tree / part)
        target = tree / "src" / "repeaterlab" / file
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return "stale"
        target.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        result = subprocess.run(TIER1, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
    return "survived" if result.returncode == 0 else "caught"


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    failed = []
    for name in names or MUTANTS:
        start = time.perf_counter()
        verdict = run(name)
        print(f"{verdict:8} {name} ({time.perf_counter() - start:.1f} s): "
              f"{MUTANTS[name][3]}", flush=True)
        if verdict != "caught":
            failed.append(f"{name} ({verdict})")
    if failed:
        print(f"not caught: {', '.join(failed)}")
        return 1
    print(f"all {len(names or MUTANTS)} mutants caught")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
