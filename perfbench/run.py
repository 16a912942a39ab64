"""Benchmark for repeaterlab: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets the workload up, runs operations back to back (one
client, closed loop) for ``--seconds``, passing repeatedly over a seeded pool
of operations and checking each result as it completes, with the clock
stopped.  Timings use each operation's fastest pass.  With ``--trace 1`` it
also replays the first operations with every public package function
wrapped in a span, and reports per-layer metrics instead of end-to-end
ones.  A readable report comes first; the last line of stdout is the JSON
result.  Scratch files, including the span dump, go to
``.perfbench_work/<workload>/``.  See README.md beside this file for the
workloads and what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("design_grid", "oracle_grid", "cli_session")
SETUP_REPEATS = 15
#: Keep numpy's BLAS on the benchmark's single thread.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def prepare() -> bool:
    """Import the package from ``src/`` of this checkout, single-threaded."""
    if not (SRC / "repeaterlab" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}/repeaterlab", file=sys.stderr)
        return False
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    return True


def start_workload(name: str, seed: int, workdir: Path):
    """Import the workload (and with it the package), build inputs, warm up."""
    module = importlib.import_module(name)
    wl = module.Workload(seed, workdir, child_env())
    wl.setup()
    return wl


def run_ops(wl, indices, tracer=None):
    """Run operations back to back; return (latencies, results).

    An operation that raises is recorded as its exception, which counts as a
    failure.
    """
    latencies, results = [], []
    for i in indices:
        if tracer is not None:
            tracer.current_op = i
        t0 = time.perf_counter()
        try:
            result = wl.run_op(i, tracer)
        except Exception as exc:  # the operation failed; record it, keep going
            result = exc
        latencies.append(time.perf_counter() - t0)
        results.append(result)
    return latencies, results


def check_one(wl, i, result) -> str | None:
    """Check one operation's result; return why it failed, or None."""
    if isinstance(result, Exception):
        return f"raised {result!r}"
    try:
        return wl.check(i, result)
    except Exception as exc:  # a malformed result the check cannot read
        return f"check raised {exc!r}"


def check_all(wl, results) -> list:
    """Check every result; return [(index, reason)] for the failed ones."""
    failures = []
    for i, result in enumerate(results):
        reason = check_one(wl, i, result)
        if reason:
            failures.append((i, reason))
    return failures


def best_of_repeats(latencies, pool: int) -> list:
    """Each pooled operation's fastest run.

    Operation ``k`` of the pool runs at indices ``k``, ``k + pool``, ... of
    the timed phase, so its repeats are spread over the whole run.  Other
    tenants of a shared machine only ever slow an operation down; its
    fastest repeat is its cost with the least interference.
    """
    return [min(latencies[k::pool]) for k in range(pool)]


def tail(values) -> tuple[float, float]:
    """The value at the highest percentile with 10 values beyond it.

    A pool of fewer than 40 keeps a quarter of its values beyond the tail,
    so that the tail stays above the median.
    """
    ordered = sorted(values)
    rank = len(ordered) - 1 - min(10, len(ordered) // 4)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def setup_probe(args) -> None:
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-setup"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    t0 = time.perf_counter()
    start_workload(args.workload, args.seed, workdir)
    print(repr(time.perf_counter() - t0))


def measure(args) -> dict:
    workdir = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    t0 = time.perf_counter()
    wl = start_workload(args.workload, args.seed, workdir)
    setups = [time.perf_counter() - t0]

    # Timed phase: passes over the workload's pool of ``wl.pool`` operations,
    # at least one whole pass.  Each result is checked as soon as its latency
    # is taken and then dropped, keeping only (index, reason) of a failure:
    # the heap, and with it peak RSS and the garbage collector's work, stays
    # the same however many operations run.  The clock stops while a result
    # is checked.
    latencies, failures = [], []
    checking = 0.0
    phase_start = time.perf_counter()
    i = 0
    while time.perf_counter() - phase_start - checking < args.seconds or i < wl.pool:
        lat, res = run_ops(wl, [i])
        t0 = time.perf_counter()
        reason = check_one(wl, i, res[0])
        del res
        if reason:
            failures.append((i, reason))
        checking += time.perf_counter() - t0
        latencies += lat
        i += 1
    phase = time.perf_counter() - phase_start - checking
    usage = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0

    best = best_of_repeats(latencies, wl.pool)
    record = {"latencies": latencies, "phase": phase}
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        uninstall = tracer.install() if wl.in_process else None
        traced_lat, traced_res = run_ops(wl, range(wl.trace_ops), tracer)
        if uninstall:
            uninstall()
        if hasattr(wl, "finish_trace"):
            wl.finish_trace(tracer)
        tracer.dump(str(workdir / "spans.tsv"))
        record["traced_results"] = traced_res
        layers = tracer.layer_metrics(wl.trace_ops)
        import cli_session

        layers.update(cli_session.startup_probes(workdir, child_env()))
        cli_layers = {f"cli.{s}.wall_p50_ms": (0.0, "ms") for s in cli_session.SUBCOMMANDS}
        cli_layers["cli.out_bytes_per_op"] = (0.0, "bytes")
        if hasattr(wl, "layer_metrics"):
            cli_layers.update(wl.layer_metrics(best))
        layers.update(cli_layers)
        # A single traced pass is compared with the same operations' median
        # untraced pass, not their fastest one.
        untraced = sum(statistics.median(latencies[i::wl.pool]) for i in range(wl.trace_ops))
        layers["trace.overhead_share"] = (sum(traced_lat) / untraced - 1.0, "share")
        record["layers"] = layers

    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        setups.append(float(proc.stdout.split()[-1]))

    if args.trace:
        failures += check_all(wl, record["traced_results"])
    attempted = len(latencies) + len(record.get("traced_results", ()))

    tail_value, tail_pct = tail(best)
    record.update(
        wl=wl,
        attempted=attempted,
        failures=failures,
        tail_pct=tail_pct,
        end_to_end={
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (wl.pool / sum(best), "1/s"),
            "op_p50_ms": (statistics.median(best) * 1e3, "ms"),
            "op_tail_ms": (tail_value * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
    )
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase; BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not prepare():
        return 2
    if args.setup_only:
        setup_probe(args)
        return 0

    record = measure(args)
    import numpy

    latencies = record["latencies"]
    pool = record["wl"].pool
    failures = record["failures"]
    meta = (
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"commit={git_commit()} python={platform.python_version()} numpy={numpy.__version__} "
        f"nproc={os.cpu_count()}"
    )
    print(f"# perfbench {meta}")
    print(f"# {len(latencies)} timed operations, {len(latencies) / pool:.1f} passes over a pool "
          f"of {pool}; each operation's latency is its fastest pass")
    print(f"# op_tail_ms is p{record['tail_pct']:.2f} of the {pool} operations, with "
          f"{min(10, pool // 4)} beyond it")
    print(f"# wall clock, every pass: {len(latencies) / record['phase']!r} ops/s, "
          f"p50 {statistics.median(latencies) * 1e3!r} ms")
    for i, reason in failures[:20]:
        print(f"# FAILED op {i}: {reason}; input {record['wl'].describe(i)}")
    failed_share = len(failures) / record["attempted"]
    print(f"{'failed_share':<48} {failed_share!r} share "
          f"({len(failures)} of {record['attempted']} operations)")
    metrics = record["layers"] if args.trace else record["end_to_end"]
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value!r} {unit}")

    summary = {
        "meta": meta,
        "failed_share": failed_share,
        "failures": [(i, reason, record["wl"].describe(i)) for i, reason in failures],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (ROOT / ".perfbench_work" / args.workload / "result.json").write_text(
        json.dumps(summary, indent=1, default=repr)
    )
    print(json.dumps({
        "correct": not failures,
        "attempted": record["attempted"],
        "failed": len(failures),
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
