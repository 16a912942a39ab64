"""Show that the benchmark's checks catch a corrupted result.

    python3 perfbench/selftest.py

For each workload, a few operations run twice: once as they are, where no
check may fail, and once with a known corruption, where some check must
fail:

- design_grid: ``purify_noisy`` returns 1e-6 too much, everywhere the
  package calls it;
- oracle_grid: ``map_deviations`` gets a swap map that is 1e-6 off;
- cli_session: one line of a valid run's stdout has a digit edited.

Exits 0 when every control is clean and every corruption is caught.
"""

from __future__ import annotations

import shutil
import sys

import run

OPS = 12


def corrupt_stdout(results, wl) -> None:
    """Edit the last digit of the first ``key=value`` line a valid run printed."""
    for i, res in enumerate(results):
        first = res["stdout"].split("\n")[0] if isinstance(res, dict) else ""
        numbered = "=" in first and not first.startswith("NoValidRange")
        if wl.invocations[i][4] is None and numbered and any(ch.isdigit() for ch in first):
            text = res["stdout"]
            k = max(j for j, ch in enumerate(first) if ch.isdigit())
            res["stdout"] = text[:k] + str((int(text[k]) + 1) % 10) + text[k + 1:]
            return
    raise RuntimeError("no valid run printed a number")


def main() -> int:
    if not run.prepare():
        return 2
    ok = True
    for name in run.WORKLOADS:
        workdir = run.ROOT / ".perfbench_work" / f"selftest-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        wl = run.start_workload(name, 7, workdir)
        indices = range(OPS)
        control = run.check_all(wl, run.run_ops(wl, indices)[1])

        if name == "design_grid":
            from repeaterlab import werner

            from tracer import patch

            original = werner.purify_noisy
            undo = patch("werner", "purify_noisy", lambda f, g: original(f, g) + 1e-6)
            try:
                results = run.run_ops(wl, indices)[1]
            finally:
                undo()
        elif name == "oracle_grid":
            from repeaterlab import werner

            wl.swap_map = lambda f, l, g: werner.swap_chain_fidelity(f, l, g) + 1e-6
            results = run.run_ops(wl, indices)[1]
            wl.swap_map = None
        else:
            results = run.run_ops(wl, indices)[1]
            corrupt_stdout(results, wl)
        corrupted = run.check_all(wl, results)

        caught = not control and corrupted
        ok = ok and caught
        print(f"{name}: control failed {len(control)}/{OPS}, corrupted failed "
              f"{len(corrupted)}/{OPS} -> {'ok' if caught else 'NOT CAUGHT'}")
        for i, reason in control + corrupted[:1]:
            print(f"  op {i}: {reason}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
