"""Rewrite ``tests/golden/cli.json``, the golden output matrix of the CLI.

Every subcommand runs through :func:`repeaterlab.cli.main` on no config, on
``tests/golden/baseline.ini`` and on ``tests/golden/trace.ini``, always with
``--out``.  Each case records the exit code, stdout, stderr and the bytes of
the CSV written (``null`` if none), text split into lines so that a change
shows as a line diff.  ``tests/test_golden.py`` checks the committed file.

After an intended output change, run ``python3 tests/regen_golden.py`` from
the repository root and list each moved line in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
import tempfile

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
CASES_FILE = GOLDEN / "cli.json"
#: The config of each column of the matrix: none, or a file in ``GOLDEN``.
CONFIGS = {"default": None, "baseline": "baseline.ini", "trace": "trace.ini"}


def case_names() -> list[str]:
    """``<subcommand>@<config>`` for every subcommand and config."""
    from repeaterlab.cli import _COMMANDS

    return [f"{name}@{config}" for name, _, _ in _COMMANDS for config in CONFIGS]


def run_case(name: str, workdir: pathlib.Path) -> dict:
    """Exit code, stdout, stderr and CSV of one case, run in process with
    its CSV written into the empty directory ``workdir``."""
    from repeaterlab.cli import main

    command, config = name.split("@")
    out_path = workdir / "out.csv"
    argv = [command, "--out", str(out_path)]
    if CONFIGS[config] is not None:
        argv += ["--config", str(GOLDEN / CONFIGS[config])]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    csv = out_path.read_bytes().decode("utf-8") if out_path.exists() else None
    return {
        "exit": code,
        "stdout": stdout.getvalue().splitlines(keepends=True),
        "stderr": stderr.getvalue().splitlines(keepends=True),
        "csv": None if csv is None else csv.splitlines(keepends=True),
    }


def main() -> None:
    cases = {}
    for name in case_names():
        with tempfile.TemporaryDirectory() as workdir:
            cases[name] = run_case(name, pathlib.Path(workdir))
    CASES_FILE.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {CASES_FILE}")


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))
    main()
