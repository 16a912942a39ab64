"""Every subcommand's output on no config and on the two shared INIs, byte
for byte against ``tests/golden/cli.json`` (rewritten by
``tests/regen_golden.py`` when an output change is intended)."""

import json

import pytest

from regen_golden import CASES_FILE, case_names, run_case

CASES = json.loads(CASES_FILE.read_text(encoding="utf-8"))


def test_the_golden_file_holds_every_subcommand_and_config():
    assert sorted(CASES) == sorted(case_names())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_its_golden_case(name, tmp_path):
    assert run_case(name, tmp_path) == CASES[name]
