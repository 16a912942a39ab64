"""End-to-end command-line behaviour, exit codes, output stability."""

import errno
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import repeaterlab.werner
from repeaterlab import (
    ChainConfig,
    GateNoiseParams,
    LinkModel,
    MemoryModel,
    curves_from_csv,
    simulate_chain,
    trace_to_csv,
)
from repeaterlab.cli import _COMMANDS, load_run_config, main

GOLDEN = Path(__file__).resolve().parent / "golden"
#: A nested doubling chain with lossy memory, and a purifying one; the golden
#: output matrix runs every subcommand on each of them too.
BASELINE_INI = (GOLDEN / "baseline.ini").read_text(encoding="utf-8")
TRACE_INI = (GOLDEN / "trace.ini").read_text(encoding="utf-8")
#: The subcommands that write a CSV file: they alone take ``--out``.
WRITERS = ("trace", "rate-sweep")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_option(command, path):
    """``--out path`` for a subcommand that writes a CSV; nothing for the
    others, which refuse it."""
    return ["--out", str(path)] if command in WRITERS else []


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_fixed_points_reports_missing_range(capsys, tmp_path):
    cfg = write(tmp_path, "noisy.ini", "[gates]\np2 = 0.9\neta = 0.9\n")
    code, out, _ = run_cli(capsys, "fixed-points", "--config", cfg)
    assert code == 1
    assert out.startswith("NoValidRange:")


@pytest.mark.parametrize("eta", ["1.0", "0.500000001"])
def test_two_qubit_gates_that_always_fail_are_accepted(capsys, tmp_path, eta):
    # p2**2 underflows to 0: the kept pair is fully mixed and never improves.
    cfg = write(tmp_path, "dead_cnot.ini", f"[gates]\np2 = 1e-200\neta = {eta}\n")
    code, out, err = run_cli(capsys, "purify", "--config", cfg)
    assert (code, out, err) == (0, "f_out=0.25 success_probability=0.5\n", "")
    code, out, err = run_cli(capsys, "fixed-points", "--config", cfg)
    assert (code, err) == (1, "")
    assert out.startswith("NoValidRange:")


def test_unknown_key_is_a_config_error(capsys, tmp_path):
    cfg = write(tmp_path, "bad.ini", "[gates]\nflux_capacitance = 3\n")
    code, out, err = run_cli(capsys, "fixed-points", "--config", cfg)
    assert code == 2
    assert out == ""
    assert "flux_capacitance" in err


def test_unknown_section_is_a_config_error(capsys, tmp_path):
    cfg = write(tmp_path, "bad.ini", "[plumbing]\nvalve = open\n")
    code, _, err = run_cli(capsys, "fixed-points", "--config", cfg)
    assert code == 2
    assert "plumbing" in err


@pytest.mark.parametrize("text", [
    "[DEFAULT]\n",
    "[DEFAULT]\np2 = 0.5\n",
    "[DEFAULT]\np2 = 0.9\n[gates]\np1 = 1\n",
])
def test_default_section_is_an_unknown_section(capsys, tmp_path, text):
    """configparser's special [DEFAULT] neither vanishes nor leaks its keys
    into the other sections."""
    cfg = write(tmp_path, "default.ini", text)
    code, out, err = run_cli(capsys, "fixed-points", "--config", cfg)
    assert (code, out) == (2, "")
    assert err == "config error: unknown config section [DEFAULT]\n"


def test_non_numeric_value_names_the_key(capsys, tmp_path):
    cfg = write(tmp_path, "bad.ini", "[gates]\np2 = fast\n")
    code, _, err = run_cli(capsys, "fixed-points", "--config", cfg)
    assert code == 2
    assert "p2" in err


def test_out_of_domain_value_is_a_config_error(capsys, tmp_path):
    cfg = write(tmp_path, "bad.ini", "[chain]\nl = 1\n")
    code, _, err = run_cli(capsys, "trace", "--config", cfg, "--out", "x.csv")
    assert code == 2
    assert "[chain]" in err


def test_missing_config_file(capsys):
    code, _, err = run_cli(capsys, "fixed-points", "--config", "/no/such/file.ini")
    assert code == 2
    assert "file" in err


def test_trace_writes_csv_and_summary(capsys, tmp_path):
    cfg = write(tmp_path, "trace.ini", TRACE_INI)
    out_path = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, "trace", "--config", cfg, "--out",
                           str(out_path))
    assert code == 0
    assert out == (
        "final_fidelity=0.270399534794\n"
        "total_elapsed_seconds=0.01125\n"
        "resource_count=256\n"
    )
    expected = trace_to_csv(
        simulate_chain(
            ChainConfig(l=2, n=4, link=LinkModel(d_km=25.0, f0=0.96),
                        epp_rounds_per_level=1),
            GateNoiseParams(p1=0.999, p2=0.99, eta=0.995),
            MemoryModel.exponential(0.01),
        )
    )
    assert out_path.read_text(encoding="utf-8") == expected


def test_trace_zero_depth(capsys, tmp_path):
    cfg = write(tmp_path, "n0.ini", "[chain]\nn = 0\n")
    out_path = tmp_path / "n0.csv"
    code, out, _ = run_cli(capsys, "trace", "--config", cfg, "--out",
                           str(out_path))
    assert code == 0
    assert "final_fidelity=0.96\n" in out
    assert "resource_count=1\n" in out
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines == [
        "level,stage,fidelity,elapsed_seconds,pairs_consumed",
        "0,init,0.96,0,1",
    ]


def test_trace_requires_out(capsys, tmp_path):
    cfg = write(tmp_path, "n0.ini", "[chain]\nn = 0\n")
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--config", cfg])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err


def test_rate_sweep_requires_out(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rate-sweep"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: the following arguments are required: --out\n")


@pytest.mark.parametrize("command", [
    name for name, _, _ in _COMMANDS if name not in WRITERS])
def test_only_the_csv_writers_take_out(capsys, tmp_path, command):
    out_path = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(out_path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --out" in captured.err
    assert not out_path.exists()


@pytest.mark.parametrize("command", WRITERS)
@pytest.mark.parametrize("target, reason", [
    ("missing/out.csv", errno.ENOENT), (".", errno.EISDIR)], ids=["no-such-dir", "a-dir"])
def test_an_unwritable_out_is_one_stderr_line(capsys, tmp_path, command, target,
                                              reason):
    path = tmp_path / target
    code, out, err = run_cli(capsys, command, "--out", str(path))
    assert (code, out) == (2, "")
    assert err == f"cannot write {path}: {os.strerror(reason)}\n"


@pytest.mark.parametrize("name, handler", [(name, handler) for name, _, handler in _COMMANDS])
def test_each_handler_returns_its_output_as_data(capsys, tmp_path, monkeypatch, name,
                                                 handler):
    """A handler prints nothing and writes no file; its record holds numbers
    as numbers, so that only ``main`` turns them into text."""
    monkeypatch.chdir(tmp_path)
    code, csv, lines = handler(load_run_config(None))
    assert capsys.readouterr() == ("", "")
    assert list(tmp_path.iterdir()) == []
    assert code == 0
    assert (csv is not None) == (name in WRITERS)
    assert lines
    for line in lines:
        assert type(line) is tuple and line
        for key, value in line:
            assert key is None or type(key) is str
            assert type(value) in (float, int, str), (key, value)
            if type(value) is str:
                with pytest.raises(ValueError):
                    float(value)


@pytest.mark.parametrize("command", [name for name, _, _ in _COMMANDS])
def test_help_lists_out_for_the_writers_only(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    assert ("--out PATH" in capsys.readouterr().out) == (command in WRITERS)


def test_trace_degenerate_flagged_but_written(capsys, tmp_path):
    cfg = write(
        tmp_path, "dead.ini",
        BASELINE_INI.replace("tau_s = 5e-3", "tau_s = 1e-8"),
    )
    out_path = tmp_path / "dead.csv"
    code, out, _ = run_cli(capsys, "trace", "--config", cfg, "--out",
                           str(out_path))
    assert code == 0
    assert "degenerate=true\n" in out
    assert out_path.exists()
    assert len(out_path.read_text(encoding="utf-8").splitlines()) >= 3


def test_oracle_check_catches_a_wrong_formula(capsys, monkeypatch):
    genuine = repeaterlab.werner.swap_chain_fidelity

    def skewed(f, l, g):
        return genuine(f, l, g) * (1.0 + 1e-12)

    monkeypatch.setattr(repeaterlab.werner, "swap_chain_fidelity", skewed)
    code, out, _ = run_cli(capsys, "oracle-check")
    assert code == 1
    assert out.endswith("oracle deviation exceeds tolerance 1.42108547152e-14\n")


def test_oracle_check_fails_on_a_nan_deviation(capsys, monkeypatch):
    # NaN compares false against the tolerance both ways, so it must fail
    # the check rather than slip under it.
    monkeypatch.setattr(
        repeaterlab.werner, "swap_chain_fidelity", lambda f, l, g: float("nan")
    )
    code, out, _ = run_cli(capsys, "oracle-check")
    assert code == 1
    assert out.startswith("swap_max_deviation=nan\n")
    assert out.endswith("oracle deviation exceeds tolerance 1.42108547152e-14\n")


def test_rate_sweep_fits_and_csv(capsys, tmp_path):
    cfg = write(tmp_path, "base.ini", BASELINE_INI)
    out_path = tmp_path / "rates.csv"
    code, out, _ = run_cli(capsys, "rate-sweep", "--config", cfg, "--out",
                           str(out_path))
    assert code == 0
    fit_lines = [ln for ln in out.splitlines() if ln.startswith("fit ")]
    assert len(fit_lines) == 5
    assert any("regime=direct" in ln and "kind=exponential" in ln
               for ln in fit_lines)
    assert "repeater_noisy_memory.time_normalized.kind=exponential" in out
    text = out_path.read_text(encoding="utf-8")
    parsed = curves_from_csv(text)
    assert [c.regime for c in parsed] == [
        "direct",
        "repeater_ideal_memory",
        "repeater_ideal_memory",
        "repeater_noisy_memory",
        "repeater_noisy_memory",
    ]


#: TRACE_INI's deepest chains end 1.0e-7 above 1/4 (6400 km, perfect memory)
#: and 8.5e-10 above it (1600 km, noisy memory).  There one ulp of fidelity
#: is 5.5e-10 and 6.5e-8 of the Werner weight, so the trailing digits of these
#: rates, and of the fits through them, are rounding noise of the walk.  They
#: are frozen so that any change to them shows.
TRACE_RATE_SWEEP_FITS = [
    "fit regime=direct metric=resource_normalized kind=exponential parameter=0.0460517018599 goodness=1",
    "fit regime=repeater_ideal_memory metric=resource_normalized kind=exponential parameter=0.0061487539478 goodness=0.992335306843",
    "fit regime=repeater_ideal_memory metric=time_normalized kind=exponential parameter=0.00566740558343 goodness=0.996401813339",
]
TRACE_RATE_SWEEP_DEEPEST_ROWS = [
    "6400,2.76157586883e-19,resource_normalized,repeater_ideal_memory",
    "6400,9.46314437331e-14,time_normalized,repeater_ideal_memory",
    "1600,3.12151078407e-22,resource_normalized,repeater_noisy_memory",
    "1600,2.7059699834e-17,time_normalized,repeater_noisy_memory",
]


def test_rate_sweep_near_the_mixed_state_is_frozen(capsys, tmp_path):
    cfg = write(tmp_path, "trace.ini", TRACE_INI)
    out_path = tmp_path / "rates.csv"
    code, out, err = run_cli(capsys, "rate-sweep", "--config", cfg, "--out",
                             str(out_path))
    # Four noisy-memory points are too few for a fit: exit 1, CSV written.
    assert (code, err) == (1, "")
    assert [ln for ln in out.splitlines() if ln.startswith("fit ")] == (
        TRACE_RATE_SWEEP_FITS
    )
    rows = out_path.read_text(encoding="utf-8").splitlines()
    assert set(TRACE_RATE_SWEEP_DEEPEST_ROWS) <= set(rows)


def test_rate_sweep_with_too_few_points(capsys, tmp_path):
    cfg = write(
        tmp_path, "short.ini",
        BASELINE_INI + "\n[sweep]\nstart = 1\nstop = 3\n",
    )
    out_path = tmp_path / "rates.csv"
    code, out, _ = run_cli(capsys, "rate-sweep", "--config", cfg, "--out",
                           str(out_path))
    assert code == 1
    assert "InsufficientPoints" in out
    assert out_path.exists()  # the CSV itself is still produced


def test_identical_configs_give_byte_identical_output(capsys, tmp_path):
    cfg = write(tmp_path, "base.ini", BASELINE_INI)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    code1, out1, _ = run_cli(capsys, "rate-sweep", "--config", cfg, "--out",
                             str(first))
    code2, out2, _ = run_cli(capsys, "rate-sweep", "--config", cfg, "--out",
                             str(second))
    assert (code1, code2) == (0, 0)
    assert out1 == out2
    assert first.read_bytes() == second.read_bytes()


def test_unsupported_format_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--format", "json"])
    assert exc.value.code == 2


#: The one line each config that leaves the number range prints.
OVERFLOW_LINES = {
    # A level's span or classical latency is past the float range.
    "[link]\nc_signal_km_s = 1e-310\n":
        "Overflow: level 1 latency is not a finite float (span 50.0 km)\n",
    "[link]\nd_km = 1e308\n":
        "Overflow: level 1 latency is not a finite float (span inf km)\n",
    f"[chain]\nepp_rounds_per_level = {10**400}\n"
    "[memory]\nmode = exponential\ntau_s = 0.01\n":
        "Overflow: level 1 latency is not a finite float (span 50.0 km)\n",
    # The chain degenerates before its level spans overflow, so the first
    # value past the float range is the total distance of a deeper depth.
    "[link]\nd_km = 1e300\n[sweep]\nstop = 30\n":
        "Overflow: depth 28: total distance is past the float range\n",
    # l**x itself is past the float range before its product with d_km is.
    "[link]\nd_km = 0.1\nf0 = 0.99\n"
    "[chain]\nn = 1100\nepp_rounds_per_level = 3\n":
        "Overflow: level 1024 latency is not a finite float (span inf km)\n",
    "[link]\nd_km = 0.1\n[sweep]\nstop = 1100\n":
        "Overflow: depth 1024: total distance is past the float range\n",
}


@pytest.mark.parametrize("command, ini", [
    ("trace", "[link]\nc_signal_km_s = 1e-310\n"),
    ("trace", "[link]\nd_km = 1e308\n"),
    ("rate-sweep", "[link]\nd_km = 1e308\n"),
    ("threshold", f"[chain]\nepp_rounds_per_level = {10**400}\n"
                  "[memory]\nmode = exponential\ntau_s = 0.01\n"),
    ("rate-sweep", "[link]\nd_km = 1e300\n[sweep]\nstop = 30\n"),
    ("trace", "[link]\nd_km = 0.1\nf0 = 0.99\n"
              "[chain]\nn = 1100\nepp_rounds_per_level = 3\n"),
    ("rate-sweep", "[link]\nd_km = 0.1\n[sweep]\nstop = 1100\n"),
])
def test_pair_count_overflow_is_one_line_not_a_traceback(capsys, tmp_path,
                                                         command, ini):
    cfg = write(tmp_path, "deep.ini", ini)
    code, out, err = run_cli(capsys, command, "--config", cfg,
                             *out_option(command, tmp_path / "out.csv"))
    assert code == 1
    assert out == OVERFLOW_LINES[ini]
    assert err == ""
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["swap", "trace", "threshold", "rate-sweep"])
def test_an_l_past_the_float_range_is_named(capsys, tmp_path, command):
    # The swap map's float power k**(l - 1) is the first place l must fit.
    cfg = write(tmp_path, "wide.ini", f"[chain]\nl = {'1' * 401}\n"
                "[memory]\nmode = exponential\ntau_s = 1\n")
    code, out, err = run_cli(capsys, command, "--config", cfg,
                             *out_option(command, tmp_path / "out.csv"))
    assert code == 1
    assert out == "Overflow: l has 401 digits, past the float range\n"
    assert err == ""
    assert not (tmp_path / "out.csv").exists()


def test_trace_pair_count_too_long_to_print_writes_nothing(capsys, tmp_path):
    cfg = write(tmp_path, "deep.ini", "[chain]\nn = 10000\n")
    out_path = tmp_path / "out.csv"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run_cli(capsys, "trace", "--config", cfg, "--out",
                                 str(out_path))
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 1
    assert out == ("Overflow: pair count of about 2**20001 has more than "
                   "4300 digits\n")
    assert err == ""
    assert not out_path.exists()


def test_rate_sweep_lists_no_depth_it_never_reaches(capsys, tmp_path):
    # Past depth 1020 the total distance leaves the float range; listing all
    # million depths first peaked near 100 MB.
    cfg = write(tmp_path, "deep.ini", "[sweep]\nstop = 1000000\n")
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "rate-sweep", "--config", cfg, "--out",
                                 str(tmp_path / "out.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (1, "")
    assert out == "Overflow: depth 1020: total distance is past the float range\n"
    assert peak < 5_000_000


def test_trace_refuses_a_huge_purification_depth_without_building_the_count(
        capsys, tmp_path):
    cfg = write(tmp_path, "deep.ini", "[chain]\nn = 1\nepp_rounds_per_level = 100000000\n")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "trace", "--config", cfg, "--out",
                                 str(tmp_path / "out.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sys.set_int_max_str_digits(limit)
    assert (code, err) == (1, "")
    assert out == ("Overflow: pair count of about 2**100000002 has more than "
                   "4300 digits\n")
    assert peak < 1_000_000


@pytest.mark.parametrize("command, ini", [
    ("rate-sweep", "[chain]\nepp_rounds_per_level = 10000\n"),
    ("threshold", "[chain]\nepp_rounds_per_level = 10000\n"
                  "[memory]\nmode = exponential\ntau_s = 1000\n"),
])
def test_a_walk_past_the_printable_pair_count_stops_where_it_gets_there(
        capsys, tmp_path, command, ini):
    # Level 2 would hold 2**20002 pairs after 4,288 of its 10,000 rounds.
    cfg = write(tmp_path, "deep.ini", ini)
    out_path = tmp_path / "out.csv"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, command, "--config", cfg,
                                 *out_option(command, out_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sys.set_int_max_str_digits(limit)
    assert (code, err) == (1, "")
    assert out == "Overflow: pair count of about 2**14289 has more than 4300 digits\n"
    assert not out_path.exists()
    assert peak < 5_000_000


def test_threshold_answers_before_a_deeper_level_overflows(capsys, tmp_path):
    # Level 5 crosses f_min; level 8's span is past the float range, but the
    # walk never gets there.
    cfg = write(tmp_path, "far.ini",
                "[link]\nd_km = 1e306\n[chain]\nn = 10\nepp_rounds_per_level = 0\n"
                "[memory]\nmode = exponential\ntau_s = 1e308\n")
    code, out, err = run_cli(capsys, "threshold", "--config", cfg)
    assert (code, err) == (0, "")
    assert out == ("D_th_km=3.2e+307 level=5 f_min=0.5 "
                   "crossing_fidelity=0.379826849884\n")


def test_trace_prints_a_pair_count_past_64_bits(capsys, tmp_path):
    cfg = write(tmp_path, "deep.ini", "[chain]\nn = 32\n")
    out_path = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, "trace", "--config", cfg, "--out",
                             str(out_path))
    assert (code, err) == (0, "")
    assert "resource_count=18446744073709551616\n" in out  # 4**32, exactly
    assert out_path.exists()


def test_rate_sweep_past_64_bit_pair_counts(capsys, tmp_path):
    cfg = write(tmp_path, "deep.ini", "[sweep]\nstop = 32\n")
    out_path = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, "rate-sweep", "--config", cfg, "--out",
                             str(out_path))
    assert (code, err) == (0, "")
    assert len([ln for ln in out.splitlines() if ln.startswith("fit ")]) == 5
    assert len(curves_from_csv(out_path.read_text(encoding="utf-8"))) == 5


def test_rate_sweep_past_the_float_range_of_pair_counts(capsys, tmp_path):
    # Ideal gates and memory keep the chain far from the mixed state, while
    # each level costs 2 * 2**3 = 16 pairs: 16**255 = 2**1020 pairs still fit
    # a float, 16**256 does not, and the resource rate below 2**-1024 is 0.
    cfg = write(tmp_path, "deep.ini",
                "[link]\nf0 = 0.99\n[chain]\nepp_rounds_per_level = 3\n"
                "[sweep]\nstop = 300\n")
    out_path = tmp_path / "out.csv"
    code, _, err = run_cli(capsys, "rate-sweep", "--config", cfg, "--out",
                           str(out_path))
    assert (code, err) == (0, "")
    depths = {
        (curve.regime, curve.points[0].metric):
            [round(math.log2(d / 25.0)) for d in curve.distances]
        for curve in curves_from_csv(out_path.read_text(encoding="utf-8"))
        if curve.regime != "direct"
    }
    for (regime, metric), values in depths.items():
        last = 255 if metric == "resource_normalized" else 300
        assert values == list(range(1, last + 1)), (regime, metric)


def test_link_fidelity_at_the_degeneracy_floor_is_a_config_error(capsys,
                                                                 tmp_path):
    cfg = write(tmp_path, "floor.ini", "[link]\nf0 = 0.2500000000005\n")
    code, out, err = run_cli(capsys, "trace", "--config", cfg, "--out",
                             str(tmp_path / "t.csv"))
    assert code == 2
    assert out == ""
    assert err.startswith("config error: section [link]")


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["7", "nan", "-0.1", "inf"])
def test_f_useful_outside_unit_interval_is_a_config_error(capsys, tmp_path,
                                                          value):
    cfg = write(tmp_path, "fu.ini", BASELINE_INI + f"\n[rate]\nf_useful = {value}\n")
    code, out, err = run_cli(capsys, "rate-sweep", "--config", cfg, "--out",
                             str(tmp_path / "rates.csv"))
    assert code == 2
    assert out == ""
    assert err.startswith("config error: section [rate]")


@pytest.mark.parametrize("command", ["purify", "swap"])
@pytest.mark.parametrize("value", ["1.5", "nan", "-0.1"])
def test_query_fidelity_outside_unit_interval_is_a_config_error(
        capsys, tmp_path, command, value):
    cfg = write(tmp_path, "q.ini", f"[query]\nf = {value}\n")
    code, out, err = run_cli(capsys, command, "--config", cfg)
    assert code == 2
    assert out == ""
    assert err.startswith("config error: section [query]: f must")


@pytest.mark.parametrize("key", ["m", "c_es", "c_epp"])
def test_protocol_constants_are_not_chain_keys(capsys, tmp_path, key):
    # Two pairs per round and 1 + 2k messages per level are the protocol's.
    cfg = write(tmp_path, "chain.ini", f"[chain]\n{key} = 2\n")
    code, out, err = run_cli(capsys, "fixed-points", "--config", cfg)
    assert (code, out) == (2, "")
    assert err == f"config error: section [chain]: unknown key '{key}'\n"


def test_sweep_has_no_parameter_key(capsys, tmp_path):
    cfg = write(tmp_path, "sw.ini", "[sweep]\nparameter = n\n")
    code, out, err = run_cli(capsys, "rate-sweep", "--config", cfg, "--out",
                             str(tmp_path / "rates.csv"))
    assert (code, out) == (2, "")
    assert err == "config error: section [sweep]: unknown key 'parameter'\n"


@pytest.mark.parametrize("ini, message", [
    ("[memory]\ntau_s = 0.01\n", "tau_s only applies to mode=exponential"),
    ("[memory]\nmode = exponential\n", "mode=exponential requires tau_s"),
    ("[sweep]\nstart = 5\nstop = 4\n", "stop must lie in [5, inf), got 4"),
    ("[sweep]\nstart = -1\n", "start must lie in [0, inf), got -1"),
    ("[sweep]\nstep = 0\n", "step must lie in [1, inf), got 0"),
])
def test_section_rules_come_from_the_objects_they_build(capsys, tmp_path, ini,
                                                        message):
    cfg = write(tmp_path, "rule.ini", ini)
    section = ini[1:ini.index("]")]
    code, out, err = run_cli(capsys, "trace", "--config", cfg, "--out",
                             str(tmp_path / "t.csv"))
    assert (code, out) == (2, "")
    assert err == f"config error: section [{section}]: {message}\n"


@pytest.mark.parametrize("text", [
    "[gates]\np2 = 0.9\np2 = 0.8\n",
    "[gates]\np2 = 0.9\n[gates]\np1 = 0.9\n",
    "p2 = 0.9\n",
    "[gates]\np2 = 0.9\n  continued\n",
    "[gates]\np2 = 99%\n",
])
def test_malformed_ini_is_one_config_error_line(capsys, tmp_path, text):
    cfg = write(tmp_path, "bad.ini", text)
    code, out, err = run_cli(capsys, "swap", "--config", cfg)
    assert (code, out) == (2, "")
    assert err.startswith("config error: ")
    assert err.count("\n") == 1


def test_undecodable_config_file_is_a_config_error(capsys, tmp_path):
    path = tmp_path / "binary.ini"
    path.write_bytes(b"[gates]\np2 = \xff\xfe\n")
    code, out, err = run_cli(capsys, "swap", "--config", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("config error: ")
    assert err.count("\n") == 1


def test_importing_the_cli_loads_neither_rates_nor_numpy():
    # Checked in a fresh interpreter: only rate-sweep and threshold load
    # rates, and only oracle-check loads numpy, each when it runs.
    src = Path(repeaterlab.werner.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, repeaterlab.cli; "
         "print(sorted({'repeaterlab.rates', 'numpy'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert proc.stdout == "[]\n"


def test_reader_closing_the_pipe_early_is_not_a_traceback(tmp_path):
    # As in `repeaterlab rate-sweep ... | head -1`: the reader is gone by the
    # time the report is written.
    cfg = write(tmp_path, "base.ini", BASELINE_INI)
    src = Path(repeaterlab.werner.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repeaterlab.cli", "rate-sweep", "--config",
             cfg, "--out", str(tmp_path / "rates.csv")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1
