"""Schedule construction, chain simulation, resource accounting."""

import math
import sys
import tracemalloc

import pytest

import repeaterlab.chain as chain_module
from repeaterlab import (
    ChainConfig,
    FidelityTrace,
    GateNoiseParams,
    LinkModel,
    MemoryModel,
    ScheduleRound,
    TraceStep,
    build_schedule,
    expected_attempts,
    memory_decay,
    purify_noisy,
    resource_count,
    resource_scaling_form,
    round_time,
    simulate_chain,
    swap_chain_fidelity,
    sweep_rates,
    threshold_distance,
    trace_from_csv,
    trace_to_csv,
)
from repeaterlab.chain import MAX_SCHEDULE_LINKS

IDEAL = GateNoiseParams()
BASELINE = GateNoiseParams(p1=0.999, p2=0.99, eta=0.995)
LINK = LinkModel(d_km=25.0, f0=0.96)

# Pinned after the first verified run; every number is re-derived step by
# step in test_simulate_chain_baseline_recomposition below.
BASELINE_TRACE_CSV = """\
level,stage,fidelity,elapsed_seconds,pairs_consumed
0,init,0.96,0,1
1,after_es,0.905249552921,0,2
1,after_memory,0.857903504642,0.00075,2
1,after_epp,0.881937384109,0.00075,4
2,after_es,0.769084584994,0.00075,8
2,after_memory,0.696780242744,0.00225,8
2,after_epp,0.722349598808,0.00225,16
3,after_es,0.540012780748,0.00225,32
3,after_memory,0.464846752208,0.00525,32
3,after_epp,0.452638101313,0.00525,64
4,after_es,0.303374307201,0.00525,128
4,after_memory,0.27929244086,0.01125,128
4,after_epp,0.270399534794,0.01125,256
"""


def baseline_config(n=4, k=1):
    return ChainConfig(l=2, n=n, link=LINK, m=2, epp_rounds_per_level=k)


#: Every float field of the config objects: its name and a constructor
#: that takes a value for it.
FLOAT_FIELDS = [
    pytest.param("p1", lambda v: GateNoiseParams(p1=v), id="GateNoiseParams.p1"),
    pytest.param("p2", lambda v: GateNoiseParams(p2=v), id="GateNoiseParams.p2"),
    pytest.param("eta", lambda v: GateNoiseParams(eta=v), id="GateNoiseParams.eta"),
    pytest.param("d_km", lambda v: LinkModel(d_km=v), id="LinkModel.d_km"),
    pytest.param("f0", lambda v: LinkModel(f0=v), id="LinkModel.f0"),
    pytest.param("alpha_db_per_km", lambda v: LinkModel(alpha_db_per_km=v),
                 id="LinkModel.alpha_db_per_km"),
    pytest.param("c_signal_km_s", lambda v: LinkModel(c_signal_km_s=v),
                 id="LinkModel.c_signal_km_s"),
    pytest.param("c_es", lambda v: ChainConfig(l=2, n=2, link=LINK, c_es=v),
                 id="ChainConfig.c_es"),
    pytest.param("c_epp", lambda v: ChainConfig(l=2, n=2, link=LINK, c_epp=v),
                 id="ChainConfig.c_epp"),
    pytest.param("tau_s", MemoryModel.exponential, id="MemoryModel.exponential"),
]


@pytest.mark.parametrize("name, make", FLOAT_FIELDS)
def test_float_fields_refuse_a_bool_as_int_fields_do(name, make):
    make(1.0)  # the same value as a number is accepted
    for flag in (True, False):
        with pytest.raises(TypeError, match=f"^{name} must be a number, got {flag}$"):
            make(flag)


def test_chain_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(l=1, n=2, link=LINK)
    with pytest.raises(ValueError):
        ChainConfig(l=2, n=-1, link=LINK)
    with pytest.raises(ValueError):
        ChainConfig(l=2, n=2, link=LINK, m=1)
    with pytest.raises(ValueError):
        ChainConfig(l=2, n=2, link=LINK, epp_rounds_per_level=-1)
    with pytest.raises(TypeError):
        ChainConfig(l=2.0, n=2, link=LINK)
    with pytest.raises(TypeError):
        ChainConfig(l=True, n=2, link=LINK)
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            ChainConfig(l=2, n=2, link=LINK, c_es=bad)
        with pytest.raises(ValueError):
            ChainConfig(l=2, n=2, link=LINK, c_epp=bad)
    cfg = ChainConfig(l=3, n=2, link=LINK)
    assert cfg.checkpoints == 9
    assert cfg.total_distance_km == pytest.approx(225.0)


def test_build_schedule_two_levels_of_doubling():
    rounds = build_schedule(ChainConfig(l=2, n=2, link=LINK))
    assert len(rounds) == 2
    assert rounds[0].level == 1
    assert rounds[0].swap_checkpoints == (1, 3)
    assert rounds[0].purify_checkpoints == (2,)
    assert rounds[1].swap_checkpoints == (2,)
    assert rounds[1].purify_checkpoints == ()


def test_build_schedule_single_level_of_tripling():
    (only,) = build_schedule(ChainConfig(l=3, n=1, link=LINK))
    assert only.swap_checkpoints == (1, 2)
    assert only.purify_checkpoints == ()


def test_build_schedule_three_levels_middle_round():
    rounds = build_schedule(ChainConfig(l=2, n=3, link=LINK))
    assert rounds[1].swap_checkpoints == (2, 6)
    assert rounds[1].purify_checkpoints == (4,)


def rule_based_schedule(l, n):
    """Direct transcription of the index rule, built set-style."""
    big_n = l**n
    rounds = []
    for x in range(1, n + 1):
        coarse = {k * l ** (x - 1) for k in range(1, l ** (n - x + 1) + 1)}
        fine = {k * l**x for k in range(1, l ** (n - x) + 1)}
        swaps = tuple(sorted(coarse - fine))
        purifies = tuple(sorted(k * l**x for k in range(1, l ** (n - x))))
        rounds.append((x, swaps, purifies))
        assert all(0 < i < big_n for i in swaps + purifies)
    return rounds


def test_build_schedule_matches_rule_based_enumeration_spot():
    for l, n in ((2, 4), (3, 3), (4, 2)):
        built = build_schedule(ChainConfig(l=l, n=n, link=LINK))
        expected = rule_based_schedule(l, n)
        assert [(r.level, r.swap_checkpoints, r.purify_checkpoints)
                for r in built] == expected


def test_schedule_sets_partition_active_stations():
    for l, n in ((2, 3), (3, 2)):
        cfg = ChainConfig(l=l, n=n, link=LINK)
        big_n = cfg.checkpoints
        for r in build_schedule(cfg):
            swaps = set(r.swap_checkpoints)
            purifies = set(r.purify_checkpoints)
            assert not swaps & purifies
            stride = l ** (r.level - 1)
            active = {i for i in range(stride, big_n, stride)}
            assert swaps | purifies == active


def test_build_schedule_refuses_chains_past_its_bound():
    assert MAX_SCHEDULE_LINKS == 2**16 >= 4**5
    deepest = build_schedule(ChainConfig(l=2, n=16, link=LINK))
    assert deepest[-1] == ScheduleRound(16, (2**15,), ())
    # Refused before anything is built: n = 10**9 would need l**n itself.
    for l, n in ((2, 17), (4, 9), (257, 2), (2**16 + 1, 1), (2, 10**9)):
        with pytest.raises(ValueError, match="exceeds 65536 links"):
            build_schedule(ChainConfig(l=l, n=n, link=LINK))


def test_round_time_values():
    cfg = ChainConfig(l=2, n=3, link=LINK, epp_rounds_per_level=1,
                      c_es=1.0, c_epp=2.0)
    # one correction message plus one two-way purification exchange over
    # 2^3 * 25 km at 2e5 km/s
    assert round_time(3, cfg) == pytest.approx(3e-3, abs=1e-18)
    bare = ChainConfig(l=2, n=3, link=LINK, epp_rounds_per_level=0)
    assert round_time(1, bare) == pytest.approx(50.0 / 2e5, abs=1e-18)
    assert round_time(2, bare) == pytest.approx(2 * round_time(1, bare), abs=1e-18)
    with pytest.raises(ValueError):
        round_time(0, cfg)
    with pytest.raises(ValueError):
        round_time(4, cfg)


@pytest.mark.parametrize("link, messages", [
    (LinkModel(d_km=1e308), 1.0),  # the span itself is past the float range
    (LinkModel(c_signal_km_s=1e-310), 1.0),  # so is span / signal speed
    (LinkModel(), 1e308),  # and so is the message count times the time
])
def test_round_time_past_the_float_range_is_an_overflow(link, messages):
    cfg = ChainConfig(l=2, n=1, link=link, c_es=messages, c_epp=messages)
    with pytest.raises(OverflowError, match="level 1 latency is not a finite float"):
        round_time(1, cfg)


def test_simulate_chain_everything_perfect():
    link = LinkModel(d_km=25.0, f0=1.0)
    cfg = ChainConfig(l=2, n=5, link=link, epp_rounds_per_level=0)
    trace = simulate_chain(cfg, IDEAL, MemoryModel.none())
    assert not trace.degenerate
    assert all(s.fidelity == pytest.approx(1.0, abs=1e-12) for s in trace.steps)
    assert trace.total_pairs_consumed == 32


def test_simulate_chain_single_level_equals_swap_map():
    cfg = ChainConfig(l=2, n=1, link=LINK, epp_rounds_per_level=0)
    trace = simulate_chain(cfg, IDEAL, MemoryModel.none())
    assert [s.stage for s in trace.steps] == ["init", "after_es", "after_memory"]
    assert trace.final_fidelity == pytest.approx(0.9221333333333332, abs=1e-15)
    # time passes for the correction message even though nothing decays
    assert trace.total_elapsed_seconds == pytest.approx(50.0 / 2e5, abs=1e-18)


def test_simulate_chain_n_zero_is_a_bare_link():
    cfg = ChainConfig(l=2, n=0, link=LINK)
    trace = simulate_chain(cfg, BASELINE, MemoryModel.exponential(1e-3))
    assert len(trace.steps) == 1
    assert trace.steps[0].stage == "init"
    assert trace.final_fidelity == 0.96
    assert trace.total_elapsed_seconds == 0.0
    assert trace.total_pairs_consumed == 1


def test_simulate_chain_baseline_golden():
    trace = simulate_chain(baseline_config(), BASELINE,
                           MemoryModel.exponential(10e-3))
    assert trace_to_csv(trace) == BASELINE_TRACE_CSV
    assert not trace.degenerate


def test_simulate_chain_baseline_recomposition():
    mem = MemoryModel.exponential(10e-3)
    cfg = baseline_config()
    trace = simulate_chain(cfg, BASELINE, mem)
    steps = iter(trace.steps)
    first = next(steps)
    assert (first.level, first.stage, first.fidelity) == (0, "init", 0.96)
    f, elapsed, pairs = 0.96, 0.0, 1
    for x in range(1, 5):
        f = swap_chain_fidelity(f, 2, BASELINE)
        pairs *= 2
        s = next(steps)
        assert (s.level, s.stage) == (x, "after_es")
        assert s.fidelity == pytest.approx(f, abs=1e-15)
        assert s.pairs_consumed == pairs
        dt = 3.0 * (2**x * 25.0) / 2e5
        f = memory_decay(f, dt, mem)
        elapsed += dt
        s = next(steps)
        assert (s.level, s.stage) == (x, "after_memory")
        assert s.fidelity == pytest.approx(f, abs=1e-15)
        assert s.elapsed_seconds == pytest.approx(elapsed, abs=1e-18)
        f = purify_noisy(f, BASELINE)
        pairs *= 2
        s = next(steps)
        assert (s.level, s.stage) == (x, "after_epp")
        assert s.fidelity == pytest.approx(f, abs=1e-15)
        assert s.pairs_consumed == pairs
    assert next(steps, None) is None


def test_simulate_chain_monotone_accounting():
    trace = simulate_chain(baseline_config(n=5, k=2), BASELINE,
                           MemoryModel.exponential(5e-3))
    elapsed = [s.elapsed_seconds for s in trace.steps]
    pairs = [s.pairs_consumed for s in trace.steps]
    levels = [s.level for s in trace.steps]
    assert elapsed == sorted(elapsed)
    assert pairs == sorted(pairs)
    assert levels == sorted(levels)


def test_simulate_chain_degenerate_truncation():
    cfg = baseline_config(n=6, k=0)
    trace = simulate_chain(cfg, BASELINE, MemoryModel.exponential(1e-7))
    assert trace.degenerate
    assert trace.final_fidelity <= 0.25 + 1e-12
    # truncated well before the full 1 + 6*2 records
    assert len(trace.steps) < 13


def test_resource_count_closed_forms():
    def cfg(l, m, n, k=1):
        return ChainConfig(l=l, n=n, link=LINK, m=m, epp_rounds_per_level=k)

    assert resource_count(cfg(2, 2, 3)) == 64
    assert resource_count(cfg(3, 2, 2)) == 36
    assert resource_count(cfg(4, 3, 0)) == 1
    # two three-pair purification rounds make each level cost l * m**2
    assert resource_count(cfg(2, 3, 2, k=2)) == (2 * 9) ** 2
    assert resource_scaling_form(cfg(2, 2, 3)) == pytest.approx(64.0, rel=1e-12)
    assert resource_scaling_form(cfg(3, 2, 2)) == pytest.approx(36.0, rel=1e-12)
    assert resource_scaling_form(cfg(4, 3, 0)) == pytest.approx(1.0, rel=1e-12)
    # Counts are exact past 64 bits; only a count too long to print is refused.
    assert resource_count(cfg(5, 5, 28)) == 25**28
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(OverflowError, match="more than 4300 digits"):
            resource_count(cfg(2, 2, 10000))  # 4**10000 has 6,021 digits
        # Near the limit the count is still built and printed or refused
        # exactly: 10**4299 has 4,300 digits, 10**4300 one too many.
        assert resource_count(cfg(10, 2, 4299, k=0)) == 10**4299
        with pytest.raises(OverflowError, match="more than 4300 digits"):
            resource_count(cfg(10, 2, 4300, k=0))
        # A purification depth past the float range is refused too, and a
        # chain of no levels still counts one pair for any depth.
        with pytest.raises(OverflowError, match="more than 4300 digits"):
            resource_count(cfg(2, 2, 1, k=10**400))
        assert resource_count(cfg(2, 2, 0, k=10**400)) == 1
        # No limit, no refusal.
        sys.set_int_max_str_digits(0)
        assert resource_count(cfg(2, 2, 10000)) == 4**10000
    finally:
        sys.set_int_max_str_digits(limit)


def test_resource_count_refuses_a_huge_depth_without_building_the_count():
    # (2 * 2)**(10**8) alone would take 25 MB and seconds to build, and
    # 2**(10**8), the purification factor of 10**8 rounds, 12.5 MB.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    tracemalloc.start()
    try:
        for n, k, bits in ((10**8, 1, 200000001), (1, 10**8, 100000002)):
            with pytest.raises(OverflowError, match=rf"about 2\*\*{bits} has"):
                resource_count(ChainConfig(l=2, n=n, link=LINK, epp_rounds_per_level=k))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sys.set_int_max_str_digits(limit)
    assert peak < 1_000_000


def test_the_walk_refuses_a_pair_count_where_it_builds_it():
    # At 4,300 digits, 2**14287 (4,301 digits) is left to the exact check of
    # whoever prints it; 2**14288 is a digit further and the walk refuses it.
    def cfg(k):
        return ChainConfig(l=2, n=1, link=LINK, epp_rounds_per_level=k)

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        # The attempts, never fewer than the pairs, leave the float range
        # long before the pair count reaches the limit.
        for k in (14286, 14287):
            assert expected_attempts(cfg(k), IDEAL, MemoryModel.none()) == math.inf
        with pytest.raises(OverflowError, match="more than 4300 digits"):
            resource_count(cfg(14286))
        for reader in (simulate_chain, threshold_distance):
            with pytest.raises(OverflowError, match=r"about 2\*\*14289 has more than 4300"):
                reader(cfg(14287), IDEAL, MemoryModel.exponential(1e3))
        with pytest.raises(OverflowError, match=r"about 2\*\*14289 has"):
            sweep_rates(cfg(14287), IDEAL, MemoryModel.none(), [1])
        # No limit, no refusal.
        sys.set_int_max_str_digits(0)
        assert expected_attempts(cfg(14287), IDEAL, MemoryModel.none()) == math.inf
    finally:
        sys.set_int_max_str_digits(limit)


def test_the_walk_refuses_a_pair_count_built_by_a_swap():
    # Level 1 ends at 2**14287, the largest count the walk hands on at 4,300
    # digits; level 2's swap doubles it past that.
    cfg = ChainConfig(l=2, n=2, link=LinkModel(), epp_rounds_per_level=14286)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    seen = []
    try:
        with pytest.raises(OverflowError, match=r"about 2\*\*14289 has more than 4300 digits"):
            for step in chain_module._walk(cfg, IDEAL, MemoryModel.none()):
                seen.append((step.level, step.stage))
    finally:
        sys.set_int_max_str_digits(limit)
    assert seen[-1] == (1, "after_epp")


def test_expected_attempts_past_the_float_range_of_m_is_infinite():
    cfg = ChainConfig(l=2, n=1, link=LINK, m=10**400, epp_rounds_per_level=1)
    assert expected_attempts(cfg, IDEAL, MemoryModel.none()) == math.inf


@pytest.mark.parametrize("name", ["purify_noisy", "swap_chain_fidelity", "memory_decay"])
def test_every_walk_reader_sees_a_map_rebound_in_chain(monkeypatch, name):
    # A profiler or a test double replaces a map by rebinding the name the
    # walk looks up in this module; every reader of the walk must see it.
    link = LinkModel(d_km=25.0, f0=0.96, c_signal_km_s=3e5)
    cfg = ChainConfig(l=2, n=4, link=link, epp_rounds_per_level=1)
    mem = MemoryModel.exponential(5e-3)

    def readers():
        return (
            simulate_chain(cfg, BASELINE, mem),
            sweep_rates(cfg, BASELINE, mem, [1, 2, 3, 4]),
            threshold_distance(cfg, BASELINE, mem),
            expected_attempts(cfg, BASELINE, mem),
        )

    before = readers()
    original = getattr(chain_module, name)
    monkeypatch.setattr(chain_module, name, lambda *args: original(*args) * (1 - 1e-9))
    after = readers()
    assert [a != b for a, b in zip(before, after)] == [True] * 4


def test_trace_csv_refuses_a_pair_count_past_the_int_to_str_limit():
    cfg = ChainConfig(l=2, n=700, link=LinkModel(), epp_rounds_per_level=20)
    limit = sys.get_int_max_str_digits()
    # The walk itself refuses such a count, so build the trace with no limit.
    sys.set_int_max_str_digits(0)
    try:
        trace = simulate_chain(cfg, GateNoiseParams(), MemoryModel.none())
        sys.set_int_max_str_digits(4300)
        with pytest.raises(OverflowError, match="more than 4300 digits"):
            trace_to_csv(trace)
        # The bound is exact: 4,300 digits are written, 4,301 refused.
        for count, fits in ((10**4299, True), (10**4300, False)):
            edge = FidelityTrace((TraceStep(0, "init", 0.9, 0.0, count),))
            if fits:
                assert trace_to_csv(edge).endswith(f",{count}\n")
            else:
                with pytest.raises(OverflowError):
                    trace_to_csv(edge)
    finally:
        sys.set_int_max_str_digits(limit)


def test_expected_attempts_reduces_to_resource_count():
    lossless = LinkModel(d_km=25.0, f0=1.0, alpha_db_per_km=0.0)
    cfg = ChainConfig(l=2, n=3, link=lossless, m=2, epp_rounds_per_level=1)
    attempts = expected_attempts(cfg, IDEAL, MemoryModel.none())
    assert attempts == pytest.approx(resource_count(cfg), rel=1e-12)


def test_expected_attempts_includes_link_and_epp_failures():
    cfg = ChainConfig(l=2, n=2, link=LINK, m=2, epp_rounds_per_level=0)
    # with no purification the only correction is the per-pair 1/p_link
    p_link = 10.0 ** (-0.2 * 25.0 / 10.0)
    attempts = expected_attempts(cfg, BASELINE, MemoryModel.none())
    assert attempts == pytest.approx(resource_count(cfg) / p_link, rel=1e-12)
    with_epp = ChainConfig(l=2, n=2, link=LINK, m=2, epp_rounds_per_level=1)
    assert expected_attempts(with_epp, BASELINE, MemoryModel.none()) > (
        resource_count(with_epp) / p_link
    )


def test_expected_attempts_walks_past_degeneracy():
    # The trace stops after 3 steps; the attempt count still runs all 6
    # levels, with this exact value.
    cfg = baseline_config(n=6, k=1)
    mem = MemoryModel.exponential(1e-7)
    assert len(simulate_chain(cfg, BASELINE, mem).steps) == 3
    assert expected_attempts(cfg, BASELINE, mem) == 828972.1149471796


def test_trace_csv_round_trip():
    trace = simulate_chain(baseline_config(), BASELINE,
                           MemoryModel.exponential(10e-3))
    text = trace_to_csv(trace)
    parsed = trace_from_csv(text)
    assert trace_to_csv(parsed) == text
    assert parsed.degenerate == trace.degenerate
    assert len(parsed.steps) == len(trace.steps)


def test_trace_csv_keeps_a_fidelity_just_above_the_floor():
    # This chain ends 1.2e-12 above 1/4, a hair above DEGENERACY_THRESHOLD;
    # at 12 digits it would print as 0.250000000001 and read back as
    # degenerate.
    link = LinkModel(d_km=22.588694, f0=0.935041)
    cfg = ChainConfig(l=3, n=4, link=link, epp_rounds_per_level=0)
    trace = simulate_chain(cfg, GateNoiseParams(0.978733, 0.872272, 0.976441),
                           MemoryModel.exponential(0.122675))
    assert not trace.degenerate
    assert trace.final_fidelity < 0.25 + 2e-12
    parsed = trace_from_csv(trace_to_csv(trace))
    assert not parsed.degenerate
    assert parsed.final_fidelity == trace.final_fidelity
    assert trace_to_csv(parsed) == trace_to_csv(trace)


def test_trace_csv_rejects_malformed_input():
    with pytest.raises(ValueError):
        trace_from_csv("wrong,header\n")
    with pytest.raises(ValueError):
        trace_from_csv(
            "level,stage,fidelity,elapsed_seconds,pairs_consumed\n"
            "0,meditating,0.9,0,1\n"
        )
    with pytest.raises(ValueError):
        trace_from_csv("level,stage,fidelity,elapsed_seconds,pairs_consumed\n")
    header = "level,stage,fidelity,elapsed_seconds,pairs_consumed\n0,init,0.9,0,1\n"
    for row in ("1,after_es,nan,0,2", "1,after_es,7.5,0,2", "1,after_es,-0.1,0,2",
                "1,after_memory,0.8,-1,2", "1,after_memory,0.8,inf,2",
                "1,after_memory,0.8,nan,2", "1,after_epp,0.8,0.1,-5",
                "1,after_epp,0.8,0.1,0"):
        with pytest.raises(ValueError, match=f"row 2 is out of range: '{row}'"):
            trace_from_csv(header + row + "\n")
    # A row that does not parse is named too.
    for row, message in (("x,after_es,0.8,0,2", "invalid literal for int"),
                         ("1,after_es,abc,0,2", "could not convert string to float"),
                         ("1,after_epp,0.8,0.1," + "9" * 5000, "Exceeds the limit"),
                         ("1,meditating,0.8,0,2", "unknown trace stage 'meditating'"),
                         ("1,after_es,0.8,0", "expected 5 CSV columns")):
        with pytest.raises(ValueError, match=f"^trace CSV row 2: {message}"):
            trace_from_csv(header + row + "\n")
    # A walk can end a rounding error below 1/4; such a row still reads back.
    floor = trace_from_csv(header + "1,after_es,0.24999999999999994,0,2\n")
    assert floor.degenerate
    assert floor.final_fidelity == 0.24999999999999994
