"""Property tests: invariants of the maps and of the CSV round trips."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repeaterlab import (
    ChainConfig,
    GateNoiseParams,
    LinkModel,
    MemoryModel,
    curves_from_csv,
    curves_to_csv,
    purify_noisy,
    purify_success_probability,
    simulate_chain,
    swap_chain_fidelity,
    sweep_rates,
    trace_from_csv,
    trace_to_csv,
)

PROPERTY = settings(max_examples=200, deadline=None)

#: Rounding slack of a map's output: a few units in the last place of a
#: fidelity.  At f = 1/4 purification returns 0.24999999999999997 for some
#: gates, and neighbouring inputs can swap order by an ulp or two.
ULP_SLACK = 1e-15

unit = st.floats(0.0, 1.0, exclude_min=True)
gates = st.builds(
    GateNoiseParams,
    p1=unit,
    p2=st.floats(1.5e-154, 1.0),
    eta=st.floats(0.5, 1.0, exclude_min=True),
)
fidelity = st.floats(0.25, 1.0)


def in_range(f: float) -> bool:
    return 0.25 - ULP_SLACK <= f <= 1.0 + ULP_SLACK


@PROPERTY
@given(gates, fidelity, fidelity)
def test_purify_stays_physical_and_monotone(g, a, b):
    lo, hi = sorted((a, b))
    f_lo, f_hi = purify_noisy(lo, g), purify_noisy(hi, g)
    assert in_range(f_lo) and in_range(f_hi)
    assert f_lo <= f_hi + ULP_SLACK
    assert 0.0 < purify_success_probability(lo, g) <= 1.0


@PROPERTY
@given(gates, fidelity, fidelity, st.sampled_from((2, 3)))
def test_swap_stays_physical_and_monotone(g, a, b, l):
    lo, hi = sorted((a, b))
    f_lo, f_hi = swap_chain_fidelity(lo, l, g), swap_chain_fidelity(hi, l, g)
    assert in_range(f_lo) and in_range(f_hi)
    assert f_lo <= f_hi + ULP_SLACK


memories = st.one_of(
    st.just(MemoryModel.none()),
    st.floats(1e-9, 10.0).map(MemoryModel.exponential),
)


@PROPERTY
@given(
    g=gates,
    mem=memories,
    f0=fidelity,
    d_km=st.floats(0.1, 100.0),
    l=st.integers(2, 4),
    n=st.integers(0, 4),
    m=st.integers(2, 3),
    k=st.integers(0, 2),
    f_useful=st.floats(0.0, 1.0),
)
@example(g=GateNoiseParams(), mem=MemoryModel.none(), f0=0.25 + 5e-13,
         d_km=25.0, l=2, n=0, m=2, k=1, f_useful=0.5)
def test_accepted_chains_round_trip_through_csv(g, mem, f0, d_km, l, n, m, k,
                                                f_useful):
    try:
        link = LinkModel(d_km=d_km, f0=f0)
    except ValueError:
        return  # not an accepted chain
    cfg = ChainConfig(l=l, n=n, link=link, m=m, epp_rounds_per_level=k)

    trace = simulate_chain(cfg, g, mem)
    text = trace_to_csv(trace)
    parsed = trace_from_csv(text)
    assert parsed.degenerate == trace.degenerate
    assert len(parsed.steps) == len(trace.steps)
    assert trace_to_csv(parsed) == text

    curves = sweep_rates(cfg, g, mem, range(n + 1), f_useful)
    text = curves_to_csv(curves)
    parsed_curves = curves_from_csv(text)
    assert curves_to_csv(parsed_curves) == text
    # An empty curve writes no rows, so only the others come back.
    kept = [c for c in curves if c.points]
    assert [c.regime for c in parsed_curves] == [c.regime for c in kept]
    assert [len(c.points) for c in parsed_curves] == [len(c.points) for c in kept]
