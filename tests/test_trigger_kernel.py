"""The trigger kernel against the slot-by-slot oracle.

`engine.run` runs full-spectrum, static and entry sharing on one array
kernel; `scalar_trigger.scalar_run` is the per-slot loop it replaced, still
driving `static_sharing.step` and `entry.entry_step`.  Every trace row must
agree, floats by `float.hex` and widths by type too (an empty support's
width is the integer 0, which `trace.csv` prints as `0`), and so must every
`RevenueReport` field, with and without the trace.
"""

import pytest
from hypothesis import given, settings, strategies as st

from bandshare.engine import (
    FULL_BAND,
    USE_WIDTH,
    DeviationInjector,
    EntryScheme,
    FullSpectrumScheme,
    Scenario,
    StaticScheme,
    replicate,
    run,
    summarize,
)
from bandshare.entry import EntryParams
from bandshare.static_sharing import COOPERATION, PUNISHMENT, StaticParams
from bandshare.traffic import finite_levels, two_level
from bandshare.utility import CobbDouglasUtility, LinearUtility, UtilityModel
from scalar_trigger import scalar_run

W = 100.0
MODEL = UtilityModel(W, 1000.0, family=CobbDouglasUtility())
HORIZON = 30
HALF = two_level(0.5)
SPECS = [two_level(0.25), HALF, finite_levels([(0.0, 0.2), (1.0, 0.5), (3.0, 0.3)])]


def exact(trace, report):
    """Everything a run returns, with floats as `float.hex` and widths typed."""
    rows = None
    if trace is not None:
        rows = [
            (slot, op, lam.hex(), type(w).__name__, float(w).hex(), u.hex(), b.hex(), phase)
            for slot, op, lam, w, u, b, phase in trace.rows()
        ]
    revenues = [r.hex() for r in report.revenues]
    return rows, revenues, report.tail_bound.hex(), report.discount, report.horizon


def assert_kernel_matches_oracle(scenario, injectors=(), replication=0):
    for collect in (True, False):
        got = run(scenario, injectors, replication=replication, collect_trace=collect)
        want = scalar_run(scenario, injectors, replication=replication, collect_trace=collect)
        assert exact(*got) == exact(*want)


@st.composite
def injector_sets(draw, n, horizon):
    """Up to three support overrides: full band, or a block of any width (0 too)."""
    injs = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from([FULL_BAND, USE_WIDTH]))
        width = None
        if kind == USE_WIDTH:
            width = draw(st.one_of(st.sampled_from([0.0, W / n, W]), st.floats(0.0, W)))
        injs.append(
            DeviationInjector(
                draw(st.integers(0, n - 1)),
                draw(st.integers(0, horizon - 1)),
                kind,
                width_mhz=width,
                persistent=draw(st.booleans()),
            )
        )
    return tuple(injs)


def scenario_of(scheme, specs, seed, horizon=HORIZON, model=MODEL):
    return Scenario(
        n=len(specs), model=model, traffic_specs=tuple(specs), scheme=scheme,
        discount=0.99, horizon=horizon, seed=seed,
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_static_kernel_matches_oracle(data):
    n = data.draw(st.integers(1, 10))
    shares = None
    if data.draw(st.booleans()):  # unequal shares
        weights = data.draw(st.lists(st.integers(1, 50), min_size=n, max_size=n))
        shares = tuple(w / sum(weights) for w in weights)
    grim = data.draw(st.booleans())
    t_len = data.draw(st.integers(1, 6))
    params = StaticParams(n, W, punishment_slots=t_len, grim=grim, shares=shares)
    specs = [data.draw(st.sampled_from(SPECS)) for _ in range(n)]
    scenario = scenario_of(StaticScheme(params), specs, data.draw(st.integers(0, 2**31)))
    injectors = data.draw(injector_sets(n, HORIZON))
    assert_kernel_matches_oracle(scenario, injectors, data.draw(st.integers(0, 3)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_entry_kernel_matches_oracle(data):
    n = data.draw(st.integers(1, 10))
    # 24.5 admits 14 operators, 60 admits 5, 150 admits 2 and 1e9 none
    cost = data.draw(st.sampled_from([24.5, 60.0, 150.0, 1e9]))
    # some arrivals may fall at or past the horizon
    arrivals = sorted(data.draw(st.sets(st.integers(0, HORIZON + 9), min_size=n, max_size=n)))
    params = EntryParams(cost=cost, model=MODEL, traffic=HALF, arrival_slots=tuple(arrivals))
    scenario = scenario_of(EntryScheme(params), [HALF] * n, data.draw(st.integers(0, 2**31)))
    assert_kernel_matches_oracle(scenario, data.draw(injector_sets(n, HORIZON)))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_full_spectrum_kernel_matches_oracle(data):
    n = data.draw(st.integers(1, 8))
    specs = [data.draw(st.sampled_from(SPECS)) for _ in range(n)]
    scenario = scenario_of(FullSpectrumScheme(), specs, data.draw(st.integers(0, 2**31)))
    assert_kernel_matches_oracle(scenario, data.draw(injector_sets(n, HORIZON)))


def test_entry_without_entrants_matches_oracle():
    params = EntryParams(cost=1e9, model=MODEL, traffic=HALF, arrival_slots=(0, 3, 7))
    scenario = scenario_of(EntryScheme(params), [HALF] * 3, seed=5)
    trace, _ = run(scenario)
    assert set(trace.width_mhz) == {0} and all(type(w) is int for w in trace.width_mhz)
    assert_kernel_matches_oracle(scenario, (DeviationInjector(1, 4, FULL_BAND),))


def test_entry_arrivals_past_the_horizon_are_ignored():
    params = EntryParams(cost=24.5, model=MODEL, traffic=HALF, arrival_slots=(2, 9, 30, 31))
    scenario = scenario_of(EntryScheme(params), [HALF] * 4, seed=6)
    trace, _ = run(scenario)
    last = [w for slot, op, _, w, *_ in trace.rows() if slot == HORIZON - 1]
    assert [type(w) for w in last] == [float, float, int, int]  # two entered in time
    # the late operator's transmissions are priced but not compared
    assert_kernel_matches_oracle(scenario, (DeviationInjector(3, 20, FULL_BAND, persistent=True),))


def test_punishment_window_spanning_an_arrival_matches_oracle():
    params = EntryParams(cost=24.5, model=MODEL, traffic=HALF, arrival_slots=(0, 1, 10, 11))
    t_len = params.static_params(2).punishment_slots
    assert t_len >= 2
    # operator 0 deviates in slot 8, answered from slot 9, over the arrival in slot 10
    scenario = scenario_of(EntryScheme(params), [HALF] * 4, seed=8)
    injectors = (DeviationInjector(0, 8, FULL_BAND),)
    trace, _ = run(scenario, injectors)
    phases = {slot: phase for slot, _, _, _, _, _, phase in trace.rows()}
    assert [phases[s] for s in range(9, 10 + t_len)] == [PUNISHMENT] * t_len + [COOPERATION]
    widths = {(slot, op): w for slot, op, _, w, *_ in trace.rows()}
    assert widths[10, 2] == W  # the entrant joins the punishment on the full band
    assert_kernel_matches_oracle(scenario, injectors)


@pytest.mark.parametrize("grim", [False, True])
def test_static_deviation_during_punishment_matches_oracle(grim):
    params = StaticParams(4, W, punishment_slots=3, grim=grim)
    scenario = scenario_of(StaticScheme(params), [HALF] * 4, seed=9)
    injectors = (
        DeviationInjector(1, 5, FULL_BAND),
        DeviationInjector(2, 7, USE_WIDTH, width_mhz=10.0),  # inside the window
        DeviationInjector(3, 8, USE_WIDTH, width_mhz=0.0),  # in its last slot
    )
    trace, _ = run(scenario, injectors)
    phases = [phase for slot, op, *_, phase in trace.rows() if op == 0]
    assert phases[6:12] == [PUNISHMENT] * 6
    assert (phases[12] == PUNISHMENT) == grim
    assert_kernel_matches_oracle(scenario, injectors)


def test_replicate_matches_oracle_across_replications():
    params = StaticParams(3, W, punishment_slots=2)
    scenario = Scenario(
        n=3, model=UtilityModel(W, 1000.0, family=LinearUtility()),
        traffic_specs=tuple(SPECS), scheme=StaticScheme(params),
        discount=0.95, horizon=40, seed=11, replications=5,
    )
    injectors = (DeviationInjector(0, 3, FULL_BAND),)
    want = summarize(
        [scalar_run(scenario, injectors, r, collect_trace=False)[1] for r in range(5)]
    )
    assert replicate(scenario, injectors) == want
