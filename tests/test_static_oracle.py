"""The whole-profile static step against the per-operator reference.

The oracle is the per-operator form of the trigger rule: each operator's
call checks conformance by rebuilding every block with `static_allocation`
and then emits its own block; the profile it prescribed is what the
operators emitted.  The profile step must give the same next
state and bit-identical supports, and the engine's trigger kernel must give
the traces and revenues of the slot-by-slot loop (`scalar_trigger`) run on
the per-operator step.
"""

from dataclasses import replace
from unittest import mock

from hypothesis import given, settings, strategies as st

from bandshare import entry
from bandshare.engine import (
    FULL_BAND,
    USE_WIDTH,
    DeviationInjector,
    EntryScheme,
    Scenario,
    StaticScheme,
    run,
)
from bandshare.entry import EntryParams, punishment_length_entry
from bandshare.spectrum import SpectrumAllocation
from bandshare.static_sharing import (
    COOPERATION,
    PUNISHMENT,
    StaticParams,
    TriggerState,
    static_allocation,
    step,
)
from bandshare.traffic import two_level
from bandshare.utility import CobbDouglasUtility, UtilityModel
import scalar_trigger

W = 100.0
MODEL = UtilityModel(W, 1000.0, family=CobbDouglasUtility())


def oracle_operator_step(params, state, observed, operator):
    full = SpectrumAllocation.full_band(params.band_mhz)
    if state.in_punishment():
        if params.grim:
            return TriggerState(PUNISHMENT, -1), full
        if state.remaining <= 1:
            return TriggerState(PUNISHMENT, 0), full
        return TriggerState(PUNISHMENT, state.remaining - 1), full
    if observed is not None and state.prescribed is not None:
        if len(observed) != params.n:
            raise ValueError("need one observed support per operator")
        if state.phase == PUNISHMENT:
            conforming = all(a == full for a in observed)
        else:
            conforming = all(a == static_allocation(params, i) for i, a in enumerate(observed))
        if not conforming:
            if params.grim:
                return TriggerState(PUNISHMENT, -1), full
            if params.punishment_slots == 1:
                return TriggerState(PUNISHMENT, 0), full
            return TriggerState(PUNISHMENT, params.punishment_slots - 1), full
    return TriggerState(COOPERATION), static_allocation(params, operator)


def oracle_step(params, state, observed):
    allocs = []
    next_state = state
    for i in range(params.n):
        next_state, alloc = oracle_operator_step(params, state, observed, i)
        allocs.append(alloc)
    return replace(next_state, prescribed=tuple(allocs)), tuple(allocs)


def uncached_static_params(self, active):
    t = punishment_length_entry(active, self.model, self.traffic)
    return StaticParams(n=active, band_mhz=self.model.band_mhz, punishment_slots=t)


def run_on_oracle(scenario, injectors):
    """The slot-by-slot loop, stepping static and entry sharing per operator."""
    with mock.patch.object(scalar_trigger, "static_step", oracle_step), mock.patch.object(
        entry, "step", oracle_step
    ), mock.patch.object(EntryParams, "static_params", uncached_static_params):
        return scalar_trigger.scalar_run(scenario, injectors)


@st.composite
def static_params(draw, max_n=24):
    n = draw(st.integers(1, max_n))
    shares = None
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(1, 50), min_size=n, max_size=n))
        shares = tuple(w / sum(weights) for w in weights)
    grim = draw(st.booleans())
    t_len = 1 if grim else draw(st.integers(1, 5))
    return StaticParams(n, W, punishment_slots=t_len, grim=grim, shares=shares)


def deviation(draw):
    kind = draw(st.sampled_from(["full", "empty", "block"]))
    if kind == "full":
        return SpectrumAllocation.full_band(W)
    if kind == "empty":
        return SpectrumAllocation.empty()
    return SpectrumAllocation.block(0.0, draw(st.floats(1.0, W)), W)


@st.composite
def slot_inputs(draw):
    params = draw(static_params())
    n = params.n
    full = (SpectrumAllocation.full_band(W),) * n
    blocks = tuple(static_allocation(params, i) for i in range(n))
    state = draw(
        st.sampled_from(
            [
                TriggerState(),
                TriggerState(COOPERATION, 0, blocks),
                TriggerState(PUNISHMENT, 0, full),
                TriggerState(PUNISHMENT, -1 if params.grim else params.punishment_slots, full),
            ]
        )
    )
    kind = draw(st.sampled_from(["none", "conform", "deviator", "all_full"]))
    if kind == "none":
        return params, state, None
    if kind == "all_full":
        return params, state, list(full)
    prescribed = list(state.prescribed or blocks)
    if kind == "deviator":
        prescribed[draw(st.integers(0, n - 1))] = deviation(draw)
    return params, state, prescribed


@settings(max_examples=300, deadline=None)
@given(slot_inputs())
def test_profile_step_matches_per_operator_oracle(inputs):
    params, state, observed = inputs
    assert params.blocks == tuple(static_allocation(params, i) for i in range(params.n))
    next_state, allocs = step(params, state, observed)
    want_state, want_allocs = oracle_step(params, state, observed)
    assert next_state == want_state
    assert allocs == want_allocs


@st.composite
def injectors(draw, n, horizon):
    kind = draw(st.sampled_from(["none", FULL_BAND, USE_WIDTH]))
    if kind == "none":
        return ()
    operator = draw(st.integers(0, n - 1))
    slot = draw(st.integers(0, horizon - 1))
    persistent = draw(st.booleans())
    width = draw(st.floats(0.0, W)) if kind == USE_WIDTH else None
    return (DeviationInjector(operator, slot, kind, width_mhz=width, persistent=persistent),)


HORIZON = 30


def assert_engine_matches_oracle(scenario, injs):
    trace, report = run(scenario, injs)
    want_trace, want_report = run_on_oracle(scenario, injs)
    assert trace == want_trace
    assert report == want_report


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_engine_static_matches_per_operator_oracle(data):
    params = data.draw(static_params())
    n = params.n
    specs = tuple(data.draw(st.sampled_from([two_level(0.25), two_level(0.5)])) for _ in range(n))
    scenario = Scenario(
        n=n, model=MODEL, traffic_specs=specs, scheme=StaticScheme(params),
        discount=0.99, horizon=HORIZON, seed=data.draw(st.integers(0, 2**31)),
    )
    assert_engine_matches_oracle(scenario, data.draw(injectors(n, HORIZON)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_engine_entry_matches_per_operator_oracle(data):
    n = data.draw(st.integers(1, 16))
    # 24.5 admits 14 operators, 60 admits 5 and 150 admits 2
    cost = data.draw(st.sampled_from([24.5, 60.0, 150.0]))
    arrivals = sorted(data.draw(st.sets(st.integers(0, HORIZON - 1), min_size=n, max_size=n)))
    params = EntryParams(
        cost=cost, model=MODEL, traffic=two_level(0.5), arrival_slots=tuple(arrivals)
    )
    scenario = Scenario(
        n=n, model=MODEL, traffic_specs=(two_level(0.5),) * n, scheme=EntryScheme(params),
        discount=0.99, horizon=HORIZON, seed=data.draw(st.integers(0, 2**31)),
    )
    assert_engine_matches_oracle(scenario, data.draw(injectors(n, HORIZON)))
