"""The dynamic step on the shared trigger machine against its earlier form.

The oracle is the dynamic scheme's own cooperation/punishment bookkeeping
(`OracleDynamicState` with `prescribed_last`, and `oracle_dynamic_step`),
kept here as it was before the scheme moved onto `TriggerState`.  The step
must give the same supports, trades, ledger, countdown and prescribed
profile, and the engine must give identical traces, trades and revenues
whichever of the two it runs on.  On the oracle the engine labels a slot as
punishment exactly when every support is the full band.
"""

from dataclasses import dataclass, field
from types import SimpleNamespace
from unittest import mock

from hypothesis import given, settings, strategies as st

from bandshare import engine
from bandshare.dynamic_sharing import (
    BalanceLedger,
    DynamicParams,
    apply_trades,
    dynamic_step,
    initial_dynamic_state,
    tile_band,
    trading_policy,
    widths_after_trades,
)
from bandshare.engine import (
    FULL_BAND,
    LIE_HIGH,
    LIE_LOW,
    USE_WIDTH,
    DeviationInjector,
    DynamicScheme,
    Scenario,
    run,
)
from bandshare.spectrum import SpectrumAllocation
from bandshare.traffic import two_level
from bandshare.utility import CobbDouglasUtility, UtilityModel

W = 100.0
MODEL = UtilityModel(W, 1000.0, family=CobbDouglasUtility())
FULL = SpectrumAllocation.full_band(W)

ORACLE_COOPERATION = "cooperation"
ORACLE_PUNISHMENT = "punishment"


@dataclass(frozen=True)
class OracleDynamicState:
    phase: str = ORACLE_COOPERATION
    remaining: int = 0
    ledger: BalanceLedger = field(default_factory=lambda: BalanceLedger(()))
    prescribed_last: tuple[SpectrumAllocation, ...] | None = None

    def in_punishment(self) -> bool:
        return self.phase == ORACLE_PUNISHMENT


def oracle_dynamic_step(params, state, reports, observed_allocs=None):
    full = tuple([SpectrumAllocation.full_band(params.band_mhz)] * params.n)
    if state.in_punishment():
        if state.remaining <= 1:
            nxt = OracleDynamicState(ORACLE_COOPERATION, 0, state.ledger, full)
        else:
            nxt = OracleDynamicState(ORACLE_PUNISHMENT, state.remaining - 1, state.ledger, full)
        return nxt, list(full), []
    if state.prescribed_last is not None and observed_allocs is not None:
        if len(observed_allocs) != params.n:
            raise ValueError("need one observed support per operator")
        if tuple(observed_allocs) != state.prescribed_last:
            if params.punishment_slots == 1:
                nxt = OracleDynamicState(ORACLE_COOPERATION, 0, state.ledger, full)
            else:
                nxt = OracleDynamicState(
                    ORACLE_PUNISHMENT, params.punishment_slots - 1, state.ledger, full
                )
            return nxt, list(full), []
    trades = trading_policy(params, reports, state.ledger)
    ledger = apply_trades(state.ledger, trades)
    allocs = tile_band(params, widths_after_trades(params, trades))
    nxt = OracleDynamicState(ORACLE_COOPERATION, 0, ledger, tuple(allocs))
    return nxt, allocs, trades


def oracle_label(allocs):
    return "punishment" if all(a == FULL for a in allocs) else "cooperation"


@st.composite
def dynamic_params(draw):
    n = draw(st.integers(2, 4))
    trade = draw(st.sampled_from([t for t in (5.0, 10.0, 12.5, 25.0) if t <= W / n]))
    return DynamicParams(
        n, W, trade, cap_units=draw(st.integers(1, 3)), punishment_slots=draw(st.integers(1, 6))
    )


def misbehave(draw, allocs, n):
    """What the slot's supports look like to everyone: as emitted, one operator
    on the full band or on another width, or nothing observed."""
    kind = draw(st.sampled_from(["none", "none", "none", FULL_BAND, USE_WIDTH, "unobserved"]))
    if kind == "unobserved":
        return None
    observed = list(allocs)
    if kind == FULL_BAND:
        observed[draw(st.integers(0, n - 1))] = FULL
    elif kind == USE_WIDTH:
        width = draw(st.floats(0.0, W))
        observed[draw(st.integers(0, n - 1))] = (
            SpectrumAllocation.empty() if width == 0 else SpectrumAllocation.block(0.0, width, W)
        )
    return observed


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dynamic_step_matches_oracle(data):
    params = data.draw(dynamic_params())
    n = params.n
    state = initial_dynamic_state(params)
    want = OracleDynamicState(ledger=BalanceLedger.zeros(n))
    observed = None
    for _ in range(data.draw(st.integers(1, 40))):
        # a lie is only a report the traffic did not draw: any report vector
        reports = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        state, allocs, trades = dynamic_step(params, state, reports, observed)
        want, want_allocs, want_trades = oracle_dynamic_step(params, want, reports, observed)
        assert allocs == want_allocs
        assert trades == want_trades
        assert state.ledger == want.ledger
        assert state.trigger.prescribed == want.prescribed_last
        assert state.trigger.remaining == (want.remaining if want.in_punishment() else 0)
        assert state.in_punishment() == want.in_punishment()
        assert state.trigger.phase == oracle_label(allocs)
        observed = misbehave(data.draw, allocs, n)


def labelled(inner, allocs):
    """The oracle state as the engine reads it: a ledger and a phase label."""
    return SimpleNamespace(
        inner=inner, ledger=inner.ledger, trigger=SimpleNamespace(phase=oracle_label(allocs))
    )


def oracle_engine_step(params, state, reports, observed):
    inner, allocs, trades = oracle_dynamic_step(params, state.inner, reports, observed)
    return labelled(inner, allocs), allocs, trades


def oracle_initial_state(params):
    # the engine reads the ledger and the label only from stepped states
    return SimpleNamespace(inner=OracleDynamicState(ledger=BalanceLedger.zeros(params.n)))


def recording(step_fn, slots):
    def wrapped(*args):
        result = step_fn(*args)
        slots.append(tuple(result[2]))
        return result

    return wrapped


@st.composite
def injectors(draw, n, horizon):
    out = []
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from([LIE_HIGH, LIE_LOW, FULL_BAND, USE_WIDTH]))
        width = draw(st.floats(0.0, W)) if kind == USE_WIDTH else None
        out.append(
            DeviationInjector(
                draw(st.integers(0, n - 1)),
                draw(st.integers(0, horizon - 1)),
                kind,
                width_mhz=width,
                persistent=draw(st.booleans()),
            )
        )
    return tuple(out)


HORIZON = 40


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_engine_dynamic_matches_oracle(data):
    params = data.draw(dynamic_params())
    n = params.n
    specs = tuple(data.draw(st.sampled_from([two_level(0.25), two_level(0.5)])) for _ in range(n))
    scenario = Scenario(
        n=n, model=MODEL, traffic_specs=specs, scheme=DynamicScheme(params),
        discount=0.99, horizon=HORIZON, seed=data.draw(st.integers(0, 2**31)),
    )
    injs = data.draw(injectors(n, HORIZON))
    trades, want_trades = [], []
    with mock.patch.object(engine, "dynamic_step", recording(dynamic_step, trades)):
        trace, report = run(scenario, injs)
    with mock.patch.object(
        engine, "dynamic_step", recording(oracle_engine_step, want_trades)
    ), mock.patch.object(engine, "initial_dynamic_state", oracle_initial_state):
        want_trace, want_report = run(scenario, injs)
    assert trace == want_trace
    assert trades == want_trades
    assert report == want_report
