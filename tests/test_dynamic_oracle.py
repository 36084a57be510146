"""The dynamic replication kernel and the scalar dynamic step against their oracles.

Two oracles.  The scalar path of `scalar_dynamic` (`dynamic_step` on the
shared trigger machine, and `scalar_run`, the engine's per-slot loop) is the
oracle of the outcome-table kernel behind `engine.run` and `replicate`:
each replication's revenues and tail bound must agree to the bit
(`float.hex`), and its trace row for row.  The dynamic scheme's own
cooperation/punishment bookkeeping (`OracleDynamicState` with
`prescribed_last`, and `oracle_dynamic_step`) is kept as it was before the
scheme moved onto `TriggerState`; the step must give the same supports,
trades, ledger, countdown and prescribed profile, and the per-slot loop the
same traces, trades and revenues on either.  On that oracle a slot is
labelled punishment exactly when every support is the full band.
"""

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

from bandshare.dynamic_sharing import DynamicParams
from bandshare.engine import (
    FULL_BAND,
    LIE_HIGH,
    LIE_LOW,
    USE_WIDTH,
    DeviationInjector,
    DynamicScheme,
    Scenario,
    replicate,
    run,
    summarize,
)
from bandshare.spectrum import SpectrumAllocation
from bandshare.traffic import two_level
from bandshare.utility import CobbDouglasUtility, LinearUtility, UtilityModel
from scalar_dynamic import (
    BalanceLedger,
    apply_trades,
    dynamic_step,
    initial_dynamic_state,
    scalar_run,
    tile_band,
    trading_policy,
    widths_after_trades,
)

W = 100.0
MODEL = UtilityModel(W, 1000.0, family=CobbDouglasUtility())
LINEAR = UtilityModel(W, 100.0, family=LinearUtility())
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
    """The oracle state as the per-slot loop reads it: a ledger and a phase label."""
    return SimpleNamespace(
        inner=inner, ledger=inner.ledger, trigger=SimpleNamespace(phase=oracle_label(allocs))
    )


def oracle_engine_step(params, state, reports, observed):
    inner, allocs, trades = oracle_dynamic_step(params, state.inner, reports, observed)
    return labelled(inner, allocs), allocs, trades


def oracle_initial_state(params):
    # the loop reads the ledger and the label only from stepped states
    return SimpleNamespace(inner=OracleDynamicState(ledger=BalanceLedger.zeros(params.n)))


def recording(step_fn, slots):
    def wrapped(*args):
        result = step_fn(*args)
        slots.append(tuple(result[2]))
        return result

    return wrapped


def width_choices(params):
    """Override widths: the table's raw widths (operator 0's own block in
    some cells), nothing, the whole band, and anything in between."""
    share, trade = params.share_mhz, params.trade_mhz
    named = st.sampled_from([0.0, share, share + trade, max(share - trade, 0.0), W])
    return st.one_of(named, st.floats(0.0, W))


@st.composite
def injectors(draw, params, horizon, max_count=2):
    out = []
    for _ in range(draw(st.integers(0, max_count))):
        kind = draw(st.sampled_from([LIE_HIGH, LIE_LOW, FULL_BAND, USE_WIDTH]))
        width = draw(width_choices(params)) if kind == USE_WIDTH else None
        out.append(
            DeviationInjector(
                draw(st.integers(0, params.n - 1)),
                draw(st.integers(0, horizon - 1)),
                kind,
                width_mhz=width,
                persistent=draw(st.booleans()),
            )
        )
    return tuple(out)


HORIZON = 40


def hexed(report):
    return [v.hex() for v in report.revenues], report.tail_bound.hex()


def typed_rows(trace):
    """Trace rows with each value's type: an empty support's width is the int 0."""
    return [tuple((type(v), v) for v in row) for row in trace.rows()]


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
    injs = data.draw(injectors(params, HORIZON))
    trades, want_trades = [], []
    trace, report = run(scenario, injs)
    scalar_trace, scalar_report = scalar_run(
        scenario, injs, step=recording(dynamic_step, trades)
    )
    want_trace, want_report = scalar_run(
        scenario,
        injs,
        step=recording(oracle_engine_step, want_trades),
        initial_state=oracle_initial_state,
    )
    assert trace == scalar_trace == want_trace
    assert trades == want_trades
    assert report == scalar_report == want_report


@st.composite
def kernel_params(draw):
    n = draw(st.integers(2, 4))
    share = W / n
    # 0.1 MHz at n=3 tiles some cells a bit away from their raw widths;
    # a trade of the whole share empties the lender
    trade = draw(st.sampled_from([t for t in (0.1, 5.0, 7.0, 12.5, 25.0, share) if t <= share]))
    return DynamicParams(
        n, W, trade, cap_units=draw(st.integers(1, 3)), punishment_slots=draw(st.integers(1, 6))
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_matches_scalar_oracle(data):
    params = data.draw(kernel_params())
    n = params.n
    horizon = data.draw(st.integers(1, 60))
    scenario = Scenario(
        n=n,
        model=data.draw(st.sampled_from([MODEL, LINEAR])),
        traffic_specs=tuple(
            two_level(data.draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))) for _ in range(n)
        ),
        scheme=DynamicScheme(params),
        discount=data.draw(st.sampled_from([0.0, 0.5, 0.99])),
        horizon=horizon,
        seed=data.draw(st.integers(0, 2**31)),
        replications=data.draw(st.integers(1, 4)),
    )
    injs = data.draw(injectors(params, horizon, max_count=3))
    want = [scalar_run(scenario, injs, replication=r) for r in range(scenario.replications)]
    for r, (want_trace, want_report) in enumerate(want):
        trace, report = run(scenario, injs, replication=r)
        assert hexed(report) == hexed(want_report)
        assert typed_rows(trace) == typed_rows(want_trace)
        assert run(scenario, injs, replication=r, collect_trace=False) == (None, report)
    assert replicate(scenario, injs) == summarize([rep for _, rep in want])


def fixed_scenario(params, highs, horizon=12):
    return Scenario(
        n=params.n, model=MODEL, traffic_specs=tuple(two_level(p) for p in highs),
        scheme=DynamicScheme(params), discount=0.9, horizon=horizon, seed=3,
    )


def checked_phases(scenario, injs):
    """The kernel's per-slot phases, after checking its run against the oracle."""
    trace, report = run(scenario, injs)
    want_trace, want_report = scalar_run(scenario, injs)
    assert hexed(report) == hexed(want_report)
    assert typed_rows(trace) == typed_rows(want_trace)
    return trace.phase[:: scenario.n]


def test_own_block_override_is_not_a_deviation():
    # no one ever reports high, so operator 0's block is always [0, 25)
    params = DynamicParams(2, W, 25.0, cap_units=2, punishment_slots=3)
    scenario = fixed_scenario(params, (0.0, 0.0))
    own = DeviationInjector(0, 2, USE_WIDTH, width_mhz=params.share_mhz, persistent=True)
    assert set(checked_phases(scenario, (own,))) == {"cooperation"}
    other = DeviationInjector(0, 2, USE_WIDTH, width_mhz=30.0)
    assert checked_phases(scenario, (other,))[3:6] == ["punishment"] * 3


def test_full_band_override_of_a_whole_band_block():
    # operator 0 borrows operator 1's whole share until its balance reaches
    # the cap after two slots, then holds its own half again
    params = DynamicParams(2, W, 50.0, cap_units=2, punishment_slots=2)
    scenario = fixed_scenario(params, (1.0, 0.0))
    assert run(scenario)[0].width_mhz[:6] == [W, 0, W, 0, 50.0, 50.0]
    whole = DeviationInjector(0, 1, FULL_BAND)
    assert set(checked_phases(scenario, (whole,))) == {"cooperation"}
    half = DeviationInjector(0, 2, FULL_BAND)
    assert checked_phases(scenario, (half,))[2:6] == [
        "cooperation", "punishment", "punishment", "cooperation"
    ]


def test_overrides_during_punishment():
    params = DynamicParams(3, W, 0.1, cap_units=1, punishment_slots=3)
    scenario = fixed_scenario(params, (0.25, 0.5, 0.5), horizon=16)
    start = DeviationInjector(1, 2, FULL_BAND)
    # inside the window nothing is checked; in its last slot only the full band conforms
    inside = DeviationInjector(2, 4, USE_WIDTH, width_mhz=10.0)
    last_full = DeviationInjector(2, 5, FULL_BAND)
    last_narrow = DeviationInjector(2, 5, USE_WIDTH, width_mhz=10.0)
    window = ["punishment"] * 3
    assert checked_phases(scenario, (start, inside, last_full))[3:7] == window + ["cooperation"]
    assert checked_phases(scenario, (start, last_narrow))[3:10] == window * 2 + ["cooperation"]


def test_tiled_widths_differ_from_raw_ones_at_three_operators():
    params = DynamicParams(3, W, 0.1, cap_units=1)
    table, lookups = params.outcomes, params.lookups
    raw = np.asarray(table.widths_mhz)[table.width_id]
    tiled = np.asarray(lookups.widths_mhz, dtype=float)[lookups.width_id]
    assert np.any(raw != tiled)
    assert np.allclose(raw, tiled, rtol=0, atol=1e-12)
