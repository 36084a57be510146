"""The scalar dynamic-sharing path, kept as the oracle of the outcome-table kernel.

Dynamic sharing slot by slot, as the simulator ran it before it read the
outcome table: `trading_policy` pairs borrowers with lenders against a
`BalanceLedger`, `tile_band` re-tiles the band as `SpectrumAllocation`s,
`dynamic_step` advances the shared trigger machine, and `scalar_run` is the
engine's per-slot loop around it.  `engine.run`, `engine.replicate` and the
verifier's vector trading rule must agree with these bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from bandshare import engine
from bandshare.dynamic_sharing import DynamicParams, validate_reports
from bandshare.engine import LIE_HIGH, RevenueReport, Trace
from bandshare.spectrum import SpectrumAllocation
from bandshare.static_sharing import COOPERATION, PUNISHMENT, TriggerState, punishment_left


@dataclass(frozen=True)
class Trade:
    borrower: int
    lender: int
    amount_mhz: float


@dataclass(frozen=True)
class BalanceLedger:
    """Net lent-minus-borrowed balance of each operator, in trade units."""

    units: tuple[int, ...]

    def mhz(self, params: DynamicParams) -> tuple[float, ...]:
        return tuple(u * params.trade_mhz for u in self.units)

    @staticmethod
    def zeros(n: int) -> "BalanceLedger":
        return BalanceLedger((0,) * n)


def trading_policy(params: DynamicParams, reports, ledger: BalanceLedger) -> list[Trade]:
    """Pair eligible high reporters with eligible low reporters.

    Borrow side: reported high and room to go one unit lower.  Lend side:
    reported low and room to go one unit higher.  The i-th largest borrower
    balance borrows from the i-th smallest lender balance; equal balances
    are ordered by operator index.
    """
    reports = validate_reports(params, reports)
    k = params.cap_units
    borrowers = [
        i for i in range(params.n) if reports[i] == 1 and ledger.units[i] - 1 >= -k
    ]
    lenders = [
        i for i in range(params.n) if reports[i] == 0 and ledger.units[i] + 1 <= k
    ]
    borrowers.sort(key=lambda i: (-ledger.units[i], i))
    lenders.sort(key=lambda i: (ledger.units[i], i))
    return [
        Trade(borrower=b, lender=l, amount_mhz=params.trade_mhz)
        for b, l in zip(borrowers, lenders)
    ]


def apply_trades(ledger: BalanceLedger, trades) -> BalanceLedger:
    units = list(ledger.units)
    for t in trades:
        units[t.borrower] -= 1
        units[t.lender] += 1
    return BalanceLedger(tuple(units))


def widths_after_trades(params: DynamicParams, trades) -> list[float]:
    widths = [params.share_mhz] * params.n
    for t in trades:
        widths[t.borrower] += params.trade_mhz
        widths[t.lender] -= params.trade_mhz
    return widths


def tile_band(params: DynamicParams, widths) -> list[SpectrumAllocation]:
    """Contiguous canonical tiling of the band in operator order."""
    allocs = []
    lo = 0.0
    for i, width in enumerate(widths):
        hi = params.band_mhz if i == params.n - 1 else lo + width
        if width <= 0:
            allocs.append(SpectrumAllocation.empty())
        else:
            allocs.append(SpectrumAllocation.block(lo, hi, params.band_mhz))
        lo = lo + width
    return allocs


@dataclass(frozen=True)
class DynamicState:
    ledger: BalanceLedger
    trigger: TriggerState = TriggerState()

    def in_punishment(self) -> bool:
        return self.trigger.in_punishment()


def initial_dynamic_state(params: DynamicParams) -> DynamicState:
    return DynamicState(BalanceLedger.zeros(params.n))


def dynamic_step(
    params: DynamicParams,
    state: DynamicState,
    reports,
    observed_allocs=None,
) -> tuple[DynamicState, list[SpectrumAllocation], list[Trade]]:
    """Advance one slot.

    A mismatch between the previous slot's observed supports and what that
    slot prescribed sends everyone to full band for exactly
    `punishment_slots` slots (this answering slot is the first); the ledger
    is frozen throughout punishment.  Otherwise reports drive trades, trades
    drive widths, and the band is re-tiled contiguously.
    """
    left = punishment_left(state.trigger, observed_allocs, params.punishment_slots)
    if left is not None:
        full = (SpectrumAllocation.full_band(params.band_mhz),) * params.n
        return DynamicState(state.ledger, TriggerState(PUNISHMENT, left, full)), list(full), []
    trades = trading_policy(params, reports, state.ledger)
    allocs = tile_band(params, widths_after_trades(params, trades))
    trigger = TriggerState(COOPERATION, 0, tuple(allocs))
    return DynamicState(apply_trades(state.ledger, trades), trigger), allocs, trades


def scalar_run(
    scenario,
    injectors=(),
    replication=0,
    collect_trace=True,
    step=dynamic_step,
    initial_state=initial_dynamic_state,
):
    """The engine's per-slot loop for the dynamic scheme; returns (Trace, RevenueReport).

    `step(params, state, reports, observed)` returns (state, supports,
    trades) with `state.ledger` and `state.trigger.phase` readable;
    `trades`, if a list is passed, collects each slot's trades."""
    engine._validate_injectors(scenario, injectors)
    model = scenario.model
    n = scenario.n
    d = scenario.discount
    params = scenario.scheme.params
    levels = engine._levels(scenario, replication)
    state = initial_state(params)
    trace = Trace() if collect_trace else None
    revenues = [0.0] * n
    weight = 1.0 - d
    u_max = 0.0
    observed = None
    width_injs = [inj for inj in injectors if not inj.is_lie()]
    lie_injs = [inj for inj in injectors if inj.is_lie()]

    for t in range(scenario.horizon):
        lam = [float(levels[i][t]) for i in range(n)]
        reports = [int(v) for v in lam]
        for inj in lie_injs:
            if inj.active(t):
                reports[inj.operator] = 1 if inj.kind == LIE_HIGH else 0
        state, allocs, _ = step(params, state, reports, observed)
        phase_label = state.trigger.phase
        balances = state.ledger.mhz(params)

        overridden = False
        for inj in width_injs:
            if inj.active(t):
                allocs[inj.operator] = engine._override_alloc(inj, model)
                overridden = True

        if phase_label == PUNISHMENT and not overridden:
            active = sum(1 for a in allocs if not a.is_empty())
            utils = [
                model.full_spectrum_utility(active, lam[i]) if not allocs[i].is_empty() else 0.0
                for i in range(n)
            ]
        elif not overridden:
            utils = [model.pi(allocs[i].width, lam[i]) for i in range(n)]
        else:
            utils = [
                model.utility(allocs[i], [a for j, a in enumerate(allocs) if j != i], lam[i])
                for i in range(n)
            ]

        for i in range(n):
            revenues[i] += weight * utils[i]
            if utils[i] > u_max:
                u_max = utils[i]
        if collect_trace:
            for i in range(n):
                trace.slot.append(t)
                trace.operator.append(i)
                trace.traffic.append(lam[i])
                trace.width_mhz.append(allocs[i].width)
                trace.utility.append(utils[i])
                trace.balance_mhz.append(balances[i])
                trace.phase.append(phase_label)

        observed = allocs
        weight *= d

    tail = (d**scenario.horizon) * u_max if d > 0 else 0.0
    return trace, RevenueReport(tuple(revenues), d, scenario.horizon, tail)
