"""Dynamic spectrum borrowing and lending against a balance ledger.

Each slot the operators publish their (binary) traffic reports.  The trading
rule pairs high reporters with low reporters: the i-th largest balance among
eligible high reporters borrows one trade quantum from the i-th smallest
balance among eligible low reporters.  Balances are capped, quantized to the
trade size, and conserved (they sum to zero); there is no money anywhere.

Balances are stored in integer units of the trade quantum so ledger
arithmetic is exact.  Support deviations are punished by the same trigger
rule as static sharing (`static_sharing.TriggerState`); only the cooperation
profile, re-tiled from each slot's trades, differs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spectrum import SpectrumAllocation
from .static_sharing import (
    COOPERATION,
    PUNISHMENT,
    InfeasiblePunishmentError,
    TriggerState,
    punishment_left,
)


class NoCertifiedTradeSizeError(ValueError):
    """No candidate trade size passed equilibrium certification."""


@dataclass(frozen=True)
class DynamicParams:
    n: int
    band_mhz: float
    trade_mhz: float  # spectrum moved per trade
    cap_units: int  # balance cap as a multiple of trade_mhz
    punishment_slots: int = 1

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dynamic sharing needs at least two operators")
        if not 0 < self.trade_mhz <= self.share_mhz:
            raise ValueError("trade size must lie in (0, band/n]")
        if self.cap_units < 1:
            raise ValueError("balance cap must be at least one trade unit")
        if self.punishment_slots < 1:
            raise ValueError("punishment length must be at least 1 slot")

    @property
    def share_mhz(self) -> float:
        return self.band_mhz / self.n

    @property
    def balance_cap_mhz(self) -> float:
        return self.cap_units * self.trade_mhz


def params_for_cap(
    n: int, band_mhz: float, trade_mhz: float, balance_cap_mhz: float, punishment_slots: int = 1
) -> DynamicParams:
    """Build params with the largest quantized cap not exceeding balance_cap_mhz."""
    k = int(balance_cap_mhz // trade_mhz)
    if k < 1:
        raise ValueError("balance cap smaller than one trade unit")
    return DynamicParams(n, band_mhz, trade_mhz, k, punishment_slots)


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


def validate_reports(params: DynamicParams, reports) -> list[int]:
    if len(reports) != params.n:
        raise ValueError("need one report per operator")
    out = []
    for r in reports:
        if r not in (0, 1):
            raise ValueError("reports must be binary traffic levels")
        out.append(int(r))
    return out


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


def choose_trade_size(
    n: int,
    band_mhz: float,
    balance_cap_mhz: float,
    model,
    traffic_specs,
    discount: float,
    grid_step_mhz: float = 1.0,
    joint_probs=None,
    tol: float = 1e-9,
):
    """Pick the certified trade size with the best stationary sum revenue.

    Candidates are the multiples of `grid_step_mhz` in (0, band/n]; each is
    paired with the largest quantized cap fitting under `balance_cap_mhz`.
    A candidate is certified when the borrow/repay margin test passes, the
    exact one-shot-deviation check finds no profitable lie at `discount`,
    and a finite deterring punishment length exists.  Returns a TradeChoice.
    Two-operator scheme only.
    """
    # local import: the verifier builds on this module's trading rule
    from . import verifier

    if n != 2:
        raise ValueError("trade size optimization is defined for two operators")
    w = band_mhz / n
    candidates = []
    steps = int(round(w / grid_step_mhz))
    for m in range(1, steps + 1):
        d = m * grid_step_mhz
        if d > w or int(balance_cap_mhz // d) < 1:
            continue
        candidates.append(d)
    best = None
    for d in candidates:
        try:
            params = params_for_cap(n, band_mhz, d, balance_cap_mhz)
        except ValueError:
            continue
        if not verifier.borrow_repay_margin_ok(model, w, d):
            continue
        try:
            t_len = verifier.min_punishment_slots(params, model, traffic_specs)
        except InfeasiblePunishmentError:
            continue
        table = verifier.outcome_table(params)
        findings = verifier.verify_truthfulness_exact(
            params, model, traffic_specs, discount, joint_probs=joint_probs, tol=tol,
            table=table,
        )
        if any(f.profitable for f in findings):
            continue
        revenue = verifier.stationary_sum_revenue(
            params, model, traffic_specs, joint_probs=joint_probs, table=table
        )
        if best is None or revenue > best.stationary_sum_revenue:
            best = TradeChoice(
                trade_mhz=d,
                cap_units=params.cap_units,
                punishment_slots=t_len,
                stationary_sum_revenue=revenue,
            )
    if best is None:
        raise NoCertifiedTradeSizeError(
            "no candidate trade size was certified as an equilibrium"
        )
    return best


@dataclass(frozen=True)
class TradeChoice:
    trade_mhz: float
    cap_units: int
    punishment_slots: int
    stationary_sum_revenue: float
