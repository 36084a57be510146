"""Dynamic spectrum borrowing and lending against a balance ledger.

Each slot the operators publish their (binary) traffic reports.  The trading
rule pairs high reporters with low reporters: the i-th largest balance among
eligible high reporters borrows one trade quantum from the i-th smallest
balance among eligible low reporters.  Balances are capped, quantized to the
trade size, and conserved (they sum to zero); there is no money anywhere.
After the trades the band is re-tiled contiguously in operator order.

Balances are counted in integer units of the trade quantum so ledger
arithmetic is exact.  The rule is applied once per params, to every balance
state and report vector, by `verifier.outcome_table` (`DynamicParams.outcomes`);
the simulator and every exact check read that table.  Support deviations are
punished by the same trigger rule as static sharing, with the ledger frozen
while punishment lasts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .static_sharing import InfeasiblePunishmentError


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

    @property
    def table_cells(self) -> int:
        """(balance state, report vector, operator) cells of `outcomes`,
        counted without building it."""
        # local import: the verifier builds on this module
        from .verifier import count_balance_states

        return count_balance_states(self.n, self.cap_units) * 2**self.n * self.n

    @cached_property
    def outcomes(self):
        """The verifier's `OutcomeTable` of these params, built on first use."""
        # local import: the verifier builds on this module
        from .verifier import outcome_table

        return outcome_table(self)

    @cached_property
    def lookups(self):
        """The simulator's `engine.DynamicLookups` over `outcomes`, built on first use."""
        # local import: the engine builds on this module
        from .engine import DynamicLookups

        return DynamicLookups(self)


def params_for_cap(
    n: int, band_mhz: float, trade_mhz: float, balance_cap_mhz: float, punishment_slots: int = 1
) -> DynamicParams:
    """Build params with the largest quantized cap not exceeding balance_cap_mhz."""
    k = int(balance_cap_mhz // trade_mhz)
    if k < 1:
        raise ValueError("balance cap smaller than one trade unit")
    return DynamicParams(n, band_mhz, trade_mhz, k, punishment_slots)


def trade_candidates(share_mhz: float, balance_cap_mhz: float) -> list[float]:
    """Whole-MHz trade sizes in (0, share_mhz] with at least one quantum
    fitting under `balance_cap_mhz`, so `params_for_cap` accepts each."""
    return [float(d) for d in range(1, int(share_mhz) + 1) if balance_cap_mhz // d >= 1]


def validate_reports(params: DynamicParams, reports) -> list[int]:
    if len(reports) != params.n:
        raise ValueError("need one report per operator")
    out = []
    for r in reports:
        if r not in (0, 1):
            raise ValueError("reports must be binary traffic levels")
        out.append(int(r))
    return out


def choose_trade_size(
    n: int,
    band_mhz: float,
    balance_cap_mhz: float,
    model,
    traffic_specs,
    discount: float,
    joint_probs=None,
    tol: float = 1e-9,
):
    """Pick the certified trade size with the best stationary sum revenue.

    Candidates are the `trade_candidates` of the share band/n; each is
    paired with the largest quantized cap fitting under `balance_cap_mhz`.
    A candidate is certified when the borrow/repay margin test passes, a
    finite deterring punishment length exists, and the exact
    one-shot-deviation check finds no profitable lie at `discount`.

    The two cheap filters run first, over every candidate.  The survivors
    are then ranked by stationary sum revenue, highest first and the
    smaller trade size first among equals, and certified in that order;
    the first that certifies is the answer, so the exact check runs only on
    survivors ranked above it.  Raises HypothesisViolationError when some
    candidate survives the filters but the traffic cannot move balances
    both ways, and NoCertifiedTradeSizeError when no candidate certifies.
    Returns a TradeChoice.  Two-operator scheme only.
    """
    # local import: the verifier builds on this module
    from . import verifier

    if n != 2:
        raise ValueError("trade size optimization is defined for two operators")
    w = band_mhz / n
    ranked = []
    for d in trade_candidates(w, balance_cap_mhz):
        params = params_for_cap(n, band_mhz, d, balance_cap_mhz)
        if not verifier.borrow_repay_margin_ok(model, w, d):
            continue
        try:
            t_len = verifier.min_punishment_slots(params, model, traffic_specs)
        except InfeasiblePunishmentError:
            continue
        if not ranked:  # the first survivor: the traffic gate applies
            verifier.gate_two_op(verifier.two_op_joint_probs(traffic_specs, joint_probs))
        revenue = verifier.stationary_sum_revenue(
            params, model, traffic_specs, joint_probs=joint_probs
        )
        ranked.append((revenue, d, params, t_len))
    ranked.sort(key=lambda entry: (-entry[0], entry[1]))
    for revenue, d, params, t_len in ranked:
        if verifier.truthful_exact(
            params, model, traffic_specs, discount, joint_probs=joint_probs, tol=tol
        ):
            return TradeChoice(
                trade_mhz=d,
                cap_units=params.cap_units,
                punishment_slots=t_len,
                stationary_sum_revenue=revenue,
            )
    raise NoCertifiedTradeSizeError(
        "no candidate trade size was certified as an equilibrium"
    )


@dataclass(frozen=True)
class TradeChoice:
    trade_mhz: float
    cap_units: int
    punishment_slots: int
    stationary_sum_revenue: float
