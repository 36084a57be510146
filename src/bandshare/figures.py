"""Reference experiments: entry thresholds, scheme comparison, cap sweep.

Each function computes the rows of one reproduction CSV.  Parameter presets
mirror the reference setup: a 100 MHz band, discount 0.99, linear utility
with symmetric half-loaded traffic for the entry and cap experiments, and
the default Cobb-Douglas utility with low-traffic probabilities 0.75 / 0.5
for the scheme comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamic_sharing import (
    NoCertifiedTradeSizeError,
    choose_trade_size,
    params_for_cap,
    trade_candidates,
)
from .entry import max_entrants
from .traffic import TrafficSpec, expectation, two_level
from .utility import CobbDouglasUtility, LinearUtility, UtilityModel
from .verifier import HypothesisViolationError, stationary_sum_revenue

BAND_MHZ = 100.0
DISCOUNT = 0.99


def entry_model(power_cap: float = 100.0) -> UtilityModel:
    return UtilityModel(BAND_MHZ, power_cap, family=LinearUtility())


def comparison_model(power_cap: float) -> UtilityModel:
    return UtilityModel(BAND_MHZ, power_cap, family=CobbDouglasUtility())


ENTRY_TRAFFIC = two_level(0.5)
COMPARISON_TRAFFIC = (two_level(0.25), two_level(0.5))  # low with prob 0.75 and 0.5
CAP_SWEEP_POWER = 255.0  # exclusive-use rate of exactly 8 per MHz
CAP_SWEEP_TRAFFIC = (two_level(0.5), two_level(0.5))


def entry_threshold_rows(cost_grid, model: UtilityModel | None = None,
                         traffic: TrafficSpec | None = None, n_cap: int = 4096):
    """(cost, market size) pairs; costs must be positive."""
    model = model or entry_model()
    traffic = traffic or ENTRY_TRAFFIC
    rows = []
    for cost in cost_grid:
        if cost <= 0:
            raise ValueError("costs must be positive (a free market is unbounded)")
        rows.append((float(cost), max_entrants(cost, model, traffic, n_cap)))
    return rows


def _total(model: UtilityModel, traffic_specs, one_slot) -> float:
    return sum(expectation(spec, one_slot) for spec in traffic_specs)


def full_sharing_total(model: UtilityModel, traffic_specs, n: int = 2) -> float:
    return _total(model, traffic_specs, lambda lam: model.full_spectrum_utility(n, lam))


def static_sharing_total(model: UtilityModel, traffic_specs, n: int = 2) -> float:
    share = model.band_mhz / n
    return _total(model, traffic_specs, lambda lam: model.pi(share, lam))


@dataclass(frozen=True)
class ComparisonRow:
    p_db: float
    revenue_full: float
    revenue_static: float
    revenue_dynamic: float


def scheme_comparison_rows(
    p_db_grid,
    balance_cap_mhz: float = 50.0,
    traffic_specs=COMPARISON_TRAFFIC,
    discount: float = DISCOUNT,
) -> list[ComparisonRow]:
    """Total two-operator revenue of the three schemes over a power sweep.

    The dynamic column uses the certified trade size with the best
    stationary revenue; where no trade size certifies (low power), trading
    is worthless or undeterrable and the scheme degenerates to the static
    split, so the static value is reported.
    """
    rows = []
    for p_db in p_db_grid:
        power = 10.0 ** (p_db / 10.0)
        model = comparison_model(power)
        full = full_sharing_total(model, traffic_specs)
        static = static_sharing_total(model, traffic_specs)
        try:
            choice = choose_trade_size(
                2, model.band_mhz, balance_cap_mhz, model, traffic_specs, discount
            )
            dynamic = choice.stationary_sum_revenue
        except (NoCertifiedTradeSizeError, HypothesisViolationError):
            # no trade size certifies (or trades can never occur): the
            # scheme degenerates to the static split
            dynamic = static
        rows.append(ComparisonRow(float(p_db), full, static, dynamic))
    return rows


def static_full_crossover_power(
    model_for=comparison_model, traffic_specs=COMPARISON_TRAFFIC
) -> float:
    """Power (linear) where the static and full-sharing totals cross."""

    def gap(power: float) -> float:
        model = model_for(power)
        return static_sharing_total(model, traffic_specs) - full_sharing_total(
            model, traffic_specs
        )

    lo, hi = 1e-3, 1e3
    if gap(lo) > 0 or gap(hi) < 0:
        raise ValueError("no crossover inside the bracket")
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if gap(mid) > 0:
            hi = mid
        else:
            lo = mid
    return math.sqrt(lo * hi)


@dataclass(frozen=True)
class CapSweepRow:
    balance_cap_mhz: float
    trade_mhz: float
    improvement_percent: float


def balance_cap_rows(
    cap_grid_mhz,
    power_cap: float = CAP_SWEEP_POWER,
    traffic_specs=CAP_SWEEP_TRAFFIC,
) -> list[CapSweepRow]:
    """Dynamic-over-full improvement for a sweep of balance caps.

    For each cap the trade size maximizing stationary total revenue is used
    (quantized caps: the effective cap is the largest trade multiple that
    fits).  Certification is a separate concern handled by `verify`; this
    sweep reports attainable revenue.
    """
    model = UtilityModel(BAND_MHZ, power_cap, family=LinearUtility())
    full = full_sharing_total(model, traffic_specs)
    share = model.band_mhz / 2
    rows = []
    for cap in cap_grid_mhz:
        if cap <= 0:
            raise ValueError("balance caps must be positive")
        best = None
        for trade in trade_candidates(share, cap):
            params = params_for_cap(2, model.band_mhz, trade, cap)
            revenue = stationary_sum_revenue(params, model, traffic_specs)
            if best is None or revenue > best[0]:
                best = (revenue, trade)
        if best is None:
            raise ValueError(f"cap {cap} is below the smallest trade size")
        revenue, trade = best
        rows.append(CapSweepRow(float(cap), trade, 100.0 * (revenue / full - 1.0)))
    return rows
