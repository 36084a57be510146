"""Spectrum sharing among strategic operators: schemes, simulator, verifier."""

from .dynamic_sharing import (
    DynamicParams,
    NoCertifiedTradeSizeError,
    TradeChoice,
    choose_trade_size,
    params_for_cap,
)
from .engine import (
    DeviationInjector,
    DynamicScheme,
    EntryScheme,
    FullSpectrumScheme,
    RevenueReport,
    Scenario,
    StaticScheme,
    Trace,
    auto_horizon,
    replicate,
    revenue,
    run,
)
from .entry import (
    EntryCapExceededError,
    EntryParams,
    entry_step,
    full_spectrum_expected_utility,
    initial_entry_state,
    max_entrants,
    orthogonal_expected_utility,
    punishment_length_entry,
)
from .spectrum import SpectrumAllocation
from .static_sharing import (
    InfeasiblePunishmentError,
    StaticParams,
    TriggerState,
    min_punishment_length,
    static_allocation,
    step,
)
from .traffic import TrafficSpec, expectation, finite_levels, sample, two_level
from .utility import (
    CobbDouglasUtility,
    LinearUtility,
    ShannonRate,
    TabulatedRate,
    UtilityModel,
    check_interference_limited,
    check_pi_properties,
)
from .verifier import (
    BalanceChain,
    DeviationFinding,
    HypothesisViolationError,
    OutcomeTable,
    ValueTable,
    borrow_repay_margin_ok,
    build_balance_chain,
    discounted_sum_revenue,
    lying_gain,
    lying_loss_bound,
    mc_value_estimate,
    min_punishment_slots,
    outcome_table,
    stationary_sum_revenue,
    truthful_exact,
    value_function,
    verify_detectable_n_ops,
    verify_dynamic_profile,
    verify_static_profile,
    verify_truthfulness_exact,
    verify_truthfulness_n_ops,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
