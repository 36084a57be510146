import random

import pytest

from bandshare.dynamic_sharing import (
    DynamicParams,
    NoCertifiedTradeSizeError,
    choose_trade_size,
    params_for_cap,
    trade_candidates,
)
from bandshare.spectrum import SpectrumAllocation
from bandshare.traffic import two_level
from bandshare.utility import CobbDouglasUtility, LinearUtility, UtilityModel
from bandshare.verifier import (
    HypothesisViolationError,
    stationary_sum_revenue,
)
from scalar_dynamic import (
    BalanceLedger,
    DynamicState,
    Trade,
    dynamic_step,
    initial_dynamic_state,
    tile_band,
    trading_policy,
    widths_after_trades,
)

W = 100.0


def units(ledger_mhz, trade):
    return BalanceLedger(tuple(int(round(b / trade)) for b in ledger_mhz))


# --- trading policy -----------------------------------------------------------


def test_policy_pairs_largest_borrower_with_smallest_lender():
    params = DynamicParams(4, 200.0, trade_mhz=10.0, cap_units=2)
    ledger = units([0.0, 10.0, -10.0, 20.0], 10.0)
    trades = trading_policy(params, [1, 1, 0, 0], ledger)
    # the 20 MHz lender is at the cap and must sit out
    assert trades == [Trade(borrower=1, lender=2, amount_mhz=10.0)]


def test_policy_no_high_reporters_no_trades():
    params = DynamicParams(3, 90.0, trade_mhz=10.0, cap_units=3)
    assert trading_policy(params, [0, 0, 0], BalanceLedger.zeros(3)) == []


def test_policy_two_operator_case():
    params = DynamicParams(2, W, trade_mhz=10.0, cap_units=5)
    trades = trading_policy(params, [1, 0], BalanceLedger.zeros(2))
    assert trades == [Trade(borrower=0, lender=1, amount_mhz=10.0)]


def test_policy_trade_count_is_min_of_sides():
    params = DynamicParams(5, 250.0, trade_mhz=10.0, cap_units=2)
    trades = trading_policy(params, [1, 1, 1, 0, 0], BalanceLedger.zeros(5))
    assert len(trades) == 2
    assert {t.lender for t in trades} == {3, 4}


def test_policy_balance_ties_break_by_index():
    params = DynamicParams(4, 200.0, trade_mhz=10.0, cap_units=2)
    trades = trading_policy(params, [1, 1, 0, 0], BalanceLedger.zeros(4))
    assert trades == [
        Trade(borrower=0, lender=2, amount_mhz=10.0),
        Trade(borrower=1, lender=3, amount_mhz=10.0),
    ]


def test_policy_rejects_bad_reports():
    params = DynamicParams(2, W, trade_mhz=10.0, cap_units=1)
    with pytest.raises(ValueError):
        trading_policy(params, [1], BalanceLedger.zeros(2))
    with pytest.raises(ValueError):
        trading_policy(params, [1, 2], BalanceLedger.zeros(2))


# --- one slot of the profile ----------------------------------------------------


def test_borrow_slot_widths_and_balances():
    params = DynamicParams(2, W, trade_mhz=10.0, cap_units=5)
    state = initial_dynamic_state(params)
    state, allocs, trades = dynamic_step(params, state, [1, 0])
    assert [a.width for a in allocs] == [60.0, 40.0]
    assert state.ledger.mhz(params) == (-10.0, 10.0)
    assert len(trades) == 1


def test_no_trade_when_both_high():
    params = DynamicParams(2, W, trade_mhz=10.0, cap_units=5)
    state = initial_dynamic_state(params)
    state, allocs, trades = dynamic_step(params, state, [1, 1])
    assert [a.width for a in allocs] == [50.0, 50.0]
    assert state.ledger.units == (0, 0)
    assert trades == []


def test_caps_block_trades():
    params = DynamicParams(2, W, trade_mhz=10.0, cap_units=5)
    state = DynamicState(ledger=BalanceLedger((-5, 5)))
    state, allocs, trades = dynamic_step(params, state, [1, 0])
    assert trades == []
    assert [a.width for a in allocs] == [50.0, 50.0]
    assert state.ledger.units == (-5, 5)


def test_support_mismatch_triggers_punishment_and_freezes_ledger():
    params = DynamicParams(2, W, trade_mhz=10.0, cap_units=5, punishment_slots=3)
    state = initial_dynamic_state(params)
    state, allocs, _ = dynamic_step(params, state, [1, 0])
    ledger_at_entry = state.ledger
    full = SpectrumAllocation.full_band(W)
    # operator 0 emitted the full band instead of its 60 MHz block
    observed = [full, allocs[1]]
    full_slots = 0
    state, allocs, trades = dynamic_step(params, state, [0, 0], observed)
    while all(a == full for a in allocs):
        full_slots += 1
        assert trades == []
        assert state.ledger == ledger_at_entry
        state, allocs, trades = dynamic_step(params, state, [0, 0], allocs)
    assert full_slots == 3
    assert [a.width for a in allocs] == [50.0, 50.0]


def test_tiling_is_contiguous_and_exact():
    params = DynamicParams(4, 200.0, trade_mhz=25.0, cap_units=1)
    trades = [Trade(0, 3, 25.0), Trade(1, 2, 25.0)]
    allocs = tile_band(params, widths_after_trades(params, trades))
    assert [a.width for a in allocs] == [75.0, 75.0, 25.0, 25.0]
    edges = [iv for a in allocs for iv in a.intervals]
    assert edges[0][0] == 0.0 and edges[-1][1] == 200.0
    for (lo1, hi1), (lo2, _) in zip(edges, edges[1:]):
        assert hi1 == lo2


def test_full_share_loan_empties_the_lender():
    params = DynamicParams(2, W, trade_mhz=50.0, cap_units=1)
    state = initial_dynamic_state(params)
    state, allocs, _ = dynamic_step(params, state, [0, 1])
    assert allocs[0].is_empty()
    assert allocs[1] == SpectrumAllocation.full_band(W)
    assert state.ledger.units == (1, -1)


def test_params_validation():
    with pytest.raises(ValueError):
        DynamicParams(2, W, trade_mhz=60.0, cap_units=1)  # more than the share
    with pytest.raises(ValueError):
        DynamicParams(2, W, trade_mhz=10.0, cap_units=0)
    with pytest.raises(ValueError):
        DynamicParams(1, W, trade_mhz=10.0, cap_units=1)
    with pytest.raises(ValueError):
        params_for_cap(2, W, trade_mhz=30.0, balance_cap_mhz=20.0)


def test_quantized_cap_rounds_down():
    params = params_for_cap(2, W, trade_mhz=39.0, balance_cap_mhz=50.0)
    assert params.cap_units == 1
    assert params.balance_cap_mhz == 39.0


# --- ledger invariants under fuzzing --------------------------------------------


def test_fuzzed_ledger_conservation_caps_and_tiling():
    rng = random.Random(20_24)
    params = DynamicParams(4, 200.0, trade_mhz=10.0, cap_units=3, punishment_slots=2)
    state = initial_dynamic_state(params)
    observed = None
    full = SpectrumAllocation.full_band(params.band_mhz)
    for t in range(20_000):
        reports = [rng.randint(0, 1) for _ in range(4)]
        state, allocs, trades = dynamic_step(params, state, reports, observed)
        assert sum(state.ledger.units) == 0
        assert all(abs(u) <= params.cap_units for u in state.ledger.units)
        in_punishment = all(a == full for a in allocs)
        if not in_punishment:
            assert sum(a.width for a in allocs) == pytest.approx(params.band_mhz)
            borrow_side = sum(1 for r, u in zip(reports, state.ledger.units) if r == 1)
            assert len(trades) <= min(
                sum(reports), len(reports) - sum(reports)
            )
        observed = list(allocs)
        if rng.random() < 0.01 and not in_punishment:
            observed[rng.randrange(4)] = full  # someone misbehaves


def test_punishment_reentry_restores_ledger_exactly():
    params = DynamicParams(2, W, trade_mhz=25.0, cap_units=2, punishment_slots=4)
    state = initial_dynamic_state(params)
    state, allocs, _ = dynamic_step(params, state, [1, 0])
    snapshot = state.ledger
    observed = [SpectrumAllocation.full_band(W), allocs[1]]
    for _ in range(4):  # the trigger slot is the first of the four
        state, allocs, trades = dynamic_step(params, state, [0, 1], observed)
        assert trades == []
        observed = allocs
    assert not state.in_punishment()
    assert state.ledger == snapshot


def test_three_state_chain_occupancy_matches_stationary_law():
    params = DynamicParams(2, W, trade_mhz=25.0, cap_units=1)
    model = UtilityModel(W, 100.0, family=CobbDouglasUtility())
    specs = [two_level(0.25), two_level(0.5)]
    # exact stationary occupancy of operator 0's balance
    from bandshare.verifier import build_balance_chain, stationary_distribution

    chain = build_balance_chain(params, model, specs)
    mu = stationary_distribution(chain.transitions, start_index=1)

    rng = random.Random(99)
    state = initial_dynamic_state(params)
    counts = [0, 0, 0]
    slots = 60_000
    for _ in range(slots):
        reports = [int(rng.random() < 0.25), int(rng.random() < 0.5)]
        state, _, _ = dynamic_step(params, state, reports)
        counts[state.ledger.units[0] + 1] += 1
    for i in range(3):
        se = (mu[i] * (1 - mu[i]) / slots) ** 0.5
        # serial correlation inflates the error; allow a generous factor
        assert abs(counts[i] / slots - mu[i]) < 8 * se + 0.005


# --- trade size selection --------------------------------------------------------


def test_choose_trade_size_reference_setup():
    model = UtilityModel(W, 1000.0, family=CobbDouglasUtility())
    specs = [two_level(0.25), two_level(0.5)]
    choice = choose_trade_size(2, W, 50.0, model, specs, 0.99)
    assert choice.trade_mhz == 39.0
    assert choice.cap_units == 1
    # exhaustive oracle: no certified candidate does better
    from bandshare.verifier import min_punishment_slots, verify_truthfulness_exact
    from bandshare.static_sharing import InfeasiblePunishmentError
    from bandshare.verifier import borrow_repay_margin_ok

    best = None
    for m in range(1, 51):
        d = float(m)
        p = params_for_cap(2, W, d, 50.0)
        if not borrow_repay_margin_ok(model, 50.0, d):
            continue
        try:
            min_punishment_slots(p, model, specs)
        except InfeasiblePunishmentError:
            continue
        if any(f.profitable for f in verify_truthfulness_exact(p, model, specs, 0.99)):
            continue
        rev = stationary_sum_revenue(p, model, specs)
        if best is None or rev > best[1]:
            best = (d, rev)
    assert best[0] == choice.trade_mhz
    assert best[1] == pytest.approx(choice.stationary_sum_revenue, rel=1e-12)


@pytest.mark.parametrize("share", [100.0 / 3, 50.0, 12.5])
@pytest.mark.parametrize("cap", [0.5, 1.0, 7.5, 50.0, 400.0])
def test_trade_candidates_match_the_one_mhz_grid(share, cap):
    # the candidate loop the trade chooser and the cap sweep each ran
    grid = []
    for m in range(1, int(round(share)) + 1):
        d = m * 1.0
        if d > share or int(cap // d) < 1:
            continue
        grid.append(d)
    got = trade_candidates(share, cap)
    assert got == grid
    assert [type(d) for d in got] == [float] * len(grid)


def test_choose_trade_size_linear_family_not_certifiable():
    # the linear family leaves no deterrence margin at low traffic, so no
    # candidate gets a finite punishment length
    model = UtilityModel(W, 1000.0, family=LinearUtility())
    specs = [two_level(0.25), two_level(0.5)]
    with pytest.raises(NoCertifiedTradeSizeError):
        choose_trade_size(2, W, 50.0, model, specs, 0.99)


def test_choose_trade_size_degenerate_traffic_gate():
    # with no high-traffic slots balances can never move: the equilibrium
    # hypothesis fails and the chooser refuses rather than certify
    model = UtilityModel(W, 1000.0, family=CobbDouglasUtility())
    specs = [two_level(0.0), two_level(0.0)]
    with pytest.raises(HypothesisViolationError):
        choose_trade_size(2, W, 50.0, model, specs, 0.99)


def test_trade_count_equals_smaller_eligible_side():
    import random as _random

    rng = _random.Random(7)
    params = DynamicParams(5, 250.0, trade_mhz=10.0, cap_units=2)
    for _ in range(500):
        units = []
        while len(units) < 4:
            units.append(rng.randint(-2, 2))
        units.append(-sum(units))
        if abs(units[-1]) > 2:
            continue
        ledger = BalanceLedger(tuple(units))
        reports = [rng.randint(0, 1) for _ in range(5)]
        trades = trading_policy(params, reports, ledger)
        eligible_borrowers = sum(
            1 for i in range(5) if reports[i] == 1 and units[i] - 1 >= -2
        )
        eligible_lenders = sum(
            1 for i in range(5) if reports[i] == 0 and units[i] + 1 <= 2
        )
        assert len(trades) == min(eligible_borrowers, eligible_lenders)
