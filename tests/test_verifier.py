import math

import numpy as np
import pytest

from bandshare.dynamic_sharing import DynamicParams, params_for_cap
from bandshare.static_sharing import InfeasiblePunishmentError, StaticParams
from bandshare.traffic import two_level
from bandshare.utility import CobbDouglasUtility, LinearUtility, TabulatedRate, UtilityModel
from bandshare.verifier import (
    HypothesisViolationError,
    borrow_repay_margin_ok,
    build_balance_chain,
    count_balance_states,
    discounted_sum_revenue,
    enumerate_balance_states,
    lying_gain,
    lying_loss_bound,
    mc_value_estimate,
    min_punishment_slots,
    stationary_sum_revenue,
    value_function,
    verify_detectable_exact,
    verify_detectable_n_ops,
    verify_dynamic_profile,
    verify_static_profile,
    verify_truthfulness_exact,
    verify_truthfulness_n_ops,
)

W = 100.0


def cd_model(power=100.0):
    return UtilityModel(W, power, family=CobbDouglasUtility())


def linear_model(power=100.0):
    return UtilityModel(W, power, family=LinearUtility())


REF_MODEL = cd_model(1000.0)
REF_SPECS = [two_level(0.25), two_level(0.5)]
REF_PARAMS = params_for_cap(2, W, 39.0, 50.0, punishment_slots=725)


# --- value function ------------------------------------------------------------


def test_value_at_zero_discount_is_one_slot_expectation():
    chain = build_balance_chain(REF_PARAMS, REF_MODEL, REF_SPECS)
    table = value_function(chain, 0.0)
    assert np.allclose(table.values, chain.rewards, rtol=1e-12)


def test_value_constant_when_no_trades_possible():
    params = DynamicParams(2, W, trade_mhz=10.0, cap_units=1)
    model = cd_model()
    # joint law with no one-sided high events: balances never move
    joint = {(0, 0): 0.5, (1, 1): 0.5}
    chain = build_balance_chain(params, model, [two_level(0.5)] * 2, joint_probs=joint)
    table = value_function(chain, 0.9)
    expected = 0.5 * model.pi(50.0, 0.0) + 0.5 * model.pi(50.0, 1.0)
    assert np.allclose(table.values, expected, rtol=1e-12)


def test_value_monotone_with_bounded_increments():
    for k in (1, 3, 5):
        params = params_for_cap(2, W, 10.0, 10.0 * k)
        chain = build_balance_chain(params, REF_MODEL, REF_SPECS)
        values = value_function(chain, 0.99).values
        inc_cap = REF_MODEL.pi(60.0, 1.0) - REF_MODEL.pi(50.0, 1.0)
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-9
            assert hi - lo <= inc_cap + 1e-9


def test_value_solve_matches_monte_carlo_rollout():
    params = params_for_cap(2, W, 25.0, 50.0)
    chain = build_balance_chain(params, REF_MODEL, REF_SPECS)
    table = value_function(chain, 0.95)
    means, ses = mc_value_estimate(chain, 0.95, replications=3000, seed=17)
    for i, v in enumerate(table.values):
        assert abs(means[i] - v) < 3.0 * ses[i] + 1e-6


def test_value_rejects_bad_discount():
    chain = build_balance_chain(REF_PARAMS, REF_MODEL, REF_SPECS)
    with pytest.raises(ValueError):
        value_function(chain, 1.0)


THREE_PARAMS = DynamicParams(3, W, trade_mhz=5.0, cap_units=2, punishment_slots=40)
THREE_SPECS = [two_level(0.25), two_level(0.5), two_level(0.5)]


@pytest.mark.parametrize(
    "solve",
    [
        lambda: value_function(build_balance_chain(REF_PARAMS, REF_MODEL, REF_SPECS), 0.99),
        lambda: verify_detectable_exact(REF_PARAMS, REF_MODEL, REF_SPECS, 0.99),
        lambda: discounted_sum_revenue(REF_PARAMS, REF_MODEL, REF_SPECS, 0.99),
        lambda: verify_truthfulness_n_ops(THREE_PARAMS, REF_MODEL, THREE_SPECS, 0.99),
        lambda: verify_detectable_n_ops(THREE_PARAMS, REF_MODEL, THREE_SPECS, 0.99),
    ],
    ids=["value_function", "pair_view", "discounted_revenue", "joint_lie", "joint_detectable"],
)
def test_every_direct_solve_checks_its_residual(solve, monkeypatch):
    solve()  # passes with the exact solver
    exact = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: exact(a, b) + 1e-3)
    with pytest.raises(ArithmeticError, match="residual"):
        solve()


# --- one-slot lying gain ---------------------------------------------------------


def test_lying_gain_both_low_with_slack():
    params = params_for_cap(2, W, 10.0, 50.0)
    model = cd_model()
    got = lying_gain((0, 0), 0, params, model)
    expected = model.pi(60.0, 0.0) - model.pi(50.0, 0.0)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(33.2119, abs=5e-4)


def test_lying_gain_zero_at_balance_floor():
    params = params_for_cap(2, W, 10.0, 50.0)
    assert lying_gain((0, 0), -5, params, cd_model()) == 0.0


def test_lying_gain_all_four_traffic_pairs():
    params = params_for_cap(2, W, 10.0, 50.0)
    model = cd_model()
    pi = model.pi
    # slack balance: every lie changes this slot's width
    assert lying_gain((0, 0), 0, params, model) == pytest.approx(pi(60.0, 0.0) - pi(50.0, 0.0))
    assert lying_gain((0, 1), 0, params, model) == pytest.approx(pi(50.0, 0.0) - pi(40.0, 0.0))
    assert lying_gain((1, 0), 0, params, model) == pytest.approx(pi(50.0, 1.0) - pi(60.0, 1.0))
    assert lying_gain((1, 1), 0, params, model) == pytest.approx(pi(40.0, 1.0) - pi(50.0, 1.0))


# --- borrow/repay margin ----------------------------------------------------------


def test_margin_reference_point():
    model = cd_model()
    assert borrow_repay_margin_ok(model, 50.0, 10.0)
    lhs = model.pi(50.0, 0.0) - model.pi(40.0, 0.0)
    rhs = model.pi(60.0, 1.0) - model.pi(50.0, 1.0)
    assert lhs == pytest.approx(33.8877, abs=5e-4)
    assert rhs == pytest.approx(166.0596, abs=5e-4)


def test_margin_linear_family_strict():
    model = linear_model()
    # 0 at low traffic versus r(P)*trade at high traffic
    assert borrow_repay_margin_ok(model, 50.0, 10.0)


def test_margin_small_trade_for_concave_supermodular_family():
    model = cd_model()
    assert borrow_repay_margin_ok(model, 50.0, 0.5)


# --- outcome table pricing ---------------------------------------------------------


def test_equal_models_share_one_priced_table():
    # models built apart but equal must not each add a priced table
    table = DynamicParams(2, W, trade_mhz=12.5, cap_units=4).outcomes
    first = table.utilities(UtilityModel(W, 1000.0)).copy()
    for _ in range(1000):
        got = table.utilities(UtilityModel(W, 1000.0))
    assert len(table._priced) == 1
    assert got.tobytes() == first.tobytes()


def test_equal_tabulated_rate_models_share_one_priced_table():
    table = DynamicParams(2, W, trade_mhz=12.5, cap_units=4).outcomes
    knots = [(0, 0), (1000, 10)]
    for _ in range(1000):
        table.utilities(UtilityModel(W, 1000.0, rate_fn=TabulatedRate(knots)))
    assert len(table._priced) == 1
    table.utilities(UtilityModel(W, 1000.0, rate_fn=TabulatedRate([(0, 0), (1000, 11)])))
    assert len(table._priced) == 2


# --- exact truthfulness check ------------------------------------------------------


def test_reference_profile_is_truthful_at_high_discount():
    findings = verify_truthfulness_exact(REF_PARAMS, REF_MODEL, REF_SPECS, 0.99)
    assert findings
    assert not any(f.profitable for f in findings)


def test_myopic_lie_is_profitable_without_future():
    findings = verify_truthfulness_exact(REF_PARAMS, REF_MODEL, REF_SPECS, 0.0)
    profitable = [f for f in findings if f.profitable]
    assert profitable
    assert any(f.kind == "lie_high" and f.traffic == (0, 0) for f in profitable)


def test_one_sided_traffic_violates_hypothesis():
    with pytest.raises(HypothesisViolationError):
        verify_truthfulness_exact(
            REF_PARAMS, REF_MODEL, [two_level(0.0), two_level(0.5)], 0.99
        )


def test_loss_bound_dominates_gain_at_high_discount():
    params = params_for_cap(2, W, 10.0, 50.0)
    model = cd_model()
    specs = [two_level(0.25), two_level(0.5)]
    gain = lying_gain((0, 0), 0, params, model)
    holding = []
    for discount in (0.9, 0.99, 0.999):
        ok = True
        for b in range(-params.cap_units + 1, params.cap_units + 1):
            bound = lying_loss_bound(params, model, specs, discount, b)
            if bound.value <= lying_gain((0, 0), b, params, model):
                ok = False
        holding.append((discount, ok))
    assert holding[-1][1], f"empirical threshold sweep: {holding}"
    assert gain > 0


# --- hitting-time loss bound --------------------------------------------------------


def test_loss_bound_zero_without_future():
    params = params_for_cap(2, W, 10.0, 50.0)
    bound = lying_loss_bound(params, cd_model(), REF_SPECS, 0.0, 0)
    assert bound.value == 0.0


def test_loss_bound_brackets_at_discount_near_one():
    params = params_for_cap(2, W, 10.0, 50.0)
    model = cd_model()
    bound = lying_loss_bound(params, model, REF_SPECS, 0.9999, 0)
    lend_margin = model.pi(50.0, 0.0) - model.pi(40.0, 0.0)
    borrow_margin = model.pi(60.0, 1.0) - model.pi(50.0, 1.0)
    assert lend_margin < bound.undiscounted < borrow_margin
    assert bound.value == pytest.approx(bound.undiscounted, rel=2e-2)
    assert bound.tail_mass < 1e-12


def test_loss_bound_matches_alternating_chain_closed_form():
    # single-unit cap and a trade in every slot: the coupled trajectory
    # bounces between two states and the hitting law is a pair of coupled
    # geometric series with a two-line closed form
    p01, p10 = 0.6, 0.4
    discount = 0.97
    model = cd_model()
    params = params_for_cap(2, W, 10.0, 10.0)
    joint = {(0, 1): p01, (1, 0): p10}
    q_m = model.pi(50.0, 0.0) - model.pi(40.0, 0.0)
    p_m = model.pi(60.0, 1.0) - model.pi(50.0, 1.0)
    d = discount
    # L_top = d p01 q + d p10 L_bot ; L_bot = d p10 p + d p01 L_top
    l_top = (d * p01 * q_m + d * p10 * (d * p10 * p_m)) / (1 - d**2 * p10 * p01)
    l_bot = d * p10 * p_m + d * p01 * l_top
    got_top = lying_loss_bound(params, model, REF_SPECS, discount, 1, joint_probs=joint)
    got_bot = lying_loss_bound(params, model, REF_SPECS, discount, 0, joint_probs=joint)
    assert got_top.value == pytest.approx(l_top, abs=1e-10)
    assert got_bot.value == pytest.approx(l_bot, abs=1e-10)


def test_loss_bound_rejects_floor_balance():
    params = params_for_cap(2, W, 10.0, 50.0)
    with pytest.raises(ValueError):
        lying_loss_bound(params, cd_model(), REF_SPECS, 0.9, -5)


def test_joint_law_with_mass_outside_two_levels_is_refused():
    params = DynamicParams(2, W, trade_mhz=10.0, cap_units=3)
    joint = {(0, 0): 0.5, (0, 1): 0.125, (1, 1): 0.25, (2, 2): 0.125}
    with pytest.raises(ValueError, match=r"outside \{0,1\}\^2: \[\(2, 2\)\]"):
        stationary_sum_revenue(params, cd_model(), REF_SPECS, joint)


@pytest.mark.parametrize(
    "call, match",
    [
        (
            lambda: build_balance_chain(REF_PARAMS, REF_MODEL, REF_SPECS, operator=2),
            "operator must be 0 or 1",
        ),
        (
            lambda: lying_loss_bound(
                params_for_cap(2, W, 10.0, 30.0), cd_model(), REF_SPECS, 0.9, 4
            ),
            "balance outside the ledger caps",
        ),
        (
            lambda: mc_value_estimate(
                build_balance_chain(REF_PARAMS, REF_MODEL, REF_SPECS), 0.9, replications=1, seed=3
            ),
            "at least two replications",
        ),
    ],
    ids=["chain_operator", "loss_bound_balance", "mc_replications"],
)
def test_verifier_inputs_checked_up_front(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# --- punishment sizing ----------------------------------------------------------------


def test_punishment_sizing_linear_family_infeasible():
    params = params_for_cap(2, W, 10.0, 50.0)
    model = linear_model()
    # at low traffic the linear family earns nothing anywhere: punishment
    # cannot hurt, so no finite length deters
    with pytest.raises(InfeasiblePunishmentError):
        min_punishment_slots(params, model, [two_level(0.5)] * 2)


def test_punishment_sizing_reference_profile():
    t_len = min_punishment_slots(REF_PARAMS, REF_MODEL, REF_SPECS)
    assert t_len == 725
    # oracle: smallest integer beating the gain cap plus the value span
    model, params = REF_MODEL, REF_PARAMS
    w, d, k = 50.0, 39.0, 1
    gain_cap = max(model.max_utility(lam) - model.pi(w - d, lam) for lam in (0.0, 1.0))
    span = 2 * k * (model.pi(w + d, 1.0) - model.pi(w, 1.0))
    floor = model.pi(w - d, 0.0) - model.full_spectrum_utility(2, 0.0)
    t = 1
    while not t * floor > gain_cap + span:
        t += 1
    assert t_len == t


def test_punishment_sizing_small_trade_limit():
    model = cd_model()
    trade = 1e-6
    params = DynamicParams(2, W, trade_mhz=trade, cap_units=1)
    t_len = min_punishment_slots(params, model, [two_level(0.5)] * 2)
    w = 50.0
    gain_cap = max(model.max_utility(lam) - model.pi(w - trade, lam) for lam in (0.0, 1.0))
    span = 2 * (model.pi(w + trade, 1.0) - model.pi(w, 1.0))
    floor = model.pi(w - trade, 0.0) - model.full_spectrum_utility(2, 0.0)
    assert span < 1e-3  # the extra term vanishes with the trade size
    assert t_len == math.floor((gain_cap + span) / floor) + 1


def test_detectable_deviations_not_profitable_with_sized_punishment():
    findings = verify_detectable_exact(REF_PARAMS, REF_MODEL, REF_SPECS, 0.99)
    assert findings
    assert not any(f.profitable for f in findings)


def test_detectable_deviation_profitable_when_punishment_too_short():
    import dataclasses

    short = dataclasses.replace(REF_PARAMS, punishment_slots=1)
    findings = verify_detectable_exact(short, REF_MODEL, REF_SPECS, 0.99)
    assert any(f.profitable for f in findings)


def test_static_profile_verdicts_track_the_sizing():
    from bandshare.static_sharing import min_punishment_length

    model = linear_model()
    specs = [two_level(0.5)] * 2
    t_min = min_punishment_length(model, specs, StaticParams(2, W))
    sized = verify_static_profile(StaticParams(2, W, punishment_slots=t_min), model, specs, 0.99)
    assert not any(f.profitable for f in sized)
    short = verify_static_profile(
        StaticParams(2, W, punishment_slots=t_min - 1), model, specs, 0.99
    )
    assert any(f.profitable for f in short)


# --- many operators ---------------------------------------------------------------------


def test_state_enumeration_counts():
    assert count_balance_states(2, 1) == 3
    assert count_balance_states(3, 1) == 7
    states = enumerate_balance_states(3, 1)
    assert len(states) == 7
    assert all(sum(s) == 0 for s in states)
    assert len(set(states)) == 7
    assert count_balance_states(6, 4) == 32661


def test_three_operators_truthful_exact():
    params = DynamicParams(3, W, trade_mhz=10.0, cap_units=1, punishment_slots=5)
    model = cd_model(1000.0)
    specs = [two_level(0.3)] * 3
    findings = verify_truthfulness_n_ops(params, model, specs, 0.99)
    assert findings
    assert not any(f.profitable for f in findings)


def test_three_operators_double_swing_cases_bounded():
    params = DynamicParams(3, W, trade_mhz=10.0, cap_units=1, punishment_slots=5)
    model = cd_model(1000.0)
    share, trade = params.share_mhz, params.trade_mhz
    specs = [two_level(0.3)] * 3
    findings = verify_truthfulness_n_ops(params, model, specs, 0.99)
    doubles = [f for f in findings if f.note]
    assert doubles  # borrow-instead-of-lend states exist
    cap = model.pi(share + trade, 0.0) - model.pi(share - trade, 0.0)
    twice_lend = 2.0 * (model.pi(share, 0.0) - model.pi(share - trade, 0.0))
    assert cap < twice_lend  # the concavity inequality behind the deterrence
    for f in doubles:
        assert f.gain <= (1 - 0.99) * cap + 1e-12
        assert not f.profitable


def test_two_operator_reduction_matches_pair_verifier():
    params = params_for_cap(2, W, 25.0, 50.0, punishment_slots=9)
    model = cd_model(1000.0)
    specs = [two_level(0.25), two_level(0.5)]
    pair = verify_truthfulness_exact(params, model, specs, 0.99)
    joint = verify_truthfulness_n_ops(params, model, specs, 0.99)

    def canon(findings):
        return sorted(
            (f.operator, f.balances_mhz, f.traffic, f.kind, round(f.gain, 9), round(f.loss, 9), f.profitable)
            for f in findings
        )

    assert canon(pair) == canon(joint)


def test_monte_carlo_mode_reports_confidence():
    params = DynamicParams(3, W, trade_mhz=10.0, cap_units=1, punishment_slots=5)
    model = cd_model(1000.0)
    specs = [two_level(0.3)] * 3
    findings = verify_truthfulness_n_ops(
        params, model, specs, 0.99, exact_limit=3, seed=5, mc_states=4,
        mc_replications=600,
    )
    assert findings
    assert all(f.estimate_se is not None for f in findings)
    assert not any(f.profitable for f in findings)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_monte_carlo_mode_refuses_one_replication():
    # one paired rollout has no standard error: refused before any rollout runs
    params = DynamicParams(3, W, trade_mhz=10.0, cap_units=2)
    with pytest.raises(ValueError, match="at least two replications"):
        verify_truthfulness_n_ops(
            params, cd_model(1000.0), [two_level(0.5)] * 3, 0.99,
            exact_limit=1, mc_states=1, mc_replications=1,
        )


def test_n_op_hypothesis_gate():
    params = DynamicParams(3, W, trade_mhz=10.0, cap_units=1)
    with pytest.raises(HypothesisViolationError):
        verify_truthfulness_n_ops(
            params, cd_model(), [two_level(0.0), two_level(0.5), two_level(0.5)], 0.99
        )


# --- combined profile check ---------------------------------------------------------------


def test_combined_profile_verdict():
    findings = verify_dynamic_profile(REF_PARAMS, REF_MODEL, REF_SPECS, 0.99)
    kinds = {f.kind for f in findings}
    assert kinds == {"lie_high", "lie_low", "detectable"}
    assert not any(f.profitable for f in findings)


def test_stationary_revenue_reference_value():
    got = stationary_sum_revenue(REF_PARAMS, REF_MODEL, REF_SPECS)
    assert got == pytest.approx(1503.149, abs=5e-3)


def test_six_operators_monte_carlo_mode():
    # 32661 joint states exceed a 10k exact budget, so the paired estimator
    # with common random numbers takes over
    params = DynamicParams(6, 300.0, trade_mhz=10.0, cap_units=4, punishment_slots=9)
    model = UtilityModel(300.0, 1000.0, family=CobbDouglasUtility())
    specs = [two_level(0.4)] * 6
    assert count_balance_states(6, 4) == 32661
    findings = verify_truthfulness_n_ops(
        params, model, specs, 0.99, exact_limit=10_000, seed=3,
        mc_states=2, mc_replications=400, mc_horizon=500,
    )
    assert len(findings) == 2 * 6 * 2  # sampled states x operators x own levels
    assert all(f.estimate_se is not None and f.estimate_se > 0 for f in findings)
    assert not any(f.profitable for f in findings)


def test_linear_family_lies_never_strictly_profitable():
    # with utility linear in traffic, a low-traffic slot is worth zero no
    # matter the width, so even the myopic lie only breaks even
    params = params_for_cap(2, W, 10.0, 50.0, punishment_slots=3)
    model = linear_model()
    findings = verify_truthfulness_exact(params, model, REF_SPECS, 0.0)
    assert findings
    assert not any(f.profitable for f in findings)
    assert all(f.gain <= 1e-12 for f in findings)
