import math

import pytest

from bandshare.dynamic_sharing import DynamicParams, params_for_cap
from bandshare.engine import (
    DeviationInjector,
    DynamicScheme,
    EntryScheme,
    FullSpectrumScheme,
    Scenario,
    StaticScheme,
    Trace,
    auto_horizon,
    replicate,
    revenue,
    run,
)
from bandshare.entry import EntryParams
from bandshare.static_sharing import StaticParams
from bandshare.traffic import two_level
from bandshare.utility import CobbDouglasUtility, LinearUtility, UtilityModel

W = 100.0
LIN = UtilityModel(W, 100.0, family=LinearUtility())
CD1000 = UtilityModel(W, 1000.0, family=CobbDouglasUtility())
HALF = two_level(0.5)


def scenario(scheme, model=LIN, n=2, horizon=400, discount=0.99, seed=3, reps=1,
             specs=None):
    return Scenario(
        n=n,
        model=model,
        traffic_specs=tuple(specs or [HALF] * n),
        scheme=scheme,
        discount=discount,
        horizon=horizon,
        seed=seed,
        replications=reps,
    )


def certified_dynamic():
    params = params_for_cap(2, W, 39.0, 50.0, punishment_slots=725)
    return scenario(
        DynamicScheme(params),
        model=CD1000,
        specs=[two_level(0.25), two_level(0.5)],
        horizon=auto_horizon(0.99),
        seed=11,
    )


# --- revenue accounting -----------------------------------------------------------


def test_full_spectrum_revenue_matches_expected_floor():
    scen = scenario(FullSpectrumScheme(), horizon=3000, reps=30)
    summary = replicate(scen)
    expected = 0.5 * W * math.log2(1.0 + 100.0 / 101.0)  # 49.64
    for mean, se in zip(summary.means, summary.std_errs):
        assert abs(mean - expected) < 4 * se


def test_static_revenue_matches_equal_split_value():
    params = StaticParams(2, W, punishment_slots=3)
    scen = scenario(StaticScheme(params), horizon=3000, reps=30)
    summary = replicate(scen)
    expected = 0.5 * 50.0 * math.log2(101.0)  # 166.46
    for mean, se in zip(summary.means, summary.std_errs):
        assert abs(mean - expected) < 4 * se


def test_single_slot_zero_discount_is_the_slot_utility():
    scen = scenario(FullSpectrumScheme(), horizon=1, discount=0.0)
    trace, report = run(scen)
    assert report.revenues == tuple(trace.utility[:2])
    assert report.tail_bound == 0.0


def test_revenue_recomputation_matches_run():
    scen = certified_dynamic()
    trace, report = run(scen)
    again = revenue(trace, scen.discount)
    for a, b in zip(report.revenues, again.revenues):
        assert a == pytest.approx(b, rel=1e-12)


def test_revenue_geometric_identities():
    trace = Trace()
    for t in range(200):
        trace.slot.append(t)
        trace.operator.append(0)
        trace.traffic.append(1.0)
        trace.width_mhz.append(0.0)
        trace.utility.append(1.0)  # constant flow
        trace.balance_mhz.append(0.0)
        trace.phase.append("cooperation")
    rep = revenue(trace, 0.5)
    assert rep.revenues[0] == pytest.approx(1.0, abs=1e-12)

    one_shot = Trace()
    for t in range(60):
        one_shot.slot.append(t)
        one_shot.operator.append(0)
        one_shot.traffic.append(1.0)
        one_shot.width_mhz.append(0.0)
        one_shot.utility.append(1.0 if t == 0 else 0.0)
        one_shot.balance_mhz.append(0.0)
        one_shot.phase.append("cooperation")
    assert revenue(one_shot, 0.5).revenues[0] == pytest.approx(0.5)


def test_revenue_matches_independent_summation():
    import random

    rng = random.Random(8)
    trace = Trace()
    utilities = []
    for t in range(500):
        u = rng.random() * 100
        utilities.append(u)
        trace.slot.append(t)
        trace.operator.append(0)
        trace.traffic.append(0.0)
        trace.width_mhz.append(0.0)
        trace.utility.append(u)
        trace.balance_mhz.append(0.0)
        trace.phase.append("cooperation")
    oracle = sum(0.01 * 0.99**t * u for t, u in enumerate(utilities))
    assert revenue(trace, 0.99).revenues[0] == pytest.approx(oracle, rel=1e-12)


def test_revenue_bounded_by_exclusive_band_value():
    scen = certified_dynamic()
    _, report = run(scen)
    bound = CD1000.max_utility(1.0)
    assert all(0.0 <= v <= bound for v in report.revenues)


# --- determinism -------------------------------------------------------------------


def test_runs_are_deterministic():
    scen = certified_dynamic()
    t1, r1 = run(scen)
    t2, r2 = run(scen)
    assert r1 == r2
    assert t1 == t2


def test_replicate_single_equals_run():
    scen = scenario(FullSpectrumScheme(), horizon=100)
    _, report = run(scen)
    summary = replicate(scen)
    assert summary.means == report.revenues
    assert summary.std_errs == (0.0, 0.0)


def test_replicate_deterministic_traffic_zero_se():
    scen = scenario(
        FullSpectrumScheme(), horizon=50, reps=8, specs=[two_level(1.0)] * 2
    )
    summary = replicate(scen)
    assert all(se < 1e-12 for se in summary.std_errs)  # zero up to rounding


# --- scheme behavior under conformance ----------------------------------------------


def test_certified_dynamic_never_enters_punishment():
    base = certified_dynamic()
    for seed in range(6):
        scen = Scenario(
            n=base.n, model=base.model, traffic_specs=base.traffic_specs,
            scheme=base.scheme, discount=base.discount, horizon=800,
            seed=seed, replications=1,
        )
        trace, _ = run(scen)
        assert all(ph == "cooperation" for ph in trace.phase)


def test_dynamic_balances_stay_conserved_in_trace():
    scen = certified_dynamic()
    trace, _ = run(scen)
    by_slot = {}
    for slot, op, _lam, _w, _u, bal, _ph in trace.rows():
        by_slot.setdefault(slot, 0.0)
        by_slot[slot] += bal
    assert all(abs(total) < 1e-9 for total in by_slot.values())


def test_entry_scheme_market_grows_to_size():
    params = EntryParams(cost=40.0, model=LIN, traffic=HALF, arrival_slots=(0, 1, 2))
    scen = scenario(EntryScheme(params), n=3, horizon=30, discount=0.9)
    trace, report = run(scen)
    final_widths = trace.width_mhz[-3:]
    assert sorted(final_widths) == [0.0, 50.0, 50.0]  # third stayed out
    assert report.revenues[2] == 0.0


# --- injected deviations --------------------------------------------------------------


def test_full_band_injection_triggers_punishment_window():
    scen = certified_dynamic()
    inj = DeviationInjector(operator=0, slot=10, kind="full_band")
    trace, _ = run(scen, [inj])
    phases = [ph for slot, op, *_rest, ph in
              ((s, o, ph) for s, o, ph in zip(trace.slot, trace.operator, trace.phase))
              if op == 0]
    assert phases[10] == "cooperation"  # deviation slot itself
    assert phases[11] == "punishment"  # answered the next slot
    assert phases[11 : 11 + 725] == ["punishment"] * 725
    assert phases[11 + 725] == "cooperation"


def test_one_shot_lie_changes_only_reports_not_detection():
    scen = certified_dynamic()
    inj = DeviationInjector(operator=0, slot=5, kind="lie_high")
    trace, _ = run(scen, [inj])
    assert all(ph == "cooperation" for ph in trace.phase)  # lies are undetectable


def test_lie_injector_rejected_outside_dynamic():
    scen = scenario(StaticScheme(StaticParams(2, W, punishment_slots=3)))
    with pytest.raises(ValueError):
        run(scen, [DeviationInjector(operator=0, slot=1, kind="lie_high")])


def test_use_width_injector_validated():
    scen = certified_dynamic()
    with pytest.raises(ValueError):
        run(scen, [DeviationInjector(operator=0, slot=1, kind="use_width")])
    with pytest.raises(ValueError):
        run(scen, [DeviationInjector(operator=0, slot=10**9, kind="full_band")])


def test_width_injection_computes_interference_utilities():
    # operator 0 grabs the full band in slot 0 of a static game: both see
    # interference on operator 1's block that slot
    params = StaticParams(2, W, punishment_slots=3)
    scen = scenario(StaticScheme(params), horizon=3, discount=0.0,
                    specs=[two_level(1.0)] * 2)
    inj = DeviationInjector(operator=0, slot=0, kind="full_band")
    trace, _ = run(scen, [inj])
    m = LIN
    overlap_width = 50.0 + 50.0 * m.rate(100.0 / 101.0) / m.rate(100.0)
    assert trace.utility[0] == pytest.approx(m.pi(overlap_width, 1.0), rel=1e-12)
    victim_width = 50.0 * m.rate(100.0 / 101.0) / m.rate(100.0)
    assert trace.utility[1] == pytest.approx(m.pi(victim_width, 1.0), rel=1e-12)


def test_scenario_validation():
    with pytest.raises(ValueError):
        scenario(FullSpectrumScheme(), discount=1.0)
    with pytest.raises(ValueError):
        scenario(FullSpectrumScheme(), horizon=0)
    with pytest.raises(ValueError):
        Scenario(2, LIN, (HALF,), FullSpectrumScheme(), 0.9, 10, 1)
    with pytest.raises(ValueError):
        scenario(
            DynamicScheme(params_for_cap(2, W, 10.0, 50.0)),
            specs=[HALF, two_level(0.5).__class__(levels=(0.0, 2.0), probs=(0.5, 0.5))],
        )


def test_auto_horizon_rule():
    assert auto_horizon(0.99) == math.ceil(math.log(1e-8) / math.log(0.99))
    assert auto_horizon(0.0) == 1


# --- paired deviation experiments ------------------------------------------------


def _paired_static_harm(model, reps=1000, horizon=300):
    from bandshare.static_sharing import min_punishment_length

    specs = [HALF, HALF]
    t_len = min_punishment_length(model, specs, StaticParams(2, W))
    params = StaticParams(2, W, punishment_slots=t_len)
    scen = Scenario(
        n=2, model=model, traffic_specs=tuple(specs), scheme=StaticScheme(params),
        discount=0.99, horizon=horizon, seed=21, replications=1,
    )
    inj = [DeviationInjector(operator=0, slot=10, kind="full_band")]
    diffs = []
    for r in range(reps):
        _, base = run(scen, replication=r, collect_trace=False)
        _, dev = run(scen, inj, replication=r, collect_trace=False)
        diffs.append(base.revenues[0] - dev.revenues[0])
    mean = sum(diffs) / reps
    se = (sum((d - mean) ** 2 for d in diffs) / (reps - 1) / reps) ** 0.5
    return mean, se


@pytest.mark.parametrize(
    "model", [LIN, UtilityModel(W, 100.0, family=CobbDouglasUtility())],
    ids=["linear", "cobb_douglas"],
)
def test_one_shot_deviation_loses_under_sized_static_punishment(model):
    harm, se = _paired_static_harm(model)
    assert harm > 2.326 * se  # strictly lower revenue at 99% confidence


def test_entry_revenue_covers_cost_only_up_to_market_size():
    cost = 40.0  # market supports two operators
    params = EntryParams(cost=cost, model=LIN, traffic=HALF, arrival_slots=(0, 1, 2))
    scen = scenario(EntryScheme(params), n=3, horizon=auto_horizon(0.99), reps=40)
    summary = replicate(scen)
    for mean, se in zip(summary.means[:2], summary.std_errs[:2]):
        assert mean - 3 * se > cost  # investing pays for the first two

    # a third operator forcing its way in faces permanent full-band sharing
    # and cannot recoup the cost
    from bandshare.entry import entry_step, initial_entry_state
    from bandshare import traffic as traffic_mod
    import bandshare.rng as rng_mod

    revenues = []
    for rep in range(40):
        state = initial_entry_state(params)
        seed = rng_mod.key_hash(99, rep)
        observed = None
        value = 0.0
        weight = 1.0 - 0.99
        for t in range(auto_horizon(0.99)):
            arrival = t in (0, 1, 2)
            rogue = t >= 2  # the third entrant transmits from its arrival on
            obs = observed[: state.active] if observed is not None else None
            state, _, allocs = entry_step(
                params, state, observed_allocs=obs, arrival=arrival,
                rogue_entrant_transmits=rogue,
            )
            lam = traffic_mod.sample(HALF, seed, 2, t)
            if t >= 2:
                # everyone (incumbents and the rogue) on the full band
                value += weight * LIN.full_spectrum_utility(3, lam)
            weight *= 0.99
            observed = allocs
        revenues.append(value)
    mean = sum(revenues) / len(revenues)
    assert mean < cost


@pytest.mark.parametrize(
    "params, cells",
    [
        (DynamicParams(10, W, 10.0, cap_units=1), 91678720),
        (DynamicParams(4, W, 1.0, cap_units=50), 43961664),
    ],
)
def test_dynamic_fails_up_front_above_the_table_limit(params, cells):
    scen = scenario(DynamicScheme(params), n=params.n, horizon=5, reps=2)
    message = f"table of {cells} .* cells, above the simulation limit of 1000000"
    with pytest.raises(ValueError, match=message):
        run(scen)
    with pytest.raises(ValueError, match=message):
        replicate(scen)
    assert "outcomes" not in vars(params)  # refused before building any of it
