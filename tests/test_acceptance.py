"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds (pytest reports the
failures).  Monte Carlo criteria use fixed seeds, so the suite is
deterministic end to end.
"""

import math
import random
import time

import pytest

from bandshare.dynamic_sharing import DynamicParams, choose_trade_size, params_for_cap
from bandshare.engine import (
    DeviationInjector,
    DynamicScheme,
    Scenario,
    auto_horizon,
    replicate,
    run,
)
from bandshare.entry import full_spectrum_expected_utility, max_entrants
from bandshare.figures import (
    COMPARISON_TRAFFIC,
    balance_cap_rows,
    comparison_model,
    entry_model,
    full_sharing_total,
    static_full_crossover_power,
    static_sharing_total,
)
from bandshare.spectrum import SpectrumAllocation
from bandshare.traffic import two_level
from bandshare.utility import LinearUtility, UtilityModel, check_interference_limited
from bandshare.verifier import (
    build_balance_chain,
    discounted_sum_revenue,
    mc_value_estimate,
    min_punishment_slots,
    value_function,
    verify_detectable_exact,
    verify_truthfulness_exact,
)
from scalar_dynamic import dynamic_step, initial_dynamic_state

W = 100.0
DISCOUNT = 0.99


def _passed(name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: PASS{suffix}", flush=True)


def _bisect_transition(check, lo: float, hi: float) -> float:
    assert not check(lo) and check(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if check(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def certified_reference():
    model = comparison_model(1000.0)
    choice = choose_trade_size(2, W, 50.0, model, list(COMPARISON_TRAFFIC), DISCOUNT)
    params = params_for_cap(
        2, W, choice.trade_mhz, 50.0, punishment_slots=choice.punishment_slots
    )
    return model, params


def test_1_interference_limited_threshold():
    start = time.time()

    def pairwise(power: float) -> bool:
        model = UtilityModel(W, power)
        return check_interference_limited(model, n_max=2, include_limit=False).holds

    threshold = _bisect_transition(pairwise, 1.0, 2.5)
    assert threshold == pytest.approx(1.62, abs=0.01)

    # the unrestricted condition (any operator count) flips later, at e - 1
    def unrestricted(power: float) -> bool:
        return check_interference_limited(UtilityModel(W, power)).holds

    full_threshold = _bisect_transition(unrestricted, 1.0, 2.5)
    assert full_threshold == pytest.approx(math.e - 1.0, abs=0.01)

    elapsed = time.time() - start
    assert elapsed < 1.0
    _passed(
        "1 interference-limited threshold",
        f"pairwise {threshold:.4f}, unrestricted {full_threshold:.4f}, {elapsed:.2f}s",
    )


def test_2_entry_thresholds():
    start = time.time()
    model = entry_model()
    half = two_level(0.5)
    expected = [
        50.0 * math.log2(1.0 + 100.0 / (100.0 * (n - 1) + 1.0)) for n in (1, 2, 3, 4)
    ]
    for n, want in zip((1, 2, 3, 4), expected):
        got = full_spectrum_expected_utility(n, model, half)
        assert abs(got - want) / want < 1e-9
    assert max_entrants(40.0, model, half) == 2
    assert max_entrants(100.0, model, half) == 1
    assert max_entrants(400.0, model, half) == 0
    costs = [10.0 * (500.0 / 10.0) ** (i / 49.0) for i in range(50)]
    sizes = [max_entrants(c, model, half) for c in costs]
    assert all(b <= a for a, b in zip(sizes, sizes[1:]))
    elapsed = time.time() - start
    assert elapsed < 1.0
    _passed("2 entry thresholds", f"floors {[round(v, 2) for v in expected]}, {elapsed:.2f}s")


def test_3_static_full_crossover():
    start = time.time()
    power = static_full_crossover_power()
    assert power == pytest.approx(1.62, abs=0.05)
    elapsed = time.time() - start
    assert elapsed < 10.0
    _passed("3 static/full crossover", f"P = {power:.4f} linear, {elapsed:.2f}s")


def test_4_dynamic_gains_at_30db():
    start = time.time()
    model, params = certified_reference()
    scen = Scenario(
        n=2,
        model=model,
        traffic_specs=COMPARISON_TRAFFIC,
        scheme=DynamicScheme(params),
        discount=DISCOUNT,
        horizon=auto_horizon(DISCOUNT),
        seed=2024,
        replications=1000,
    )
    summary = replicate(scen)
    dynamic_total = sum(summary.means)
    full_total = full_sharing_total(model, COMPARISON_TRAFFIC)
    static_total = static_sharing_total(model, COMPARISON_TRAFFIC)
    over_full = 100.0 * (dynamic_total / full_total - 1.0)
    over_static = 100.0 * (dynamic_total / static_total - 1.0)
    assert 350.0 <= over_full <= 450.0
    assert 10.0 <= over_static <= 22.0
    elapsed = time.time() - start
    assert elapsed < 600.0
    _passed(
        "4 dynamic gains at 30 dB",
        f"+{over_full:.1f}% over full, +{over_static:.1f}% over static, {elapsed:.0f}s",
    )


def test_5_balance_cap_sweep():
    start = time.time()
    caps = [50.0 * k for k in range(1, 9)]
    rows = balance_cap_rows(caps)
    values = [r.improvement_percent for r in rows]
    assert values[0] > 0.0
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    assert values[-1] >= 450.0

    # Monte Carlo cross-check of the first grid point against the exact
    # discounted value from zero balances
    model = UtilityModel(W, 255.0, family=LinearUtility())
    params = params_for_cap(2, W, rows[0].trade_mhz, caps[0])
    scen = Scenario(
        n=2,
        model=model,
        traffic_specs=(two_level(0.5), two_level(0.5)),
        scheme=DynamicScheme(params),
        discount=DISCOUNT,
        horizon=auto_horizon(DISCOUNT),
        seed=7,
        replications=120,
    )
    summary = replicate(scen)
    mc_total = sum(summary.means)
    se_total = math.hypot(*summary.std_errs)
    exact = discounted_sum_revenue(params, model, [two_level(0.5)] * 2, DISCOUNT)
    assert abs(mc_total - exact) < 3.5 * se_total + 1e-6
    elapsed = time.time() - start
    assert elapsed < 600.0
    _passed(
        "5 balance-cap sweep",
        f"{values[0]:.1f}% rising to {values[-1]:.1f}%, MC z = "
        f"{abs(mc_total - exact) / se_total:.2f}, {elapsed:.0f}s",
    )


def test_6_equilibrium_certification():
    start = time.time()
    model, params = certified_reference()
    specs = list(COMPARISON_TRAFFIC)
    lies = verify_truthfulness_exact(params, model, specs, DISCOUNT)
    assert lies and not any(f.profitable for f in lies)
    sized = min_punishment_slots(params, model, specs)
    assert sized == params.punishment_slots
    detectable = verify_detectable_exact(params, model, specs, DISCOUNT)
    assert detectable and not any(f.profitable for f in detectable)
    myopic = verify_truthfulness_exact(params, model, specs, 0.0)
    assert any(f.profitable for f in myopic)
    elapsed = time.time() - start
    assert elapsed < 30.0
    _passed(
        "6 equilibrium certification",
        f"trade {params.trade_mhz:g} MHz, punishment {sized} slots, {elapsed:.1f}s",
    )


def test_7_value_oracle_equivalence():
    start = time.time()
    model = comparison_model(1000.0)
    specs = list(COMPARISON_TRAFFIC)
    worst = 0.0
    for k in (1, 2, 4, 8):
        params = params_for_cap(2, W, 50.0 / k, 50.0)
        chain = build_balance_chain(params, model, specs)
        table = value_function(chain, DISCOUNT)
        means, ses = mc_value_estimate(chain, DISCOUNT, replications=10_000, seed=77)
        for mean, value, se in zip(means, table.values, ses):
            z = abs(mean - value) / se
            worst = max(worst, z)
            assert z < 3.0
    elapsed = time.time() - start
    assert elapsed < 120.0
    _passed("7 value oracle equivalence", f"worst |z| = {worst:.2f}, {elapsed:.0f}s")


def test_8_deviation_harm():
    start = time.time()
    model, params = certified_reference()
    reps = 1000
    horizon = 1200
    scen = Scenario(
        n=2,
        model=model,
        traffic_specs=COMPARISON_TRAFFIC,
        scheme=DynamicScheme(params),
        discount=DISCOUNT,
        horizon=horizon,
        seed=5,
        replications=1,
    )
    baselines = [
        run(scen, replication=r, collect_trace=False)[1].revenues for r in range(reps)
    ]
    z99 = 2.3263478740408408
    details = []
    for kind, target in (("lie_high", 0), ("lie_low", 1), ("full_band", 0)):
        inj = [DeviationInjector(operator=target, slot=25, kind=kind)]
        diffs = []
        for r in range(reps):
            _, dev = run(scen, inj, replication=r, collect_trace=False)
            diffs.append(baselines[r][target] - dev.revenues[target])
        mean = sum(diffs) / reps
        var = sum((d - mean) ** 2 for d in diffs) / (reps - 1)
        se = math.sqrt(var / reps)
        t_stat = mean / se
        assert t_stat > z99, f"{kind}: harm {mean:.4f}, t = {t_stat:.2f}"
        details.append(f"{kind} t={t_stat:.1f}")
    elapsed = time.time() - start
    assert elapsed < 300.0
    _passed("8 deviation harm", ", ".join(details) + f", {elapsed:.0f}s")


def test_9_structural_fuzzing():
    start = time.time()
    rng = random.Random(13)
    params = DynamicParams(4, 200.0, trade_mhz=10.0, cap_units=3, punishment_slots=6)
    full = SpectrumAllocation.full_band(params.band_mhz)
    state = initial_dynamic_state(params)
    observed = None
    punish_run = 0
    runs_seen = []
    for _ in range(100_000):
        reports = [rng.randint(0, 1) for _ in range(4)]
        state, allocs, trades = dynamic_step(params, state, reports, observed)
        units = state.ledger.units
        assert sum(units) == 0
        assert all(abs(u) <= params.cap_units for u in units)
        if all(a == full for a in allocs):
            punish_run += 1
        else:
            if punish_run:
                runs_seen.append(punish_run)
            punish_run = 0
            assert sum(a.width for a in allocs) == pytest.approx(params.band_mhz)
            high = sum(reports)
            assert len(trades) <= min(high, 4 - high)
        observed = list(allocs)
        if rng.random() < 0.005 and punish_run == 0:
            observed[rng.randrange(4)] = full  # a support deviation
    assert runs_seen and all(r % params.punishment_slots == 0 for r in runs_seen)
    elapsed = time.time() - start
    assert elapsed < 60.0
    _passed(
        "9 structural fuzzing",
        f"{len(runs_seen)} punishment windows, {elapsed:.0f}s",
    )
