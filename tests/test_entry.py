import math
from unittest import mock

import pytest

from bandshare import entry
from bandshare.engine import EntryScheme, Scenario, run
from bandshare.entry import (
    EntryCapExceededError,
    EntryParams,
    entry_step,
    full_spectrum_expected_utility,
    initial_entry_state,
    max_entrants,
    orthogonal_expected_utility,
    punishment_length_entry,
)
from bandshare.spectrum import SpectrumAllocation
from bandshare.static_sharing import PUNISHMENT, TriggerState
from bandshare.traffic import two_level
from bandshare.utility import CobbDouglasUtility, LinearUtility, UtilityModel

W = 100.0
MODEL = UtilityModel(W, 100.0, family=LinearUtility())
HALF = two_level(0.5)
FULL = SpectrumAllocation.full_band(W)


def closed_form_floor(n):
    # 50 * log2(1 + 100/(100(n-1)+1)) for the linear family at half load
    return 50.0 * math.log2(1.0 + 100.0 / (100.0 * (n - 1) + 1.0))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_full_sharing_utility_closed_form(n):
    got = full_spectrum_expected_utility(n, MODEL, HALF)
    assert got == pytest.approx(closed_form_floor(n), rel=1e-12)


def test_reference_floor_values():
    values = [full_spectrum_expected_utility(n, MODEL, HALF) for n in (1, 2, 3, 4)]
    assert values[0] == pytest.approx(332.9106, abs=5e-4)
    assert values[1] == pytest.approx(49.6420, abs=5e-4)
    assert values[2] == pytest.approx(29.1284, abs=5e-4)
    assert values[3] == pytest.approx(20.6919, abs=5e-4)


def test_orthogonal_utility_closed_form():
    got = orthogonal_expected_utility(2, MODEL, HALF)
    assert got == pytest.approx(0.5 * 50.0 * math.log2(101.0), rel=1e-12)
    assert got == pytest.approx(166.455, abs=5e-3)


def test_orthogonal_dominates_full_sharing():
    for n in range(1, 11):
        assert orthogonal_expected_utility(n, MODEL, HALF) >= full_spectrum_expected_utility(
            n, MODEL, HALF
        )


def test_both_utilities_vanish_with_crowding():
    u1 = full_spectrum_expected_utility(1, MODEL, HALF)
    assert full_spectrum_expected_utility(64, MODEL, HALF) < 0.01 * u1
    # the equal split scales exactly as 1/n for the linear family
    assert orthogonal_expected_utility(64, MODEL, HALF) == pytest.approx(
        orthogonal_expected_utility(1, MODEL, HALF) / 64.0, rel=1e-12
    )
    floors = [full_spectrum_expected_utility(n, MODEL, HALF) for n in range(1, 65)]
    splits = [orthogonal_expected_utility(n, MODEL, HALF) for n in range(1, 65)]
    assert all(b < a for a, b in zip(floors, floors[1:]))
    assert all(b < a for a, b in zip(splits, splits[1:]))


def test_market_sizes_at_reference_costs():
    assert max_entrants(40.0, MODEL, HALF) == 2
    assert max_entrants(100.0, MODEL, HALF) == 1
    assert max_entrants(400.0, MODEL, HALF) == 0


def test_market_size_boundary_cost_still_enters():
    cost = closed_form_floor(2)
    assert max_entrants(cost, MODEL, HALF) == 2  # ties go to entry


def test_zero_cost_exceeds_any_cap():
    with pytest.raises(EntryCapExceededError) as err:
        max_entrants(0.0, MODEL, HALF, n_cap=64)
    assert err.value.lower_bound == 64


def test_market_size_nonincreasing_in_cost():
    costs = [5.0 * (1.3**i) for i in range(30)]
    sizes = [max_entrants(c, MODEL, HALF, n_cap=10_000) for c in costs]
    assert all(b <= a for a, b in zip(sizes, sizes[1:]))


def test_punishment_sizing_matches_static_arithmetic():
    assert punishment_length_entry(2, MODEL, HALF) == 3
    assert punishment_length_entry(1, MODEL, HALF) == 1


def test_punishment_sizing_cobb_douglas_scan():
    model = UtilityModel(W, 100.0, family=CobbDouglasUtility())
    t_len = punishment_length_entry(3, model, HALF)
    w = W / 3
    u_o = 0.5 * model.pi(w, 0.0) + 0.5 * model.pi(w, 1.0)
    u_f = 0.5 * model.full_spectrum_utility(3, 0.0) + 0.5 * model.full_spectrum_utility(3, 1.0)
    gap = max(model.max_utility(lam) - model.pi(w, lam) for lam in (0.0, 1.0))
    scan = 1
    while not gap < scan * (u_o - u_f):
        scan += 1
    assert t_len == scan


# --- sequential arrivals -------------------------------------------------------


def params_with(cost, arrivals=()):
    return EntryParams(cost=cost, model=MODEL, traffic=HALF, arrival_slots=tuple(arrivals))


def test_second_arrival_invests_and_band_splits():
    params = params_with(40.0)  # market size 2
    state = initial_entry_state(params)
    assert state.n_star == 2
    state, decision, allocs = entry_step(params, state, arrival=True)
    assert decision.invests and state.active == 1
    assert allocs == [FULL]  # single operator holds the whole band
    state, decision, allocs = entry_step(params, state, observed_allocs=allocs, arrival=True)
    assert decision.invests and state.active == 2
    assert [a.width for a in allocs] == [50.0, 50.0]


def test_third_arrival_stays_out():
    params = params_with(40.0)
    state = initial_entry_state(params)
    allocs = None
    for _ in range(2):
        state, _, allocs = entry_step(params, state, observed_allocs=allocs, arrival=True)
    state, decision, allocs2 = entry_step(params, state, observed_allocs=allocs, arrival=True)
    assert not decision.invests
    assert state.active == 2
    assert [a.width for a in allocs2] == [50.0, 50.0]


def test_rogue_entrant_breaks_market_for_good():
    params = params_with(40.0)
    state = initial_entry_state(params)
    allocs = None
    for _ in range(2):
        state, _, allocs = entry_step(params, state, observed_allocs=allocs, arrival=True)
    state, _, allocs = entry_step(
        params, state, observed_allocs=allocs, rogue_entrant_transmits=True
    )
    assert allocs == [FULL, FULL]
    for _ in range(5):
        state, _, allocs = entry_step(params, state, observed_allocs=allocs)
        assert allocs == [FULL, FULL]
    assert state.trigger == TriggerState(PUNISHMENT, -1, (FULL, FULL))


def test_high_cost_first_arrival_stays_out():
    params = params_with(400.0)
    state = initial_entry_state(params)
    assert state.n_star == 0
    state, decision, allocs = entry_step(params, state, arrival=True)
    assert not decision.invests
    assert allocs == []


def test_arrival_slots_must_increase():
    with pytest.raises(ValueError):
        params_with(40.0, arrivals=(3, 3))


def test_market_size_is_scanned_once_per_params():
    params = params_with(40.0, arrivals=(0, 1, 2))
    scenario = Scenario(3, MODEL, (HALF,) * 3, EntryScheme(params), 0.9, 20, seed=1)
    with mock.patch.object(entry, "max_entrants", wraps=max_entrants) as scan:
        for rep in range(3):
            run(scenario, replication=rep, collect_trace=False)
        assert initial_entry_state(params).n_star == params.n_star == 2
    assert scan.call_count == 1
