import math
import random

import pytest

from bandshare.spectrum import SpectrumAllocation
from bandshare.static_sharing import (
    COOPERATION,
    PUNISHMENT,
    InfeasiblePunishmentError,
    StaticParams,
    TriggerState,
    min_punishment_length,
    static_allocation,
    step,
)
from bandshare.traffic import two_level
from bandshare.utility import CobbDouglasUtility, LinearUtility, UtilityModel

W = 100.0


def linear_model():
    return UtilityModel(W, 100.0, family=LinearUtility())


def blocks(params):
    return [static_allocation(params, i) for i in range(params.n)]


FULL = SpectrumAllocation.full_band(W)


def full_profile(n):
    return (FULL,) * n


def cooperating(params):
    """State after a cooperation slot: the blocks were prescribed."""
    return TriggerState(COOPERATION, 0, tuple(blocks(params)))


def punishing(n, remaining):
    """State after a punishment slot with `remaining` slots still to come."""
    return TriggerState(PUNISHMENT, remaining, full_profile(n))


# --- allocations -------------------------------------------------------------


def test_uniform_two_way_split():
    params = StaticParams(2, W)
    assert blocks(params) == [
        SpectrumAllocation.block(0.0, 50.0, W),
        SpectrumAllocation.block(50.0, 100.0, W),
    ]


def test_uniform_four_way_split():
    params = StaticParams(4, W)
    assert [b.width for b in blocks(params)] == [25.0] * 4


def test_asymmetric_shares():
    params = StaticParams(2, W, shares=(0.3, 0.7))
    assert blocks(params) == [
        SpectrumAllocation.block(0.0, 30.0, W),
        SpectrumAllocation.block(30.0, 100.0, W),
    ]


def test_blocks_tile_band_disjointly():
    params = StaticParams(5, W, shares=(0.1, 0.25, 0.15, 0.3, 0.2))
    allocs = blocks(params)
    assert sum(a.width for a in allocs) == pytest.approx(W)
    edges = [iv for a in allocs for iv in a.intervals]
    assert edges == sorted(edges)
    for (lo1, hi1), (lo2, _hi2) in zip(edges, edges[1:]):
        assert hi1 == lo2  # touching, never overlapping


def test_share_validation():
    with pytest.raises(ValueError):
        StaticParams(2, W, shares=(0.4, 0.4))
    with pytest.raises(ValueError):
        StaticParams(2, W, shares=(1.2, -0.2))
    with pytest.raises(ValueError):
        StaticParams(2, W, punishment_slots=0)


# --- the trigger state machine -----------------------------------------------


def test_cooperation_continues_when_everyone_conforms():
    params = StaticParams(2, W, punishment_slots=3)
    nxt, allocs = step(params, cooperating(params), blocks(params))
    assert nxt == cooperating(params)
    assert allocs == tuple(blocks(params))


def test_full_band_observation_triggers_punishment():
    params = StaticParams(2, W, punishment_slots=3)
    observed = [FULL, static_allocation(params, 1)]
    nxt, allocs = step(params, cooperating(params), observed)
    assert allocs == full_profile(2)  # answering slot is punishment slot 1
    assert nxt == punishing(2, 2)


def test_punishment_countdown_and_exit():
    params = StaticParams(2, W, punishment_slots=3)
    state = punishing(2, 2)
    state, allocs = step(params, state, [FULL, FULL])
    assert allocs == full_profile(2) and state == punishing(2, 1)
    state, allocs = step(params, state, [FULL, FULL])
    assert allocs == full_profile(2)
    assert state == punishing(2, 0) and not state.in_punishment()
    # resume slot: last slot's full-band emissions were prescribed
    state, allocs = step(params, state, [FULL, FULL])
    assert state == cooperating(params)
    assert allocs == tuple(blocks(params))


def test_punishment_lasts_exactly_t_full_band_slots():
    t_len = 4
    params = StaticParams(2, W, punishment_slots=t_len)
    state = cooperating(params)
    emitted = []
    observed = [FULL, static_allocation(params, 1)]  # deviation last slot
    for _ in range(10):
        state, allocs = step(params, state, observed)
        emitted.append(allocs)
        observed = allocs
    assert emitted[:t_len] == [full_profile(2)] * t_len
    assert emitted[t_len] == tuple(blocks(params))
    assert all(a == tuple(blocks(params)) for a in emitted[t_len:])


def test_grim_punishment_never_exits():
    params = StaticParams(2, W, grim=True)
    state, allocs = step(params, cooperating(params), [FULL, FULL])
    assert allocs == full_profile(2)
    for _ in range(10_000):
        state, allocs = step(params, state, [FULL, FULL])
        assert allocs == full_profile(2)
    assert state.in_punishment()


def test_observed_length_mismatch_rejected():
    params = StaticParams(3, W)
    with pytest.raises(ValueError):
        step(params, cooperating(params), [FULL, FULL])


def test_fuzzed_punishment_entry_and_length():
    # operator 1 deviates at random in cooperation slots; every deviation
    # must be answered by exactly punishment_slots full-band slots starting
    # the following slot, and full-band slots must occur nowhere else
    rng = random.Random(4242)
    horizon = 3000
    for t_len in (1, 2, 5):
        params = StaticParams(3, W, punishment_slots=t_len)
        good = blocks(params)
        state = TriggerState()
        observed = None
        emitted_full = []
        deviation_slots = []
        for t in range(horizon):
            state, allocs = step(params, state, observed)
            is_full = allocs == full_profile(3)
            assert is_full or allocs == tuple(good)
            emitted_full.append(is_full)
            emissions = list(allocs)
            if not is_full and rng.random() < 0.08:
                emissions[1] = FULL
                deviation_slots.append(t)
            observed = emissions
        in_window = set()
        for t in deviation_slots:
            for w in range(t + 1, min(t + t_len + 1, horizon)):
                assert emitted_full[w]
                in_window.add(w)
            after = t + t_len + 1
            if after < horizon:
                assert not emitted_full[after]  # cooperation resumes on time
        for t, was_full in enumerate(emitted_full):
            if was_full:
                assert t in in_window  # no spurious punishment
        assert deviation_slots  # the fuzz actually exercised triggers


# --- punishment sizing --------------------------------------------------------


def test_min_length_two_linear_operators():
    # gain cap / per-slot loss = 332.91 / 116.81 = 2.85, so 3 slots needed
    model = linear_model()
    params = StaticParams(2, W)
    t_len = min_punishment_length(model, [two_level(0.5)] * 2, params)
    assert t_len == 3


def test_min_length_single_operator_is_one():
    model = linear_model()
    assert min_punishment_length(model, [two_level(0.5)], StaticParams(1, W)) == 1


def test_min_length_matches_brute_force_scan():
    model = UtilityModel(W, 100.0, family=CobbDouglasUtility())
    specs = [two_level(0.25), two_level(0.5)]
    params = StaticParams(2, W)
    t_len = min_punishment_length(model, specs, params)

    def deters(t):
        for i, spec in enumerate(specs):
            w_i = params.block_width(i)
            u_o = sum(
                p * model.pi(w_i, lam) for lam, p in zip(spec.levels, spec.probs)
            )
            u_f = sum(
                p * model.full_spectrum_utility(2, lam)
                for lam, p in zip(spec.levels, spec.probs)
            )
            gap = max(model.max_utility(lam) - model.pi(w_i, lam) for lam in spec.levels)
            if not gap < t * (u_o - u_f):
                return False
        return True

    assert deters(t_len)
    assert t_len == 1 or not deters(t_len - 1)


def test_min_length_infeasible_when_sharing_does_not_pay():
    # below the pairwise threshold, the equal split loses to full sharing
    model = UtilityModel(W, 1.0, family=LinearUtility())
    with pytest.raises(InfeasiblePunishmentError):
        min_punishment_length(model, [two_level(0.5)] * 2, StaticParams(2, W))


def test_min_length_uses_each_operators_own_share():
    model = linear_model()
    params = StaticParams(2, W, shares=(0.8, 0.2))
    t_len = min_punishment_length(model, [two_level(0.5)] * 2, params)
    # the 20 MHz operator has the bigger gap and smaller margin
    w = 20.0
    r = math.log2(101.0)
    gap = W * r - w * r
    u_o = 0.5 * w * r
    u_f = 0.5 * W * math.log2(1.0 + 100.0 / 101.0)
    expected = math.floor(gap / (u_o - u_f)) + 1
    assert t_len == expected


@pytest.mark.xfail(
    strict=True,
    reason="min_punishment_length sizes T against the undiscounted loss, "
    "verify_static_profile discounts the punishment window",
)
def test_auto_sized_four_operator_profile_certifies():
    from bandshare.verifier import verify_static_profile

    model = UtilityModel(W, 1000.0, family=CobbDouglasUtility())
    specs = [two_level(p) for p in (0.25, 0.5, 0.25, 0.5)]
    t_len = min_punishment_length(model, specs, StaticParams(4, W))
    params = StaticParams(4, W, punishment_slots=t_len)
    findings = verify_static_profile(params, model, specs, 0.99)
    assert not any(f.profitable for f in findings)
