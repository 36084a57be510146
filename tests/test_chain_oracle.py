"""The balance-chain outcome table and everything derived from it, against
the scalar reference.

The oracle is the scalar form of the verifier: every (balance, reports)
outcome comes from one `trading_policy` call, and the chain, the
deviation findings, the revenues and the many-operator check are built by
the per-state loops below.  The table-driven verifier must give
bit-identical results (compared through `float.hex`) for both operators'
views, both utility families and joint traffic laws with zero-probability
pairs.  The two-operator revenue chain, which the verifier builds without
the table, is held to the table's form as well (`table_sum_chain`).
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandshare import figures, rng, verifier
from bandshare.dynamic_sharing import DynamicParams, params_for_cap, trade_candidates
from bandshare.traffic import two_level
from bandshare.utility import CobbDouglasUtility, LinearUtility, UtilityModel
from bandshare.verifier import (
    EXACT_CELL_LIMIT,
    DeviationFinding,
    HypothesisViolationError,
    build_balance_chain,
    count_balance_states,
    discounted_sum_revenue,
    enumerate_balance_states,
    lying_gain,
    mc_value_estimate,
    outcome_table,
    stationary_distribution,
    stationary_sum_revenue,
    truthful_exact,
    two_op_joint_probs,
    value_function,
    verify_detectable_exact,
    verify_detectable_n_ops,
    verify_dynamic_profile,
    verify_truthfulness_exact,
    verify_truthfulness_n_ops,
    _require_exact,
)
from scalar_dynamic import BalanceLedger, apply_trades, trading_policy, widths_after_trades

W = 100.0
PROFIT_TOL = 1e-9
PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


# --- the scalar oracle --------------------------------------------------------


def scalar_outcome(params, units, reports):
    ledger = BalanceLedger(tuple(units))
    trades = trading_policy(params, list(reports), ledger)
    return widths_after_trades(params, trades), apply_trades(ledger, trades).units


def oracle_chain(params, model, specs, operator=0, joint_probs=None):
    joint = two_op_joint_probs(specs, joint_probs)
    if operator == 1:
        joint = {(l1, l0): p for (l0, l1), p in joint.items()}
    k = params.cap_units
    size = 2 * k + 1
    rewards = np.zeros(size)
    trans = np.zeros((size, size))
    width_of, next_of, util_of = {}, {}, {}
    for b in range(-k, k + 1):
        i = b + k
        for (own, other), p in joint.items():
            widths, units = scalar_outcome(params, (b, -b), (own, other))
            util = model.pi(widths[0], own)
            width_of[(b, own, other)] = widths[0]
            next_of[(b, own, other)] = units[0]
            util_of[(b, own, other)] = util
            rewards[i] += p * util
            trans[i, units[0] + k] += p
    return joint, rewards, trans, width_of, next_of, util_of


def oracle_values(rewards, trans, discount):
    size = len(rewards)
    return np.linalg.solve(np.eye(size) - discount * trans, (1.0 - discount) * rewards)


def pair_gate(joint):
    if joint.get((1, 0), 0.0) <= 0.0 or joint.get((0, 1), 0.0) <= 0.0:
        raise HypothesisViolationError("one-sided high-traffic events needed")


def oracle_truthfulness(params, model, specs, discount, joint_probs=None, tol=PROFIT_TOL):
    pair_gate(two_op_joint_probs(specs, joint_probs))
    findings = []
    delta = params.trade_mhz
    k = params.cap_units
    for op in (0, 1):
        joint, rewards, trans, width_of, next_of, _ = oracle_chain(
            params, model, specs, op, joint_probs
        )
        values = oracle_values(rewards, trans, discount)
        for b in range(-k, k + 1):
            for (own, other), p in joint.items():
                if p <= 0.0:
                    continue
                w_truth = width_of[(b, own, other)]
                b_truth = next_of[(b, own, other)]
                widths, units = scalar_outcome(params, (b, -b), (1 - own, other))
                w_lie, b_lie = widths[0], units[0]
                if w_lie == w_truth and b_lie == b_truth:
                    continue
                gain = (1 - discount) * (model.pi(w_lie, own) - model.pi(w_truth, own))
                loss = float(discount * (values[b_truth + k] - values[b_lie + k]))
                findings.append(
                    DeviationFinding(
                        operator=op,
                        balances_mhz=(b * delta, -b * delta) if op == 0 else (-b * delta, b * delta),
                        traffic=(own, other) if op == 0 else (other, own),
                        kind="lie_high" if own == 0 else "lie_low",
                        gain=gain,
                        loss=loss,
                        profitable=gain > loss + tol,
                    )
                )
    return findings


def oracle_detectable(params, model, specs, discount, joint_probs=None, tol=PROFIT_TOL):
    findings = []
    t_len = params.punishment_slots
    delta = params.trade_mhz
    k = params.cap_units
    for op in (0, 1):
        joint, rewards, trans, width_of, next_of, _ = oracle_chain(
            params, model, specs, op, joint_probs
        )
        values = oracle_values(rewards, trans, discount)
        u_full = sum(
            p * model.full_spectrum_utility(params.n, own) for (own, other), p in joint.items()
        )
        punish_factor = discount - discount ** (t_len + 1)
        for b in range(-k, k + 1):
            for (own, other), p in joint.items():
                if p <= 0.0:
                    continue
                w_truth = width_of[(b, own, other)]
                b_next = next_of[(b, own, other)]
                conform_future = discount * values[b_next + k]
                deviate_future = (
                    punish_factor * u_full + discount ** (t_len + 1) * values[b_next + k]
                )
                gain = (1 - discount) * (model.max_utility(own) - model.pi(w_truth, own))
                loss = float(conform_future - deviate_future)
                findings.append(
                    DeviationFinding(
                        operator=op,
                        balances_mhz=(b * delta, -b * delta) if op == 0 else (-b * delta, b * delta),
                        traffic=(own, other) if op == 0 else (other, own),
                        kind="detectable",
                        gain=gain,
                        loss=loss,
                        profitable=gain > loss + tol,
                        note="deviation slot priced at the exclusive-band bound",
                    )
                )
    return findings


def oracle_lying_gain(traffic_pair, balance_units, params, model):
    own, other = traffic_pair
    w_truth = scalar_outcome(params, (balance_units, -balance_units), (own, other))[0][0]
    w_lie = scalar_outcome(params, (balance_units, -balance_units), (1 - own, other))[0][0]
    return model.pi(w_lie, own) - model.pi(w_truth, own)


def oracle_sum_chain(params, model, specs, joint_probs=None):
    joint = two_op_joint_probs(specs, joint_probs)
    k = params.cap_units
    size = 2 * k + 1
    trans = np.zeros((size, size))
    sums = np.zeros(size)
    for b in range(-k, k + 1):
        i = b + k
        for (l0, l1), p in joint.items():
            if p <= 0:
                continue
            widths, units = scalar_outcome(params, (b, -b), (l0, l1))
            trans[i, units[0] + k] += p
            sums[i] += p * (model.pi(widths[0], l0) + model.pi(widths[1], l1))
    return trans, sums


def oracle_stationary(params, model, specs, joint_probs=None):
    trans, sums = oracle_sum_chain(params, model, specs, joint_probs)
    mu = stationary_distribution(trans, start_index=params.cap_units)
    return float(mu @ sums)


def oracle_discounted(params, model, specs, discount, joint_probs=None):
    trans, sums = oracle_sum_chain(params, model, specs, joint_probs)
    size = len(sums)
    values = np.linalg.solve(np.eye(size) - discount * trans, (1.0 - discount) * sums)
    return float(values[params.cap_units])


def table_sum_chain(params, model, specs, joint_probs=None):
    """The sum-revenue chain read off the outcome table, the oracle of the
    verifier's birth-death build: transitions and per-state sums."""
    verifier._require_pair(params)
    joint = two_op_joint_probs(specs, joint_probs)
    pairs = [pair for pair, p in joint.items() if p > 0]
    probs = [joint[pair] for pair in pairs]
    table = outcome_table(params)
    columns = np.array([table.column(pair) for pair in pairs])
    utilities = table.utilities(model)[table.reports[columns], table.width_id[:, columns]]
    sums = sum(p * (utilities[:, j, 0] + utilities[:, j, 1]) for j, p in enumerate(probs))
    return verifier._transitions(table.next_index[:, columns], probs), sums


def oracle_mc_values(params, model, specs, discount, replications, seed, horizon):
    joint, rewards, _, _, next_of, util_of = oracle_chain(params, model, specs)
    size = len(rewards)
    k = params.cap_units
    pairs = [pair for pair, p in joint.items() if p > 0]
    cdf = np.cumsum(np.array([joint[pair] for pair in pairs]))
    next_tab = np.zeros((size, len(pairs)), dtype=np.int64)
    util_tab = np.zeros((size, len(pairs)))
    for i, b in enumerate(range(-k, k + 1)):
        for j, (own, other) in enumerate(pairs):
            next_tab[i, j] = next_of[(b, own, other)] + k
            util_tab[i, j] = util_of[(b, own, other)]
    means = np.zeros(size)
    ses = np.zeros(size)
    for start in range(size):
        states = np.full(replications, start, dtype=np.int64)
        acc = np.zeros(replications)
        weight = 1.0 - discount
        for t in range(horizon):
            u = rng.uniform01_array(seed, start, t, counters=np.arange(replications))
            idx = np.minimum(np.searchsorted(cdf, u, side="right"), len(pairs) - 1)
            acc += weight * util_tab[states, idx]
            states = next_tab[states, idx]
            weight *= discount
        means[start] = acc.mean()
        ses[start] = acc.std(ddof=1) / math.sqrt(replications)
    return means, ses


def oracle_joint_chain(params, model, specs, discount):
    """The joint chain's states with the row of each, its positive-probability
    traffic vectors with their probabilities, and every operator's values."""
    n = params.n
    states = enumerate_balance_states(n, params.cap_units)
    index = {s: i for i, s in enumerate(states)}
    vectors, probs = [], []
    for tv in itertools.product((0, 1), repeat=n):
        p = 1.0
        for lam, spec in zip(tv, specs):
            p *= spec.p_high if lam else 1.0 - spec.p_high
        if p > 0.0:
            vectors.append(tv)
            probs.append(p)
    size = len(states)
    next_idx = np.zeros((size, len(vectors)), dtype=np.int64)
    rewards = np.zeros((size, n))
    for si, units in enumerate(states):
        for ti, tv in enumerate(vectors):
            widths, nxt = scalar_outcome(params, units, tv)
            next_idx[si, ti] = index[nxt]
            for op in range(n):
                rewards[si, op] += probs[ti] * model.pi(widths[op], tv[op])
    trans = np.zeros((size, size))
    p_arr = np.asarray(probs)
    for ti in range(len(vectors)):
        np.add.at(trans, (np.arange(size), next_idx[:, ti]), p_arr[ti])
    values = np.linalg.solve(np.eye(size) - discount * trans, (1.0 - discount) * rewards)
    return states, index, vectors, probs, values


def oracle_n_op_findings(params, model, specs, discount, tol=PROFIT_TOL):
    n = params.n
    delta = params.trade_mhz
    states, index, vectors, _, values = oracle_joint_chain(params, model, specs, discount)
    findings = []
    for si, units in enumerate(states):
        for tv in vectors:
            widths_truth, next_truth = scalar_outcome(params, units, tv)
            truth_idx = index[next_truth]
            for op in range(n):
                lie_reports = list(tv)
                lie_reports[op] = 1 - lie_reports[op]
                widths_lie, next_lie = scalar_outcome(params, units, lie_reports)
                lie_idx = index[next_lie]
                if widths_lie[op] == widths_truth[op] and lie_idx == truth_idx:
                    continue
                gain = (1 - discount) * (
                    model.pi(widths_lie[op], tv[op]) - model.pi(widths_truth[op], tv[op])
                )
                loss = float(discount * (values[truth_idx, op] - values[lie_idx, op]))
                note = ""
                if next_truth[op] > units[op] > next_lie[op]:  # lends in truth, borrows in the lie
                    note = "borrow-instead-of-lend double swing"
                findings.append(
                    DeviationFinding(
                        operator=op,
                        balances_mhz=tuple(u * delta for u in units),
                        traffic=tv,
                        kind="lie_high" if tv[op] == 0 else "lie_low",
                        gain=gain,
                        loss=loss,
                        profitable=gain > loss + tol,
                        note=note,
                    )
                )
    return findings


def oracle_n_op_detectable(params, model, specs, discount, tol=PROFIT_TOL):
    n = params.n
    t_len = params.punishment_slots
    states, index, vectors, probs, values = oracle_joint_chain(params, model, specs, discount)
    u_full = [
        sum(p * model.full_spectrum_utility(n, tv[op]) for p, tv in zip(probs, vectors))
        for op in range(n)
    ]
    punish_factor = discount - discount ** (t_len + 1)
    findings = []
    for units in states:
        for tv in vectors:
            widths, nxt = scalar_outcome(params, units, tv)
            for op in range(n):
                v_next = values[index[nxt], op]
                conform_future = discount * v_next
                deviate_future = punish_factor * u_full[op] + discount ** (t_len + 1) * v_next
                gain = (1 - discount) * (model.max_utility(tv[op]) - model.pi(widths[op], tv[op]))
                loss = float(conform_future - deviate_future)
                findings.append(
                    DeviationFinding(
                        operator=op,
                        balances_mhz=tuple(u * params.trade_mhz for u in units),
                        traffic=tv,
                        kind="detectable",
                        gain=gain,
                        loss=loss,
                        profitable=gain > loss + tol,
                        note="deviation slot priced at the exclusive-band bound",
                    )
                )
    return findings


def oracle_balance_states(n, k):
    """The zero-sum balance vectors of [-k, k]^n in lexicographic order, by
    recursion over positions."""
    states = []
    vec = [0] * n

    def rec(i, total):
        tail = n - 1 - i
        if tail == 0:
            last = -total
            if -k <= last <= k:
                vec[i] = last
                states.append(tuple(vec))
            return
        for v in range(-k, k + 1):
            if abs(total + v) <= k * tail:
                vec[i] = v
                rec(i + 1, total + v)

    rec(0, 0)
    return states


# --- comparison helpers -------------------------------------------------------------


def hexed(f: DeviationFinding):
    return (
        f.operator,
        tuple(b.hex() for b in f.balances_mhz),
        f.traffic,
        f.kind,
        f.gain.hex(),
        f.loss.hex(),
        f.profitable,
        f.estimate_se,
        f.note,
    )


def same_findings(got, want):
    assert [hexed(f) for f in got] == [hexed(f) for f in want]
    assert all(type(f.gain) is float and type(f.loss) is float for f in got)


def same_array(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def outcome_of(call):
    """The call's result, or the type of the ValueError it raised."""
    try:
        return call()
    except ValueError as exc:
        return type(exc)


# --- strategies ----------------------------------------------------------------------

MODELS = st.sampled_from(
    [
        UtilityModel(W, 1000.0, family=CobbDouglasUtility()),
        UtilityModel(W, 10.0, family=CobbDouglasUtility(a=9.0, s=0.7, e=0.6)),
        UtilityModel(W, 255.0, family=LinearUtility()),
    ]
)
HIGHS = st.sampled_from([0.1, 0.25, 0.5, 0.75])
DISCOUNTS = st.sampled_from([0.0, 0.5, 0.9, 0.99])
PROB = st.sampled_from([0.0, 0.0, 0.05, 0.2, 0.45])


@st.composite
def pair_params(draw):
    k = draw(st.integers(1, 6))
    trade = draw(st.sampled_from([1.0, 2.5, 10.0, 25.0, 50.0]))
    t_len = draw(st.integers(1, 40))
    return DynamicParams(2, W, trade_mhz=trade, cap_units=k, punishment_slots=t_len)


@st.composite
def joint_laws(draw):
    """None (product of marginals) or an override, often with zero pairs."""
    if draw(st.booleans()):
        return None
    weights = [draw(PROB) for _ in PAIRS]
    if sum(weights) == 0.0:
        weights[draw(st.integers(0, 3))] = 1.0
    total = sum(weights)
    return {pair: w / total for pair, w in zip(PAIRS, weights)}


# --- the outcome table ------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 5),
    k=st.integers(1, 6),
    trade=st.sampled_from([1.0, 3.0, 7.5, 12.5, 20.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_table_matches_scalar_trading_rule(n, k, trade, seed):
    params = DynamicParams(n, W, trade_mhz=trade, cap_units=k)
    table = outcome_table(params)
    states = enumerate_balance_states(n, k)
    assert table.states.tolist() == [list(s) for s in states]
    assert table.reports.shape == (2**n, n)
    rows = np.arange(len(states))
    if len(states) * 2**n > 8_000:  # the largest tables: a seeded sample of states
        rows = np.random.default_rng(seed).choice(rows, 8_000 // 2**n, replace=False)
    for si in rows.tolist():
        for col, reports in enumerate(table.reports.tolist()):
            widths, units = scalar_outcome(params, states[si], reports)
            assert table.column(reports) == col
            assert states[table.next_index[si, col]] == units
            got = [table.widths_mhz[w] for w in table.width_id[si, col].tolist()]
            assert [w.hex() for w in got] == [w.hex() for w in widths]


@pytest.mark.parametrize(
    "n,k",
    [
        (n, k)
        for n in range(2, 7)
        for k in range(1, 7)
        if count_balance_states(n, k) <= 50_000  # the recursion is slow beyond
    ],
)
def test_balance_states_match_recursive_enumeration(n, k):
    got = enumerate_balance_states(n, k)
    assert got == oracle_balance_states(n, k)
    assert len(got) == count_balance_states(n, k)
    assert all(type(v) is int for v in got[0])


# --- two-operator views -------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(params=pair_params(), model=MODELS, highs=st.tuples(HIGHS, HIGHS), joint=joint_laws(),
       discount=DISCOUNTS)
def test_chain_views_match_oracle(params, model, highs, joint, discount):
    specs = [two_level(p) for p in highs]
    k = params.cap_units
    for op in (0, 1):
        chain = build_balance_chain(params, model, specs, op, joint)
        probs, rewards, trans, _, next_of, util_of = oracle_chain(params, model, specs, op, joint)
        assert list(chain.probs.items()) == list(probs.items())
        same_array(chain.rewards, rewards)
        same_array(chain.transitions, trans)
        for i, b in enumerate(range(-k, k + 1)):
            for j, pair in enumerate(chain.probs):
                assert chain.next_index[i, j] == next_of[(b, *pair)] + k
                assert chain.utilities[i, j].item().hex() == util_of[(b, *pair)].hex()
        same_array(value_function(chain, discount).values, oracle_values(rewards, trans, discount))


@settings(max_examples=40, deadline=None)
@given(params=pair_params(), model=MODELS, highs=st.tuples(HIGHS, HIGHS), joint=joint_laws(),
       discount=DISCOUNTS)
def test_pair_findings_match_oracle(params, model, highs, joint, discount):
    specs = [two_level(p) for p in highs]
    for check, oracle in (
        (verify_truthfulness_exact, oracle_truthfulness),
        (verify_detectable_exact, oracle_detectable),
    ):
        want = outcome_of(lambda: oracle(params, model, specs, discount, joint))
        got = outcome_of(lambda: check(params, model, specs, discount, joint))
        if isinstance(want, type):
            assert got is want
        else:
            same_findings(got, want)


@settings(max_examples=40, deadline=None)
@given(params=pair_params(), model=MODELS, highs=st.tuples(HIGHS, HIGHS), joint=joint_laws(),
       discount=DISCOUNTS, tol=st.sampled_from([-1e-3, 0.0, PROFIT_TOL, 1e-4, 1e-2]))
def test_truthful_verdict_matches_findings(params, model, highs, joint, discount, tol):
    specs = [two_level(p) for p in highs]
    want = outcome_of(
        lambda: not any(
            f.profitable
            for f in verify_truthfulness_exact(params, model, specs, discount, joint, tol)
        )
    )
    # the same verdict, or the same error
    assert outcome_of(lambda: truthful_exact(params, model, specs, discount, joint, tol)) is want


@settings(max_examples=40, deadline=None)
@given(params=pair_params(), model=MODELS, highs=st.tuples(HIGHS, HIGHS), joint=joint_laws(),
       discount=DISCOUNTS)
def test_revenues_and_lying_gain_match_oracle(params, model, highs, joint, discount):
    specs = [two_level(p) for p in highs]
    got = stationary_sum_revenue(params, model, specs, joint)
    assert got.hex() == oracle_stationary(params, model, specs, joint).hex()
    got = discounted_sum_revenue(params, model, specs, discount, joint)
    assert got.hex() == oracle_discounted(params, model, specs, discount, joint).hex()
    k = params.cap_units
    for b in range(-k, k + 1):
        for pair in PAIRS:
            want = oracle_lying_gain(pair, b, params, model)
            assert lying_gain(pair, b, params, model).hex() == want.hex()


def same_sum_chain(params, model, specs, joint=None):
    want = outcome_of(lambda: table_sum_chain(params, model, specs, joint))
    got = outcome_of(lambda: verifier._sum_revenue_chain(params, model, specs, joint))
    if isinstance(want, type):
        assert got is want
        return
    for got_part, want_part in zip(got, want):
        same_array(got_part, want_part)


@settings(max_examples=40, deadline=None)
@given(params=pair_params(), model=MODELS, highs=st.tuples(HIGHS, HIGHS), joint=joint_laws())
def test_sum_chain_matches_table(params, model, highs, joint):
    same_sum_chain(params, model, [two_level(p) for p in highs], joint)


def test_sum_chain_matches_table_on_default_figure_grids():
    # every trade candidate of the default fig3 (cap 50 MHz, 0..30 dB) and
    # fig4 (caps 50..400 MHz) sweeps, priced or not by the figure
    share = figures.BAND_MHZ / 2
    for p_db in range(0, 31):
        model = figures.comparison_model(10.0 ** (p_db / 10.0))
        for trade in trade_candidates(share, 50.0):
            params = params_for_cap(2, figures.BAND_MHZ, trade, 50.0)
            same_sum_chain(params, model, figures.COMPARISON_TRAFFIC)
    model = UtilityModel(figures.BAND_MHZ, figures.CAP_SWEEP_POWER, family=LinearUtility())
    for cap in range(50, 401, 50):
        for trade in trade_candidates(share, float(cap)):
            params = params_for_cap(2, figures.BAND_MHZ, trade, float(cap))
            same_sum_chain(params, model, figures.CAP_SWEEP_TRAFFIC)


def test_revenue_pricing_builds_no_table(monkeypatch):
    def refused(params):
        raise AssertionError("revenue pricing built an outcome table")

    monkeypatch.setattr(verifier, "outcome_table", refused)
    model = UtilityModel(W, 1000.0, family=CobbDouglasUtility())
    specs = [two_level(0.25), two_level(0.5)]
    params = DynamicParams(2, W, trade_mhz=12.5, cap_units=4)
    stationary_sum_revenue(params, model, specs)
    discounted_sum_revenue(params, model, specs, 0.99)
    assert "outcomes" not in params.__dict__
    rows = figures.balance_cap_rows([50.0, 400.0])
    assert [row.balance_cap_mhz for row in rows] == [50.0, 400.0]


@settings(max_examples=10, deadline=None)
@given(params=pair_params(), model=MODELS, highs=st.tuples(HIGHS, HIGHS),
       seed=st.integers(0, 1000))
def test_mc_value_estimate_matches_oracle(params, model, highs, seed):
    specs = [two_level(p) for p in highs]
    chain = build_balance_chain(params, model, specs)
    means, ses = mc_value_estimate(chain, 0.9, replications=20, seed=seed, horizon=15)
    want_means, want_ses = oracle_mc_values(params, model, specs, 0.9, 20, seed, 15)
    same_array(means, want_means)
    same_array(ses, want_ses)


# --- the joint chain --------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    nk=st.sampled_from([(2, 1), (2, 4), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]),
    trade=st.sampled_from([2.0, 5.0, 12.5]),
    model=MODELS,
    highs=st.lists(HIGHS, min_size=4, max_size=4),
    discount=DISCOUNTS,
)
def test_n_op_findings_match_oracle(nk, trade, model, highs, discount):
    n, k = nk
    params = DynamicParams(n, W, trade_mhz=trade, cap_units=k, punishment_slots=7)
    specs = [two_level(p) for p in highs[:n]]
    want = oracle_n_op_findings(params, model, specs, discount)
    same_findings(verify_truthfulness_n_ops(params, model, specs, discount), want)


@settings(max_examples=25, deadline=None)
@given(
    nk=st.sampled_from([(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]),
    trade=st.sampled_from([2.0, 5.0, 12.5]),
    t_len=st.integers(1, 40),
    model=MODELS,
    highs=st.lists(HIGHS, min_size=4, max_size=4),
    discount=DISCOUNTS,
)
def test_n_op_detectable_matches_oracle(nk, trade, t_len, model, highs, discount):
    n, k = nk
    params = DynamicParams(n, W, trade_mhz=trade, cap_units=k, punishment_slots=t_len)
    specs = [two_level(p) for p in highs[:n]]
    want = oracle_n_op_detectable(params, model, specs, discount)
    same_findings(verify_detectable_n_ops(params, model, specs, discount), want)


@pytest.mark.parametrize("band,trade", [(100.0, 5.0), (30_000.0, 0.1), (30_000.0, 0.3)])
def test_double_swing_note_survives_coarse_widths(band, trade):
    # at 30,000 MHz the widths round coarser than 1e-12, so a width swing
    # compared with 2 * trade misses the lend-to-borrow cells of a 0.3 MHz trade
    params = DynamicParams(3, band, trade_mhz=trade, cap_units=2, punishment_slots=7)
    model = UtilityModel(band, 1000.0, family=CobbDouglasUtility())
    specs = [two_level(0.5)] * 3
    findings = verify_truthfulness_n_ops(params, model, specs, 0.99)
    noted = []
    for f in findings:
        units = [round(b / trade) for b in f.balances_mhz]
        lie = list(f.traffic)
        lie[f.operator] = 1 - lie[f.operator]
        truth_next = scalar_outcome(params, units, f.traffic)[1][f.operator]
        lie_next = scalar_outcome(params, units, lie)[1][f.operator]
        assert bool(f.note) == (truth_next > units[f.operator] > lie_next)
        noted.append(bool(f.note))
    assert sum(noted) == 8
    same_findings(findings, oracle_n_op_findings(params, model, specs, 0.99))


def canon(findings):
    return sorted(findings, key=lambda f: (f.operator, f.balances_mhz, f.traffic, f.kind))


def test_n_op_detectable_reduces_to_pair_check():
    params = DynamicParams(2, W, trade_mhz=12.5, cap_units=4, punishment_slots=9)
    model = UtilityModel(W, 1000.0, family=CobbDouglasUtility())
    specs = [two_level(0.25), two_level(0.5)]
    pair = canon(verify_detectable_exact(params, model, specs, 0.99))
    joint_view = canon(verify_detectable_n_ops(params, model, specs, 0.99))
    assert len(pair) == len(joint_view) == 2 * 9 * 4
    for a, b in zip(pair, joint_view):
        assert (a.operator, a.balances_mhz, a.traffic, a.kind, a.note) == (
            b.operator, b.balances_mhz, b.traffic, b.kind, b.note
        )
        assert a.gain == pytest.approx(b.gain, rel=1e-12, abs=1e-12)
        assert a.loss == pytest.approx(b.loss, rel=1e-12, abs=1e-12)
        assert a.profitable == b.profitable


def test_n_op_profile_fails_up_front_above_the_exact_limit():
    # three operators with caps of 117 units: 41419 states x 8 vectors x 3
    # operators = 994056 cells, just inside; 118 units give 1011048
    model = UtilityModel(100.0, 1000.0, family=CobbDouglasUtility())
    specs = [two_level(0.25), two_level(0.5), two_level(0.5)]
    for k, fits in ((117, True), (118, False)):
        cells = count_balance_states(3, k) * 8 * 3
        assert (cells <= EXACT_CELL_LIMIT) == fits
        params = DynamicParams(3, 100.0, trade_mhz=1.0, cap_units=k, punishment_slots=50)
        if fits:
            _require_exact(params)
            continue
        with pytest.raises(ValueError, match=f"{cells} cells"):
            verify_dynamic_profile(params, model, specs, 0.99)
        with pytest.raises(ValueError, match=f"{cells} cells"):
            verify_detectable_n_ops(params, model, specs, 0.99)


def test_n_op_truthfulness_fails_up_front_above_the_exact_limit():
    # below EXACT_STATE_LIMIT states the misreport check is exact, and so
    # bounded by EXACT_CELL_LIMIT cells: n=3 with caps of 118 units and n=6
    # with caps of 5 (91171 states, 35M cells) are refused before any table
    model = UtilityModel(100.0, 1000.0, family=CobbDouglasUtility())
    for n, k in ((3, 118), (6, 5)):
        cells = count_balance_states(n, k) * 2**n * n
        assert count_balance_states(n, k) <= verifier.EXACT_STATE_LIMIT < cells
        params = DynamicParams(n, 100.0, trade_mhz=1.0, cap_units=k, punishment_slots=50)
        with pytest.raises(ValueError, match=f"{cells} cells"):
            verify_truthfulness_n_ops(params, model, [two_level(0.5)] * n, 0.99)
        assert "outcomes" not in params.__dict__


def test_outcome_table_built_once_per_params(monkeypatch):
    builds = []

    def counted(params):
        builds.append(params)
        return outcome_table(params)

    monkeypatch.setattr(verifier, "outcome_table", counted)
    model = UtilityModel(W, 1000.0, family=CobbDouglasUtility())
    two = DynamicParams(2, W, trade_mhz=12.5, cap_units=4, punishment_slots=9)
    three = DynamicParams(3, W, trade_mhz=12.5, cap_units=2, punishment_slots=9)
    for params, specs in ((two, [two_level(0.25), two_level(0.5)]), (three, [two_level(0.5)] * 3)):
        verify_dynamic_profile(params, model, specs, 0.99)
        assert builds == [params]
        verify_dynamic_profile(params, model, specs, 0.99)
        assert builds == [params]
        builds.clear()
    wider = dataclasses.replace(two, cap_units=5)
    assert wider.outcomes is not two.outcomes
    assert builds == [wider]
    assert len(wider.outcomes.states) == 11
