"""One-shot-deviation certification for the borrow/lend profile.

The whole memory of the conforming system is the balance vector, so expected
discounted revenue is a function of balance alone and solves a small linear
fixed point exactly.  A profile is subgame perfect iff no single-slot
deviation (a misreport, or occupying the wrong support) beats conformance in
any reachable state; this module enumerates those comparisons exactly.
`verify_truthfulness_n_ops` estimates misreports by paired
common-random-number Monte Carlo instead when the joint chain has more
states than its `exact_limit`, and refuses an exact check above
`EXACT_CELL_LIMIT` cells.  `verify_dynamic_profile`, and so
`bandshare verify`, refuses every joint chain above `EXACT_CELL_LIMIT`
cells, far fewer states than the default `exact_limit`, so only direct
calls of `verify_truthfulness_n_ops` reach Monte Carlo.

Every exact check reads the one `OutcomeTable` of its params,
`DynamicParams.outcomes`: the next balances and widths of every (joint
balance state, report vector), filled by a single vectorised trading step
the first time a check needs them.  Two operators are viewed one at a time
through `BalanceChain`; more operators use the joint chain directly.  Both
price their deviations with the same margins (`_lie_margins`,
`_detectable_margins`), a view as the table's operator 0, and every direct
value solve checks its residual against `RESIDUAL_TOL`.  Two-operator
revenue pricing builds its birth-death chain without the table.

Deviation findings use value conventions:
  gain  - one-slot advantage of the deviation, (1-d) normalized
  loss  - discounted future disadvantage of the deviation
  profitable  iff  gain > loss + tol
Detectable-deviation findings price the deviation slot at the best utility
physically possible (exclusive full band).  That upper bound makes
certification sound; a "profitable" detectable finding means the deterrence
sizing fails, not that an actual deviation necessarily attains the bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .dynamic_sharing import DynamicParams, validate_reports
from .engine import auto_horizon
from .static_sharing import InfeasiblePunishmentError, smallest_deterring_length
from .utility import UtilityModel

PROFIT_TOL = 1e-9
RESIDUAL_TOL = 1e-10
EXACT_STATE_LIMIT = 200_000  # joint balance states solved exactly
# (state, report vector, operator) cells of an n-operator profile check;
# every cell becomes at least one finding
EXACT_CELL_LIMIT = 1_000_000
DETECTABLE_NOTE = "deviation slot priced at the exclusive-band bound"


class HypothesisViolationError(ValueError):
    """The traffic distribution cannot exercise the trades the equilibrium
    argument relies on (some operator never borrows or never lends)."""


@dataclass(frozen=True)
class DeviationFinding:
    operator: int
    balances_mhz: tuple[float, ...]
    traffic: tuple[int, ...]
    kind: str  # "lie_high" | "lie_low" | "detectable"
    gain: float
    loss: float
    profitable: bool
    estimate_se: float | None = None  # standard error when estimated by Monte Carlo
    note: str = ""

    def state_label(self) -> str:
        bal = ",".join(f"{b:g}" for b in self.balances_mhz)
        tr = ",".join(str(t) for t in self.traffic)
        return f"b=[{bal}] traffic=[{tr}]"


def _require_two_level(traffic_specs):
    for spec in traffic_specs:
        if not spec.is_two_level:
            raise ValueError("dynamic profiles require two-level traffic")


def two_op_joint_probs(traffic_specs, joint_probs=None) -> dict:
    """Joint law of (op0, op1) traffic; product of marginals unless overridden."""
    _require_two_level(traffic_specs)
    if joint_probs is not None:
        total = sum(joint_probs.values())
        if abs(total - 1.0) > 1e-9 or any(p < 0 for p in joint_probs.values()):
            raise ValueError("joint probabilities must be a distribution")
        pairs = [(l0, l1) for l0 in (0, 1) for l1 in (0, 1)]
        stray = [key for key in joint_probs if key not in pairs]
        if stray:
            raise ValueError(f"joint traffic pairs outside {{0,1}}^2: {stray}")
        return {pair: float(joint_probs.get(pair, 0.0)) for pair in pairs}
    p0, p1 = traffic_specs[0].p_high, traffic_specs[1].p_high
    return {
        (l0, l1): (p0 if l0 else 1 - p0) * (p1 if l1 else 1 - p1)
        for l0 in (0, 1)
        for l1 in (0, 1)
    }


@dataclass(frozen=True)
class OutcomeTable:
    """Conforming one-slot outcome of every joint balance state and report vector.

    Rows are the zero-sum balance vectors of `enumerate_balance_states`, in
    its lexicographic order (at n=2, row b+k holds (b, -b)).  Columns are the
    2**n report vectors in `itertools.product` order, operator 0's report
    the most significant bit.  The outcomes depend on the params alone, and
    `DynamicParams.outcomes` keeps the one table of its params;
    `utilities(model)` prices the distinct widths, one `model.pi` call per
    (width, level) pair and model for the table's lifetime.  Two-operator
    revenue pricing (`stationary_sum_revenue`, `discounted_sum_revenue`)
    reads no table: its birth-death chain is built directly.
    """

    states: np.ndarray  # (S, n) balance units
    reports: np.ndarray  # (V, n) report vectors
    next_index: np.ndarray  # (S, V) row of the balances after the slot's trades
    width_id: np.ndarray  # (S, V, n) index of each operator's width in `widths_mhz`
    widths_mhz: tuple[float, ...]  # the distinct widths, ascending
    _priced: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @staticmethod
    def column(reports) -> int:
        col = 0
        for r in reports:
            col = 2 * col + r
        return col

    def utilities(self, model: UtilityModel) -> np.ndarray:
        """(2, W) utility of each distinct width at traffic level 0 and 1."""
        if model not in self._priced:
            self._priced[model] = np.array(
                [[model.pi(w, lam) for w in self.widths_mhz] for lam in (0, 1)]
            )
        return self._priced[model]


def outcome_table(params: DynamicParams) -> OutcomeTable:
    """Apply the trading rule once to every (balance state, report vector)."""
    n, k = params.n, params.cap_units
    states = np.array(enumerate_balance_states(n, k), dtype=np.int64)
    reports = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int64)
    s_count, v_count = len(states), len(reports)
    nxt, widths = _vector_policy_step(
        np.repeat(states, v_count, axis=0),
        np.tile(reports, (s_count, 1)),
        k,
        params.share_mhz,
        params.trade_mhz,
    )
    # states are enumerated lexicographically, so their mixed-radix codes ascend
    radix = (2 * k + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    codes = (states + k) @ radix
    next_index = np.searchsorted(codes, (nxt + k) @ radix).reshape(s_count, v_count)
    distinct, width_id = np.unique(widths, return_inverse=True)
    return OutcomeTable(
        states,
        reports,
        next_index,
        width_id.reshape(s_count, v_count, n),
        tuple(distinct.tolist()),
    )


@dataclass(frozen=True)
class BalanceChain:
    """Single-operator view of the two-operator balance process.

    States are the viewed operator's balance in trade units, -k..k.  The
    transition kernel and one-slot rewards follow from conforming play under
    the viewed operator's own joint traffic law (own level first).  Both
    views read the same outcome table: by symmetry the viewed operator is
    the table's operator 0, reporting `own` against `other`.
    """

    params: DynamicParams
    probs: dict  # (own, other) -> probability
    rewards: np.ndarray  # expected one-slot utility per state
    transitions: np.ndarray  # row-stochastic (2k+1) x (2k+1)
    columns: np.ndarray  # outcome-table column of each `probs` pair
    next_index: np.ndarray  # (2k+1, 4) next state per state and `probs` pair
    utilities: np.ndarray  # (2k+1, 4) one-slot utility of the viewed operator

    @property
    def k(self) -> int:
        return self.params.cap_units

    @property
    def positive(self) -> np.ndarray:
        """Which `probs` pairs have positive probability."""
        return np.array([p > 0.0 for p in self.probs.values()])

    def balances_mhz(self) -> list[float]:
        return [b * self.params.trade_mhz for b in range(-self.k, self.k + 1)]


def _require_pair(params: DynamicParams):
    if params.n != 2:
        raise ValueError("the balance chain view covers two operators")


def build_balance_chain(
    params: DynamicParams,
    model: UtilityModel,
    traffic_specs,
    operator: int = 0,
    joint_probs=None,
) -> BalanceChain:
    _require_pair(params)
    if operator not in (0, 1):
        raise ValueError("operator must be 0 or 1")
    joint = two_op_joint_probs(traffic_specs, joint_probs)
    if operator == 1:
        joint = {(l1, l0): p for (l0, l1), p in joint.items()}
    table = params.outcomes
    columns = np.array([table.column(pair) for pair in joint])
    levels = np.array([own for own, _ in joint])
    next_index = table.next_index[:, columns]
    utilities = table.utilities(model)[levels, table.width_id[:, columns, 0]]
    probs = list(joint.values())
    rewards = sum(p * utilities[:, j] for j, p in enumerate(probs))
    trans = _transitions(next_index, probs)
    return BalanceChain(params, joint, rewards, trans, columns, next_index, utilities)


def _transitions(next_index: np.ndarray, probs) -> np.ndarray:
    """Row-stochastic kernel of a chain whose state s moves to
    `next_index[s, j]` with probability `probs[j]`."""
    size = len(next_index)
    rows = np.arange(size)
    trans = np.zeros((size, size))
    for j, p in enumerate(probs):
        trans[rows, next_index[:, j]] += p
    return trans


def _solve(trans: np.ndarray, rewards: np.ndarray, discount: float):
    """Solve V = (1-d) R + d P V directly for one or more reward columns.

    Returns (values, residual), the residual being the largest absolute
    error of the solved system; raises ArithmeticError when it exceeds
    `RESIDUAL_TOL` relative to the largest scaled reward.  The system is
    strictly diagonally dominant for d < 1.
    """
    if not 0.0 <= discount < 1.0:
        raise ValueError("discount must lie in [0, 1)")
    a = np.eye(len(trans)) - discount * trans
    rhs = (1.0 - discount) * rewards
    values = np.linalg.solve(a, rhs)
    residual = float(np.max(np.abs(a @ values - rhs)))
    if residual > RESIDUAL_TOL * max(1.0, float(np.max(np.abs(rhs)))):
        raise ArithmeticError(f"value solve residual {residual} too large")
    return values, residual


@dataclass(frozen=True)
class ValueTable:
    balances_mhz: tuple[float, ...]
    values: tuple[float, ...]
    residual: float


def value_function(chain: BalanceChain, discount: float) -> ValueTable:
    """Expected discounted revenue under conformance, (1-d) normalized,
    solved directly over the 2k+1 balance states."""
    values, residual = _solve(chain.transitions, chain.rewards, discount)
    return ValueTable(
        balances_mhz=tuple(chain.balances_mhz()),
        values=tuple(float(v) for v in values),
        residual=residual,
    )


def lying_gain(
    traffic_pair: tuple[int, int],
    balance_units: int,
    params: DynamicParams,
    model: UtilityModel,
) -> float:
    """One-slot utility change for the viewed operator misreporting its level.

    `traffic_pair` is (own, other) truth; the lie is the flipped own report.
    Positive when the lie grabs or retains spectrum now (e.g. feigning high
    traffic); negative for lies that give spectrum up now in exchange for a
    better balance."""
    _require_pair(params)
    own, other = validate_reports(params, traffic_pair)
    if not -params.cap_units <= balance_units <= params.cap_units:
        raise ValueError("balance outside the ledger caps")
    table = params.outcomes
    col = table.column((own, other))  # col ^ 2 flips the own report
    truth, lie = table.width_id[balance_units + params.cap_units, [col, col ^ 2], 0]
    pi_own = table.utilities(model)[own]
    return float(pi_own[lie] - pi_own[truth])


def borrow_repay_margin_ok(model: UtilityModel, share_mhz: float, trade_mhz: float) -> bool:
    """Lending a quantum at low traffic must cost less than borrowing one at
    high traffic gains; this is what makes a borrow/repay cycle worthwhile."""
    if not 0 < trade_mhz <= share_mhz:
        raise ValueError("trade size must lie in (0, share]")
    give_up = model.pi(share_mhz, 0.0) - model.pi(share_mhz - trade_mhz, 0.0)
    get_back = model.pi(share_mhz + trade_mhz, 1.0) - model.pi(share_mhz, 1.0)
    return give_up < get_back


def gate_two_op(joint: dict):
    """Raise HypothesisViolationError unless each operator of the joint law
    `joint` is the sole high-traffic reporter with positive probability."""
    if joint.get((1, 0), 0.0) <= 0.0 or joint.get((0, 1), 0.0) <= 0.0:
        raise HypothesisViolationError(
            "need both one-sided high-traffic events to have positive "
            "probability for balances to move in both directions"
        )


def _findings(params, columns, ops, order, mask, gain, loss, tol, kind_of, note="", noted=None):
    """Findings for the masked (state, report column, operator) cells, in
    that order.  `ops` are the table operators the last axis prices and
    `order` lists the table operators in label order, so a view reports its
    operator's balance and traffic in that operator's place.  The cells
    flagged in `noted` (every cell when None) carry `note`."""
    table = params.outcomes
    balances = [tuple(row) for row in (table.states[:, order] * params.trade_mhz).tolist()]
    reports = table.reports[columns]
    vectors = [tuple(tv) for tv in reports[:, order].tolist()]
    levels = reports[:, ops].tolist()
    labels = np.argsort(order)[ops].tolist()
    flags = mask if noted is None else noted
    findings = []
    for si, vi, oi, g, l, flag in zip(
        *(idx.tolist() for idx in np.nonzero(mask)),
        gain[mask].tolist(),
        loss[mask].tolist(),
        flags[mask].tolist(),
    ):
        findings.append(
            DeviationFinding(
                operator=labels[oi],
                balances_mhz=balances[si],
                traffic=vectors[vi],
                kind=kind_of(levels[vi][oi]),
                gain=g,
                loss=l,
                profitable=g > l + tol,
                note=note if flag else "",
            )
        )
    return findings


def _lie_kind(own: int) -> str:
    return "lie_high" if own == 0 else "lie_low"


def _lie_margins(params, model, values, columns, ops, discount):
    """Gain and loss of each operator in `ops` misreporting once, per (state,
    report column, operator) cell; `values` holds one value column per
    operator of `ops`.  Also returns the mask of cells where the lie changes
    the operator's width or the next balances, and the cells where it swings
    the width by two quanta (borrowing instead of lending)."""
    table = params.outcomes
    ops = np.asarray(ops)
    levels = table.reports[columns][:, ops]
    lie = columns[:, None] ^ (1 << (params.n - 1 - ops))  # each operator's report flipped
    truth_next = table.next_index[:, columns, None]
    lie_next = table.next_index[:, lie]
    w_truth = table.width_id[:, columns[:, None], ops]
    w_lie = table.width_id[:, lie, ops]
    pi_tab = table.utilities(model)
    gain = (1 - discount) * (pi_tab[levels, w_lie] - pi_tab[levels, w_truth])
    value_col = np.arange(len(ops))
    loss = discount * (values[truth_next, value_col] - values[lie_next, value_col])
    mask = (w_lie != w_truth) | (lie_next != truth_next)
    # lends in truth (its balance rises) and borrows in the lie (it falls)
    own = table.states[:, None, ops]
    double = (table.states[truth_next, ops] > own) & (table.states[lie_next, ops] < own)
    return gain, loss, mask, double


def _detectable_margins(params, model, values, columns, probs, ops, discount):
    """Gain and loss of each operator in `ops` deviating from its support
    once, per (state, report column, operator) cell; `probs` are the
    probabilities of `columns` and `values` holds one value column per
    operator of `ops`."""
    table = params.outcomes
    ops = np.asarray(ops)
    levels = table.reports[columns][:, ops]
    u_full_of = [model.full_spectrum_utility(params.n, lam) for lam in (0, 1)]
    u_max_of = np.array([model.max_utility(lam) for lam in (0, 1)])
    u_full = np.array(
        [sum(p * u_full_of[lam] for p, lam in zip(probs, col)) for col in levels.T.tolist()]
    )
    t_len = params.punishment_slots
    punish_factor = discount - discount ** (t_len + 1)
    v_next = values[table.next_index[:, columns]]
    conform_future = discount * v_next
    deviate_future = punish_factor * u_full + discount ** (t_len + 1) * v_next
    utilities = table.utilities(model)[levels, table.width_id[:, columns[:, None], ops]]
    gain = (1 - discount) * (u_max_of[levels] - utilities)
    loss = conform_future - deviate_future
    return gain, loss


def _view(params, model, traffic_specs, discount, joint_probs, op):
    """Operator `op`'s view: its values as one column, and the table columns
    and probabilities of its positive-probability traffic pairs."""
    chain = build_balance_chain(params, model, traffic_specs, op, joint_probs)
    values = np.asarray(value_function(chain, discount).values)[:, None]
    probs = [p for p in chain.probs.values() if p > 0.0]
    return values, chain.columns[chain.positive], probs


def verify_truthfulness_exact(
    params: DynamicParams,
    model: UtilityModel,
    traffic_specs,
    discount: float,
    joint_probs=None,
    tol: float = PROFIT_TOL,
) -> list[DeviationFinding]:
    """Exact one-shot misreport check over every reachable state.

    For each operator, balance, and positive-probability traffic pair, the
    value of lying once (then conforming) is compared against truthful play
    via the exact value function.  Returns every comparison as a finding;
    the profile is truthful iff none is profitable.  A lie that changes
    neither the width nor the next balance (caps bind) is not a finding.
    """
    _require_pair(params)
    gate_two_op(two_op_joint_probs(traffic_specs, joint_probs))
    findings = []
    for op in (0, 1):
        values, columns, _ = _view(params, model, traffic_specs, discount, joint_probs, op)
        gain, loss, mask, _ = _lie_margins(params, model, values, columns, [0], discount)
        findings += _findings(params, columns, [0], [op, 1 - op], mask, gain, loss, tol, _lie_kind)
    return findings


def truthful_exact(
    params: DynamicParams,
    model: UtilityModel,
    traffic_specs,
    discount: float,
    joint_probs=None,
    tol: float = PROFIT_TOL,
) -> bool:
    """The verdict of `verify_truthfulness_exact` without its findings:
    True iff no misreport is profitable.  Stops at the first operator with a
    profitable lie, so operator 1's view is built only when operator 0 has
    none."""
    _require_pair(params)
    gate_two_op(two_op_joint_probs(traffic_specs, joint_probs))
    for op in (0, 1):
        values, columns, _ = _view(params, model, traffic_specs, discount, joint_probs, op)
        gain, loss, mask, _ = _lie_margins(params, model, values, columns, [0], discount)
        if np.any(mask & (gain > loss + tol)):
            return False
    return True


def verify_detectable_exact(
    params: DynamicParams,
    model: UtilityModel,
    traffic_specs,
    discount: float,
    joint_probs=None,
    tol: float = PROFIT_TOL,
) -> list[DeviationFinding]:
    """Exact check that the punishment length deters support deviations.

    Prices the deviation slot at the exclusive-full-band bound, then T slots
    of full-spectrum sharing with the ledger frozen, then conformance from
    the balance the executed trades left behind.  Deviating during
    punishment is never profitable and is not enumerated: against everyone
    else on the full band, the full band is the single-slot best response,
    and deviating in the final punishment slot only restarts punishment.
    """
    findings = []
    for op in (0, 1):
        values, columns, probs = _view(params, model, traffic_specs, discount, joint_probs, op)
        gain, loss = _detectable_margins(params, model, values, columns, probs, [0], discount)
        every = np.ones(gain.shape, dtype=bool)
        findings += _findings(
            params, columns, [0], [op, 1 - op], every, gain, loss, tol,
            lambda lam: "detectable", DETECTABLE_NOTE,
        )
    return findings


def verify_dynamic_profile(
    params: DynamicParams,
    model: UtilityModel,
    traffic_specs,
    discount: float,
    joint_probs=None,
    tol: float = PROFIT_TOL,
) -> list[DeviationFinding]:
    """Misreport and support-deviation findings combined.

    Two operators are checked on the pair views, more on the joint chain;
    the joint check must fit `EXACT_CELL_LIMIT` (state, traffic vector,
    operator) cells, because the support deviation check has no Monte Carlo
    fallback.
    """
    if params.n == 2:
        return verify_truthfulness_exact(
            params, model, traffic_specs, discount, joint_probs, tol
        ) + verify_detectable_exact(params, model, traffic_specs, discount, joint_probs, tol)
    if joint_probs is not None:
        raise ValueError("a joint traffic law is supported for two operators only")
    _require_exact(params)
    return verify_truthfulness_n_ops(
        params, model, traffic_specs, discount, tol=tol
    ) + verify_detectable_n_ops(params, model, traffic_specs, discount, tol=tol)


@dataclass(frozen=True)
class LossBound:
    value: float  # discounted expected repayment loss
    undiscounted: float  # same with no discounting (the d -> 1 limit)
    horizon: int  # slots of hitting-time mass accumulated
    tail_mass: float  # probability not yet absorbed at the horizon
    tail_bound: float  # largest additional loss the tail could contribute


def lying_loss_bound(
    params: DynamicParams,
    model: UtilityModel,
    traffic_specs,
    discount: float,
    balance_units: int,
    joint_probs=None,
    mass_tol: float = 1e-12,
    max_horizon: int = 2_000_000,
) -> LossBound:
    """Expected future repayment cost of a lie that grabbed one quantum now.

    After such a lie the liar's balance trails the truthful trajectory by one
    unit until the first slot where the truthful path borrows at the floor
    (the liar cannot follow) or the liar lends at the ceiling (the truthful
    path cannot).  The hitting-time law of that coupling is computed by
    dynamic programming on the shared trajectory, with the horizon extended
    until the un-absorbed mass is below `mass_tol`.
    """
    joint = two_op_joint_probs(traffic_specs, joint_probs)
    gate_two_op(joint)
    if not 0.0 <= discount < 1.0:
        raise ValueError("discount must lie in [0, 1)")
    k = params.cap_units
    if balance_units > k:
        raise ValueError("balance outside the ledger caps")
    if balance_units - 1 < -k:
        raise ValueError("a lie cannot gain a quantum at the balance floor")
    w = params.share_mhz
    d = params.trade_mhz
    borrow_margin = model.pi(w + d, 1.0) - model.pi(w, 1.0)  # loss when closing at the floor
    lend_margin = model.pi(w, 0.0) - model.pi(w - d, 0.0)  # loss when closing at the ceiling
    p_borrow = joint[(1, 0)]
    p_lend = joint[(0, 1)]
    # truthful-path balance after the lie slot ranges over [-k+1, k]
    size = 2 * k  # states -k+1 .. k
    dist = np.zeros(size)
    dist[balance_units - (-k + 1)] = 1.0
    loss = 0.0
    undiscounted = 0.0
    disc = discount
    tau = 0
    while dist.sum() > mass_tol and tau < max_horizon:
        tau += 1
        new = np.zeros(size)
        p_mass = 0.0
        q_mass = 0.0
        for idx in range(size):
            m = dist[idx]
            if m == 0.0:
                continue
            b = idx + (-k + 1)
            # own high, other low: both borrow unless the liar is at the floor
            if b == -k + 1:
                p_mass += m * p_borrow
            else:
                new[idx - 1] += m * p_borrow
            # own low, other high: both lend unless the truthful path is capped
            if b == k:
                q_mass += m * p_lend
            else:
                new[idx + 1] += m * p_lend
            new[idx] += m * (1.0 - p_borrow - p_lend)
        step_loss = p_mass * borrow_margin + q_mass * lend_margin
        loss += disc**tau * step_loss
        undiscounted += step_loss
        dist = new
    tail_mass = float(dist.sum())
    tail_bound = tail_mass * max(borrow_margin, lend_margin) * (disc ** (tau + 1) if disc > 0 else 0.0)
    return LossBound(
        value=float(loss),
        undiscounted=float(undiscounted),
        horizon=tau,
        tail_mass=tail_mass,
        tail_bound=float(tail_bound),
    )


def min_punishment_slots(
    params: DynamicParams, model: UtilityModel, traffic_specs
) -> int:
    """Smallest punishment length whose guaranteed loss beats the best
    possible one-shot gain of a support deviation.

    The gain is capped by the worst-case one-slot advantage plus the largest
    possible value swing across the ledger range; each punishment slot costs
    at least the smallest conforming-versus-full-spectrum utility margin,
    which must be positive for deterrence to work at all.
    """
    _require_two_level(traffic_specs)
    w = params.share_mhz
    d = params.trade_mhz
    k = params.cap_units
    gain_cap = max(
        model.max_utility(lam) - model.pi(w - d, lam) for lam in (0.0, 1.0)
    )
    value_span = 2 * k * (model.pi(w + d, 1.0) - model.pi(w, 1.0))
    floor_margin = model.pi(w - d, 0.0) - model.full_spectrum_utility(params.n, 0.0)
    if floor_margin <= 0:
        raise InfeasiblePunishmentError(
            "full-spectrum sharing is not worse than the narrowest conforming "
            "slot at low traffic; the trade size leaves no deterrence margin"
        )
    return smallest_deterring_length(gain_cap + value_span, floor_margin)


def verify_static_profile(
    params, model: UtilityModel, traffic_specs, discount: float, tol: float = PROFIT_TOL
) -> list[DeviationFinding]:
    """Deterrence check for the static blocks profile.

    Under conformance the value is the constant expected block utility, so
    the one-shot comparison per operator and traffic level is closed form:
    the deviation slot is priced at the exclusive-band bound, followed by
    the punishment window of full-spectrum sharing (everlasting under the
    grim variant).

    Known defect: `static_sharing.min_punishment_length` sizes T against the
    undiscounted loss T * (u_orth - u_full), while here, relative to the
    one-slot gain, the window is worth only (delta + ... + delta**T) *
    (u_orth - u_full).  So profiles sized there can be reported profitable
    to deviate from: at delta=0.99 with Cobb-Douglas utility at 30 dB, the
    auto-sized n=4 static profile, and equal-traffic (p_high=0.5) entry
    markets of 5 and of 7 to 14 operators."""
    from .traffic import expectation

    if not 0.0 <= discount < 1.0:
        raise ValueError("discount must lie in [0, 1)")
    findings = []
    for i, spec in enumerate(traffic_specs):
        w_i = params.block_width(i)
        u_orth = expectation(spec, lambda lam: model.pi(w_i, lam))
        u_full = expectation(spec, lambda lam: model.full_spectrum_utility(params.n, lam))
        if params.grim:
            punish_factor = discount
        else:
            punish_factor = discount - discount ** (params.punishment_slots + 1)
        for lam in spec.levels:
            gain = (1 - discount) * (model.max_utility(lam) - model.pi(w_i, lam))
            loss = punish_factor * (u_orth - u_full)
            findings.append(
                DeviationFinding(
                    operator=i,
                    balances_mhz=(),
                    traffic=(lam,),
                    kind="detectable",
                    gain=gain,
                    loss=loss,
                    profitable=gain > loss + tol,
                    note=DETECTABLE_NOTE,
                )
            )
    return findings


def _sum_revenue_chain(params, model, traffic_specs, joint_probs):
    """Transitions of operator 0's balance and the expected one-slot total
    utility of both operators, per balance state, under conformance.

    Two operators' conforming balance is a birth-death chain over operator
    0's 2k+1 balances, so it is built directly, without the outcome table:
    under reports (1, 0) operator 0 borrows one quantum above the floor,
    under (0, 1) it lends one below the ceiling, and otherwise nothing
    moves.  The widths are formed as the trading rule forms them and priced
    once per level, so the chain is the table's to the bit."""
    _require_pair(params)
    joint = two_op_joint_probs(traffic_specs, joint_probs)
    pairs = [pair for pair, p in joint.items() if p > 0]
    probs = [joint[pair] for pair in pairs]
    k = params.cap_units
    rows = np.arange(2 * k + 1)  # row b + k holds operator 0's balance b
    # operator 0's trade per row and pair: 1 borrows, -1 lends, 0 none
    hold = np.zeros_like(rows)
    trade_of = {
        (0, 0): hold,
        (0, 1): -(rows < 2 * k).astype(np.int64),
        (1, 0): (rows > 0).astype(np.int64),
        (1, 1): hold,
    }
    # prices[lam, t + 1]: utility of the width share + trade * t at level lam
    prices = np.array(
        [
            [model.pi(params.share_mhz + params.trade_mhz * t, lam) for t in (-1.0, 0.0, 1.0)]
            for lam in (0, 1)
        ]
    )
    trades = [trade_of[pair] for pair in pairs]
    sums = sum(
        p * (prices[l0, 1 + t] + prices[l1, 1 - t])
        for (l0, l1), p, t in zip(pairs, probs, trades)
    )
    next_index = np.stack([rows - t for t in trades], axis=1)
    return _transitions(next_index, probs), sums


def stationary_sum_revenue(
    params: DynamicParams,
    model: UtilityModel,
    traffic_specs,
    joint_probs=None,
) -> float:
    """Long-run per-slot total utility of both operators under conformance."""
    trans, sums = _sum_revenue_chain(params, model, traffic_specs, joint_probs)
    mu = stationary_distribution(trans, start_index=params.cap_units)
    return float(mu @ sums)


def discounted_sum_revenue(
    params: DynamicParams,
    model: UtilityModel,
    traffic_specs,
    discount: float,
    joint_probs=None,
) -> float:
    """Expected discounted total utility of both operators from zero balances."""
    trans, sums = _sum_revenue_chain(params, model, traffic_specs, joint_probs)
    values, _ = _solve(trans, sums, discount)
    return float(values[params.cap_units])


def stationary_distribution(trans: np.ndarray, start_index: int = 0) -> np.ndarray:
    """Long-run occupancy of the chain started at `start_index`.

    Solves the stationary equations directly; if the chain is reducible the
    linear system degenerates, and the occupancy is taken as the Cesaro
    average of the empirical distribution from the given start instead.
    """
    size = trans.shape[0]
    a = trans.T - np.eye(size)
    a[-1, :] = 1.0
    rhs = np.zeros(size)
    rhs[-1] = 1.0
    try:
        mu = np.linalg.solve(a, rhs)
        if np.all(mu >= -1e-12) and abs(mu.sum() - 1.0) < 1e-9:
            mu = np.clip(mu, 0.0, None)
            resid = np.max(np.abs(mu @ trans - mu))
            if resid < 1e-9:
                return mu / mu.sum()
    except np.linalg.LinAlgError:
        pass
    dist = np.zeros(size)
    dist[start_index] = 1.0
    acc = np.zeros(size)
    for _ in range(20_000):
        dist = dist @ trans
        acc += dist
    return acc / acc.sum()


def mc_value_estimate(
    chain: BalanceChain,
    discount: float,
    replications: int,
    seed: int,
    horizon: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo estimate of the value function, one batch per start state.

    Returns (means, standard errors) indexed like the chain states.  The
    rollout uses the same counter-based generator as the simulator, keyed by
    (seed, state, replication, slot)."""
    if replications < 2:
        raise ValueError("a standard error needs at least two replications")
    if horizon is None:
        horizon = auto_horizon(discount)
    size = len(chain.rewards)
    keep = chain.positive
    cdf = np.cumsum(np.array(list(chain.probs.values()))[keep])
    steps = cdf[:-1].tolist()
    next_tab = chain.next_index[:, keep]
    util_tab = chain.utilities[:, keep]
    means = np.zeros(size)
    ses = np.zeros(size)
    for start in range(size):
        states = np.full(replications, start, dtype=np.int64)
        acc = np.zeros(replications)
        weight = 1.0 - discount
        for t in range(horizon):
            u = rng.uniform01_array(seed, start, t, counters=np.arange(replications))
            # searchsorted(cdf, u, side="right") clamped to the last entry, as
            # one comparison per step of the short cdf, which is faster
            idx = np.zeros(replications, dtype=np.intp)
            for step in steps:
                idx += u >= step
            acc += weight * util_tab[states, idx]
            states = next_tab[states, idx]
            weight *= discount
        means[start] = acc.mean()
        ses[start] = acc.std(ddof=1) / math.sqrt(replications)
    return means, ses


# --- many-operator verification -------------------------------------------


def count_balance_states(n: int, k: int) -> int:
    """Number of integer balance vectors in [-k, k]^n that sum to zero.

    Shifted by k these are the ways to put nk units into n boxes of at most
    2k each; inclusion-exclusion over the j boxes forced above 2k counts
    them in O(n) steps."""
    return sum(
        (-1) ** j * math.comb(n, j) * math.comb(n * k - j * (2 * k + 1) + n - 1, n - 1)
        for j in range(n + 1)
        if j * (2 * k + 1) <= n * k
    )


def enumerate_balance_states(n: int, k: int) -> list[tuple[int, ...]]:
    """All integer balance vectors in [-k, k]^n summing to zero, in
    lexicographic order.

    Built one position at a time: each prefix is extended, in ascending
    order, by every value that leaves a running total the remaining
    positions can still cancel; the last entry is the negated total."""
    states = [((), 0)]  # (prefix, its total)
    for tail in range(n - 1, 0, -1):
        bound = k * tail
        states = [
            (prefix + (v,), total + v)
            for prefix, total in states
            for v in range(max(-k, -bound - total), min(k, bound - total) + 1)
        ]
    return [prefix + (-total,) for prefix, total in states]


def _gate_n_op(traffic_specs):
    _require_two_level(traffic_specs)
    highs = [spec.p_high for spec in traffic_specs]
    for i, p in enumerate(highs):
        if p <= 0 or all(highs[j] >= 1.0 for j in range(len(highs)) if j != i):
            raise HypothesisViolationError(
                f"operator {i} can never be the sole high-traffic reporter; "
                "its balance cannot move both ways"
            )


def _traffic_vectors(traffic_specs):
    n = len(traffic_specs)
    highs = [spec.p_high for spec in traffic_specs]
    vectors, probs = [], []
    for tv in itertools.product((0, 1), repeat=n):
        p = 1.0
        for lam, ph in zip(tv, highs):
            p *= ph if lam else 1.0 - ph
        if p > 0.0:
            vectors.append(tv)
            probs.append(p)
    return vectors, probs


def _n_op_values(table, model, traffic_specs, discount):
    """Per-operator value tables over the joint balance states.

    Returns (values, columns, probs): one value column per operator, and the
    table columns and probabilities of the positive-probability traffic
    vectors.  Up to 2000 states the values are solved directly.
    """
    vectors, probs = _traffic_vectors(traffic_specs)
    columns = np.array([table.column(tv) for tv in vectors])
    utilities = table.utilities(model)[table.reports[columns], table.width_id[:, columns]]
    next_idx = table.next_index[:, columns]
    rewards = sum(p * utilities[:, ti, :] for ti, p in enumerate(probs))
    if len(table.states) <= 2000:
        values, _ = _solve(_transitions(next_idx, probs), rewards, discount)
    else:
        p_arr = np.asarray(probs)
        values = (1.0 - discount) * rewards.copy()
        scale = max(1.0, float(np.max(np.abs(rewards))))
        for _ in range(200_000):
            nxt_val = np.zeros_like(values)
            for ti in range(len(probs)):
                nxt_val += p_arr[ti] * values[next_idx[:, ti], :]
            new = (1.0 - discount) * rewards + discount * nxt_val
            if float(np.max(np.abs(new - values))) < 1e-11 * scale:
                values = new
                break
            values = new
    return values, columns, probs


def _check_n_op_inputs(params, traffic_specs, discount):
    if len(traffic_specs) != params.n:
        raise ValueError("need one traffic spec per operator")
    _require_two_level(traffic_specs)
    if not 0.0 <= discount < 1.0:
        raise ValueError("discount must lie in [0, 1)")


def _require_exact(params: DynamicParams):
    """Refuse an exact n-operator profile check larger than EXACT_CELL_LIMIT."""
    cells = params.table_cells
    count = cells // (2**params.n * params.n)
    if cells > EXACT_CELL_LIMIT:
        raise ValueError(
            f"the joint balance chain has {count} states; with {2**params.n} "
            f"report vectors and {params.n} operators that is {cells} cells, "
            f"above the exact verification limit of {EXACT_CELL_LIMIT}"
        )


def verify_truthfulness_n_ops(
    params: DynamicParams,
    model: UtilityModel,
    traffic_specs,
    discount: float,
    exact_limit: int = EXACT_STATE_LIMIT,
    tol: float = PROFIT_TOL,
    seed: int = 0,
    mc_states: int = 12,
    mc_replications: int = 1000,
    mc_horizon: int | None = None,
) -> list[DeviationFinding]:
    """One-shot misreport check for n operators on the joint balance chain.

    When the joint state space fits within `exact_limit` the check is the
    exact Bellman comparison over every (state, traffic vector, operator),
    and raises ValueError up front when those are more than
    `EXACT_CELL_LIMIT` cells.  Otherwise deviation values are estimated by
    paired rollouts driven by common random numbers, and a finding is
    profitable only when its 99% lower confidence bound clears the
    tolerance (the confidence margin is reported in the `loss` field, the
    paired standard error in `estimate_se`, so `mc_replications` must be at
    least 2).
    """
    _check_n_op_inputs(params, traffic_specs, discount)
    if mc_replications < 2:
        raise ValueError("a standard error needs at least two replications")
    _gate_n_op(traffic_specs)
    if count_balance_states(params.n, params.cap_units) <= exact_limit:
        _require_exact(params)
        return _exact_n_op_findings(params, model, traffic_specs, discount, tol)
    return _mc_n_op_findings(
        params,
        model,
        traffic_specs,
        discount,
        tol,
        seed,
        mc_states,
        mc_replications,
        mc_horizon,
    )


def _exact_n_op_findings(params, model, traffic_specs, discount, tol):
    values, columns, _ = _n_op_values(params.outcomes, model, traffic_specs, discount)
    ops = np.arange(params.n)
    gain, loss, mask, double = _lie_margins(params, model, values, columns, ops, discount)
    return _findings(
        params, columns, ops, ops, mask, gain, loss, tol, _lie_kind,
        "borrow-instead-of-lend double swing", double,
    )


def verify_detectable_n_ops(
    params: DynamicParams,
    model: UtilityModel,
    traffic_specs,
    discount: float,
    tol: float = PROFIT_TOL,
) -> list[DeviationFinding]:
    """Support-deviation check for n operators on the joint balance chain.

    Priced as in `verify_detectable_exact`: the deviation slot at the
    exclusive-full-band bound, then T slots of n-way full-spectrum sharing
    at the deviator's expected utility with the ledger frozen, then
    conformance from the balances the slot's trades left behind.  Exact
    only: raises ValueError when the check has more than `EXACT_CELL_LIMIT`
    (state, traffic vector, operator) cells.
    """
    _check_n_op_inputs(params, traffic_specs, discount)
    _require_exact(params)
    values, columns, probs = _n_op_values(params.outcomes, model, traffic_specs, discount)
    ops = np.arange(params.n)
    gain, loss = _detectable_margins(params, model, values, columns, probs, ops, discount)
    every = np.ones(gain.shape, dtype=bool)
    return _findings(
        params, columns, ops, ops, every, gain, loss, tol, lambda lam: "detectable",
        DETECTABLE_NOTE,
    )


def _vector_policy_step(units, reports, k, share, trade):
    """The trading rule, vectorized: units/reports are (R, n) arrays.

    Returns (next units, widths).  Eligible high reporters sorted by
    descending balance (index breaking ties) borrow from eligible low
    reporters sorted ascending, one quantum each.  This is the rule's one
    form: `outcome_table` applies it to every balance state and report
    vector, for the simulator and every exact check, and the n-operator
    Monte Carlo rollouts apply it slot by slot.
    """
    reps, n = units.shape
    idx = np.arange(n)
    big = (2 * k + 2) * n
    can_borrow = (reports == 1) & (units - 1 >= -k)
    can_lend = (reports == 0) & (units + 1 <= k)
    m = np.minimum(can_borrow.sum(axis=1), can_lend.sum(axis=1))[:, None]
    bkey = np.where(can_borrow, -units * n + idx, big)
    border = np.argsort(bkey, axis=1, kind="stable")
    brank = np.empty_like(border)
    np.put_along_axis(brank, border, np.broadcast_to(idx, (reps, n)).copy(), axis=1)
    borrows = can_borrow & (brank < m)
    lkey = np.where(can_lend, units * n + idx, big)
    lorder = np.argsort(lkey, axis=1, kind="stable")
    lrank = np.empty_like(lorder)
    np.put_along_axis(lrank, lorder, np.broadcast_to(idx, (reps, n)).copy(), axis=1)
    lends = can_lend & (lrank < m)
    next_units = units - borrows.astype(np.int64) + lends.astype(np.int64)
    widths = share + trade * (borrows.astype(np.float64) - lends.astype(np.float64))
    return next_units, widths


def _mc_n_op_findings(
    params,
    model,
    traffic_specs,
    discount,
    tol,
    seed,
    mc_states,
    mc_replications,
    mc_horizon,
):
    n = params.n
    k = params.cap_units
    share = params.share_mhz
    trade = params.trade_mhz
    highs = np.array([spec.p_high for spec in traffic_specs])
    horizon = mc_horizon if mc_horizon is not None else auto_horizon(discount, 1e-6)
    z99 = 2.3263478740408408  # one-sided 99% normal quantile

    # burn-in walk to find the commonly visited states
    units = np.zeros((1, n), dtype=np.int64)
    visits: dict[tuple[int, ...], int] = {}
    burn = 4000
    for t in range(burn):
        u = rng.uniform01_array(seed, 101, t, counters=np.arange(n))
        reports = (u < highs).astype(np.int64)[None, :]
        units, _ = _vector_policy_step(units, reports, k, share, trade)
        key = tuple(int(v) for v in units[0])
        visits[key] = visits.get(key, 0) + 1
    chosen = sorted(visits, key=visits.get, reverse=True)[:mc_states]

    findings = []
    batch = 0
    for state in chosen:
        for op in range(n):
            for own in (0, 1):
                p_own = highs[op] if own else 1.0 - highs[op]
                if p_own <= 0.0:
                    continue
                batch += 1
                est, se = _paired_lie_batch(
                    params,
                    model,
                    highs,
                    discount,
                    np.array(state, dtype=np.int64),
                    op,
                    own,
                    mc_replications,
                    horizon,
                    rng.key_hash(seed, 77, batch),
                )
                margin = z99 * se
                traffic_label = [-1] * n  # -1: averaged over that operator's law
                traffic_label[op] = own
                findings.append(
                    DeviationFinding(
                        operator=op,
                        balances_mhz=tuple(v * trade for v in state),
                        traffic=tuple(traffic_label),
                        kind="lie_high" if own == 0 else "lie_low",
                        gain=est,
                        loss=margin,
                        profitable=est > margin + tol,
                        estimate_se=se,
                        note=(
                            "paired Monte Carlo net lie value over others' traffic; "
                            "loss holds the one-sided 99% confidence margin"
                        ),
                    )
                )
    return findings


def _paired_lie_batch(
    params, model, highs, discount, state, op, own, reps, horizon, key
):
    """Net value of one misreport by `op` (own level fixed) versus truth.

    Both branches share every traffic draw; the misreport happens in slot 0
    only.  The accumulation stops once every replication's branches hold
    identical ledgers (their futures coincide from there on)."""
    n = params.n
    k = params.cap_units
    share = params.share_mhz
    trade = params.trade_mhz
    units_t = np.tile(state, (reps, 1))
    units_l = units_t.copy()
    diff = np.zeros(reps)
    weight = 1.0 - discount
    for t in range(horizon):
        u = rng.uniform01_array(key, t, counters=np.arange(reps * n)).reshape(reps, n)
        traffic = (u < highs[None, :]).astype(np.int64)
        if t == 0:
            traffic[:, op] = own
        reports_t = traffic
        next_t, widths_t = _vector_policy_step(units_t, reports_t, k, share, trade)
        if t == 0:
            reports_l = traffic.copy()
            reports_l[:, op] = 1 - own
            next_l, widths_l = _vector_policy_step(units_l, reports_l, k, share, trade)
        else:
            next_l, widths_l = _vector_policy_step(units_l, reports_t, k, share, trade)
        lam = traffic[:, op].astype(np.float64)
        u_t = model.family.value(model.peak_rate * widths_t[:, op], lam)
        u_l = model.family.value(model.peak_rate * widths_l[:, op], lam)
        diff += weight * (u_l - u_t)
        units_t, units_l = next_t, next_l
        weight *= discount
        if t > 0 and np.array_equal(units_t, units_l):
            break
    return float(diff.mean()), float(diff.std(ddof=1) / math.sqrt(reps))
