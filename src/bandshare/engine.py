"""Simulation of the sharing schemes with revenue accounting.

Traffic, scheme transitions and utilities are all deterministic functions of
(seed, replication, operator, slot), so traces are byte-identical across
runs and replication order.  Deviation experiments inject misreports (report
manipulation, dynamic scheme only) or support overrides (any scheme); the
scheme's own detection and punishment then run unmodified.

Every scheme runs through a replication kernel that draws the traffic of
all slots at once, applies the trigger rule in one walk (`_walk`), and
prices and discounts every slot as arrays.  Dynamic sharing runs on its
params' outcome table (`DynamicParams.outcomes`): the walk steps its balance
row through the table, and params whose table would exceed
`TABLE_CELL_LIMIT` cells are refused up front.  Full-spectrum, static and
entry sharing know every slot's market size in advance, so their walk only
visits the override slots, and each slot reads the price table of its
cooperation or punishment profile.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import rng, traffic as traffic_mod
from .dynamic_sharing import DynamicParams
from .entry import EntryParams
from .spectrum import SpectrumAllocation
from .static_sharing import COOPERATION, PUNISHMENT, StaticParams
from .traffic import TrafficSpec
from .utility import UtilityModel

LIE_HIGH = "lie_high"
LIE_LOW = "lie_low"
USE_WIDTH = "use_width"
FULL_BAND = "full_band"


@dataclass(frozen=True)
class FullSpectrumScheme:
    pass


@dataclass(frozen=True)
class StaticScheme:
    params: StaticParams


@dataclass(frozen=True)
class EntryScheme:
    params: EntryParams


@dataclass(frozen=True)
class DynamicScheme:
    params: DynamicParams


@dataclass(frozen=True)
class DeviationInjector:
    """A scripted deviation: one operator, one kind, one slot (or onwards)."""

    operator: int
    slot: int
    kind: str
    width_mhz: float | None = None  # for USE_WIDTH
    persistent: bool = False

    def active(self, slot: int) -> bool:
        return slot >= self.slot if self.persistent else slot == self.slot

    def span(self) -> slice:
        """The slots it acts in, as a slice of the horizon."""
        return slice(self.slot, None if self.persistent else self.slot + 1)

    def is_lie(self) -> bool:
        return self.kind in (LIE_HIGH, LIE_LOW)


@dataclass(frozen=True)
class Scenario:
    n: int
    model: UtilityModel
    traffic_specs: tuple[TrafficSpec, ...]
    scheme: object
    discount: float
    horizon: int
    seed: int
    replications: int = 1

    def __post_init__(self):
        if not 0.0 <= self.discount < 1.0:
            raise ValueError("discount must lie in [0, 1)")
        if self.horizon < 1:
            raise ValueError("horizon must be at least one slot")
        if len(self.traffic_specs) != self.n:
            raise ValueError("need one traffic spec per operator")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if isinstance(self.scheme, DynamicScheme):
            for spec in self.traffic_specs:
                if not spec.is_two_level:
                    raise ValueError("dynamic sharing requires two-level traffic")
            if self.scheme.params.n != self.n:
                raise ValueError("scheme operator count differs from scenario")
        if isinstance(self.scheme, StaticScheme) and self.scheme.params.n != self.n:
            raise ValueError("scheme operator count differs from scenario")
        if isinstance(self.scheme, EntryScheme):
            if self.n < len(self.scheme.params.arrival_slots):
                raise ValueError("scenario needs one slot per prospective operator")


@dataclass
class Trace:
    """Columnar per-(slot, operator) records."""

    slot: list[int] = field(default_factory=list)
    operator: list[int] = field(default_factory=list)
    traffic: list[float] = field(default_factory=list)
    width_mhz: list[float] = field(default_factory=list)
    utility: list[float] = field(default_factory=list)
    balance_mhz: list[float] = field(default_factory=list)
    phase: list[str] = field(default_factory=list)

    def rows(self):
        return zip(
            self.slot,
            self.operator,
            self.traffic,
            self.width_mhz,
            self.utility,
            self.balance_mhz,
            self.phase,
        )


@dataclass(frozen=True)
class RevenueReport:
    revenues: tuple[float, ...]  # (1-d)-normalized discounted utility per operator
    discount: float
    horizon: int
    tail_bound: float  # largest revenue the truncated tail could still add


def _rep_seed(seed: int, replication: int) -> int:
    return rng.key_hash(seed, 11, replication)


def _validate_injectors(scenario: Scenario, injectors):
    for inj in injectors:
        if not 0 <= inj.operator < scenario.n:
            raise ValueError("injector targets an unknown operator")
        if inj.slot >= scenario.horizon or inj.slot < 0:
            raise ValueError("injector slot outside the horizon")
        if inj.is_lie() and not isinstance(scenario.scheme, DynamicScheme):
            raise ValueError("report manipulation only exists under dynamic sharing")
        if inj.kind == USE_WIDTH:
            if inj.width_mhz is None or not 0 <= inj.width_mhz <= scenario.model.band_mhz:
                raise ValueError("use_width injector needs a width within the band")
        elif inj.kind not in (LIE_HIGH, LIE_LOW, FULL_BAND):
            raise ValueError(f"unknown injector kind {inj.kind!r}")


def _override_alloc(inj: DeviationInjector, model: UtilityModel) -> SpectrumAllocation:
    if inj.kind == FULL_BAND:
        return SpectrumAllocation.full_band(model.band_mhz)
    if inj.width_mhz == 0:
        return SpectrumAllocation.empty()
    return SpectrumAllocation.block(0.0, inj.width_mhz, model.band_mhz)


def _levels(scenario: Scenario, replication: int) -> np.ndarray:
    """(n, H) traffic levels of one replication."""
    seed = _rep_seed(scenario.seed, replication)
    return traffic_mod.sample_grid(scenario.traffic_specs, seed, scenario.horizon)


def run(scenario: Scenario, injectors=(), replication: int = 0, collect_trace: bool = True):
    """Simulate one replication; returns (Trace, RevenueReport).

    Each slot: traffic is drawn, reports (dynamic only) and emissions are
    formed with any injector overrides applied, the scheme advances on the
    previous slot's emissions, and utilities accrue from what was actually
    transmitted.  A replication kernel does this for all slots at once."""
    _validate_injectors(scenario, injectors)
    is_dynamic = isinstance(scenario.scheme, DynamicScheme)
    kernel = (_DynamicKernel if is_dynamic else _TriggerKernel)(scenario, injectors)
    slots = kernel.slots(replication)
    utils = kernel.utilities(slots)
    return (kernel.trace(slots, utils) if collect_trace else None), kernel.report(utils)


def _tile(raw: np.ndarray, band_mhz: float) -> tuple[np.ndarray, np.ndarray]:
    """Left and right edges of blocks of widths `raw` (..., n) tiled onto the
    band in operator order with the float operations of a scalar tiling:
    each left edge adds up the widths before it (`cumsum` adds left to
    right), the last block ends at the band edge, and an empty block has
    hi == lo."""
    edges = np.cumsum(raw, axis=-1)
    lo = np.concatenate([np.zeros_like(edges[..., :1]), edges[..., :-1]], axis=-1)
    edges[..., -1] = band_mhz
    return lo, np.where(raw > 0, edges, lo)


class DynamicLookups:
    """What the dynamic replication kernel reads besides the outcome table.

    Built once per params, on first use (`DynamicParams.lookups`).  Every
    table cell's widths are tiled onto the band (`_tile`).  A tiled width
    `hi - lo` can differ from the table's raw `share +- trade` width in the
    last bit, and the kernel prices the tiled widths, which are what the
    operators transmit on.
    """

    def __init__(self, params: DynamicParams):
        table = params.outcomes
        self.band_mhz = params.band_mhz
        self.raw_widths = np.asarray(table.widths_mhz)
        self.raw_id = table.width_id
        lo, hi = _tile(self.raw_widths[table.width_id], params.band_mhz)  # (S, V, n)
        distinct, width_id = np.unique(hi - lo, return_inverse=True)
        self.width_id = width_id.reshape(lo.shape)  # (S, V, n) index into widths_mhz
        # an empty support's width is the integer 0, as `SpectrumAllocation.empty().width`
        self.widths_mhz = tuple(w if w > 0 else 0 for w in distinct.tolist())
        self.next_index = table.next_index
        self.next_rows = table.next_index.tolist()
        self.balances_mhz = table.states * params.trade_mhz
        self.zero_row = int(np.flatnonzero(~table.states.any(axis=1))[0])

    def profile(self, row: int, col: int) -> tuple[SpectrumAllocation, ...]:
        """Every operator's support in table cell (row, col)."""
        lo, hi = _tile(self.raw_widths[self.raw_id[row, col]], self.band_mhz)
        return tuple(
            SpectrumAllocation(((a, b),)) if b > a else SpectrumAllocation.empty()
            for a, b in zip(lo.tolist(), hi.tolist())
        )


@dataclass(frozen=True)
class _Slots:
    """One replication walked through the trigger rule."""

    levels: np.ndarray  # (n, H) traffic levels
    punished: np.ndarray  # (H,) whether the slot punishes
    observed: dict  # override slot -> every operator's support in that slot
    rows: np.ndarray | None = None  # (H,) balance row each slot starts in (dynamic)
    cols: np.ndarray | None = None  # (H,) report column of each slot (dynamic)


def _walk(next_rows, cols, row, checks, observe):
    """Balance row each slot starts in, and which slots punish.

    Cooperation slots advance the row through `next_rows`; punishment slots
    hold it (a scheme without balances walks a one-row table).  `checks` are
    the override slots, ascending; `observe(slot, row, punished)` returns the
    length of the punishment that slot's supports call for: 0 when they are
    what it prescribed, or when the next slot makes no comparison.  As in
    `static_sharing.punishment_left`, such a deviation starts its window on
    the next slot, unless a window is still running then; a grim window is
    longer than the horizon.
    """
    horizon = len(cols)
    rows: list[int] = []
    punished = np.zeros(horizon, dtype=bool)
    t = due = 0  # `due`: punishment slots still to come from slot t on
    for s in [*checks, horizon]:
        stop = min(s + 1, horizon)
        held = min(due, stop - t)
        rows += [row] * held
        punished[t : t + held] = True
        due -= held
        for col in cols[t + held : stop]:
            rows.append(row)
            row = next_rows[row][col]
        if s < horizon:
            window = observe(s, rows[s], punished[s])
            if not due:
                due = window
        t = stop
    return rows, punished


# (balance state, report vector, operator) cells of the largest outcome
# table a dynamic simulation builds
TABLE_CELL_LIMIT = 1_000_000


def _require_table(params: DynamicParams):
    """Refuse dynamic params whose outcome table exceeds TABLE_CELL_LIMIT,
    before any of it is built."""
    cells = params.table_cells
    if cells > TABLE_CELL_LIMIT:
        raise ValueError(
            f"dynamic sharing of {params.n} operators with a balance cap of "
            f"{params.cap_units} trade units has an outcome table of {cells} "
            f"(balance state, report vector, operator) cells, above the "
            f"simulation limit of {TABLE_CELL_LIMIT}"
        )


class _Kernel:
    """What the replication kernels share: support overrides and discounting.

    A kernel serves one scenario under fixed injectors.  Only override slots
    build supports; their utilities go through the model's effective
    bandwidth, kept per distinct profile because it does not depend on the
    traffic.  Revenues are discounted with sequential `cumprod`/`cumsum`,
    which round exactly as a running `+=` does.
    """

    def __init__(self, scenario: Scenario, injectors):
        n, horizon, model = scenario.n, scenario.horizon, scenario.model
        self.scenario = scenario
        width_injs = [inj for inj in injectors if not inj.is_lie()]
        self.override_allocs = [_override_alloc(inj, model) for inj in width_injs]
        owners: dict[int, list[int]] = {}  # the last injector active on (operator, slot) wins
        for j, inj in enumerate(width_injs):
            for slot in range(horizon)[inj.span()]:
                owners.setdefault(slot, [-1] * n)[inj.operator] = j
        self.owners = dict(sorted(owners.items()))  # override slot -> injector per operator
        self.price = functools.cache(model.pi)  # a handful of (width, level) pairs recur
        self.effective: dict = {}  # supports -> every operator's effective bandwidth
        weights = np.full(horizon, scenario.discount)
        weights[0] = 1.0 - scenario.discount
        self.weights = np.cumprod(weights)

    def seen(self, slot: int, prescribed) -> tuple:
        """Every operator's support in override slot `slot`, which prescribed `prescribed`."""
        return tuple(
            a if j < 0 else self.override_allocs[j] for a, j in zip(prescribed, self.owners[slot])
        )

    def price_overrides(self, slots: _Slots, utils: np.ndarray):
        """Write every override slot's utilities into the (H, n) `utils`."""
        model = self.scenario.model
        for slot, seen in slots.observed.items():
            if seen not in self.effective:
                self.effective[seen] = [
                    model.effective_bandwidth(a, seen[:i] + seen[i + 1 :])
                    for i, a in enumerate(seen)
                ]
            lams = slots.levels[:, slot].tolist()
            utils[slot] = [self.price(x, lam) for x, lam in zip(self.effective[seen], lams)]

    def report(self, utils: np.ndarray) -> RevenueReport:
        """Revenue report of one replication's (H, n) utilities."""
        d, horizon = self.scenario.discount, self.scenario.horizon
        revenues = np.cumsum(self.weights[:, None] * utils, axis=0)[-1]
        tail = (d**horizon) * float(utils.max()) if d > 0 else 0.0
        return RevenueReport(tuple(revenues.tolist()), d, horizon, tail)


class _TriggerKernel(_Kernel):
    """Full-spectrum, static and entry replications of one scenario.

    Every slot's market size is known before a replication starts: entry
    grows it at each investing arrival (the first `n_star` arrivals within
    the horizon), the other schemes keep all n operators.  A slot prescribes
    one of two profiles of its size, the cooperation blocks or every active
    operator on the full band (punishment), so the trigger rule is walked
    only at override slots, the only slots whose supports can differ from
    what they prescribed.  Each profile has an (operator, level) price
    table: `pi` of the block width in cooperation, and in punishment the
    full-spectrum utility of the active operators and 0.0 for the rest.
    Full-spectrum sharing is one full-band profile that is never compared.
    """

    def __init__(self, scenario: Scenario, injectors):
        super().__init__(scenario, injectors)
        n, horizon, scheme, model = scenario.n, scenario.horizon, scenario.scheme, scenario.model
        full, empty = SpectrumAllocation.full_band(model.band_mhz), SpectrumAllocation.empty()
        self.growth: set[int] = set()  # slots at which the market grows
        self.labels = (COOPERATION, PUNISHMENT)
        if isinstance(scheme, FullSpectrumScheme):
            self.labels = ("full", "full")
            self.sizes, coops, self.windows = [n], [None], [0]
        elif isinstance(scheme, StaticScheme):
            params = scheme.params
            self.sizes, coops = [n], [(params.blocks, params.block_widths)]
            self.windows = [horizon if params.grim else params.punishment_slots]
        elif isinstance(scheme, EntryScheme):
            within = [s for s in scheme.params.arrival_slots if 0 <= s < horizon]
            self.growth = set(within[: scheme.params.n_star])
            self.sizes = list(range(len(self.growth) + 1))
            statics = [scheme.params.static_params(a) for a in self.sizes[1:]]
            coops = [((), ())] + [(p.blocks, p.block_widths) for p in statics]
            self.windows = [0] + [p.punishment_slots for p in statics]
        else:
            raise TypeError(f"unknown scheme {scheme!r}")
        # size index of every slot: the growth slots up to it, as Python ints for the walk
        grows = (slot in self.growth for slot in range(horizon))
        self.size_ids = list(accumulate(grows, initial=0))[1:]
        self.size_id = np.array(self.size_ids)
        self.no_rows = [0] * horizon  # the walk's one-row table

        # profile 2k: cooperation at size k, 2k + 1: punishment; supports and widths
        self.profiles, self.widths = [], []
        for a, coop in zip(self.sizes, coops):
            idle, idle_widths = (empty,) * (n - a), (empty.width,) * (n - a)
            on_full, full_widths = (full,) * a + idle, (full.width,) * a + idle_widths
            blocks, block_widths = (on_full, full_widths) if coop is None else coop
            self.profiles += [blocks + idle, on_full]
            self.widths += [block_widths + idle_widths, full_widths]
        # priced as floats, as the levels are drawn
        levels = sorted({float(lv) for spec in scenario.traffic_specs for lv in spec.levels})
        self.level_values = np.array(levels)
        self.table = np.zeros((len(self.profiles), n, len(levels)))  # (profile, operator, level)
        priced = [2 * k for k, coop in enumerate(coops) if coop is not None]
        if priced:  # each distinct block width priced once
            ids: dict = {}
            for p in priced:
                for w in self.widths[p]:
                    ids.setdefault(w, len(ids))
            prices = np.array([[model.pi(w, lam) for lam in levels] for w in ids])
            self.table[priced] = prices[[[ids[w] for w in self.widths[p]] for p in priced]]
        for k, (a, coop) in enumerate(zip(self.sizes, coops)):
            if a and (coop is None or self.owners):  # punishment needs an override
                self.table[2 * k + 1, :a] = [model.full_spectrum_utility(a, lam) for lam in levels]
        if coops[0] is None:  # full-spectrum sharing cooperates on the full band
            self.table[0] = self.table[1]

    def slots(self, replication: int) -> _Slots:
        observed = {}

        def observe(slot, _row, punished):
            k = self.size_ids[slot]
            prescribed = self.profiles[2 * k + int(punished)]
            seen = observed[slot] = self.seen(slot, prescribed)
            if slot + 1 in self.growth:  # the market grows: nothing to compare
                return 0
            a = self.sizes[k]
            return self.windows[k] if seen[:a] != prescribed[:a] else 0

        _rows, punished = _walk(((0,),), self.no_rows, 0, self.owners, observe)
        return _Slots(_levels(self.scenario, replication), punished, observed)

    def profile_ids(self, slots: _Slots) -> np.ndarray:
        return 2 * self.size_id + slots.punished

    def utilities(self, slots: _Slots) -> np.ndarray:
        """(H, n) utility of every slot and operator."""
        level_ids = np.searchsorted(self.level_values, slots.levels).T
        operators = np.arange(self.scenario.n)
        utils = self.table[self.profile_ids(slots)[:, None], operators, level_ids]
        self.price_overrides(slots, utils)
        return utils

    def trace(self, slots: _Slots, utils: np.ndarray) -> Trace:
        horizon, n = utils.shape
        ids = self.profile_ids(slots).tolist()
        widths = [w for p in ids for w in self.widths[p]]
        for slot, seen in slots.observed.items():
            widths[slot * n : (slot + 1) * n] = [a.width for a in seen]
        return Trace(
            slot=np.repeat(np.arange(horizon), n).tolist(),
            operator=list(range(n)) * horizon,
            traffic=slots.levels.T.ravel().tolist(),
            width_mhz=widths,
            utility=utils.ravel().tolist(),
            balance_mhz=[0.0] * (horizon * n),
            phase=[self.labels[p % 2] for p in ids for _ in range(n)],
        )


class _DynamicKernel(_Kernel):
    """Dynamic-sharing replications of one scenario under fixed injectors.

    A replication draws its traffic, turns reports into outcome-table
    columns, walks the balance row (the only sequential step), and gathers
    every (slot, operator) utility from the per-params price tables.
    """

    def __init__(self, scenario: Scenario, injectors):
        params = scenario.scheme.params
        _require_table(params)
        super().__init__(scenario, injectors)
        n, model = scenario.n, scenario.model
        self.lookups = params.lookups
        # (2, W) utility of each tiled width, and (2,) full-spectrum utility, per level
        levels, widths = (0.0, 1.0), self.lookups.widths_mhz
        self.pi_table = np.array([[model.pi(w, lam) for w in widths] for lam in levels])
        self.full_table = np.array([model.full_spectrum_utility(n, lam) for lam in levels])
        self.columns = 1 << np.arange(n - 1, -1, -1)  # operator 0's report is the top bit
        self.lies = [inj for inj in injectors if inj.is_lie()]
        self.full_profile = (SpectrumAllocation.full_band(model.band_mhz),) * n

    def slots(self, replication: int) -> _Slots:
        lookups = self.lookups
        levels = _levels(self.scenario, replication)
        reports = levels.astype(np.int64)
        for inj in self.lies:
            reports[inj.operator, inj.span()] = inj.kind == LIE_HIGH
        cols = self.columns @ reports
        col_list = cols.tolist()  # the walk steps on Python ints
        window = self.scenario.scheme.params.punishment_slots
        observed = {}

        def observe(slot, row, punished):
            prescribed = self.full_profile if punished else lookups.profile(row, col_list[slot])
            seen = observed[slot] = self.seen(slot, prescribed)
            return window if seen != prescribed else 0

        rows, punished = _walk(lookups.next_rows, col_list, lookups.zero_row, self.owners, observe)
        rows = np.fromiter(rows, np.intp, len(rows))
        return _Slots(levels, punished, observed, rows, cols)

    def utilities(self, slots: _Slots) -> np.ndarray:
        """(H, n) utility of every slot and operator."""
        levels = slots.levels.T.astype(np.intp)
        utils = self.pi_table[levels, self.lookups.width_id[slots.rows, slots.cols]]
        utils[slots.punished] = self.full_table[levels[slots.punished]]
        self.price_overrides(slots, utils)
        return utils

    def trace(self, slots: _Slots, utils: np.ndarray) -> Trace:
        lookups = self.lookups
        horizon, n = utils.shape
        rows, cols, punished = slots.rows, slots.cols, slots.punished
        after = np.where(punished, rows, lookups.next_index[rows, cols])
        full = len(lookups.widths_mhz)  # index of the full band's width
        width_of = lookups.widths_mhz + (self.full_profile[0].width,)
        ids = np.where(punished[:, None], full, lookups.width_id[rows, cols])
        widths = [width_of[w] for w in ids.ravel().tolist()]
        for slot, seen in slots.observed.items():
            widths[slot * n : (slot + 1) * n] = [a.width for a in seen]
        return Trace(
            slot=np.repeat(np.arange(horizon), n).tolist(),
            operator=list(range(n)) * horizon,
            traffic=slots.levels.T.ravel().tolist(),
            width_mhz=widths,
            utility=utils.ravel().tolist(),
            balance_mhz=lookups.balances_mhz[after].ravel().tolist(),
            phase=[
                PUNISHMENT if p else COOPERATION for p in punished.tolist() for _ in range(n)
            ],
        )


def revenue(trace: Trace, discount: float) -> RevenueReport:
    """Recompute discounted revenues from a trace."""
    if not 0.0 <= discount < 1.0:
        raise ValueError("discount must lie in [0, 1)")
    ops = sorted(set(trace.operator))
    totals = {i: 0.0 for i in ops}
    u_max = 0.0
    horizon = (max(trace.slot) + 1) if trace.slot else 0
    base = 1.0 - discount
    for slot, op, _lam, _w, util, _b, _ph in trace.rows():
        totals[op] += base * discount**slot * util
        u_max = max(u_max, util)
    tail = discount**horizon * u_max if discount > 0 else 0.0
    return RevenueReport(
        revenues=tuple(totals[i] for i in ops),
        discount=discount,
        horizon=horizon,
        tail_bound=tail,
    )


@dataclass(frozen=True)
class ReplicationSummary:
    means: tuple[float, ...]
    std_errs: tuple[float, ...]
    replications: int


def summarize(reports) -> ReplicationSummary:
    """Mean and standard error of per-operator revenue over the reports of
    replications 0..R-1, in that order."""
    reps = len(reports)
    values = list(zip(*(report.revenues for report in reports)))
    means = [sum(col) / reps for col in values]
    if reps > 1:
        ses = [
            math.sqrt(sum((v - mean) ** 2 for v in col) / (reps - 1) / reps)
            for col, mean in zip(values, means)
        ]
    else:
        ses = [0.0] * len(values)
    return ReplicationSummary(tuple(means), tuple(ses), reps)


def replicate(scenario: Scenario, injectors=()) -> ReplicationSummary:
    """Mean and standard error of per-operator revenue across replications.

    Replication r draws its own traffic streams keyed by (seed, r); the
    aggregation is a plain mean, so the result does not depend on the order
    replications are run in."""
    return summarize(
        [
            run(scenario, injectors, replication=r, collect_trace=False)[1]
            for r in range(scenario.replications)
        ]
    )


def auto_horizon(discount: float, tail: float = 1e-8) -> int:
    """Horizon making the truncated discounted weight smaller than `tail`."""
    if discount <= 0.0:
        return 1
    return max(1, math.ceil(math.log(tail) / math.log(discount)))
