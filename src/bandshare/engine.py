"""Slot-by-slot simulation of the sharing schemes with revenue accounting.

Traffic, scheme transitions and utilities are all deterministic functions of
(seed, replication, operator, slot), so traces are byte-identical across
runs and replication order.  Deviation experiments inject misreports (report
manipulation, dynamic scheme only) or support overrides (any scheme); the
scheme's own detection and punishment then run unmodified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import rng, traffic as traffic_mod
from .dynamic_sharing import DynamicParams, dynamic_step, initial_dynamic_state
from .entry import EntryParams, entry_step, initial_entry_state
from .spectrum import SpectrumAllocation
from .static_sharing import PUNISHMENT, StaticParams, TriggerState, step as static_step
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


def run(scenario: Scenario, injectors=(), replication: int = 0, collect_trace: bool = True):
    """Simulate one replication; returns (Trace, RevenueReport).

    Each slot: traffic is drawn, reports (dynamic only) and emissions are
    formed with any injector overrides applied, the scheme advances on the
    previous slot's emissions, and utilities accrue from what was actually
    transmitted."""
    _validate_injectors(scenario, injectors)
    model = scenario.model
    n = scenario.n
    d = scenario.discount
    seed = _rep_seed(scenario.seed, replication)
    levels = [
        traffic_mod.sample_slots(spec, seed, i, scenario.horizon)
        for i, spec in enumerate(scenario.traffic_specs)
    ]
    scheme = scenario.scheme
    full = SpectrumAllocation.full_band(model.band_mhz)

    if isinstance(scheme, StaticScheme):
        state: object = TriggerState()
    elif isinstance(scheme, DynamicScheme):
        state = initial_dynamic_state(scheme.params)
    elif isinstance(scheme, EntryScheme):
        state = initial_entry_state(scheme.params)
    elif not isinstance(scheme, FullSpectrumScheme):
        raise TypeError(f"unknown scheme {scheme!r}")

    trace = Trace() if collect_trace else None
    revenues = [0.0] * n
    weight = 1.0 - d
    u_max = 0.0
    observed: list[SpectrumAllocation] | None = None
    width_injs = [inj for inj in injectors if not inj.is_lie()]
    lie_injs = [inj for inj in injectors if inj.is_lie()]

    for t in range(scenario.horizon):
        lam = [float(levels[i][t]) for i in range(n)]
        balances = (0.0,) * n

        if isinstance(scheme, FullSpectrumScheme):
            allocs = [full] * n
            phase_label = "full"
        elif isinstance(scheme, StaticScheme):
            state, profile = static_step(scheme.params, state, observed)
            allocs = list(profile)
            phase_label = state.phase
        elif isinstance(scheme, DynamicScheme):
            reports = [int(v) for v in lam]
            for inj in lie_injs:
                if inj.active(t):
                    reports[inj.operator] = 1 if inj.kind == LIE_HIGH else 0
            state, allocs, _ = dynamic_step(scheme.params, state, reports, observed)
            phase_label = state.trigger.phase
            balances = state.ledger.mhz(scheme.params)
        else:  # EntryScheme
            arrival = t in scheme.params.arrival_slots
            obs_active = observed[: state.active] if observed is not None else None
            state, _decision, active_allocs = entry_step(
                scheme.params, state, observed_allocs=obs_active, arrival=arrival
            )
            allocs = active_allocs + [SpectrumAllocation.empty()] * (n - len(active_allocs))
            phase_label = state.trigger.phase

        overridden = False
        for inj in width_injs:
            if inj.active(t):
                allocs[inj.operator] = _override_alloc(inj, model)
                overridden = True

        if isinstance(scheme, FullSpectrumScheme) and not overridden:
            utils = [model.full_spectrum_utility(n, lam[i]) for i in range(n)]
        elif phase_label == PUNISHMENT and not overridden:
            active = sum(1 for a in allocs if not a.is_empty())
            utils = [
                model.full_spectrum_utility(active, lam[i]) if not allocs[i].is_empty() else 0.0
                for i in range(n)
            ]
        elif not overridden:
            utils = [model.pi(allocs[i].width, lam[i]) for i in range(n)]
        else:
            utils = [
                model.utility(allocs[i], [a for j, a in enumerate(allocs) if j != i], lam[i])
                for i in range(n)
            ]

        for i in range(n):
            revenues[i] += weight * utils[i]
            if utils[i] > u_max:
                u_max = utils[i]
        if collect_trace:
            for i in range(n):
                trace.slot.append(t)
                trace.operator.append(i)
                trace.traffic.append(lam[i])
                trace.width_mhz.append(allocs[i].width)
                trace.utility.append(utils[i])
                trace.balance_mhz.append(balances[i] if i < len(balances) else 0.0)
                trace.phase.append(phase_label)

        observed = allocs
        weight *= d

    tail = (d**scenario.horizon) * u_max if d > 0 else 0.0
    report = RevenueReport(
        revenues=tuple(revenues),
        discount=d,
        horizon=scenario.horizon,
        tail_bound=tail,
    )
    return trace, report


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
