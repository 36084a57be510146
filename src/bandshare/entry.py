"""Sequential market entry under an investment cost.

Prospective operators arrive one at a time.  Entering costs `cost` utility
units up front; an entrant expects the full-spectrum floor utility at worst,
so entry pays off only while that floor covers the cost.  `max_entrants`
is the largest market size whose floor still does; later arrivals stay out,
and incumbents re-partition the band equally whenever someone joins.  The
market size (`EntryParams.n_star`) is scanned once per params, and each
market size's static profile (punishment length and block tiling) is built
when first reached; both are kept on the `EntryParams`.  The actives follow
the static scheme's trigger rule (`static_sharing.TriggerState`); an entrant
that transmits out of equilibrium starts its punishment for good.
`entry_step` advances one slot; the simulator runs whole replications on
the engine's trigger kernel, which reads the same params.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .spectrum import SpectrumAllocation
from .static_sharing import PUNISHMENT, StaticParams, TriggerState, min_punishment_length, step
from .traffic import TrafficSpec, expectation
from .utility import UtilityModel


class EntryCapExceededError(ValueError):
    """The scan bound was reached with the floor utility still covering the
    cost; the true market size is at least the bound."""

    def __init__(self, lower_bound: int):
        super().__init__(
            f"every market size up to {lower_bound} still covers the cost; "
            "raise n_cap or the cost"
        )
        self.lower_bound = lower_bound


def full_spectrum_expected_utility(n: int, model: UtilityModel, traffic: TrafficSpec) -> float:
    """Expected one-slot utility of each of n operators, all on the full band."""
    return expectation(traffic, lambda lam: model.full_spectrum_utility(n, lam))


def orthogonal_expected_utility(n: int, model: UtilityModel, traffic: TrafficSpec) -> float:
    """Expected one-slot utility of each of n operators under an equal split."""
    if n < 1:
        raise ValueError("operator count must be at least 1")
    return expectation(traffic, lambda lam: model.pi(model.band_mhz / n, lam))


def max_entrants(
    cost: float, model: UtilityModel, traffic: TrafficSpec, n_cap: int = 4096
) -> int:
    """Largest n with full-spectrum expected utility at least `cost` (0 if none).

    The floor utility is nonincreasing in n and vanishes in the
    interference-limited regime, so an upward scan terminates; `n_cap`
    guards against slowly decaying custom utilities.
    """
    if cost < 0:
        raise ValueError("cost must be non-negative")
    if full_spectrum_expected_utility(1, model, traffic) < cost:
        return 0
    n = 1
    while full_spectrum_expected_utility(n + 1, model, traffic) >= cost:
        n += 1
        if n >= n_cap:
            raise EntryCapExceededError(n_cap)
    return n


def punishment_length_entry(n: int, model: UtilityModel, traffic: TrafficSpec) -> int:
    """Punishment length sizing for an n-operator market (identical traffic)."""
    params = StaticParams(n=n, band_mhz=model.band_mhz)
    return min_punishment_length(model, [traffic] * n, params)


@dataclass(frozen=True)
class EntryParams:
    cost: float
    model: UtilityModel
    traffic: TrafficSpec
    arrival_slots: tuple[int, ...] = ()  # slot of each prospective arrival, ascending
    n_cap: int = 4096
    _static_by_size: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.cost < 0:
            raise ValueError("cost must be non-negative")
        if any(b <= a for a, b in zip(self.arrival_slots, self.arrival_slots[1:])):
            raise ValueError("arrival slots must be strictly increasing")

    @cached_property
    def n_star(self) -> int:
        """The market size: `max_entrants` of these params, scanned once."""
        return max_entrants(self.cost, self.model, self.traffic, self.n_cap)

    def static_params(self, active: int) -> StaticParams:
        """Equal blocks and sized punishment of an `active`-operator market, kept per size."""
        sized = self._static_by_size
        if active not in sized:
            t = punishment_length_entry(active, self.model, self.traffic)
            sized[active] = StaticParams(active, self.model.band_mhz, punishment_slots=t)
        return sized[active]


@dataclass(frozen=True)
class EntryDecision:
    arrival_index: int  # 1-based order of arrival
    invests: bool


@dataclass(frozen=True)
class EntryState:
    n_star: int
    active: int = 0
    arrived: int = 0
    trigger: TriggerState = TriggerState()


def initial_entry_state(params: EntryParams) -> EntryState:
    return EntryState(n_star=params.n_star)


def entry_step(
    params: EntryParams,
    state: EntryState,
    observed_allocs=None,
    arrival: bool = False,
    rogue_entrant_transmits: bool = False,
) -> tuple[EntryState, EntryDecision | None, list[SpectrumAllocation]]:
    """Advance one slot of the entry game.

    Returns the next state, the arrival's decision (if one arrived), and the
    supports the active operators use this slot.  A transmission by an
    operator that should have stayed out breaks the market: all actives fall
    back to full-spectrum transmission for good.
    """
    decision = None
    active = state.active
    arrived = state.arrived
    trigger = state.trigger
    if arrival:
        arrived += 1
        invests = arrived <= state.n_star
        decision = EntryDecision(arrival_index=arrived, invests=invests)
        if invests:
            active += 1
            # the block geometry changes this slot, so the one comparison
            # across the boundary is skipped
            observed_allocs = None
    if rogue_entrant_transmits:
        trigger = TriggerState(PUNISHMENT, -1, trigger.prescribed)
    allocs = ()
    if active:
        trigger, allocs = step(params.static_params(active), trigger, observed_allocs)
    return EntryState(state.n_star, active, arrived, trigger), decision, list(allocs)
