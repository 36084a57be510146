"""Static orthogonal sharing with trigger punishment, and the trigger rule itself.

In the cooperation state every operator transmits on its fixed block and the
blocks tile the band.  Any support mismatch observed in the previous slot
sends everyone (deviator included) to full-band transmission: forever under
the grim variant, otherwise for exactly `punishment_slots` slots, counting
the slot in which the deviation is first answered.  `step` advances the whole
profile in O(n) per slot, against the block tiling that each `StaticParams`
instance builds once and caches (`blocks`).

The trigger rule is one state machine: `TriggerState` and `punishment_left`
drive static `step` and entry (`entry.entry_step`).  Dynamic sharing follows
the same rule inside the engine's replication kernel, which walks a whole
replication over the outcome table (`engine._walk`); only what each scheme
prescribes in cooperation differs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from operator import add

from .spectrum import SpectrumAllocation
from .traffic import TrafficSpec, expectation
from .utility import UtilityModel

_SHARE_TOL = 1e-12

COOPERATION = "cooperation"
PUNISHMENT = "punishment"

Profile = tuple[SpectrumAllocation, ...]  # one support per operator, in index order


class InfeasiblePunishmentError(ValueError):
    """Orthogonal sharing does not beat full-spectrum sharing, so no finite
    punishment length can deter deviation."""


@dataclass(frozen=True)
class StaticParams:
    n: int
    band_mhz: float
    punishment_slots: int = 1
    grim: bool = False
    shares: tuple[float, ...] | None = None  # None means uniform

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one operator")
        if self.shares is not None:
            if len(self.shares) != self.n:
                raise ValueError("one share per operator required")
            if any(s <= 0 for s in self.shares):
                raise ValueError("shares must be positive")
            if abs(sum(self.shares) - 1.0) > _SHARE_TOL:
                raise ValueError("shares must sum to 1")
        if not self.grim and self.punishment_slots < 1:
            raise ValueError("punishment length must be at least 1 slot")

    def share_of(self, operator: int) -> float:
        if self.shares is None:
            return 1.0 / self.n
        return self.shares[operator]

    def block_width(self, operator: int) -> float:
        return self.share_of(operator) * self.band_mhz

    @cached_property
    def blocks(self) -> Profile:
        """Cooperation supports; block i is `static_allocation(self, i)` bit for bit."""
        band = self.band_mhz
        starts = accumulate((self.share_of(i) for i in range(self.n - 1)), initial=0.0)
        return tuple(
            SpectrumAllocation.block(lo * band, min(lo * band + self.block_width(i), band), band)
            for i, lo in enumerate(starts)
        )

    @cached_property
    def full_band_profile(self) -> Profile:
        """Punishment supports of all operators: everyone on the full band."""
        return (SpectrumAllocation.full_band(self.band_mhz),) * self.n


@dataclass(frozen=True)
class TriggerState:
    """Where the trigger profile stands after a slot.

    `phase` is what that slot did (COOPERATION or PUNISHMENT), `remaining`
    the punishment slots still to come (-1: forever), and `prescribed` the
    profile that slot prescribed (None before the first slot), against which
    the next slot checks what it observes.
    """

    phase: str = COOPERATION
    remaining: int = 0
    prescribed: Profile | None = None

    def in_punishment(self) -> bool:
        """Whether the next slot punishes."""
        return self.remaining != 0


def punishment_left(state: TriggerState, observed, window: int) -> int | None:
    """Punishment slots still to come after this slot, or None if it cooperates.

    `window` is the punishment length T, or -1 for grim.  A support deviation
    observed in the previous slot is answered at once, so this slot is the
    first of the window.  Nothing is checked when `observed` or the state's
    prescribed profile is None (the first slot, or a change of market size).
    """
    if state.in_punishment():
        left = state.remaining
    elif observed is None or state.prescribed is None:
        return None
    elif len(observed) != len(state.prescribed):
        raise ValueError("need one observed support per operator")
    elif tuple(observed) == state.prescribed:
        return None
    else:
        left = window
    return left - 1 if left > 0 else -1


def static_allocation(params: StaticParams, operator: int) -> SpectrumAllocation:
    """Contiguous block of operator `operator` (blocks tile the band in index order)."""
    if not 0 <= operator < params.n:
        raise ValueError("operator index out of range")
    # left to right, as `blocks` adds: `sum` compensates from Python 3.12 on
    lo = reduce(add, map(params.share_of, range(operator)), 0.0) * params.band_mhz
    hi = lo + params.block_width(operator)
    return SpectrumAllocation.block(lo, min(hi, params.band_mhz), params.band_mhz)


def step(
    params: StaticParams, state: TriggerState, observed_allocs
) -> tuple[TriggerState, Profile]:
    """Advance one slot: returns (state after this slot, every operator's support).

    `observed_allocs` are the previous slot's supports of all operators
    (None on the very first slot).
    """
    left = punishment_left(state, observed_allocs, -1 if params.grim else params.punishment_slots)
    if left is None:
        return TriggerState(COOPERATION, 0, params.blocks), params.blocks
    full = params.full_band_profile
    return TriggerState(PUNISHMENT, left, full), full


def smallest_deterring_length(gap: float, per_slot_loss: float) -> int:
    """Smallest integer T with T * per_slot_loss > gap (at least 1)."""
    if per_slot_loss <= 0:
        raise InfeasiblePunishmentError(
            "per-slot punishment loss is not positive; deviation cannot be deterred"
        )
    if gap <= 0:
        return 1
    t = math.floor(gap / per_slot_loss) + 1
    # guard the floating boundary: need strict T * loss > gap
    while (t - 1) * per_slot_loss > gap:
        t -= 1
    while t * per_slot_loss <= gap:
        t += 1
    return max(t, 1)


def min_punishment_length(
    model: UtilityModel, traffic_specs: list[TrafficSpec], params: StaticParams
) -> int:
    """Smallest T such that, for every operator and traffic level, the best
    one-shot deviation gain is smaller than T times the operator's per-slot
    punishment loss (orthogonal minus full-spectrum expected utility).

    Known defect: the loss is undiscounted, but `verifier.verify_static_profile`
    counts the window as delta + ... + delta**T < T slots of loss, so a profile
    sized here can fail to certify: at delta=0.99 and 30 dB (Cobb-Douglas), the
    auto-sized n=4 static profile and entry markets of 5 and 7-14 operators."""
    if len(traffic_specs) != params.n:
        raise ValueError("need one traffic spec per operator")
    if params.n == 1:
        return 1  # nothing to deter
    t_needed = 1
    for i, spec in enumerate(traffic_specs):
        w_i = params.block_width(i)
        u_orth = expectation(spec, lambda lam: model.pi(w_i, lam))
        u_full = expectation(spec, lambda lam: model.full_spectrum_utility(params.n, lam))
        if u_orth <= u_full:
            raise InfeasiblePunishmentError(
                f"operator {i}: orthogonal sharing does not beat full-spectrum sharing"
            )
        gap = max(model.max_utility(lam) - model.pi(w_i, lam) for lam in spec.levels)
        t_needed = max(t_needed, smallest_deterring_length(gap, u_orth - u_full))
    return t_needed
