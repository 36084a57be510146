"""Per-operator i.i.d. traffic intensity processes.

Draws are addressed by (seed, operator, slot) through the counter-based
generator, so any slot of any operator's process can be sampled without
sequencing, and replications stay independent by folding a replication
index into the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class TrafficSpec:
    """Finite-support traffic level distribution for one operator.

    levels/probs are parallel tuples; levels are distinct, non-negative and
    sorted ascending.
    """

    levels: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.levels) != len(self.probs) or not self.levels:
            raise ValueError("levels and probs must be parallel and non-empty")
        if any(lv < 0 for lv in self.levels):
            raise ValueError("traffic levels must be non-negative")
        if sorted(set(self.levels)) != list(self.levels):
            raise ValueError("levels must be distinct and ascending")
        if any(not 0.0 <= p <= 1.0 for p in self.probs):
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(sum(self.probs) - 1.0) > _PROB_TOL:
            raise ValueError("probabilities must sum to 1")

    @property
    def is_two_level(self) -> bool:
        return self.levels == (0.0, 1.0)

    @property
    def p_high(self) -> float:
        if not self.is_two_level:
            raise ValueError("p_high is defined only for two-level traffic")
        return self.probs[1]

    @cached_property
    def _sampling_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(cdf, levels) for `sample_grid`; the levels repeat the top level
        once more for draws at or past the cdf's last step."""
        cdf = np.cumsum(self.probs)
        levels = np.array(self.levels + self.levels[-1:])
        cdf.flags.writeable = levels.flags.writeable = False
        return cdf, levels

    def mean(self) -> float:
        return sum(lv * p for lv, p in zip(self.levels, self.probs))


def two_level(p_high: float) -> TrafficSpec:
    """High (1) with probability p_high, low (0) otherwise."""
    return TrafficSpec(levels=(0.0, 1.0), probs=(1.0 - p_high, p_high))


def finite_levels(pairs) -> TrafficSpec:
    items = sorted((float(lv), float(p)) for lv, p in pairs)
    return TrafficSpec(
        levels=tuple(lv for lv, _ in items), probs=tuple(p for _, p in items)
    )


def _level_from_uniform(spec: TrafficSpec, u: float) -> float:
    acc = 0.0
    for lv, p in zip(spec.levels, spec.probs):
        acc += p
        if u < acc:
            return lv
    return spec.levels[-1]


def sample(spec: TrafficSpec, seed: int, operator: int, slot: int) -> float:
    """Deterministic draw for (seed, operator, slot)."""
    return _level_from_uniform(spec, rng.uniform01(seed, operator, slot))


def sample_slots(spec: TrafficSpec, seed: int, operator: int, n_slots: int) -> np.ndarray:
    """Vectorized draws for slots 0..n_slots-1; matches sample() exactly."""
    return sample_grid((spec,), seed, n_slots, operators=(operator,))[0]


def sample_grid(specs, seed: int, n_slots: int, operators=None) -> np.ndarray:
    """(len(specs), n_slots) draws: row r is operator `operators[r]` (default
    r) under `specs[r]` for slots 0..n_slots-1, and matches sample() exactly.

    One hash pass covers the whole grid; each distinct spec then maps its
    rows' uniforms to levels with one `searchsorted`."""
    if operators is None:
        operators = range(len(specs))
    u = rng.uniform01_grid(seed, operators, np.arange(n_slots))
    rows_of: dict[TrafficSpec, list[int]] = {}
    for r, spec in enumerate(specs):
        rows_of.setdefault(spec, []).append(r)
    out = np.empty(u.shape)
    for spec, rows in rows_of.items():
        cdf, levels = spec._sampling_tables
        out[rows] = levels[np.searchsorted(cdf, u[rows], side="right")]
    return out


def expectation(spec: TrafficSpec, g) -> float:
    """E[g(level)] over the finite support."""
    return sum(p * g(lv) for lv, p in zip(spec.levels, spec.probs))
