"""Rates, SINR, effective bandwidth and operator utility.

An operator's payoff in a slot is pi(x, lam) where x is the effective
exclusive bandwidth of its transmission (the exclusive bandwidth that would
carry the same total usefulness) and lam its traffic intensity.  With on-off
transmit profiles at the regulatory power cap, x is computed exactly by
partitioning the band into pieces of constant interferer count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .spectrum import SpectrumAllocation, partition_points

LN2 = math.log(2.0)


@dataclass(frozen=True)
class ShannonRate:
    """Usefulness per Hz r(g) = log2(1 + g).

    A dataclass with no fields, so every instance is equal to (and hashes
    like) every other: equal `UtilityModel`s built apart compare equal."""

    def __call__(self, gamma: float) -> float:
        if gamma < 0:
            raise ValueError("SINR must be non-negative")
        return math.log2(1.0 + gamma)

    # sup over n >= 2 of n*r(P/((n-1)P+1)) tends to 1/ln2 as n grows;
    # exposing the limit lets the interference check cover all n, not
    # just the scanned prefix.
    def shared_use_limit(self, power_cap: float) -> float:
        return 1.0 / LN2


class TabulatedRate:
    """Strictly increasing rate interpolated linearly from (gamma, value) knots.

    No analytic tail limit is available, so interference checks against it
    cover only the scanned operator counts.  Tables with the same knots
    compare equal and hash alike, so equal `UtilityModel`s built apart do.
    """

    def __init__(self, knots):
        pts = sorted((float(g), float(v)) for g, v in knots)
        if len(pts) < 2:
            raise ValueError("need at least two knots")
        if pts[0][0] != 0.0:
            raise ValueError("table must start at gamma=0")
        for (g0, v0), (g1, v1) in zip(pts, pts[1:]):
            if not v1 > v0:
                raise ValueError("rate table must be strictly increasing")
        self._pts = tuple(pts)

    def __eq__(self, other):
        if not isinstance(other, TabulatedRate):
            return NotImplemented
        return self._pts == other._pts

    def __hash__(self):
        return hash(self._pts)

    def __call__(self, gamma: float) -> float:
        if gamma < 0:
            raise ValueError("SINR must be non-negative")
        pts = self._pts
        if gamma >= pts[-1][0]:
            return pts[-1][1]
        lo, hi = 0, len(pts) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if pts[mid][0] <= gamma:
                lo = mid
            else:
                hi = mid
        (g0, v0), (g1, v1) = pts[lo], pts[hi]
        return v0 + (v1 - v0) * (gamma - g0) / (g1 - g0)


@dataclass(frozen=True)
class LinearUtility:
    """pi(x, lam) = lam * usefulness, usefulness = r(P) * x."""

    def value(self, usefulness: float, lam: float) -> float:
        return lam * usefulness


@dataclass(frozen=True)
class CobbDouglasUtility:
    """pi(x, lam) = (a*lam + 1)^s * usefulness^e."""

    a: float = 24.0
    s: float = 0.5
    e: float = 0.9

    def value(self, usefulness: float, lam: float) -> float:
        return (self.a * lam + 1.0) ** self.s * usefulness**self.e


@dataclass(frozen=True)
class UtilityModel:
    """Band width W (MHz), normalized power cap P, rate and utility family."""

    band_mhz: float
    power_cap: float
    rate_fn: object = field(default_factory=ShannonRate)
    family: object = field(default_factory=LinearUtility)

    def __post_init__(self):
        if self.band_mhz <= 0:
            raise ValueError("band width must be positive")
        if self.power_cap <= 0:
            raise ValueError("power cap must be positive")

    def rate(self, gamma: float) -> float:
        return self.rate_fn(gamma)

    @property
    def peak_rate(self) -> float:
        return self.rate_fn(self.power_cap)

    def pi(self, bandwidth_mhz: float, lam: float) -> float:
        """Utility of `bandwidth_mhz` of effective exclusive spectrum."""
        if bandwidth_mhz < 0:
            raise ValueError("effective bandwidth must be non-negative")
        return self.family.value(self.peak_rate * bandwidth_mhz, lam)

    def sinr(self, op_alloc: SpectrumAllocation, other_allocs, f: float) -> float:
        """SINR of the operator at frequency f given everyone's supports."""
        if not 0.0 <= f < self.band_mhz:
            raise ValueError(f"frequency {f} outside [0, {self.band_mhz})")
        if not op_alloc.covers(f):
            return 0.0
        interferers = sum(1 for a in other_allocs if a.covers(f))
        return self.power_cap / (1.0 + interferers * self.power_cap)

    def effective_bandwidth(self, op_alloc: SpectrumAllocation, other_allocs) -> float:
        """Exact integral of r(SINR)/r(P) over the operator's support."""
        if op_alloc.is_empty():
            return 0.0
        points = partition_points([op_alloc, *other_allocs], self.band_mhz)
        total = 0.0
        for lo, hi in zip(points, points[1:]):
            mid = 0.5 * (lo + hi)
            if not op_alloc.covers(mid):
                continue
            m = sum(1 for a in other_allocs if a.covers(mid))
            if m == 0:
                total += hi - lo
            else:
                gamma = self.power_cap / (1.0 + m * self.power_cap)
                total += (hi - lo) * self.rate_fn(gamma) / self.peak_rate
        return total

    def utility(self, op_alloc: SpectrumAllocation, other_allocs, lam: float) -> float:
        return self.pi(self.effective_bandwidth(op_alloc, other_allocs), lam)

    def shared_bandwidth(self, n: int) -> float:
        """Effective bandwidth of one of n operators all using the full band."""
        if n < 1:
            raise ValueError("operator count must be at least 1")
        if n == 1:
            return self.band_mhz
        gamma = self.power_cap / (self.power_cap * (n - 1) + 1.0)
        return self.band_mhz * self.rate_fn(gamma) / self.peak_rate

    def full_spectrum_utility(self, n: int, lam: float) -> float:
        """Per-operator utility when all n operators transmit over the whole band."""
        return self.pi(self.shared_bandwidth(n), lam)

    def max_utility(self, lam: float) -> float:
        """Best possible one-slot utility: exclusive use of the whole band."""
        return self.pi(self.band_mhz, lam)


@dataclass(frozen=True)
class InterferenceCheck:
    holds: bool
    witness_n: int | None  # smallest violating operator count among those scanned
    limit_violated: bool  # the large-n tail limit already matches exclusive use
    margin: float  # r(P) minus the largest shared-use value examined


def check_interference_limited(
    model: UtilityModel, n_max: int = 64, include_limit: bool = True
) -> InterferenceCheck:
    """Does exclusive use beat n-way shared use of the same spectrum?

    Scans n = 2..n_max and, when the rate family provides one and
    `include_limit` is set, also compares against the analytic large-n limit
    of the shared-use sum (1/ln2 for the Shannon rate).  The scanned-only
    variant answers the question for games of at most n_max operators.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    P = model.power_cap
    exclusive = model.peak_rate
    worst = -math.inf
    witness = None
    for n in range(2, n_max + 1):
        shared = n * model.rate_fn(P / ((n - 1) * P + 1.0))
        if shared > worst:
            worst = shared
        if shared >= exclusive and witness is None:
            witness = n
    limit_violated = False
    if include_limit and hasattr(model.rate_fn, "shared_use_limit"):
        tail = model.rate_fn.shared_use_limit(P)
        if tail > worst:
            worst = tail
        if tail >= exclusive:
            limit_violated = True
    return InterferenceCheck(
        holds=witness is None and not limit_violated,
        witness_n=witness,
        limit_violated=limit_violated,
        margin=exclusive - worst,
    )


@dataclass(frozen=True)
class PiPropertyReport:
    strictly_concave: bool
    strictly_supermodular: bool
    counterexample: tuple | None  # (property, x, lam_or_pair, step)

    @property
    def holds(self) -> bool:
        return self.strictly_concave and self.strictly_supermodular


def check_pi_properties(
    model: UtilityModel,
    x_grid,
    lambda_set,
    delta_grid,
    margin: float = 1e-9,
) -> PiPropertyReport:
    """Grid test of strict concavity in x and strict supermodularity in (x, lam).

    Strictness is asserted with an absolute margin: floating-point equality is
    meaningless and the margin sits far below any utility scale in use.
    """
    xs = sorted(x_grid)
    lams = sorted(lambda_set)
    steps = sorted(d for d in delta_grid if d > 0)
    if not xs or not lams or not steps:
        raise ValueError("grids must be non-empty with positive steps")
    concave, supermod = True, True
    witness = None
    for lam in lams:
        for x in xs:
            for d in steps:
                if x - d < 0 or x + d > model.band_mhz:
                    continue
                up = model.pi(x + d, lam) - model.pi(x, lam)
                down = model.pi(x, lam) - model.pi(x - d, lam)
                if not up < down - margin:
                    concave = False
                    witness = witness or ("concavity", x, lam, d)
    for lo, hi in zip(lams, lams[1:]):
        for x in xs:
            for d in steps:
                if x + d > model.band_mhz:
                    continue
                at_lo = model.pi(x + d, lo) - model.pi(x, lo)
                at_hi = model.pi(x + d, hi) - model.pi(x, hi)
                if not at_lo < at_hi - margin:
                    supermod = False
                    witness = witness or ("supermodularity", x, (lo, hi), d)
    return PiPropertyReport(concave, supermod, witness)
