"""Counter-based deterministic random numbers.

Every draw is a pure function of (seed, *key), so any draw in a simulation is
addressable without sequencing state.  Replications, operators and slots each
contribute a key component, which makes parallel replication trivially
reproducible across platforms (integer arithmetic only).
"""

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """One round of a 64-bit finalizing hash (splitmix64 style)."""
    z = (z + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def key_hash(seed: int, *key: int) -> int:
    """Collapse (seed, *key) into one well-mixed 64-bit value."""
    h = mix64(seed & _MASK)
    for part in key:
        h = mix64(h ^ (part & _MASK))
    return h


def uniform01(seed: int, *key: int) -> float:
    """Uniform draw in [0, 1) addressed by (seed, *key); 53-bit resolution."""
    return (key_hash(seed, *key) >> 11) * 2.0**-53


def _mix64_arr(z: np.ndarray) -> np.ndarray:
    z = z + np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _uniform01_arr(h: np.ndarray) -> np.ndarray:
    """Uniform draws in [0, 1) from the uint64 keys `h`, as `uniform01` forms them."""
    with np.errstate(over="ignore"):
        z = _mix64_arr(h)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def uniform01_array(seed: int, *key: int, counters: np.ndarray) -> np.ndarray:
    """Vectorized uniform draws: one per entry of `counters`.

    Equals [uniform01(seed, *key, c) for c in counters] exactly.
    """
    return _uniform01_arr(np.uint64(key_hash(seed, *key)) ^ counters.astype(np.uint64))


def uniform01_grid(seed: int, keys, counters: np.ndarray) -> np.ndarray:
    """(len(keys), len(counters)) uniform draws in one pass.

    Row r equals uniform01_array(seed, keys[r], counters=counters) exactly.
    """
    h = np.array([key_hash(seed, k) for k in keys], dtype=np.uint64)
    return _uniform01_arr(h[:, None] ^ counters.astype(np.uint64))
