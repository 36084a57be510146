import math

import numpy as np
import pytest

from bandshare import engine, rng, traffic
from bandshare.utility import LinearUtility, UtilityModel


def test_two_level_degenerate_high():
    spec = traffic.two_level(1.0)
    assert all(traffic.sample(spec, 1, 0, t) == 1.0 for t in range(50))


def test_two_level_degenerate_low():
    spec = traffic.two_level(0.0)
    assert all(traffic.sample(spec, 1, 0, t) == 0.0 for t in range(50))


def test_two_level_empirical_mean_within_binomial_bound():
    spec = traffic.two_level(0.25)
    n = 1_000_000
    draws = traffic.sample_slots(spec, seed=9, operator=0, n_slots=n)
    sigma = math.sqrt(0.25 * 0.75 / n)
    assert abs(draws.mean() - 0.25) < 3.0 * sigma


def test_vectorized_draws_match_scalar_exactly():
    spec = traffic.finite_levels([(0.0, 0.2), (1.0, 0.5), (3.0, 0.3)])
    arr = traffic.sample_slots(spec, seed=123, operator=4, n_slots=200)
    scalars = [traffic.sample(spec, 123, 4, t) for t in range(200)]
    assert list(arr) == scalars


def test_determinism_across_calls():
    spec = traffic.two_level(0.5)
    a = [traffic.sample(spec, 7, 2, t) for t in range(100)]
    b = [traffic.sample(spec, 7, 2, t) for t in range(100)]
    assert a == b


def test_operator_streams_uncorrelated():
    spec = traffic.two_level(0.5)
    n = 1_000_000
    a = traffic.sample_slots(spec, seed=5, operator=0, n_slots=n)
    b = traffic.sample_slots(spec, seed=5, operator=1, n_slots=n)
    rho = np.corrcoef(a, b)[0, 1]
    assert abs(rho) < 0.01


def test_expectation_identity():
    assert traffic.expectation(traffic.two_level(0.5), lambda x: x) == pytest.approx(0.5)


def test_expectation_of_full_sharing_utility():
    model = UtilityModel(100.0, 100.0, family=LinearUtility())
    spec = traffic.two_level(0.5)
    got = traffic.expectation(spec, lambda lam: model.full_spectrum_utility(2, lam))
    expected = 0.5 * 100.0 * math.log2(1.0 + 100.0 / 101.0)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(49.642, abs=5e-4)


def test_expectation_uniform_three_levels():
    spec = traffic.finite_levels([(0.0, 1 / 3), (1.0, 1 / 3), (2.0, 1 / 3)])
    assert traffic.expectation(spec, lambda x: x * x) == pytest.approx(5.0 / 3.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        traffic.TrafficSpec(levels=(0.0, 1.0), probs=(0.4, 0.4))  # sums to 0.8
    with pytest.raises(ValueError):
        traffic.TrafficSpec(levels=(1.0, 1.0), probs=(0.5, 0.5))  # duplicate level
    with pytest.raises(ValueError):
        traffic.TrafficSpec(levels=(-1.0, 1.0), probs=(0.5, 0.5))  # negative level
    with pytest.raises(ValueError):
        traffic.two_level(1.5)


def test_marginal_matches_spec_chi_square():
    spec = traffic.finite_levels([(0.0, 0.2), (1.0, 0.5), (2.0, 0.3)])
    n = 200_000
    draws = traffic.sample_slots(spec, seed=31, operator=0, n_slots=n)
    chi2 = 0.0
    for level, p in zip(spec.levels, spec.probs):
        observed = int((draws == level).sum())
        chi2 += (observed - n * p) ** 2 / (n * p)
    assert chi2 < 13.82  # 2 dof, far tail (p ~ 0.001)


def test_grid_draws_match_per_operator_and_scalar_draws():
    two = [traffic.two_level(0.25), traffic.two_level(0.5)]
    multi = [
        traffic.finite_levels([(0.0, 0.2), (1.0, 0.5), (3.0, 0.3)]),
        traffic.finite_levels([(0.0, 0.1), (0.5, 0.2), (1.0, 0.3), (2.0, 0.4)]),
    ]
    specs = (two[0], multi[0], two[1], two[0], multi[1], multi[0])
    scenario = engine.Scenario(
        n=len(specs), model=UtilityModel(100.0, 100.0), traffic_specs=specs,
        scheme=engine.FullSpectrumScheme(), discount=0.9, horizon=97, seed=41,
    )
    for replication in (0, 3):
        grid = engine._levels(scenario, replication)
        seed = engine._rep_seed(scenario.seed, replication)
        assert grid.shape == (len(specs), 97)
        for i, spec in enumerate(specs):
            row = traffic.sample_slots(spec, seed, i, 97)
            u = rng.uniform01_array(seed, i, counters=np.arange(97))
            cdf, levels = spec._sampling_tables
            per_operator = levels[np.searchsorted(cdf, u, side="right")]
            assert grid[i].tolist() == row.tolist() == per_operator.tolist()
            assert row.tolist() == [traffic.sample(spec, seed, i, t) for t in range(97)]


def test_uniform_grid_rows_match_uniform_arrays():
    counters = np.arange(50)
    grid = rng.uniform01_grid(77, [4, 0, 9], counters)
    for row, key in zip(grid, [4, 0, 9]):
        assert row.tolist() == rng.uniform01_array(77, key, counters=counters).tolist()
