import numpy as np
import pytest

from lyaq.config import AppProfile, BITS_PER_KB, get_profile
from lyaq.traffic import sample_task_sizes, sample_arrivals, RejectionBudgetError


def speech():
    return AppProfile(10435.0, 5.0, 40 * BITS_PER_KB, 300 * BITS_PER_KB, name="speech")


def test_sizes_respect_bounds():
    rng = np.random.default_rng(7)
    app = speech()
    sizes = sample_task_sizes(app, 20000, rng)
    assert sizes.min() >= app.size_min
    assert sizes.max() <= app.size_max
    assert sizes.min() >= 40 * BITS_PER_KB
    assert sizes.max() <= 300 * BITS_PER_KB


def test_symmetric_truncation_preserves_mean():
    # bounds at mean +/- 2 sigma keep the truncated mean at the nominal mean
    rng = np.random.default_rng(3)
    app = AppProfile(workload_cycles_per_bit=1.0, arrival_rate=1.0,
                     size_min=1000.0 - 2 * 250.0, size_max=1000.0 + 2 * 250.0,
                     size_mean=1000.0, size_std=250.0)
    sizes = sample_task_sizes(app, 100_000, rng)
    assert abs(sizes.mean() - app.size_mean) / app.size_mean < 0.02


def test_degenerate_sigma_collapses_to_mean():
    rng = np.random.default_rng(0)
    mean = 5e5
    app = AppProfile(workload_cycles_per_bit=1.0, arrival_rate=1.0,
                     size_min=1.0, size_max=1e6,
                     size_mean=mean, size_std=1e-9 * mean)
    sizes = sample_task_sizes(app, 1000, rng)
    assert np.max(np.abs(sizes - mean)) / mean < 1e-6


def test_single_sample_is_scalar_in_bounds():
    rng = np.random.default_rng(1)
    s = sample_task_sizes(speech(), 1, rng)[0]
    assert isinstance(s, float)
    assert speech().size_min <= s <= speech().size_max


def test_rejection_budget_error_when_bounds_unreachable():
    # bounds ~500 sigma away from the mean: nothing ever lands inside
    rng = np.random.default_rng(2)
    app = AppProfile(workload_cycles_per_bit=1.0, arrival_rate=1.0,
                     size_min=999.0, size_max=1000.0,
                     size_mean=0.0, size_std=2.0)
    with pytest.raises(RejectionBudgetError):
        sample_task_sizes(app, 10, rng)


def test_rejection_budget_scales_with_task_count():
    # a fixed 1e6-draw budget ran out at 95% acceptance on 1e6 tasks
    rng = np.random.default_rng(4)
    sizes = sample_task_sizes(speech(), 1_000_000, rng)
    assert sizes.size == 1_000_000
    assert speech().size_min <= sizes.min() and sizes.max() <= speech().size_max
    arrivals = sample_arrivals(get_profile("paper8").apps, 100_000, rng)
    assert arrivals.shape == (100_000, 8) and np.all(arrivals >= 0.0)


def test_zero_rate_app_never_arrives():
    rng = np.random.default_rng(5)
    silent = AppProfile(workload_cycles_per_bit=1.0, arrival_rate=0.0,
                        size_min=1.0, size_max=2.0, size_mean=1.5,
                        size_std=0.25)
    assert np.all(sample_arrivals([silent], 200, rng) == 0.0)


def test_compound_poisson_mean_is_lambda_mu():
    # Monte-Carlo oracle: E[a_i] = lambda_i * mu_i for compound Poisson sums
    rng = np.random.default_rng(11)
    app = speech()
    arrivals = sample_arrivals([app], 100_000, rng)[:, 0]
    expected = 5 * 170 * BITS_PER_KB
    assert abs(arrivals.mean() - expected) / expected < 0.02


def test_three_app_cycle_demand_matches_feasibility_numbers():
    # per-slot mean cycle demand a_i * w_i ~ {72.7, 86.4, 81.2} Gcycles
    rng = np.random.default_rng(13)
    cfg = get_profile("paper")
    arrivals = sample_arrivals(cfg.apps, 60_000, rng)
    demand = arrivals.mean(axis=0) * cfg.workloads
    for got, want in zip(demand, (72.7e9, 86.4e9, 81.2e9)):
        assert abs(got - want) / want < 0.02
