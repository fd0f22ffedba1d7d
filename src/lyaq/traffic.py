"""Stochastic task arrivals: truncated-normal sizes under compound Poisson counts.

`sample_arrivals` is the one arrival sampler: it draws a block of slots at
once, each app's Poisson counts first and then all its task sizes.
`EdgeCloudEnv` calls it one block of slots at a time.
"""

from __future__ import annotations

import numpy as np

from .config import AppProfile

# Rejection-sampling budget for n task sizes: at least MAX_REJECTION_DRAWS
# draws, and REJECTION_DRAWS_PER_TASK per task for large n. The tabulated
# +/-2 sigma truncations accept ~0.95 of the draws and never come near it;
# bounds that (almost) nothing lands inside exhaust it.
MAX_REJECTION_DRAWS = 10 ** 6
REJECTION_DRAWS_PER_TASK = 20


class RejectionBudgetError(RuntimeError):
    """Raised when truncated-normal rejection sampling exhausts its draw budget."""


def sample_task_sizes(app: AppProfile, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n task sizes from normal(mean, std) truncated to [size_min, size_max]."""
    if n == 0:
        return np.empty(0)
    budget = max(MAX_REJECTION_DRAWS, REJECTION_DRAWS_PER_TASK * n)
    out = np.empty(n)
    filled = 0
    drawn = 0
    while filled < n:
        chunk = max(2 * (n - filled), 64)
        if drawn + chunk > budget:
            chunk = budget - drawn
            if chunk <= 0:
                raise RejectionBudgetError(
                    f"exceeded {budget} draws sampling {app.name or 'app'} "
                    f"task sizes (accepted {filled}/{n})")
        draws = rng.normal(app.size_mean, app.size_std, size=chunk)
        drawn += chunk
        accepted = draws[(draws >= app.size_min) & (draws <= app.size_max)]
        take = min(accepted.size, n - filled)
        out[filled:filled + take] = accepted[:take]
        filled += take
    return out


def sample_arrivals(apps, n_slots: int, rng: np.random.Generator) -> np.ndarray:
    """Arrivals for n_slots slots, shape (n_slots, N): in each slot,
    a_i = sum of K_i task sizes with K_i ~ Poisson(lambda_i)."""
    out = np.zeros((n_slots, len(apps)))
    for i, app in enumerate(apps):
        counts = rng.poisson(app.arrival_rate, size=n_slots)
        total = int(counts.sum())
        if total == 0:
            continue
        sizes = sample_task_sizes(app, total, rng)
        edges = np.concatenate([[0], np.cumsum(counts)])
        out[:, i] = np.add.reduceat(
            np.concatenate([sizes, [0.0]]), edges[:-1])
        out[counts == 0, i] = 0.0
    return out
