"""The stability-shaped reward family and its verifiable identities.

Four interchangeable step rewards drive the controllers:

  power      r_t = -rho * sum_i q_i(t+1)^nu - V * (C_E + C_C)
  reshaped   queue part only, weighted by the in-episode discount (T-t)/T:
             -rho * (T-t)/T * sum_i [q_i(t+1)^nu - q_i(t)^nu]
  diff       one-step difference form suited to discounted RL:
             -rho * sum_i [q_i(t+1)^nu - q_i(t)^nu] - V * (C_E + C_C)
  mean-diff  diff form with the random arrival replaced by its per-slot mean
             m_i, supported for nu in {1, 2}

The episode-sum identities relating these forms, and the sufficient reward
condition for strong queue stability, are exposed as checkable reports so a
trace can certify that a reward actually has the stabilizing shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

REWARD_KINDS = ("power", "reshaped", "diff", "mean-diff")


class UnsupportedRewardError(ValueError):
    """Reward variant outside the implemented family."""


@dataclass(frozen=True)
class RewardSpec:
    kind: str = "power"
    exponent: float = 1.0        # nu >= 1
    rho: float = 1e-9
    penalty_weight: float = 0.0  # V
    mean_arrival_bits: np.ndarray | None = None  # m_i, used by mean-diff

    def __post_init__(self):
        if self.kind not in REWARD_KINDS:
            raise UnsupportedRewardError(f"unknown reward kind {self.kind!r}")
        if self.exponent < 1.0:
            raise UnsupportedRewardError(f"exponent {self.exponent} < 1")


def reward_power(q_next, cost: float, spec: RewardSpec) -> float:
    """-rho * sum q(t+1)^nu - V * cost."""
    q_next = np.asarray(q_next, dtype=float)
    return float(-spec.rho * np.sum(q_next ** spec.exponent)
                 - spec.penalty_weight * cost)


def reward_reshaped(q_prev, q_next, t: int, T: int, spec: RewardSpec) -> float:
    """Queue part of the reshaped reward, discounted inside the episode."""
    if not (0 <= t < T):
        raise ValueError(f"slot {t} outside episode of length {T}")
    q_prev = np.asarray(q_prev, dtype=float)
    q_next = np.asarray(q_next, dtype=float)
    weight = (T - t) / T
    return float(-spec.rho * weight
                 * np.sum(q_next ** spec.exponent - q_prev ** spec.exponent))


def reward_diff(q_prev, q_next, cost: float, spec: RewardSpec) -> float:
    """-rho * sum [q(t+1)^nu - q(t)^nu] - V * cost."""
    q_prev = np.asarray(q_prev, dtype=float)
    q_next = np.asarray(q_next, dtype=float)
    return float(-spec.rho * np.sum(q_next ** spec.exponent - q_prev ** spec.exponent)
                 - spec.penalty_weight * cost)


def reward_mean_diff(q_prev, b, cost: float, spec: RewardSpec) -> float:
    """diff form with arrivals replaced by their means m_i; nu in {1, 2} only."""
    if spec.mean_arrival_bits is None:
        raise UnsupportedRewardError("mean-diff needs mean_arrival_bits (m_i)")
    m = np.asarray(spec.mean_arrival_bits, dtype=float)
    b = np.asarray(b, dtype=float)
    if spec.exponent == 1.0:
        queue_part = -spec.rho * np.sum(m - b)
    elif spec.exponent == 2.0:
        q_prev = np.asarray(q_prev, dtype=float)
        queue_part = -spec.rho * np.sum(2.0 * q_prev * (m - b) + (m - b) ** 2)
    else:
        raise UnsupportedRewardError(
            f"mean-diff supports nu in {{1, 2}}, got {spec.exponent}")
    return float(queue_part - spec.penalty_weight * cost)


def compute_reward(outcome, T: int, spec: RewardSpec) -> float:
    """Dispatch on spec.kind for one step's `env.StepOutcome`."""
    if spec.kind == "power":
        return reward_power(outcome.queue_after, outcome.penalty_cost, spec)
    if spec.kind == "reshaped":
        return reward_reshaped(outcome.queue_before, outcome.queue_after,
                               outcome.t % T, T, spec)
    if spec.kind == "diff":
        return reward_diff(outcome.queue_before, outcome.queue_after,
                           outcome.penalty_cost, spec)
    if spec.kind == "mean-diff":
        return reward_mean_diff(outcome.queue_before, outcome.departures,
                                outcome.penalty_cost, spec)
    raise UnsupportedRewardError(f"unknown reward kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# Stability condition (sufficient reward shape for strong stability)


@dataclass(frozen=True)
class StabilityBound:
    """Constants of the reward condition r_t <= U - eta * sum_i q_i(t+1)."""

    U: float
    eta: float
    r_min: float | None = None

    @property
    def bound(self) -> float | None:
        """Guaranteed cap on the time-averaged total queue length."""
        if self.r_min is None:
            return None
        return (self.U - self.r_min) / self.eta


def power_reward_bound(rho: float, n_queues: int) -> StabilityBound:
    """The power-form reward with V=0 satisfies the stability condition with
    U = rho*N and eta = rho (via x^nu >= x - 1 for nu >= 1, x >= 0)."""
    return StabilityBound(U=rho * n_queues, eta=rho)


@dataclass(frozen=True)
class Theorem1Report:
    """Empirical verification of the stability-condition chain on one trace.

    The underlying statement is about expectations; checking a single trace
    pointwise is a stronger sufficient condition, so a pass certifies the
    trace, while a prefix-chain failure on a trace that passed the pointwise
    checks would indicate an arithmetic bug, not a modeling gap.
    """

    upper_holds: bool
    first_upper_violation: int | None
    lower_holds: bool | None = None
    first_lower_violation: int | None = None
    chain_holds: bool | None = None
    first_chain_violation: int | None = None
    avg_queue_bound: float | None = None  # (U - r_min) / eta

    @property
    def ok(self) -> bool:
        return (self.upper_holds
                and self.lower_holds is not False
                and self.chain_holds is not False)


def check_theorem1_conditions(reward_trace, queue_trace, U: float, eta: float,
                              r_min: float | None = None) -> Theorem1Report:
    """Check r_t <= U - eta * sum_i q_i(t+1) pointwise and, when a floor
    r_min is supplied, the resulting prefix bound on the average queue:

        (1/t) sum_{tau<=t} sum_i q_i(tau) <= (U - mean r) / eta <= (U - r_min) / eta

    queue_trace holds q(0..T) with q(0) = 0, reward_trace holds r_0..r_{T-1}.
    """
    r = np.asarray(reward_trace, dtype=float)
    q = np.asarray(queue_trace, dtype=float)
    if q.ndim == 1:
        q = q[:, None]
    if len(q) != len(r) + 1:
        raise ValueError(f"queue trace length {len(q)} != reward length {len(r)} + 1")
    if np.any(q[0] != 0.0):
        raise ValueError("stability chain assumes q(0) = 0")

    q_tot = q.sum(axis=1)  # sum_i q_i(tau), tau = 0..T
    upper_gap = U - eta * q_tot[1:] - r
    upper_bad = np.nonzero(upper_gap < 0)[0]
    report = {
        "upper_holds": upper_bad.size == 0,
        "first_upper_violation": int(upper_bad[0]) if upper_bad.size else None,
    }

    if r_min is not None:
        lower_bad = np.nonzero(r < r_min)[0]
        report["lower_holds"] = lower_bad.size == 0
        report["first_lower_violation"] = int(lower_bad[0]) if lower_bad.size else None

        t = np.arange(1, len(r) + 1, dtype=float)
        avg_q = np.cumsum(q_tot)[1:] / t          # (1/t) sum_{tau=0..t} q_tot
        mean_r = np.cumsum(r) / t
        cap = (U - r_min) / eta
        mid = (U - mean_r) / eta
        chain_bad = np.nonzero((avg_q > mid) | (mid > cap))[0]
        report["chain_holds"] = chain_bad.size == 0
        report["first_chain_violation"] = int(chain_bad[0]) if chain_bad.size else None
        report["avg_queue_bound"] = cap

    return Theorem1Report(**report)


# ---------------------------------------------------------------------------
# Episode-sum identities


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of the reward-sum equivalences, evaluated independently."""

    sum_reshaped: float        # sum_t reshaped queue part
    mean_power: float          # (1/T) sum_t power queue part
    sum_diff: float            # sum_t diff queue part
    final_power: float         # -rho * sum_i q_i(T)^nu
    coefficient_exact: bool    # (T-(l-1))/T - (T-l)/T == 1/T for every l
    max_abs_error: float
    max_rel_error: float

    def ok(self, rel_tol: float = 1e-9) -> bool:
        return self.coefficient_exact and self.max_rel_error <= rel_tol


def episode_reward_identities(queue_trace, T: int, nu: float, rho: float) -> IdentityReport:
    """Evaluate the reshaped-sum, coefficient, and telescoping identities on a
    trajectory q(0..T) with q(0) = 0, computing each side separately."""
    q = np.asarray(queue_trace, dtype=float)
    if q.ndim == 1:
        q = q[:, None]
    if len(q) != T + 1:
        raise ValueError(f"queue trace length {len(q)} != T+1 = {T + 1}")
    if np.any(q[0] != 0.0):
        raise ValueError("identities assume q(0) = 0")

    spec = RewardSpec(kind="reshaped", exponent=nu, rho=rho)
    sum_reshaped = sum(reward_reshaped(q[t], q[t + 1], t, T, spec) for t in range(T))
    mean_power = sum(reward_power(q[t + 1], 0.0, spec) for t in range(T)) / T
    sum_diff = sum(reward_diff(q[t], q[t + 1], 0.0, spec) for t in range(T))
    final_power = float(-rho * np.sum(q[T] ** nu))

    # (T-(l-1))/T - (T-l)/T = 1/T, checked in exact rational arithmetic
    coefficient_exact = all(
        Fraction(T - (l - 1), T) - Fraction(T - l, T) == Fraction(1, T)
        for l in range(1, T + 1))

    errs = []
    for lhs, rhs in ((sum_reshaped, mean_power), (sum_diff, final_power)):
        abs_err = abs(lhs - rhs)
        scale = max(abs(lhs), abs(rhs))
        errs.append((abs_err, abs_err / scale if scale > 0 else 0.0))
    return IdentityReport(
        sum_reshaped=sum_reshaped,
        mean_power=mean_power,
        sum_diff=sum_diff,
        final_power=final_power,
        coefficient_exact=coefficient_exact,
        max_abs_error=max(e[0] for e in errs),
        max_rel_error=max(e[1] for e in errs),
    )
