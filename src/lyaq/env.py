"""Discrete-time edge-cloud MDP: queue recursion, offloading, and power costs.

Timing convention: the state at RL index t already contains q_i(t)+a_i(t).
The action taken on that state fixes the departures b_i(t), the queues move
to q_i(t+1) = [q_i(t)+a_i(t)-b_i(t)]^+, and only then is a_i(t+1) drawn, so
the per-step reward is a deterministic function of (state, action) and all
randomness sits in the state transition.

Costs are carried in G^3*kappa units (cube of Gcycles/s times kappa), the
natural dynamic range of the cubic power model.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .config import SystemConfig
from .traffic import sample_arrivals

ARRIVAL_WINDOW = 100  # slots averaged for the windowed-arrival state block


@dataclass(frozen=True)
class Action:
    """CPU fractions alpha and bandwidth fractions beta, each on an
    (N+1)-simplex whose last coordinate is the idle slack. Arrays of shape
    (S, N+1) hold a batch of S actions."""

    alpha: np.ndarray
    beta: np.ndarray

    @property
    def n_queues(self) -> int:
        return self.alpha.shape[-1] - 1

    @property
    def alpha_eff(self) -> np.ndarray:
        return self.alpha[..., :-1]

    @property
    def beta_eff(self) -> np.ndarray:
        return self.beta[..., :-1]

    @classmethod
    def uniform(cls, n_queues: int) -> "Action":
        v = np.full(n_queues + 1, 1.0 / (n_queues + 1))
        return cls(alpha=v.copy(), beta=v.copy())

    @classmethod
    def idle(cls, n_queues: int) -> "Action":
        v = np.zeros(n_queues + 1)
        v[-1] = 1.0
        return cls(alpha=v.copy(), beta=v.copy())

    @classmethod
    def from_effective(cls, alpha_eff, beta_eff) -> "Action":
        alpha_eff = np.asarray(alpha_eff, dtype=float)
        beta_eff = np.asarray(beta_eff, dtype=float)
        return cls(alpha=np.append(alpha_eff, 1.0 - alpha_eff.sum()),
                   beta=np.append(beta_eff, 1.0 - beta_eff.sum()))

    @classmethod
    def from_flat(cls, vec) -> "Action":
        vec = np.asarray(vec, dtype=float)
        half = vec.size // 2
        return cls(alpha=vec[:half].copy(), beta=vec[half:].copy())

    def as_flat(self) -> np.ndarray:
        return np.concatenate([self.alpha, self.beta])


def action_errors(action: Action, tol: float = 1e-9) -> list[str]:
    """Simplex violations of an action; empty list means valid."""
    errors = []
    for name, v in (("alpha", action.alpha), ("beta", action.beta)):
        if np.any(v < -tol):
            errors.append(f"{name} has negative entries")
        if abs(v.sum() - 1.0) > tol:
            errors.append(f"{name} sums to {v.sum()}, not 1")
    return errors


@dataclass(frozen=True)
class StateVector:
    """Observation of a single RL step, laid out as 5N+1 numbers."""

    backlog_plus_arrival: np.ndarray  # q_i(t)+a_i(t), bits
    arrival: np.ndarray               # a_i(t), bits
    workload: np.ndarray              # w_i, cycles/bit
    actual_cpu_use: np.ndarray        # realized alpha of the previous step
    offloaded_cycles: float           # sum w_i o_i of the previous step
    windowed_arrival_avg: np.ndarray  # mean a_i over the last 100 slots

    @property
    def n_queues(self) -> int:
        return len(self.arrival)

    @property
    def queue(self) -> np.ndarray:
        """q_i(t), the backlog before this slot's arrival."""
        return self.backlog_plus_arrival - self.arrival

    def as_vector(self, aux: str = "arrival") -> np.ndarray:
        """Flatten to 5N+1; the second block holds a_i(t) or, with
        aux="backlog", q_i(t) (either one pins down the other)."""
        second = self.arrival if aux == "arrival" else self.queue
        return np.concatenate([
            self.backlog_plus_arrival,
            second,
            self.workload,
            self.actual_cpu_use,
            [self.offloaded_cycles],
            self.windowed_arrival_avg,
        ])


@dataclass(frozen=True)
class StepOutcome:
    next_state: StateVector
    queue_after: np.ndarray   # q_i(t+1), bits
    departures: np.ndarray    # b_i(t), bits
    offloads: np.ndarray      # o_i(t), bits
    edge_cost: float          # C_E(t), G^3 kappa
    cloud_cost: float         # C_C(t), G^3 kappa


@dataclass(frozen=True)
class RewardInputs:
    """Everything the reward family consumes about one step."""

    queue_before: np.ndarray  # q_i(t)
    queue_after: np.ndarray   # q_i(t+1)
    departures: np.ndarray    # b_i(t)
    edge_cost: float
    cloud_cost: float
    t: int

    @property
    def penalty_cost(self) -> float:
        return self.edge_cost + self.cloud_cost


# ---------------------------------------------------------------------------
# Dynamics primitives (pure functions)


def compute_departure(action: Action, cfg: SystemConfig) -> np.ndarray:
    """b_i = alpha_i f_E / w_i + beta_i B for the N real queues."""
    return action.alpha_eff * cfg.edge_clock / cfg.workloads + action.beta_eff * cfg.bandwidth


def compute_offload(queue_plus_arrival, action: Action, cfg: SystemConfig) -> np.ndarray:
    """Bits actually shipped to the cloud: the bandwidth allocation capped by
    whatever backlog the CPU leaves behind, never negative."""
    qpa = np.asarray(queue_plus_arrival, dtype=float)
    cpu_bits = action.alpha_eff * cfg.edge_clock / cfg.workloads
    return np.maximum(0.0, np.minimum(action.beta_eff * cfg.bandwidth, qpa - cpu_bits))


def queue_update(q, a, b) -> np.ndarray:
    """q_i(t+1) = max(0, q_i + a_i - b_i)."""
    return np.maximum(0.0, np.asarray(q, dtype=float) + np.asarray(a, dtype=float)
                      - np.asarray(b, dtype=float))


def edge_cost(action: Action, cfg: SystemConfig):
    """Cubic power of the edge cores with the load split evenly: each of the
    N_E cores runs at f_E * sum(alpha) / N_E. A float for one action, an
    array for a batch."""
    per_core_ghz = cfg.edge_clock * action.alpha_eff.sum(axis=-1) / cfg.edge_cores / 1e9
    cost = cfg.edge_cores * per_core_ghz ** 3
    return float(cost) if cost.ndim == 0 else cost


def cloud_cost(offloads, cfg: SystemConfig):
    """Cloud charge for the offloaded cycles W = sum w_i o_i; a float for one
    offload vector, an array for a batch of shape (S, N).

    cubic: same even-split cubic law over the N_C cloud cores.
    per-core: ceil(W / core clock) cores activated, each billed at its full
    cubic rate, a discontinuous staircase in W.
    """
    cycles = np.maximum(np.dot(np.asarray(offloads, dtype=float), cfg.workloads), 0.0)
    if cfg.cloud_cost_kind == "cubic":
        if cfg.cloud_cores < 1:
            cost = np.where(cycles > 0.0, math.inf, 0.0)
        else:
            cost = cfg.cloud_cores * (cycles / cfg.cloud_cores / 1e9) ** 3
    elif cfg.cloud_cost_kind == "per-core":
        cost = np.ceil(cycles / cfg.cloud_core_clock) * (cfg.cloud_core_clock / 1e9) ** 3
    else:
        raise ValueError(f"unknown cloud_cost_kind {cfg.cloud_cost_kind!r}")
    return float(cost) if cost.ndim == 0 else cost


def actual_cpu_use(queue_plus_arrival, action: Action, cfg: SystemConfig) -> np.ndarray:
    """Realized CPU fraction: alpha_i capped when the backlog is smaller than
    the nominal allocation alpha_i f_E / w_i."""
    qpa = np.asarray(queue_plus_arrival, dtype=float)
    return np.minimum(action.alpha_eff, cfg.workloads * qpa / cfg.edge_clock)


# ---------------------------------------------------------------------------
# Environment


class EdgeCloudEnv:
    """Mutable episode state: queues, the pending arrival, and the arrival
    window. One instance per thread; randomness comes only from the injected
    generator."""

    def __init__(self, cfg: SystemConfig, rng: np.random.Generator | None = None,
                 seed: int | None = None):
        self.cfg = cfg
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self._q = np.zeros(cfg.n_queues)
        self._a = np.zeros(cfg.n_queues)
        self._window = np.zeros((ARRIVAL_WINDOW, cfg.n_queues))
        self._window_len = 0
        self._prev_actual_cpu = np.zeros(cfg.n_queues)
        self._prev_offloaded_cycles = 0.0
        self._t = 0

    @property
    def t(self) -> int:
        return self._t

    @property
    def queue(self) -> np.ndarray:
        return self._q.copy()

    @property
    def arrival(self) -> np.ndarray:
        return self._a.copy()

    def _push_window(self, arrival: np.ndarray) -> None:
        self._window = np.roll(self._window, 1, axis=0)
        self._window[0] = arrival
        self._window_len = min(self._window_len + 1, ARRIVAL_WINDOW)

    def _windowed_avg(self) -> np.ndarray:
        # zero-padded before slot 100: always divide by the full window
        return self._window.sum(axis=0) / ARRIVAL_WINDOW

    def state(self) -> StateVector:
        return StateVector(
            backlog_plus_arrival=self._q + self._a,
            arrival=self._a.copy(),
            workload=self.cfg.workloads,
            actual_cpu_use=self._prev_actual_cpu.copy(),
            offloaded_cycles=self._prev_offloaded_cycles,
            windowed_arrival_avg=self._windowed_avg(),
        )

    def reset(self) -> StateVector:
        """Empty all queues, clear history, and draw the slot-0 arrivals."""
        self._q = np.zeros(self.cfg.n_queues)
        self._window[:] = 0.0
        self._window_len = 0
        self._prev_actual_cpu = np.zeros(self.cfg.n_queues)
        self._prev_offloaded_cycles = 0.0
        self._t = 0
        self._a = sample_arrivals(self.cfg.apps, self.rng)
        self._push_window(self._a)
        return self.state()

    def step(self, action: Action) -> tuple[StepOutcome, RewardInputs]:
        cfg = self.cfg
        q_before = self._q.copy()
        qpa = self._q + self._a

        b = compute_departure(action, cfg)
        o = compute_offload(qpa, action, cfg)
        q_after = queue_update(self._q, self._a, b)
        c_edge = edge_cost(action, cfg)
        c_cloud = cloud_cost(o, cfg)

        self._prev_actual_cpu = actual_cpu_use(qpa, action, cfg)
        self._prev_offloaded_cycles = float(np.dot(cfg.workloads, o))

        reward_inputs = RewardInputs(
            queue_before=q_before,
            queue_after=q_after.copy(),
            departures=b,
            edge_cost=c_edge,
            cloud_cost=c_cloud,
            t=self._t,
        )

        self._q = q_after
        self._a = sample_arrivals(cfg.apps, self.rng)
        self._push_window(self._a)
        self._t += 1

        outcome = StepOutcome(
            next_state=self.state(),
            queue_after=q_after.copy(),
            departures=b,
            offloads=o,
            edge_cost=c_edge,
            cloud_cost=c_cloud,
        )
        return outcome, reward_inputs


# ---------------------------------------------------------------------------
# Step trace


@dataclass
class Trace:
    """Per-step trajectory record; one CSV row per slot."""

    n_queues: int
    t: list = field(default_factory=list)
    q: list = field(default_factory=list)        # q_i(t) at slot start
    a: list = field(default_factory=list)        # a_i(t)
    alpha: list = field(default_factory=list)    # effective entries
    beta: list = field(default_factory=list)
    b: list = field(default_factory=list)
    o: list = field(default_factory=list)
    edge_cost: list = field(default_factory=list)
    cloud_cost: list = field(default_factory=list)

    def append(self, t, q, a, action: Action, b, o, c_edge, c_cloud) -> None:
        self.t.append(int(t))
        self.q.append(np.asarray(q, dtype=float))
        self.a.append(np.asarray(a, dtype=float))
        self.alpha.append(action.alpha_eff.copy())
        self.beta.append(action.beta_eff.copy())
        self.b.append(np.asarray(b, dtype=float))
        self.o.append(np.asarray(o, dtype=float))
        self.edge_cost.append(float(c_edge))
        self.cloud_cost.append(float(c_cloud))

    def __len__(self) -> int:
        return len(self.t)

    @property
    def queue_totals(self) -> np.ndarray:
        """sum_i q_i(t) per slot."""
        return np.array([row.sum() for row in self.q])

    @property
    def penalties(self) -> np.ndarray:
        return np.array(self.edge_cost) + np.array(self.cloud_cost)

    def header(self) -> list[str]:
        n = self.n_queues
        cols = ["t"]
        for prefix in ("q", "a", "alpha", "beta", "b", "o"):
            cols += [f"{prefix}_{i + 1}" for i in range(n)]
        cols += ["C_E", "C_C"]
        return cols

    def rows(self):
        for k in range(len(self.t)):
            row = [self.t[k]]
            for block in (self.q, self.a, self.alpha, self.beta, self.b, self.o):
                row.extend(block[k].tolist())
            row.append(self.edge_cost[k])
            row.append(self.cloud_cost[k])
            yield row

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(self.header())
            for row in self.rows():
                writer.writerow([row[0]] + [repr(x) for x in row[1:]])


def read_trace_csv(path) -> Trace:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        n = sum(1 for c in header if c.startswith("q_"))
        trace = Trace(n_queues=n)
        for line in reader:
            vals = [float(x) for x in line[1:]]
            blocks = [np.array(vals[i * n:(i + 1) * n]) for i in range(6)]
            trace.t.append(int(line[0]))
            trace.q.append(blocks[0])
            trace.a.append(blocks[1])
            trace.alpha.append(blocks[2])
            trace.beta.append(blocks[3])
            trace.b.append(blocks[4])
            trace.o.append(blocks[5])
            trace.edge_cost.append(vals[6 * n])
            trace.cloud_cost.append(vals[6 * n + 1])
    return trace
