"""Discrete-time edge-cloud MDP: queue recursion, offloading, and power costs.

Timing convention: the state at RL index t already contains q_i(t)+a_i(t).
The action taken on that state fixes the departures b_i(t), the queues move
to q_i(t+1) = [q_i(t)+a_i(t)-b_i(t)]^+, and only then is a_i(t+1) revealed,
so the per-step reward is a deterministic function of (state, action) and
all randomness sits in the state transition.

Arrivals come from the environment's generator `rng`, in blocks of
ARRIVAL_BLOCK slots drawn with `sample_arrivals`: `reset` discards what is
left of the current block and takes a(0) as row 0 of a fresh one, and
`step` takes a(t+1) from the block, drawing the next one only when the
current one runs out. A replaced `env.rng` therefore takes effect at the
next block or reset, not for arrivals already drawn.

Costs are carried in kappa*(Gcycles/s)^3 units, the natural dynamic range of
the cubic power model. kappa itself is not modelled: a cost weight V
absorbs it (see the config module).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import SystemConfig
from .traffic import sample_arrivals

ARRIVAL_WINDOW = 100  # slots averaged for the windowed-arrival state block
ARRIVAL_BLOCK = 256   # slots of arrivals drawn at once by EdgeCloudEnv


@dataclass(frozen=True)
class Action:
    """CPU fractions alpha and bandwidth fractions beta, each on an
    (N+1)-simplex whose last coordinate is the idle slack. Arrays of shape
    (S, N+1) hold a batch of S actions."""

    alpha: np.ndarray
    beta: np.ndarray

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
    def from_flat(cls, vec) -> "Action":
        vec = np.asarray(vec, dtype=float)
        half = vec.size // 2
        return cls(alpha=vec[:half].copy(), beta=vec[half:].copy())

    def as_flat(self) -> np.ndarray:
        return np.concatenate([self.alpha, self.beta])


class StateVector(NamedTuple):
    """The state of one RL step, as `EdgeCloudEnv` builds it once per slot:
    an immutable named tuple, built with keywords.

    `observation` is the raw 5N+1 vector the learner reads, in blocks:
    q_i(t)+a_i(t) (N, bits), a_i(t) (N, bits), the workloads w_i (N,
    cycles/bit), the realized CPU fractions of the previous step (N), the
    cycles sum_i w_i o_i offloaded in the previous step (1), and the mean of
    a_i over the last ARRIVAL_WINDOW slots, zero-padded before slot
    ARRIVAL_WINDOW (N, bits). The previous-step blocks read zero at reset.
    `arrival` is a view of its a-block. `queue` is the environment's exact
    q_i(t), which the observation does not hold (it is the difference of
    the first two blocks up to rounding)."""

    queue: np.ndarray        # q_i(t), bits, before this slot's arrival
    arrival: np.ndarray      # a_i(t), bits: a view into observation
    observation: np.ndarray  # the 5N+1 vector above


def observation_scale(cfg: SystemConfig) -> np.ndarray:
    """Per-entry divisor of `StateVector.observation`, block by block: the
    bits-valued blocks by the per-app mean bits per slot, workloads by the
    largest workload, offloaded cycles by the edge clock; the CPU-use block
    is already dimensionless."""
    m = cfg.mean_bits_per_slot
    return np.concatenate([
        m,                                  # backlog + arrival
        m,                                  # arrival
        np.full(cfg.n_queues, cfg.workloads.max()),  # workloads
        np.ones(cfg.n_queues),              # actual CPU use
        [cfg.edge_clock],                   # offloaded cycles
        m,                                  # windowed arrival average
    ])


class StepOutcome(NamedTuple):
    """The record of one slot, an immutable named tuple like `StateVector`:
    what the reward family and the trace read beside the two states' queues,
    and the state the next action is taken on."""

    next_state: StateVector   # its queue is q_i(t+1)
    departures: np.ndarray    # b_i(t), bits
    offloads: np.ndarray      # o_i(t), bits
    edge_cost: float          # C_E(t), G^3 kappa
    cloud_cost: float         # C_C(t), G^3 kappa

    @property
    def penalty_cost(self) -> float:
        return self.edge_cost + self.cloud_cost


# ---------------------------------------------------------------------------
# Costs (pure functions)


def edge_cost(alpha_eff, cfg: SystemConfig):
    """Cubic power of the edge cores at effective CPU fractions alpha_eff,
    (N,) for one action or (S, N) for a batch, with the load split evenly:
    each of the N_E cores runs at f_E * sum(alpha) / N_E."""
    per_core_ghz = cfg.edge_clock * np.add.reduce(alpha_eff, axis=-1) / cfg.edge_cores / 1e9
    return cfg.edge_cores * per_core_ghz ** 3


def cloud_cost(offloads, cfg: SystemConfig):
    """Cloud charge of one offload vector (N,) or of a batch (S, N): the
    `cycles_cost` of its offloaded cycles W = sum w_i o_i, clamped at 0."""
    cycles = np.dot(np.asarray(offloads, dtype=float), cfg.workloads)
    return cycles_cost(np.maximum(cycles, 0.0), cfg)


def cycles_cost(cycles, cfg: SystemConfig):
    """Cloud charge for offloaded cycles W >= 0, a float or one per action.

    cubic: same even-split cubic law over the N_C >= 1 cloud cores
    (a SystemConfig refuses fewer).
    per-core: ceil(W / core clock) cores activated, each billed at its full
    cubic rate, a discontinuous staircase in W.
    """
    if cfg.cloud_cost_kind == "cubic":
        return cfg.cloud_cores * (cycles / cfg.cloud_cores / 1e9) ** 3
    return np.ceil(cycles / cfg.cloud_core_clock) * (cfg.cloud_core_clock / 1e9) ** 3


# ---------------------------------------------------------------------------
# Environment


class EdgeCloudEnv:
    """Mutable episode state: queues, the pending arrival, and the arrival
    window. One instance per thread; randomness comes only from the injected
    generator, in blocks of ARRIVAL_BLOCK slots (see the module docstring)."""

    def __init__(self, cfg: SystemConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.rng = rng
        self._q = self._a = self._qpa = np.zeros(cfg.n_queues)  # q, a, q + a
        # ring of the last ARRIVAL_WINDOW arrivals; _slot is the row the
        # next arrival overwrites
        self._window = np.zeros((ARRIVAL_WINDOW, cfg.n_queues))
        self._slot = 0
        self._block = np.empty((0, cfg.n_queues))  # drawn, not yet revealed
        self._next = 0
        # 0-d arrays: ufuncs take them faster than Python floats, to the same bits
        self._zero, self._clock, self._bandwidth, self._window_len = (
            np.array(float(v)) for v in (0.0, cfg.edge_clock, cfg.bandwidth, ARRIVAL_WINDOW))

    def _reveal(self) -> None:
        """a becomes the block's next row (a new block once it runs out), and enters the window."""
        if self._next == len(self._block):
            self._block = sample_arrivals(self.cfg.apps, ARRIVAL_BLOCK, self.rng)
            self._next = 0
        self._a = self._window[self._slot] = self._block[self._next]
        self._next += 1
        self._slot = (self._slot + 1) % ARRIVAL_WINDOW

    def _state(self, cpu_use, offloaded_cycles) -> StateVector:
        """The state at the current q and a, given the previous step's CPU
        use and W, in one array (layout: `StateVector`); keeps q + a."""
        n = self.cfg.n_queues
        self._qpa = self._q + self._a
        obs = np.concatenate((
            self._qpa,
            self._a,
            self.cfg.workloads,
            cpu_use,
            (offloaded_cycles,),
            np.add.reduce(self._window, axis=0) / self._window_len,
        ))
        return StateVector(queue=self._q, arrival=obs[n:2 * n], observation=obs)

    def reset(self) -> StateVector:
        """Empty all queues, clear history, and take the slot-0 arrivals from
        a fresh block."""
        self._q = np.zeros(self.cfg.n_queues)
        self._window[:] = 0.0
        self._slot = 0
        self._next = len(self._block)  # discard what is left of the block
        self._reveal()
        return self._state(np.zeros(self.cfg.n_queues), 0.0)

    def step(self, action: Action) -> StepOutcome:
        """One slot: departures, offloads, the queue update, the two costs
        and the realized CPU use, computing the CPU bits alpha_i f_E / w_i
        and the offloaded cycles W = sum w_i o_i once each (the observation
        and `cycles_cost` read the one W). The environment never writes
        into the arrays it hands out, nor into q, a and q + a in place."""
        cfg, zero, clock = self.cfg, self._zero, self._clock
        w = cfg.workloads
        qpa = self._qpa

        alpha = action.alpha_eff
        cpu_bits = alpha * clock / w
        bw_bits = action.beta_eff * self._bandwidth
        b = cpu_bits + bw_bits
        o = np.maximum(zero, np.minimum(bw_bits, qpa - cpu_bits))
        cycles = float(np.dot(o, w))  # >= 0, as o >= 0 and w > 0

        self._q = np.maximum(zero, qpa - b)
        self._reveal()

        return StepOutcome(
            next_state=self._state(np.minimum(alpha, w * qpa / clock), cycles),
            departures=b,
            offloads=o,
            edge_cost=float(edge_cost(alpha, cfg)),
            cloud_cost=float(cycles_cost(cycles, cfg)),
        )


# ---------------------------------------------------------------------------
# Step trace

class Trace:
    """Per-step trajectory record; one CSV row per slot, over header().

    Rows live in one (capacity, 6N+2) array laid out like the CSV row after
    its t column: q_i(t) at slot start, a_i(t), the effective alpha and
    beta entries, b_i(t), o_i(t), C_E and C_C. The capacity is the episode
    length: row t is slot t, and the column properties are views of the rows
    so far.
    """

    def __init__(self, n_queues: int, capacity: int):
        self.n_queues = n_queues
        self._len = 0
        self._rows = np.empty((capacity, 6 * n_queues + 2))

    def append(self, q, a, action: Action, b, o, c_edge, c_cloud) -> None:
        np.concatenate((q, a, action.alpha_eff, action.beta_eff, b, o, (c_edge, c_cloud)),
                       out=self._rows[self._len])
        self._len += 1

    def __len__(self) -> int:
        return self._len

    def _column_block(self, i: int) -> np.ndarray:
        n = self.n_queues
        return self._rows[: self._len, i * n:(i + 1) * n]

    t = property(lambda self: np.arange(self._len))
    q = property(lambda self: self._column_block(0))      # q_i(t) at slot start
    a = property(lambda self: self._column_block(1))      # a_i(t)
    alpha = property(lambda self: self._column_block(2))  # effective entries
    beta = property(lambda self: self._column_block(3))
    b = property(lambda self: self._column_block(4))
    o = property(lambda self: self._column_block(5))
    edge_cost = property(lambda self: self._rows[: self._len, 6 * self.n_queues])
    cloud_cost = property(lambda self: self._rows[: self._len, 6 * self.n_queues + 1])

    @property
    def queue_totals(self) -> np.ndarray:
        """sum_i q_i(t) per slot."""
        return self.q.sum(axis=1)

    @property
    def penalties(self) -> np.ndarray:
        return self.edge_cost + self.cloud_cost

    def header(self) -> list[str]:
        n = self.n_queues
        cols = ["t"]
        for prefix in ("q", "a", "alpha", "beta", "b", "o"):
            cols += [f"{prefix}_{i + 1}" for i in range(n)]
        cols += ["C_E", "C_C"]
        return cols

    def rows(self):
        """One dict over header() per slot, as `harness.write_csv` takes it."""
        header = self.header()
        for t, row in enumerate(self._rows[: self._len].tolist()):
            yield dict(zip(header, [t] + row))
