"""Compact soft actor-critic on the two-simplex action space.

The policy network emits a mean and log-std per pre-activation logit; a
reparameterized Gaussian draw is squashed by two independent softmaxes (CPU
fractions, bandwidth fractions, each with one idle slack coordinate), so every
sampled action lands exactly on both simplexes. The entropy term uses the
Gaussian log-density of the pre-softmax sample; the (rank-deficient) softmax
Jacobian correction is deliberately omitted, making this a surrogate entropy
rather than the entropy of the squashed distribution.

`squashed_sample` is the one sampling path: acting (`SacAgent.policy_sample`,
deterministic = zero noise), the critic target's next action in
`SacAgent.update` and the actor loss all call it.

The agent never steps an environment. `harness.train` collects through the
harness's one episode loop with `policy_sample` as the exploring policy and
pushes each transition (normalized states, flat action, reward times
`reward_scale`) straight into `agent.buffer`; `reward_scale` is set once,
from the first collected episode, and saved with the checkpoint.

Checkpoints are `np.savez` archives of `SacAgent.state_dict()`, format 1:
`<net>.<i>` for the i-th parameter of policy, q1, q2, q1_target and
q2_target; `<opt>.m<i>` and `<opt>.v<i>` for the Adam moments of policy_opt,
q1_opt and q2_opt; `normalizer.scale`; and `meta`, the UTF-8 JSON bytes of
format_version, sac_cfg, state_dim, action_dim, state_aux, reward_scale,
update_count, opt_steps (Adam step counts) and net_sizes. Replay transitions
are not saved: a loaded agent starts with an empty buffer. The sac_cfg of
earlier checkpoints may hold gradient_steps and target_update_interval;
loading drops them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .config import SystemConfig
from .env import Action, StateVector
from .nets import Adam, DenseNet, soft_update

LOG_2PI = float(np.log(2.0 * np.pi))
# SacConfig fields that earlier checkpoints hold; they could only name the
# schedule every agent runs, a soft target update after each gradient step
_RETIRED_CFG_KEYS = ("gradient_steps", "target_update_interval")


@dataclass(frozen=True)
class SacConfig:
    learning_rate: float = 3e-4
    discount: float = 0.999
    buffer_capacity: int = 1_000_000
    batch_size: int = 256
    target_smoothing: float = 0.005
    entropy_weight: float = 0.2       # zeta
    hidden_sizes: tuple = (256, 256)
    log_std_min: float = -5.0
    log_std_max: float = 2.0
    seed: int = 0


class ReplayBuffer:
    """Ring of transitions; storage grows on demand up to capacity."""

    def __init__(self, capacity: int, state_dim: int, action_dim: int):
        self.capacity = int(capacity)
        self.state_dim = int(state_dim)
        self.action_dim = int(action_dim)
        self.size = 0
        self.cursor = 0
        self._alloc = 0
        self.states = np.empty((0, state_dim))
        self.actions = np.empty((0, action_dim))
        self.rewards = np.empty(0)
        self.next_states = np.empty((0, state_dim))

    def _grow(self, needed: int) -> None:
        new_alloc = min(self.capacity, max(needed, 2 * self._alloc, 1024))
        for name in ("states", "actions", "rewards", "next_states"):
            old = getattr(self, name)
            shape = (new_alloc,) + old.shape[1:]
            arr = np.empty(shape)
            arr[: self.size] = old[: self.size]
            setattr(self, name, arr)
        self._alloc = new_alloc

    def push(self, state, action, reward: float, next_state) -> None:
        state = np.asarray(state, dtype=float)
        action = np.asarray(action, dtype=float)
        next_state = np.asarray(next_state, dtype=float)
        if state.shape != (self.state_dim,) or next_state.shape != (self.state_dim,):
            raise ValueError(f"state dimension {state.shape} != ({self.state_dim},)")
        if action.shape != (self.action_dim,):
            raise ValueError(f"action dimension {action.shape} != ({self.action_dim},)")
        if self.cursor >= self._alloc and self._alloc < self.capacity:
            self._grow(self.cursor + 1)
        self.states[self.cursor] = state
        self.actions[self.cursor] = action
        self.rewards[self.cursor] = reward
        self.next_states[self.cursor] = next_state
        self.size = max(self.size, self.cursor + 1)
        self.cursor = (self.cursor + 1) % self.capacity

    def sample(self, batch: int, rng: np.random.Generator):
        """Uniform batch without replacement."""
        if self.size < batch:
            raise ValueError(f"insufficient samples: have {self.size}, need {batch}")
        idx = rng.choice(self.size, size=batch, replace=False)
        return (self.states[idx], self.actions[idx], self.rewards[idx],
                self.next_states[idx])

    def __len__(self) -> int:
        return self.size


class StateNormalizer:
    """Fixed linear scaling of the 5N+1 observation: bits-valued blocks by
    the per-app mean bits/slot, workloads by the largest workload, offloaded
    cycles by the edge clock; the CPU-use block is already dimensionless."""

    def __init__(self, scale: np.ndarray):
        self.scale = np.asarray(scale, dtype=float)

    @classmethod
    def from_config(cls, cfg: SystemConfig) -> "StateNormalizer":
        m = cfg.mean_bits_per_slot
        m = np.where(m > 0, m, 1.0)
        w = cfg.workloads
        scale = np.concatenate([
            m,                                  # backlog + arrival
            m,                                  # arrival (or backlog)
            np.full(cfg.n_queues, w.max()),     # workloads
            np.ones(cfg.n_queues),              # actual CPU use
            [cfg.edge_clock],                   # offloaded cycles
            m,                                  # windowed arrival average
        ])
        return cls(scale)

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) / self.scale

    def denormalize(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) * self.scale


def dual_softmax(z: np.ndarray) -> np.ndarray:
    """Softmax applied separately to each half of the last axis."""
    halves = z.reshape(z.shape[:-1] + (2, -1))
    e = np.exp(halves - halves.max(axis=-1, keepdims=True))
    # an owning result: a view would pin a (..., 2, half) base per kept action
    out = np.empty(z.shape)
    np.divide(e, e.sum(axis=-1, keepdims=True), out=out.reshape(halves.shape))
    return out


def gaussian_logp(eps: np.ndarray, log_std: np.ndarray) -> np.ndarray:
    """Diagonal-Gaussian log-density of z = mu + sigma*eps, per row."""
    return np.sum(-0.5 * eps ** 2 - log_std - 0.5 * LOG_2PI, axis=-1)


def squashed_sample(out: np.ndarray, eps: np.ndarray, sac_cfg: SacConfig):
    """Squash policy outputs (..., 2A) under noise eps (..., A): split mean
    and log-std, clip the log-std, draw z = mu + exp(log_std) * eps and map z
    onto both simplexes. Returns (action, logp, log_std, clip_mask), where
    clip_mask marks the log-std entries strictly inside the clip range (the
    ones a gradient reaches)."""
    half = out.shape[-1] // 2
    mu, raw = out[..., :half], out[..., half:]
    log_std = np.clip(raw, sac_cfg.log_std_min, sac_cfg.log_std_max)
    clip_mask = (raw > sac_cfg.log_std_min) & (raw < sac_cfg.log_std_max)
    action = dual_softmax(mu + np.exp(log_std) * eps)
    return action, gaussian_logp(eps, log_std), log_std, clip_mask


# ---------------------------------------------------------------------------
# Loss functions (module level so gradients can be finite-difference checked)


def critic_loss_and_grads(q1: DenseNet, q2: DenseNet, s, a, y):
    """Sum of both critics' mean squared errors against target y."""
    x = np.concatenate([s, a], axis=1)
    m = len(x)
    v1, c1 = q1.forward_cache(x)
    v2, c2 = q2.forward_cache(x)
    e1 = v1 - y
    e2 = v2 - y
    loss = float(np.mean(e1 ** 2) + np.mean(e2 ** 2))
    g1, _ = q1.backward(c1, 2.0 * e1 / m)
    g2, _ = q2.backward(c2, 2.0 * e2 / m)
    return loss, g1, g2


def actor_loss_and_grads(policy: DenseNet, q1: DenseNet, q2: DenseNet, s,
                         eps: np.ndarray, zeta: float, sac_cfg: SacConfig):
    """mean(zeta * log pi - min(Q1, Q2)) under a fixed reparameterization
    noise eps; returns the loss and the policy parameter gradients."""
    m = len(s)
    out, cache = policy.forward_cache(s)
    a, logp, log_std, clip_mask = squashed_sample(out, eps, sac_cfg)
    std = np.exp(log_std)

    x = np.concatenate([s, a], axis=1)
    v1, c1 = q1.forward_cache(x)
    v2, c2 = q2.forward_cache(x)
    qmin = np.minimum(v1, v2)[:, 0]
    loss = float(np.mean(zeta * logp - qmin))

    use1 = (v1 <= v2).astype(float)
    _, gin1 = q1.backward(c1, -use1 / m)
    _, gin2 = q2.backward(c2, -(1.0 - use1) / m)
    g_a = (gin1 + gin2)[:, s.shape[1]:]

    # softmax Jacobian per half: dz = a * (g - <g, a>)
    half = a.shape[1] // 2
    g_z = np.empty_like(g_a)
    for sl in (np.s_[:, :half], np.s_[:, half:]):
        ah, gh = a[sl], g_a[sl]
        g_z[sl] = ah * (gh - np.sum(gh * ah, axis=1, keepdims=True))

    g_mu = g_z
    g_log_std = g_z * (std * eps) - zeta / m  # entropy term: d logp / d log_std = -1
    g_raw = g_log_std * clip_mask
    grads, _ = policy.backward(cache, np.concatenate([g_mu, g_raw], axis=1))
    return loss, grads


# ---------------------------------------------------------------------------
# Agent


class SacAgent:
    """Twin-critic SAC with simplex policy heads and soft target updates."""

    def __init__(self, sys_cfg: SystemConfig, sac_cfg: SacConfig,
                 rng: np.random.Generator | None = None):
        if rng is None:
            rng = np.random.default_rng(sac_cfg.seed)
        self.sac_cfg = sac_cfg
        self.state_dim = sys_cfg.state_dim
        self.action_dim = sys_cfg.action_dim
        self.state_aux = sys_cfg.state_aux
        hidden = list(sac_cfg.hidden_sizes)

        # near-zero final policy layer: the initial policy is near-uniform
        # over both simplexes, a safe exploration start
        self.policy = DenseNet([self.state_dim, *hidden, 2 * self.action_dim],
                               rng, final_weight_scale=0.01)
        self.q1 = DenseNet([self.state_dim + self.action_dim, *hidden, 1], rng)
        self.q2 = DenseNet([self.state_dim + self.action_dim, *hidden, 1], rng)
        self.q1_target = self.q1.clone()
        self.q2_target = self.q2.clone()

        lr = sac_cfg.learning_rate
        self.policy_opt = Adam(self.policy.params, lr=lr)
        self.q1_opt = Adam(self.q1.params, lr=lr)
        self.q2_opt = Adam(self.q2.params, lr=lr)

        self.buffer = ReplayBuffer(sac_cfg.buffer_capacity, self.state_dim,
                                   self.action_dim)
        self.normalizer = StateNormalizer.from_config(sys_cfg)
        self.reward_scale = 1.0
        self.update_count = 0

    # -- acting ------------------------------------------------------------

    def policy_sample(self, state_norm: np.ndarray, deterministic: bool = False,
                      rng: np.random.Generator | None = None):
        """Sample a flat (2N+2) simplex-pair action plus its surrogate
        log-probability from one normalized state vector; the deterministic
        action squashes the mean (zero noise)."""
        out = self.policy.forward(np.asarray(state_norm, dtype=float)[None, :])[0]
        if deterministic:
            eps = np.zeros(self.action_dim)
        elif rng is None:
            raise ValueError("stochastic sampling needs an rng")
        else:
            eps = rng.standard_normal(self.action_dim)
        action, logp, _, _ = squashed_sample(out, eps, self.sac_cfg)
        return action, float(logp)

    def act(self, state: StateVector) -> Action:
        """The deterministic policy's action for a raw state."""
        x = self.normalizer.normalize(state.as_vector(self.state_aux))
        flat, _ = self.policy_sample(x, deterministic=True)
        return Action.from_flat(flat)

    # -- learning ----------------------------------------------------------

    def update(self, rng: np.random.Generator) -> dict:
        """One critic and one actor gradient step plus a soft target update."""
        cfg = self.sac_cfg
        s, a, r, s2 = self.buffer.sample(cfg.batch_size, rng)
        m = len(s)
        zeta = cfg.entropy_weight

        # resample the next action from the current policy (eps2 is drawn
        # before the actor's eps)
        eps2 = rng.standard_normal((m, self.action_dim))
        a2, logp2, _, _ = squashed_sample(self.policy.forward(s2), eps2, cfg)

        x2 = np.concatenate([s2, a2], axis=1)
        q_next = np.minimum(self.q1_target.forward(x2),
                            self.q2_target.forward(x2))[:, 0]
        y = (r + cfg.discount * (q_next - zeta * logp2))[:, None]

        closs, g1, g2 = critic_loss_and_grads(self.q1, self.q2, s, a, y)
        self.q1_opt.step(self.q1.params, g1)
        self.q2_opt.step(self.q2.params, g2)

        eps = rng.standard_normal((m, self.action_dim))
        aloss, pgrads = actor_loss_and_grads(self.policy, self.q1, self.q2, s,
                                             eps, zeta, cfg)
        self.policy_opt.step(self.policy.params, pgrads)

        self.update_count += 1
        soft_update(self.q1_target, self.q1, cfg.target_smoothing)
        soft_update(self.q2_target, self.q2, cfg.target_smoothing)

        if not (np.isfinite(closs) and np.isfinite(aloss)):
            raise FloatingPointError(
                f"non-finite loss at update {self.update_count}: "
                f"critic={closs}, actor={aloss}, |r| max={np.abs(r).max()}, "
                f"reward_scale={self.reward_scale}")
        return {"critic_loss": closs, "actor_loss": aloss}

    # -- checkpointing -----------------------------------------------------

    _NETS = ("policy", "q1", "q2", "q1_target", "q2_target")
    _OPTS = ("policy_opt", "q1_opt", "q2_opt")

    def state_dict(self) -> dict:
        """Every weight matrix, optimizer moment and the normalizer scale by
        name, plus the JSON `meta` record as a byte array (the checkpoint
        layout of the module docstring). The arrays are the live ones."""
        arrays = {}
        for name in self._NETS:
            for i, p in enumerate(getattr(self, name).params):
                arrays[f"{name}.{i}"] = p
        for name in self._OPTS:
            opt = getattr(self, name)
            for i, mom in enumerate(opt.m):
                arrays[f"{name}.m{i}"] = mom
            for i, mom in enumerate(opt.v):
                arrays[f"{name}.v{i}"] = mom
        arrays["normalizer.scale"] = self.normalizer.scale
        meta = {
            "format_version": 1,
            "sac_cfg": asdict(self.sac_cfg),
            "state_dim": self.state_dim,
            "action_dim": self.action_dim,
            "state_aux": self.state_aux,
            "reward_scale": self.reward_scale,
            "update_count": self.update_count,
            "opt_steps": {name: getattr(self, name).t for name in self._OPTS},
            "net_sizes": {name: getattr(self, name).sizes for name in self._NETS},
        }
        arrays["meta"] = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
        return arrays

    @classmethod
    def from_state_dict(cls, arrays) -> "SacAgent":
        """An independent agent from a `state_dict()` mapping (or an open
        checkpoint): arrays are copied and the replay buffer starts empty.
        A missing, surplus or misshapen array raises ValueError."""
        if "meta" not in arrays:
            raise ValueError("checkpoint has no 'meta' record")
        meta = json.loads(bytes(arrays["meta"]).decode())
        if meta.get("format_version") != 1:
            raise ValueError(f"unknown checkpoint format {meta.get('format_version')}")
        used = {"meta"}

        def take(key, shape):
            if key not in arrays:
                raise ValueError(f"checkpoint lacks array {key!r}")
            arr = np.array(arrays[key])
            if arr.shape != shape:
                raise ValueError(f"checkpoint array {key!r} has shape {arr.shape}, "
                                 f"expected {shape}")
            used.add(key)
            return arr

        try:
            cfg_dict = dict(meta["sac_cfg"])
            cfg_dict["hidden_sizes"] = tuple(cfg_dict["hidden_sizes"])
            for key in _RETIRED_CFG_KEYS:
                cfg_dict.pop(key, None)
            agent = cls.__new__(cls)
            agent.sac_cfg = SacConfig(**cfg_dict)
            agent.state_dim = meta["state_dim"]
            agent.action_dim = meta["action_dim"]
            agent.state_aux = meta["state_aux"]
            agent.reward_scale = meta["reward_scale"]
            agent.update_count = meta["update_count"]
            for name in cls._NETS:
                net = DenseNet.__new__(DenseNet)
                net.sizes = tuple(meta["net_sizes"][name])
                shapes = []
                for fan_in, fan_out in zip(net.sizes[:-1], net.sizes[1:]):
                    shapes += [(fan_in, fan_out), (fan_out,)]
                net.params = [take(f"{name}.{i}", s) for i, s in enumerate(shapes)]
                setattr(agent, name, net)
            for name in cls._OPTS:
                shapes = [p.shape for p in getattr(agent, name.rsplit("_", 1)[0]).params]
                opt = Adam([], lr=agent.sac_cfg.learning_rate)
                opt.t = meta["opt_steps"][name]
                opt.m = [take(f"{name}.m{i}", s) for i, s in enumerate(shapes)]
                opt.v = [take(f"{name}.v{i}", s) for i, s in enumerate(shapes)]
                setattr(agent, name, opt)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"checkpoint meta is incomplete: {exc!r}") from exc
        agent.normalizer = StateNormalizer(take("normalizer.scale", (agent.state_dim,)))
        surplus = sorted(set(arrays) - used)
        if surplus:
            raise ValueError(f"checkpoint has unexpected arrays {surplus}")
        agent.buffer = ReplayBuffer(agent.sac_cfg.buffer_capacity,
                                    agent.state_dim, agent.action_dim)
        return agent

    def save(self, path) -> None:
        np.savez(path, **self.state_dict())

    @classmethod
    def load(cls, path) -> "SacAgent":
        with np.load(path) as data:
            return cls.from_state_dict(data)
