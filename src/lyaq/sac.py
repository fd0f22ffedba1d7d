"""Compact soft actor-critic on the two-simplex action space.

The policy network emits a mean and log-std per pre-activation logit; a
reparameterized Gaussian draw is squashed by two independent softmaxes (CPU
fractions, bandwidth fractions, each with one idle slack coordinate), so every
sampled action lands exactly on both simplexes. The entropy term uses the
Gaussian log-density of the pre-softmax sample; the (rank-deficient) softmax
Jacobian correction is deliberately omitted, making this a surrogate entropy
rather than the entropy of the squashed distribution.

`squashed_sample` is the one path for noisy samples, and the one place that
splits, clips and squashes the policy output: the exploring policy
(`SacAgent.policy_sample`), the critic target's next action in
`SacAgent.update` and the actor loss all call it. It returns the action and
the clipped log-std, and each caller computes what it reads of the rest.
Acting reads neither, so the exploring policy draws an action alone; the
critic target adds the log-density (`gaussian_logp`), and the actor loss
adds the log-density and the mask of the log-std entries inside the clip.
The deterministic action (`SacAgent.act`, `policy_sample` without an rng)
is the softmax pair of the mean, `dual_softmax` of the mean half of the
policy output: `squashed_sample` at zero noise for every finite output
(mu + exp(log_std) * 0 = mu), without the log-std clip nothing reads.

`SacAgent.update` runs every forward and backward pass in float32, on one
persistent float32 working copy per net that a `np.copyto` from the float64
master refreshes before the update reads it (q1 and q2 again after their
Adam step, before the actor loss). Everything else is float64: the master
weights, the Adam moments and steps, the target nets, the soft update and
the checkpoint. The replay buffer stores float32, so a sampled batch enters
the update as it is. Acting (`act`, `policy_sample`) runs on the float64
master. Float32 subnormals (below 2**-126) slow every product they enter,
and the softmax entry of a far-off logit is one, as is a state entry that
carries it (a CPU share, offloaded cycles). So `flush_tiny` zeroes the
entries below `FLUSH_FLOOR` of what a float32 net reads: each state, action
and next state the buffer stores, and both squashes of the update.

The agent never steps an environment and holds no replay, only what it acts,
learns and saves with. `harness.train` owns the one `ReplayBuffer`, a ring
sized to its step budget (at most `buffer_capacity` rows). It fills it
through the harness's one episode loop, with `policy_sample` exploring and
each reward times `reward_scale` (set once, from the first collected
episode, and saved with the checkpoint), and passes it to each `update`.
`SacAgent.observe`, `env.StateVector.observation` over `env.observation_scale`,
is the one path from a state to what the nets read.

Checkpoints are `np.savez` archives of `SacAgent.state_dict()`, format 3,
the agent's in-memory layout: each net's flat parameter buffer under its
name (policy, q1, q2, q1_target, q2_target); `<opt>.m` and `<opt>.v`, the
flat Adam moments of policy_opt, q1_opt and q2_opt; `normalizer.scale`, the
observation scale; and `meta`, the UTF-8 JSON bytes of format_version,
sac_cfg, state_dim, action_dim, reward_scale and update_count, from which
the layer widths (`net_sizes`) and the Adam step counts (update_count each)
follow. No replay is saved. A sac_cfg key that `SacConfig` does not have
fails the load, as does any other format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from functools import cached_property

import numpy as np

from .config import SystemConfig
from .env import Action, StateVector, observation_scale
from .nets import Adam, DenseNet, param_count, soft_update

LOG_2PI = float(np.log(2.0 * np.pi))
# 2**-63, the square root of float32's smallest normal: a product of two
# numbers this large is still a normal float32 (see flush_tiny)
FLUSH_FLOOR = float(np.finfo(np.float32).tiny) ** 0.5
# the target nets' soft-update coefficient, and the clip of the policy's
# log-std; Python floats, so float32 operands stay float32
TARGET_SMOOTHING = 0.005
LOG_STD_MIN, LOG_STD_MAX = -5.0, 2.0


@dataclass(frozen=True)
class SacConfig:
    learning_rate: float = 3e-4
    discount: float = 0.999
    buffer_capacity: int = 1_000_000
    batch_size: int = 256
    entropy_weight: float = 0.2       # zeta
    hidden_sizes: tuple = (256, 256)
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.entropy_weight < np.inf:
            raise ValueError("entropy_weight must be finite and >= 0, "
                             f"got {self.entropy_weight!r}")
        hidden = self.hidden_sizes
        if (not isinstance(hidden, (list, tuple)) or not hidden
                or any(not isinstance(h, int) or h < 1 for h in hidden)):
            raise ValueError("hidden_sizes must be one or more positive integers, "
                             f"got {hidden!r}")
        object.__setattr__(self, "hidden_sizes", tuple(hidden))  # a list from JSON


class ReplayBuffer:
    """Ring of float32 transitions, allocated at `capacity` rows; once full,
    each push overwrites the oldest row."""

    def __init__(self, capacity: int, state_dim: int, action_dim: int):
        self.capacity = int(capacity)
        self.state_dim = int(state_dim)
        self.action_dim = int(action_dim)
        self.size = 0
        self.cursor = 0
        self.states = np.empty((self.capacity, self.state_dim), dtype=np.float32)
        self.actions = np.empty((self.capacity, self.action_dim), dtype=np.float32)
        self.rewards = np.empty(self.capacity, dtype=np.float32)
        self.next_states = np.empty((self.capacity, self.state_dim), dtype=np.float32)

    def push(self, state, action, reward: float, next_state) -> None:
        if np.shape(state) != (self.state_dim,) or np.shape(next_state) != (self.state_dim,):
            raise ValueError(f"state dimension {np.shape(state)} != ({self.state_dim},)")
        if np.shape(action) != (self.action_dim,):
            raise ValueError(f"action dimension {np.shape(action)} != ({self.action_dim},)")
        self.states[self.cursor] = state
        self.actions[self.cursor] = action
        self.rewards[self.cursor] = reward
        self.next_states[self.cursor] = next_state
        for stored in (self.states, self.actions, self.next_states):
            flush_tiny(stored[self.cursor])
        self.size = max(self.size, self.cursor + 1)
        self.cursor = (self.cursor + 1) % self.capacity

    def sample(self, batch: int, rng: np.random.Generator):
        """Uniform batch without replacement."""
        if self.size < batch:
            raise ValueError(f"insufficient samples: have {self.size}, need {batch}")
        idx = rng.choice(self.size, size=batch, replace=False)
        return (self.states.take(idx, axis=0), self.actions.take(idx, axis=0),
                self.rewards.take(idx, axis=0), self.next_states.take(idx, axis=0))


def dual_softmax(z: np.ndarray) -> np.ndarray:
    """Softmax applied separately to each half of the last axis."""
    halves = z.reshape(z.shape[:-1] + (2, -1))
    e = np.exp(halves - np.maximum.reduce(halves, axis=-1, keepdims=True))
    # an owning result: a view would pin a (..., 2, half) base per kept action
    out = np.empty(z.shape, dtype=z.dtype)
    np.divide(e, np.add.reduce(e, axis=-1, keepdims=True),
              out=out.reshape(halves.shape))
    return out


def gaussian_logp(eps: np.ndarray, log_std: np.ndarray) -> np.ndarray:
    """Diagonal-Gaussian log-density of z = mu + sigma*eps, per row."""
    return np.add.reduce(-0.5 * eps ** 2 - log_std - 0.5 * LOG_2PI, axis=-1)


def flush_tiny(x: np.ndarray) -> np.ndarray:
    """Zero, in place, the entries of x whose magnitude is below
    FLUSH_FLOOR, so that neither they nor their products with the other
    factors of a float32 pass are subnormals; returns x."""
    x[np.abs(x) < FLUSH_FLOOR] = 0.0
    return x


def squashed_sample(out: np.ndarray, eps: np.ndarray):
    """Squash policy outputs (..., 2A) under noise eps (..., A): split mean
    and log-std, clip the log-std, draw z = mu + exp(log_std) * eps and map z
    onto both simplexes. Returns (action, log_std); a caller that reads the
    log-density takes `gaussian_logp(eps, log_std)`."""
    half = out.shape[-1] // 2
    log_std = np.minimum(np.maximum(out[..., half:], LOG_STD_MIN), LOG_STD_MAX)
    return dual_softmax(out[..., :half] + np.exp(log_std) * eps), log_std


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
    return loss, q1.backward(c1, 2.0 * e1 / m), q2.backward(c2, 2.0 * e2 / m)


def actor_loss_and_grads(policy: DenseNet, q1: DenseNet, q2: DenseNet, s,
                         eps: np.ndarray, zeta: float):
    """mean(zeta * log pi - min(Q1, Q2)) under a fixed reparameterization
    noise eps; returns the loss and the policy parameter gradients."""
    m = len(s)
    out, cache = policy.forward_cache(s)
    a, log_std = squashed_sample(out, eps)
    flush_tiny(a)
    logp = gaussian_logp(eps, log_std)
    # the log-std entries strictly inside the clip range, the ones a
    # gradient reaches (the clip keeps each raw entry's side of either bound)
    clip_mask = (log_std > LOG_STD_MIN) & (log_std < LOG_STD_MAX)
    std = np.exp(log_std)

    x = np.concatenate([s, a], axis=1)
    v1, c1 = q1.forward_cache(x)
    v2, c2 = q2.forward_cache(x)
    qmin = np.minimum(v1, v2)[:, 0]
    loss = float(np.mean(zeta * logp - qmin))

    use1 = (v1 <= v2).astype(v1.dtype)
    g_a = (q1.input_grad(c1, -use1 / m)
           + q2.input_grad(c2, -(1.0 - use1) / m))[:, s.shape[1]:]

    # softmax Jacobian per half: dz = a * (g - <g, a>)
    ah = a.reshape(m, 2, -1)
    gh = g_a.reshape(ah.shape)
    g_z = (ah * (gh - np.sum(gh * ah, axis=-1, keepdims=True))).reshape(a.shape)

    g_mu = g_z
    g_log_std = g_z * (std * eps) - zeta / m  # entropy term: d logp / d log_std = -1
    g_raw = g_log_std * clip_mask
    return loss, policy.backward(cache, np.concatenate([g_mu, g_raw], axis=1))


# ---------------------------------------------------------------------------
# Agent


def net_sizes(state_dim: int, action_dim: int, hidden) -> dict:
    """The layer widths of each of the agent's nets: a mean and a log-std
    per action logit out of the policy, one value out of each critic."""
    critic = (state_dim + action_dim, *hidden, 1)
    return {"policy": (state_dim, *hidden, 2 * action_dim),
            "q1": critic, "q2": critic, "q1_target": critic, "q2_target": critic}


class SacAgent:
    """Twin-critic SAC with simplex policy heads and soft target updates."""

    def __init__(self, sys_cfg: SystemConfig, sac_cfg: SacConfig,
                 rng: np.random.Generator | None = None):
        if rng is None:
            rng = np.random.default_rng(sac_cfg.seed)
        self.sac_cfg = sac_cfg
        self.state_dim = sys_cfg.state_dim
        self.action_dim = sys_cfg.action_dim
        sizes = net_sizes(self.state_dim, self.action_dim, sac_cfg.hidden_sizes)

        # near-zero final policy layer: the initial policy is near-uniform
        # over both simplexes, a safe exploration start
        self.policy = DenseNet(sizes["policy"], rng, final_weight_scale=0.01)
        self.q1 = DenseNet(sizes["q1"], rng)
        self.q2 = DenseNet(sizes["q2"], rng)
        self.q1_target = self.q1.clone()
        self.q2_target = self.q2.clone()

        lr = sac_cfg.learning_rate
        self.policy_opt = Adam(self.policy.flat.size, lr=lr)
        self.q1_opt = Adam(self.q1.flat.size, lr=lr)
        self.q2_opt = Adam(self.q2.flat.size, lr=lr)

        self.obs_scale = observation_scale(sys_cfg)
        self.reward_scale = 1.0
        self.update_count = 0

    # -- acting ------------------------------------------------------------

    def policy_sample(self, state_norm: np.ndarray,
                      rng: np.random.Generator | None = None):
        """A flat (2N+2) simplex-pair action for one normalized state
        vector: a draw with the noise of `rng`, or with no `rng` the softmax
        pair of the mean. Acting reads no log-density, so none is computed:
        the critic target and the actor loss take theirs from
        `gaussian_logp`."""
        out = self.policy.forward(np.asarray(state_norm, dtype=float)[None, :])[0]
        if rng is None:
            return dual_softmax(out[:self.action_dim])
        eps = rng.standard_normal(self.action_dim)
        return squashed_sample(out, eps)[0]

    def observe(self, state: StateVector) -> np.ndarray:
        """What the nets read of a state: its observation over the scale."""
        return state.observation / self.obs_scale

    def act(self, state: StateVector) -> Action:
        """The deterministic policy's action for a raw state."""
        flat = self.policy_sample(self.observe(state))
        half = flat.size // 2
        return Action(alpha=flat[:half], beta=flat[half:])

    # -- learning ----------------------------------------------------------

    @cached_property
    def _f32(self) -> dict:
        """The float32 working copy of each net, built at the first update;
        derived state, never saved."""
        masters = {name: getattr(self, name) for name in self._NETS}
        return {name: DenseNet.from_flat(net.sizes, net.flat.astype(np.float32))
                for name, net in masters.items()}

    def _refreshed(self, *names) -> list[DenseNet]:
        """The working copies of the named nets, refreshed from their masters."""
        work = [self._f32[name] for name in names]
        for name, net in zip(names, work):
            np.copyto(net.flat, getattr(self, name).flat)
        return work

    def update(self, buffer: ReplayBuffer, rng: np.random.Generator) -> dict:
        """One critic and one actor gradient step on a batch that `rng`
        samples from `buffer`, plus a soft target update; the passes run in
        float32 (module docstring)."""
        cfg = self.sac_cfg
        s, a, r, s2 = buffer.sample(cfg.batch_size, rng)
        m = len(s)
        zeta = cfg.entropy_weight
        policy, q1, q2, q1_target, q2_target = self._refreshed(*self._NETS)

        # resample the next action from the current policy (eps2 is drawn
        # before the actor's eps, both in float64 and then rounded)
        eps2 = rng.standard_normal((m, self.action_dim)).astype(np.float32)
        a2, log_std2 = squashed_sample(policy.forward(s2), eps2)

        x2 = np.concatenate([s2, flush_tiny(a2)], axis=1)
        q_next = np.minimum(q1_target.forward(x2), q2_target.forward(x2))[:, 0]
        logp2 = gaussian_logp(eps2, log_std2)
        y = (r + cfg.discount * (q_next - zeta * logp2))[:, None]

        closs, g1, g2 = critic_loss_and_grads(q1, q2, s, a, y)
        self.q1_opt.step(self.q1.flat, g1)
        self.q2_opt.step(self.q2.flat, g2)
        q1, q2 = self._refreshed("q1", "q2")

        eps = rng.standard_normal((m, self.action_dim)).astype(np.float32)
        aloss, pgrads = actor_loss_and_grads(policy, q1, q2, s, eps, zeta)
        self.policy_opt.step(self.policy.flat, pgrads)

        self.update_count += 1
        soft_update(self.q1_target, self.q1, TARGET_SMOOTHING)
        soft_update(self.q2_target, self.q2, TARGET_SMOOTHING)

        if not (np.isfinite(closs) and np.isfinite(aloss)):
            raise FloatingPointError(
                f"non-finite loss at update {self.update_count}: "
                f"critic={closs}, actor={aloss}, |r| max={np.abs(r).max()}, "
                f"reward_scale={self.reward_scale}")
        return {"critic_loss": closs, "actor_loss": aloss}

    # -- checkpointing -----------------------------------------------------

    _NETS = ("policy", "q1", "q2", "q1_target", "q2_target")
    _OPTS = ("policy_opt", "q1_opt", "q2_opt")
    _SCALARS = ("state_dim", "action_dim", "reward_scale", "update_count")

    def state_dict(self) -> dict:
        """Each net's parameter buffer, each optimizer's moments and the
        observation scale by name, plus the JSON `meta` record as a byte
        array (the checkpoint layout of the module docstring). The arrays
        are the live ones."""
        arrays = {name: getattr(self, name).flat for name in self._NETS}
        for name in self._OPTS:
            opt = getattr(self, name)
            arrays[f"{name}.m"], arrays[f"{name}.v"] = opt.m, opt.v
        arrays["normalizer.scale"] = self.obs_scale
        meta = {key: getattr(self, key) for key in self._SCALARS}
        meta.update(format_version=3, sac_cfg=asdict(self.sac_cfg))
        arrays["meta"] = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
        return arrays

    @classmethod
    def from_state_dict(cls, arrays) -> "SacAgent":
        """An independent agent from a `state_dict()` mapping (or an open
        checkpoint): arrays are copied, and no replay comes with it.
        A missing, surplus or misshapen array, an array that is not float64,
        and a format other than 3 raise ValueError."""
        if "meta" not in arrays:
            raise ValueError("checkpoint has no 'meta' record")
        meta = json.loads(bytes(arrays["meta"]).decode())
        if meta.get("format_version") != 3:
            raise ValueError(f"unknown checkpoint format {meta.get('format_version')}")
        used = {"meta"}

        def take(key, shape):
            if key not in arrays:
                raise ValueError(f"checkpoint lacks array {key!r}")
            arr = np.array(arrays[key])
            for what, got, want in (("shape", arr.shape, shape),
                                    ("dtype", arr.dtype, np.dtype(np.float64))):
                if got != want:
                    raise ValueError(f"checkpoint array {key!r} has {what} {got}, "
                                     f"expected {want}")
            used.add(key)
            return arr

        try:
            agent = cls.__new__(cls)
            agent.sac_cfg = SacConfig(**meta["sac_cfg"])
            for key in cls._SCALARS:
                setattr(agent, key, meta[key])
            sizes = net_sizes(agent.state_dim, agent.action_dim,
                              agent.sac_cfg.hidden_sizes)
            for name in cls._NETS:
                setattr(agent, name, DenseNet.from_flat(
                    sizes[name], take(name, (param_count(sizes[name]),))))
            for name in cls._OPTS:
                shape = getattr(agent, name[:-len("_opt")]).flat.shape
                opt = Adam(0, lr=agent.sac_cfg.learning_rate)
                opt.t = agent.update_count  # each update steps every optimizer once
                opt.m, opt.v = take(f"{name}.m", shape), take(f"{name}.v", shape)
                setattr(agent, name, opt)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"checkpoint meta is incomplete: {exc!r}") from exc
        agent.obs_scale = take("normalizer.scale", (agent.state_dim,))
        surplus = sorted(set(arrays) - used)
        if surplus:
            raise ValueError(f"checkpoint has unexpected arrays {surplus}")
        return agent

    def save(self, path) -> None:
        np.savez(path, **self.state_dict())

    @classmethod
    def load(cls, path) -> "SacAgent":
        with np.load(path) as data:
            return cls.from_state_dict(data)
