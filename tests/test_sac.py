import json
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from lyaq.config import get_profile
from lyaq.env import (ARRIVAL_BLOCK, ARRIVAL_WINDOW, Action, EdgeCloudEnv,
                      StateVector, observation_scale)
from lyaq.harness import train
from lyaq.nets import DenseNet
from lyaq.sac import (FLUSH_FLOOR, LOG_2PI, LOG_STD_MAX, LOG_STD_MIN,
                      TARGET_SMOOTHING, ReplayBuffer, SacAgent, SacConfig,
                      actor_loss_and_grads, critic_loss_and_grads,
                      dual_softmax, flush_tiny, gaussian_logp, squashed_sample)
from lyaq.traffic import sample_arrivals
from reference_dynamics import (actual_cpu_use, compute_departure, compute_offload,
                                queue_update)
from test_nets import (reference_adam_step, reference_backward,
                       reference_forward, reference_forward_cache,
                       reference_soft_update)

TOY = SacConfig(hidden_sizes=(8, 8), batch_size=4, buffer_capacity=64)
DEEP = SacConfig(hidden_sizes=(24, 16, 12), batch_size=32, buffer_capacity=64)


# The squash as it was when it returned everything any caller read, frozen
# as the bit-for-bit reference of the sampler, the critic target and the
# actor loss: the softmax as a loop over the two halves, the log-std clip,
# the mask of the log-std entries inside the clip and the Gaussian
# log-density, written out.
def reference_dual_softmax(z):
    out = np.empty_like(z)
    half = z.shape[-1] // 2
    for sl in (np.s_[..., :half], np.s_[..., half:]):
        e = np.exp(z[sl] - z[sl].max(axis=-1, keepdims=True))
        out[sl] = e / e.sum(axis=-1, keepdims=True)
    return out


def reference_squashed_sample(out, eps):
    half = out.shape[-1] // 2
    mu, raw = out[..., :half], out[..., half:]
    log_std = np.clip(raw, LOG_STD_MIN, LOG_STD_MAX)
    clip_mask = (raw > LOG_STD_MIN) & (raw < LOG_STD_MAX)
    action = reference_dual_softmax(mu + np.exp(log_std) * eps)
    logp = np.sum(-0.5 * eps ** 2 - log_std - 0.5 * LOG_2PI, axis=-1)
    return action, logp, log_std, clip_mask


@pytest.fixture
def cfg():
    return get_profile("desk")


@pytest.fixture
def agent(cfg):
    return SacAgent(cfg, TOY, rng=np.random.default_rng(0))


class TestReplayBuffer:
    def test_ring_eviction(self):
        buf = ReplayBuffer(3, 2, 1)
        for k in range(4):
            buf.push([float(k), 0.0], [0.5], float(k), [float(k), 1.0])
        assert buf.size == 3
        # slot 0 now holds the newest record; the oldest (k=0) is gone
        assert 0.0 not in buf.rewards[: buf.size].tolist() or \
            buf.rewards[0] == 3.0
        assert buf.states[0, 0] == 3.0

    def test_sample_without_replacement(self):
        buf = ReplayBuffer(8, 1, 1)
        for k in range(3):
            buf.push([float(k)], [0.0], 0.0, [0.0])
        s, _, _, _ = buf.sample(2, np.random.default_rng(0))
        assert s[0, 0] != s[1, 0]

    def test_insufficient_samples(self):
        buf = ReplayBuffer(8, 1, 1)
        with pytest.raises(ValueError, match="insufficient"):
            buf.sample(1, np.random.default_rng(0))

    def test_dimension_mismatch(self):
        buf = ReplayBuffer(8, 2, 1)
        with pytest.raises(ValueError, match="dimension"):
            buf.push([1.0], [0.0], 0.0, [1.0, 2.0])

    def test_stores_float32_with_tiny_entries_flushed(self):
        # 1e-40 would round to a float32 subnormal, 1e-20 lies below the floor
        buf = ReplayBuffer(8, 2, 4)
        floor2 = float(np.float32(2 * FLUSH_FLOOR))
        buf.push([0.25, 1e-40], [1e-40, 1e-20, 2 * FLUSH_FLOOR, 1.0], 1e-40,
                 [-1e-20, 2.0])
        s, a, r, s2 = buf.sample(1, np.random.default_rng(0))
        assert [x.dtype for x in (s, a, r, s2)] == [np.dtype(np.float32)] * 4
        assert s.tolist() == [[0.25, 0.0]] and s2.tolist() == [[0.0, 2.0]]
        assert a.tolist() == [[0.0, 0.0, floor2, 1.0]]
        assert r.tolist() == [np.float32(1e-40)]  # no net reads a reward


def test_flush_tiny_zeroes_only_entries_below_the_floor():
    for dtype in (np.float32, np.float64):
        below = np.nextafter(dtype(FLUSH_FLOOR), dtype(0.0))
        x = np.array([0.0, below, FLUSH_FLOOR, 0.5, -below, -FLUSH_FLOOR], dtype=dtype)
        assert flush_tiny(x) is x
        assert x.tolist() == [0.0, 0.0, FLUSH_FLOOR, 0.5, 0.0, -FLUSH_FLOOR]
    # a product of two entries at the floor is still a normal float32
    assert np.float32(FLUSH_FLOOR) ** 2 == np.finfo(np.float32).tiny


def retired_normalizer_scale(cfg):
    """The scale of the retired `StateNormalizer.from_config`, verbatim."""
    m = cfg.mean_bits_per_slot
    m = np.where(m > 0, m, 1.0)
    w = cfg.workloads
    return np.concatenate([
        m,                                  # backlog + arrival
        m,                                  # arrival
        np.full(cfg.n_queues, w.max()),     # workloads
        np.ones(cfg.n_queues),              # actual CPU use
        [cfg.edge_clock],                   # offloaded cycles
        m,                                  # windowed arrival average
    ])


class TestObservation:
    @pytest.mark.parametrize("profile", ["paper", "paper8", "desk"])
    def test_scale_is_the_retired_normalizer_scale(self, profile):
        cfg = get_profile(profile)
        want = retired_normalizer_scale(cfg).tobytes()
        assert observation_scale(cfg).tobytes() == want
        assert SacAgent(cfg, TOY).obs_scale.tobytes() == want

    def test_zero_maps_to_zero(self, agent, cfg):
        state = as_state(np.zeros(cfg.state_dim), cfg.n_queues)
        assert np.all(agent.observe(state) == 0.0)

    def test_mean_arrival_maps_to_one(self, agent, cfg):
        n = cfg.n_queues
        x = np.zeros(cfg.state_dim)
        x[n:2 * n] = cfg.mean_bits_per_slot  # the arrival block
        assert np.allclose(agent.observe(as_state(x, n))[n:2 * n], 1.0)

    def test_round_trip_bijection(self, agent, cfg):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.uniform(0, 1e7, cfg.state_dim)
            back = agent.observe(as_state(x, cfg.n_queues)) * agent.obs_scale
            assert np.max(np.abs(back - x) / np.maximum(np.abs(x), 1e-12)) < 1e-12

    @pytest.mark.parametrize("profile", ["paper", "paper8", "desk"])
    def test_observe_is_the_retired_path_bit_for_bit(self, profile):
        # the retired path: the arrival-block layout written out block by
        # block, divided by the retired scale, each block rebuilt from the
        # reference primitives: the arrivals of two same-seeded blocks,
        # q(t+1) = queue_update, the previous slot's actual_cpu_use and
        # compute_offload, and a window rolled down one row per slot
        cfg = get_profile(profile)
        n = cfg.n_queues
        agent = SacAgent(cfg, TOY)
        scale = retired_normalizer_scale(cfg)
        rng = np.random.default_rng(9)
        arrivals = np.concatenate([sample_arrivals(cfg.apps, ARRIVAL_BLOCK, rng)
                                   for _ in range(2)])
        action = Action.uniform(n)
        env = EdgeCloudEnv(cfg, rng=np.random.default_rng(9))
        state = env.reset()
        q, cpu_use, cycles = np.zeros(n), np.zeros(n), 0.0
        window = np.zeros((ARRIVAL_WINDOW, n))  # newest first
        for t in range(300):
            a = arrivals[t]
            window = np.roll(window, 1, axis=0)
            window[0] = a
            # the rows in the order the environment sums them: row k holds
            # the slot t' = k mod ARRIVAL_WINDOW
            summed = window[(t - np.arange(ARRIVAL_WINDOW)) % ARRIVAL_WINDOW]
            flat = np.concatenate([q + a, a, cfg.workloads, cpu_use, [cycles],
                                   summed.sum(axis=0) / ARRIVAL_WINDOW])
            assert agent.observe(state).tobytes() == (flat / scale).tobytes()
            state = env.step(action).next_state
            cpu_use = actual_cpu_use(q + a, action, cfg)
            cycles = float(np.dot(cfg.workloads, compute_offload(q + a, action, cfg)))
            q = queue_update(q, a, compute_departure(action, cfg))


class TestPolicyOutputs:
    def test_zero_weights_give_uniform_action(self, cfg):
        agent = SacAgent(cfg, TOY, rng=np.random.default_rng(0))
        agent.policy.flat[:] = 0.0
        flat = agent.policy_sample(np.zeros(cfg.state_dim))
        assert np.allclose(flat, 1.0 / (cfg.n_queues + 1))

    def test_every_sample_is_on_both_simplexes(self, agent, cfg):
        rng = np.random.default_rng(2)
        for _ in range(300):
            x = rng.normal(0, 10 ** rng.uniform(-2, 3), cfg.state_dim)
            flat = agent.policy_sample(x, rng=rng)
            act = Action.from_flat(flat)
            assert abs(act.alpha.sum() - 1.0) < 1e-9
            assert abs(act.beta.sum() - 1.0) < 1e-9
            assert act.alpha.min() >= 0.0 and act.beta.min() >= 0.0

    def test_deterministic_mode_is_repeatable(self, agent, cfg):
        x = np.random.default_rng(3).normal(size=cfg.state_dim)
        a1 = agent.policy_sample(x)
        a2 = agent.policy_sample(x)
        assert np.array_equal(a1, a2)

    def test_dual_softmax_halves(self):
        z = np.array([[0.0, 0.0, 5.0, -5.0, 0.0, 0.0]])
        out = dual_softmax(z)
        assert out[0, :3].sum() == pytest.approx(1.0)
        assert out[0, 3:].sum() == pytest.approx(1.0)
        assert out[0, 2] > 0.9


    def test_dual_softmax_matches_a_per_half_loop(self):
        # float64 and float32, bit for bit; logits of magnitude about 1e3
        # put most shifted logits of a float32 batch below -87.3, where exp
        # underflows
        rng = np.random.default_rng(26)
        for dtype, scale in product((np.float64, np.float32), (10.0, 1e3)):
            for shape in [(6,), (1, 18), (256, 6), (3, 4, 10), (256, 18)]:
                z = rng.normal(0.0, scale, shape).astype(dtype)
                out, ref = dual_softmax(z), reference_dual_softmax(z)
                assert out.dtype == dtype and out.base is None  # owns its data
                assert out.tobytes() == ref.tobytes(), (scale, shape)

    @pytest.mark.parametrize("hidden", [(), (0, 64), (-4,), (64, 0), (2.5,), (64.0,),
                                        ("64",), 64])
    def test_bad_hidden_sizes_are_refused(self, cfg, hidden):
        with pytest.raises(ValueError, match="hidden_sizes must be one or more "
                                             "positive integers"):
            SacAgent(cfg, SacConfig(hidden_sizes=hidden))
        # refused when the config is built, with no agent
        with pytest.raises(ValueError, match="hidden_sizes must be one or more "
                                             "positive integers"):
            SacConfig(hidden_sizes=hidden)

    @pytest.mark.parametrize("zeta", [float("nan"), float("inf"), -5.0, -1e-300])
    def test_a_bad_entropy_weight_is_refused_when_the_config_is_built(self, zeta):
        # refused up front, not as a non-finite loss at the first update
        with pytest.raises(ValueError, match="entropy_weight must be finite "
                                             "and >= 0, got"):
            SacConfig(entropy_weight=zeta)
        with pytest.raises(ValueError, match="entropy_weight must be finite"):
            replace(TOY, entropy_weight=zeta)
        assert replace(TOY, entropy_weight=0.0).entropy_weight == 0.0


class TestOneRowForward:
    """`DenseNet.forward` runs a (1, d) input as its row. The frozen 2-D
    loop, test_nets.reference_forward (the same products, bias adds and
    rectifier as the (1, d) matrix pass), is its independent reference."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("profile", ["desk", "paper8"])
    def test_matches_the_two_d_loop_bit_for_bit(self, profile, dtype):
        cfg = get_profile(profile)
        agent = SacAgent(cfg, SacConfig(hidden_sizes=(64, 64)),
                         rng=np.random.default_rng(cfg.n_queues))
        # outputs across the softmax's and the log-std clip's regimes
        agent.policy.params[-2][:] *= 300.0
        rng = np.random.default_rng(17)
        for name in ("policy", "q1"):
            master = getattr(agent, name)
            net = DenseNet.from_flat(master.sizes, master.flat.astype(dtype))
            for _ in range(300):
                x = rng.normal(0.0, 1.0, (1, net.sizes[0])) * 10.0 ** rng.uniform(-2, 2)
                x = flush_tiny(x.astype(dtype))
                got, want = net.forward(x), reference_forward(net, x)
                assert got.shape == (1, net.sizes[-1]) and got.dtype == dtype
                assert got.tobytes() == want.tobytes()


# The deterministic act before it squashed only the mean, kept verbatim
# (names aside, the frozen 2-D forward loop for the agent's own and the
# frozen squash for squashed_sample) as the bit-for-bit reference: the full
# squash at zero noise, copied into the Action through Action.from_flat.
# It returns the action and its log-density, as the sampler did.
def reference_policy_sample(self, state_norm, deterministic=False, rng=None):
    out = reference_forward(self.policy,
                            np.asarray(state_norm, dtype=float)[None, :])[0]
    if deterministic:
        eps = np.zeros(self.action_dim)
    elif rng is None:
        raise ValueError("stochastic sampling needs an rng")
    else:
        eps = rng.standard_normal(self.action_dim)
    action, logp, _, _ = reference_squashed_sample(out, eps)
    return action, float(logp)


def reference_act(self, state):
    x = state.observation / self.obs_scale
    flat, _ = reference_policy_sample(self, x, deterministic=True)
    return Action.from_flat(flat)


def as_state(x, n):
    """The StateVector whose observation (second block: arrivals) is x."""
    return StateVector(queue=x[:n] - x[n:2 * n], arrival=x[n:2 * n], observation=x)


class TestDeterministicAct:
    @pytest.mark.parametrize("hidden", [(8, 8), (64, 64), (256, 256)])
    @pytest.mark.parametrize("profile", ["desk", "paper", "paper8"])
    def test_matches_the_reference_bit_for_bit(self, profile, hidden):
        cfg = get_profile(profile)
        agent = SacAgent(cfg, SacConfig(hidden_sizes=hidden, seed=3))
        # a policy whose outputs span the softmax's and the log-std clip's
        # regimes, not only the near-uniform start
        agent.policy.params[-2][:] *= 300.0
        rng = np.random.default_rng(hidden[0] + cfg.n_queues)
        n = cfg.n_queues
        for _ in range(2000):
            x = np.abs(rng.normal(0.0, 1.0, cfg.state_dim)) * 10.0 ** rng.uniform(-2, 2)
            flat = agent.policy_sample(x)
            ref, _ = reference_policy_sample(agent, x, deterministic=True)
            assert flat.shape == ref.shape == (cfg.action_dim,)
            assert flat.tobytes() == ref.tobytes()
            state = as_state(x * agent.obs_scale, n)
            action, ref_action = agent.act(state), reference_act(agent, state)
            assert action.alpha.tobytes() == ref_action.alpha.tobytes()
            assert action.beta.tobytes() == ref_action.beta.tobytes()

    def test_stochastic_sample_is_unchanged(self, agent, cfg):
        # the sampled action against the frozen sampler's, and the
        # log-density that sampler returned against gaussian_logp of the
        # same noise and the clipped log-std squashed_sample returns
        x = np.random.default_rng(4).normal(size=cfg.state_dim)
        out = agent.policy.forward(x[None, :])[0]
        for seed in range(20):
            got = agent.policy_sample(x, rng=np.random.default_rng(seed))
            ref, ref_logp = reference_policy_sample(agent, x,
                                                    rng=np.random.default_rng(seed))
            assert got.tobytes() == ref.tobytes()
            eps = np.random.default_rng(seed).standard_normal(cfg.action_dim)
            action, log_std = squashed_sample(out, eps)
            assert action.tobytes() == ref.tobytes()
            assert float(gaussian_logp(eps, log_std)) == ref_logp


class TestGradients:
    """Finite-difference agreement at 1e-4 relative on toy networks."""

    def test_critic_loss_gradients(self):
        rng = np.random.default_rng(4)
        q1 = DenseNet([6, 8, 1], rng)
        q2 = DenseNet([6, 8, 1], rng)
        s = rng.standard_normal((5, 4))
        a = rng.dirichlet(np.ones(2), size=5)
        y = rng.standard_normal((5, 1))

        loss, g1, g2 = critic_loss_and_grads(q1, q2, s, a, y)
        for net, an in ((q1, g1), (q2, g2)):
            flat = net.flat.copy()
            fd = np.zeros_like(flat)
            for i in range(flat.size):
                for sign in (1.0, -1.0):
                    net.flat[:] = flat
                    net.flat[i] += sign * 1e-5
                    fd[i] += sign * critic_loss_and_grads(q1, q2, s, a, y)[0]
            net.flat[:] = flat
            fd /= 2e-5
            denom = np.maximum(np.abs(fd), np.maximum(np.abs(an), 1e-6))
            assert np.max(np.abs(fd - an) / denom) < 1e-4

    def test_actor_loss_gradients(self):
        rng = np.random.default_rng(5)
        state_dim, action_dim = 5, 4
        policy = DenseNet([state_dim, 8, 2 * action_dim], rng)
        q1 = DenseNet([state_dim + action_dim, 8, 1], rng)
        q2 = DenseNet([state_dim + action_dim, 8, 1], rng)
        s = rng.standard_normal((6, state_dim))
        eps = rng.standard_normal((6, action_dim))
        zeta = 0.3

        loss, an = actor_loss_and_grads(policy, q1, q2, s, eps, zeta)
        flat = policy.flat.copy()
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            for sign in (1.0, -1.0):
                policy.flat[:] = flat
                policy.flat[i] += sign * 1e-5
                fd[i] += sign * actor_loss_and_grads(policy, q1, q2, s, eps, zeta)[0]
        policy.flat[:] = flat
        fd /= 2e-5
        denom = np.maximum(np.abs(fd), np.maximum(np.abs(an), 1e-6))
        assert np.max(np.abs(fd - an) / denom) < 1e-4


# ---------------------------------------------------------------------------
# References: the loss functions and `SacAgent.update` as they were before the
# flat parameter buffer, verbatim but for the networks code, which is the
# list-form reference of test_nets.py, and for what running them in float32
# takes: the float32 squash's flush, a min-critic mask in the critics' dtype,
# gradients promoted to float64 before the per-parameter Adam step, and the
# update's float32 copies of the masters. At float64 they are the update as
# it was before its passes ran in float32.


def reference_critic_loss_and_grads(q1, q2, s, a, y):
    x = np.concatenate([s, a], axis=1)
    m = len(x)
    v1, c1 = reference_forward_cache(q1, x)
    v2, c2 = reference_forward_cache(q2, x)
    e1 = v1 - y
    e2 = v2 - y
    loss = float(np.mean(e1 ** 2) + np.mean(e2 ** 2))
    g1, _ = reference_backward(q1, c1, 2.0 * e1 / m)
    g2, _ = reference_backward(q2, c2, 2.0 * e2 / m)
    return loss, g1, g2


def reference_actor_loss_and_grads(policy, q1, q2, s, eps, zeta):
    m = len(s)
    out, cache = reference_forward_cache(policy, s)
    a, logp, log_std, clip_mask = reference_squashed_sample(out, eps)
    if a.dtype == np.float32:
        flush_tiny(a)
    std = np.exp(log_std)

    x = np.concatenate([s, a], axis=1)
    v1, c1 = reference_forward_cache(q1, x)
    v2, c2 = reference_forward_cache(q2, x)
    qmin = np.minimum(v1, v2)[:, 0]
    loss = float(np.mean(zeta * logp - qmin))

    use1 = (v1 <= v2).astype(v1.dtype)
    _, gin1 = reference_backward(q1, c1, -use1 / m)
    _, gin2 = reference_backward(q2, c2, -(1.0 - use1) / m)
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
    grads, _ = reference_backward(policy, cache, np.concatenate([g_mu, g_raw], axis=1))
    return loss, grads


def reference_opt_step(self, name, grads):
    """The per-parameter Adam step of net `name` on its optimizer's moments."""
    net, opt = getattr(self, name), getattr(self, f"{name}_opt")
    grads = [np.asarray(g, dtype=np.float64) for g in grads]
    reference_adam_step(opt, net.params, grads, net.views(opt.m), net.views(opt.v))


def reference_update(self, buffer, rng, dtype=np.float64):
    """At float64 every pass runs on the masters; at float32 on float32
    copies of them, taken where `SacAgent.update` refreshes its working
    copies. The Adam steps and the soft update act on the masters."""
    def work(name):
        net = getattr(self, name)
        if dtype == np.float64:
            return net
        return DenseNet.from_flat(net.sizes, net.flat.astype(dtype))

    cfg = self.sac_cfg
    s, a, r, s2 = buffer.sample(cfg.batch_size, rng)
    m = len(s)
    zeta = cfg.entropy_weight
    policy, q1, q2, q1_target, q2_target = map(work, SacAgent._NETS)

    eps2 = rng.standard_normal((m, self.action_dim)).astype(dtype)
    out2 = reference_forward(policy, s2)
    a2, logp2, _, _ = reference_squashed_sample(out2, eps2)
    if dtype == np.float32:
        flush_tiny(a2)

    x2 = np.concatenate([s2, a2], axis=1)
    q_next = np.minimum(reference_forward(q1_target, x2),
                        reference_forward(q2_target, x2))[:, 0]
    y = (r + cfg.discount * (q_next - zeta * logp2))[:, None]

    closs, g1, g2 = reference_critic_loss_and_grads(q1, q2, s, a, y)
    reference_opt_step(self, "q1", g1)
    reference_opt_step(self, "q2", g2)
    q1, q2 = work("q1"), work("q2")

    eps = rng.standard_normal((m, self.action_dim)).astype(dtype)
    aloss, pgrads = reference_actor_loss_and_grads(policy, q1, q2, s, eps, zeta)
    reference_opt_step(self, "policy", pgrads)

    self.update_count += 1
    reference_soft_update(self.q1_target, self.q1, TARGET_SMOOTHING)
    reference_soft_update(self.q2_target, self.q2, TARGET_SMOOTHING)
    return {"critic_loss": closs, "actor_loss": aloss}


def replay_for(agent) -> ReplayBuffer:
    """An empty replay ring at the agent's configured capacity."""
    return ReplayBuffer(agent.sac_cfg.buffer_capacity, agent.state_dim,
                        agent.action_dim)


def by_parameter(agent, arrays) -> dict:
    """The state dict `arrays` of agent with each net buffer and Adam moment
    split into per-parameter views, keyed as checkpoint format 2 keyed them:
    `<net>.<i>`, `<opt>.m<i>` and `<opt>.v<i>`."""
    out = {key: arrays[key] for key in ("normalizer.scale", "meta")}
    for name in SacAgent._NETS:
        views = getattr(agent, name).views(arrays[name])
        out.update((f"{name}.{i}", p) for i, p in enumerate(views))
    for name in SacAgent._OPTS:
        net = getattr(agent, name.removesuffix("_opt"))
        for key in ("m", "v"):
            views = net.views(arrays[f"{name}.{key}"])
            out.update((f"{name}.{key}{i}", p) for i, p in enumerate(views))
    return out


class TestUpdates:
    def _fill_buffer(self, agent, cfg, n=40) -> ReplayBuffer:
        """A replay ring of n transitions the agent's exploring policy
        collects on a seeded episode."""
        buffer = replay_for(agent)
        rng = np.random.default_rng(6)
        env = EdgeCloudEnv(cfg, rng=np.random.default_rng(1))
        state = env.reset()
        x = agent.observe(state)
        for _ in range(n):
            flat = agent.policy_sample(x, rng=rng)
            outcome = env.step(Action.from_flat(flat))
            x2 = agent.observe(outcome.next_state)
            r = -1e-9 * outcome.next_state.queue.sum()
            buffer.push(x, flat, r, x2)
            x = x2
        return buffer

    def test_update_runs_and_reports_finite_losses(self, agent, cfg):
        buffer = self._fill_buffer(agent, cfg)
        rng = np.random.default_rng(7)
        for _ in range(5):
            losses = agent.update(buffer, rng)
            assert np.isfinite(losses["critic_loss"])
            assert np.isfinite(losses["actor_loss"])

    def test_min_double_q_used_in_targets(self):
        # hand-set critics at constants 3 and 5: the target must use 3
        cfg = get_profile("desk")
        agent = SacAgent(cfg, TOY, rng=np.random.default_rng(8))
        for net, const in ((agent.q1_target, 3.0), (agent.q2_target, 5.0)):
            net.flat[:] = 0.0
            net.params[-1][...] = const
        x = np.zeros((2, cfg.state_dim + cfg.action_dim))
        qmin = np.minimum(agent.q1_target.forward(x), agent.q2_target.forward(x))
        assert np.all(qmin == 3.0)

    def test_degenerate_discount_reduces_target_to_reward(self, cfg):
        sac_cfg = SacConfig(hidden_sizes=(8, 8), batch_size=4,
                            buffer_capacity=64, discount=0.0, entropy_weight=0.0)
        agent = SacAgent(cfg, sac_cfg, rng=np.random.default_rng(9))
        buffer = self._fill_buffer(agent, cfg, n=8)
        s, a, r, s2 = buffer.sample(4, np.random.default_rng(0))
        # with gamma = 0 and zeta = 0 the critic target is exactly r
        y = r[:, None]
        loss0, g1, g2 = critic_loss_and_grads(agent.q1, agent.q2, s, a, y)
        rng = np.random.default_rng(1)
        for _ in range(200):
            agent.update(buffer, rng)
        v1 = agent.q1.forward(np.concatenate([s, a], axis=1))
        assert np.mean((v1 - y) ** 2) < loss0

    def test_critic_converges_to_reward_on_frozen_batch(self, cfg):
        # fixed-point oracle: repeated updates on one stored transition with
        # zeta=0, gamma=0 drive Q toward r
        sac_cfg = SacConfig(hidden_sizes=(16, 16), batch_size=1,
                            buffer_capacity=4, discount=0.0, entropy_weight=0.0,
                            learning_rate=3e-3)
        agent = SacAgent(cfg, sac_cfg, rng=np.random.default_rng(10))
        s = np.full(cfg.state_dim, 0.3)
        a = Action.uniform(cfg.n_queues).as_flat()
        r = -2.5
        buffer = replay_for(agent)
        buffer.push(s, a, r, s)
        rng = np.random.default_rng(11)
        x = np.concatenate([s, a])[None, :]
        gaps = []
        for k in range(1000):
            agent.update(buffer, rng)
            if k % 100 == 99:
                gaps.append(abs(float(agent.q1.forward(x)[0, 0]) - r))
        assert gaps[-1] < 0.05
        assert gaps[-1] < gaps[0]

    def test_target_soft_update_coefficient(self, agent, cfg):
        buffer = self._fill_buffer(agent, cfg)
        rng = np.random.default_rng(12)
        before = agent.q1_target.flat.copy()
        online_prev = agent.q1.flat.copy()
        agent.update(buffer, rng)
        after = agent.q1_target.flat
        online_new = agent.q1.flat
        expect = 0.995 * before + 0.005 * online_new
        assert np.allclose(after, expect, rtol=1e-10)
        assert not np.array_equal(online_prev, online_new)

    def test_update_matches_a_hand_written_step(self, cfg):
        # reference step with the next action squashed inline, every pass on
        # float32 copies of the float64 masters; eps2 is drawn before the
        # actor's eps
        agent = SacAgent(cfg, TOY, rng=np.random.default_rng(24))
        buffer = self._fill_buffer(agent, cfg, n=8)
        ref = SacAgent.from_state_dict(agent.state_dict())
        agent.update(buffer, np.random.default_rng(25))

        def f32(net):
            return DenseNet.from_flat(net.sizes, net.flat.astype(np.float32))

        rng = np.random.default_rng(25)
        s, a, r, s2 = buffer.sample(TOY.batch_size, rng)
        assert {x.dtype for x in (s, a, r, s2)} == {np.dtype(np.float32)}
        n = cfg.action_dim
        out2 = f32(ref.policy).forward(s2)
        eps2 = rng.standard_normal((len(s), n)).astype(np.float32)
        log_std2 = np.clip(out2[:, n:], LOG_STD_MIN, LOG_STD_MAX)
        a2 = flush_tiny(dual_softmax(out2[:, :n] + np.exp(log_std2) * eps2))
        x2 = np.concatenate([s2, a2], axis=1)
        q_next = np.minimum(f32(ref.q1_target).forward(x2),
                            f32(ref.q2_target).forward(x2))[:, 0]
        y = r + TOY.discount * (q_next - TOY.entropy_weight * gaussian_logp(eps2, log_std2))
        _, g1, g2 = critic_loss_and_grads(f32(ref.q1), f32(ref.q2), s, a, y[:, None])
        ref.q1_opt.step(ref.q1.flat, g1)
        ref.q2_opt.step(ref.q2.flat, g2)
        eps = rng.standard_normal((len(s), n)).astype(np.float32)
        _, pg = actor_loss_and_grads(f32(ref.policy), f32(ref.q1), f32(ref.q2), s,
                                     eps, TOY.entropy_weight)
        assert g1.dtype == g2.dtype == pg.dtype == np.float32
        ref.policy_opt.step(ref.policy.flat, pg)
        for name in ("policy", "q1", "q2"):
            assert getattr(agent, name).flat.dtype == np.float64
            assert np.array_equal(getattr(agent, name).flat,
                                  getattr(ref, name).flat), name

    @pytest.mark.parametrize("sac_cfg, saturate", [
        pytest.param(TOY, False, id="sac_cfg0"),
        pytest.param(DEEP, False, id="sac_cfg1"),
        pytest.param(TOY, True, id="sac_cfg0-saturated"),
        pytest.param(DEEP, True, id="sac_cfg1-saturated")])
    def test_update_matches_the_list_form_reference(self, cfg, sac_cfg, saturate):
        # 50 updates through the flat buffers against a twin stepped by the
        # list-form references run in float32: every array, moment and count
        # bit for bit. At the initial weights the update's shifted logits
        # stay above -6. Saturated, the policy's last layer is scaled x300
        # and its mean biases spread over each half from 0 to -200, so its
        # outputs reach the log-std clip, and most shifted logits of the
        # float32 softmaxes fall below -87.3, where exp underflows.
        agent = SacAgent(cfg, sac_cfg, rng=np.random.default_rng(27))
        twin = SacAgent(cfg, sac_cfg, rng=np.random.default_rng(27))
        n = cfg.action_dim
        if saturate:
            for net in (agent.policy, twin.policy):
                net.params[-2][:] *= 300.0
                net.params[-1][:n] = np.tile(np.linspace(0.0, -200.0, n // 2), 2)
        buffer = self._fill_buffer(agent, cfg)
        twin_buffer = self._fill_buffer(twin, cfg)
        rng, twin_rng = np.random.default_rng(28), np.random.default_rng(28)
        for _ in range(50):
            assert (agent.update(buffer, rng)
                    == reference_update(twin, twin_buffer, twin_rng, np.float32))
        got, want = agent.state_dict(), twin.state_dict()
        assert got.keys() == want.keys()
        for key in got:
            assert np.array_equal(got[key], want[key]), key
        for name in SacAgent._OPTS:
            assert getattr(agent, name).t == agent.update_count == 50, name
            assert getattr(twin, name).t == twin.update_count == 50, name

    def test_training_is_bit_reproducible(self, cfg):
        outs = []
        for _ in range(2):
            agent = SacAgent(cfg, TOY, rng=np.random.default_rng(3))
            buffer = self._fill_buffer(agent, cfg, n=20)
            rng = np.random.default_rng(4)
            for _ in range(10):
                agent.update(buffer, rng)
            outs.append(agent.policy.flat)
        assert np.array_equal(outs[0], outs[1])


class TestFloat32Update:
    """The update's passes run in float32 on working copies of float64
    masters: close to the float64 update, free of subnormals, and holding no
    state a checkpoint loses."""

    @pytest.mark.parametrize("hidden", [(8, 8), (64, 64)])
    @pytest.mark.parametrize("profile", ["desk", "paper8"])
    def test_one_update_tracks_the_float64_reference(self, profile, hidden):
        # from the same warmed-up state (20 updates, so Adam's moments are
        # not at their first, sign-like step), one float32 update against the
        # float64 reference: each loss within 1e-5 relative, and each master
        # array's change within 1e-4 of the reference change in norm (seen:
        # at most 1.5e-7 and 7.5e-6)
        cfg = get_profile(profile)
        sac_cfg = SacConfig(hidden_sizes=hidden, batch_size=32, buffer_capacity=256)
        agent = SacAgent(cfg, sac_cfg, rng=np.random.default_rng(40))
        buffer = TestUpdates()._fill_buffer(agent, cfg, n=100)
        rng = np.random.default_rng(41)
        for _ in range(20):
            agent.update(buffer, rng)
        twin = SacAgent.from_state_dict(agent.state_dict())
        before = {key: arr.copy()
                  for key, arr in by_parameter(agent, agent.state_dict()).items()}

        losses = agent.update(buffer, np.random.default_rng(42))
        ref_losses = reference_update(twin, buffer, np.random.default_rng(42))
        for key, ref in ref_losses.items():
            assert abs(losses[key] - ref) <= 1e-5 * abs(ref), key
        got = by_parameter(agent, agent.state_dict())
        want = by_parameter(twin, twin.state_dict())
        assert got.keys() == want.keys()
        for key in got.keys() - {"meta", "normalizer.scale"}:
            assert got[key].dtype == np.float64, key
            change, ref_change = got[key] - before[key], want[key] - before[key]
            assert np.linalg.norm(ref_change) > 0.0, key
            assert (np.linalg.norm(change - ref_change)
                    <= 1e-4 * np.linalg.norm(ref_change)), key
        assert bytes(got["meta"]) == bytes(want["meta"])

    def test_no_subnormal_enters_a_float32_pass(self, monkeypatch):
        # a seeded desk training run: no float32 array handed to a net holds
        # a subnormal, neither the input of a forward pass nor the cached
        # activations and the gradient of a backward or an input_grad.
        # Without the flush this run hands them about 2.4e5.
        tiny = np.finfo(np.float32).tiny
        seen = {"arrays": 0, "subnormals": 0}

        def counting(method):
            def wrapped(net, *args):  # (x,) or (acts, grad_out)
                for x in (x for arg in args
                          for x in (arg if isinstance(arg, list) else [arg])):
                    if x.dtype == np.float32:
                        seen["arrays"] += 1
                        seen["subnormals"] += int(np.count_nonzero(
                            (x != 0.0) & (np.abs(x) < tiny)))
                return method(net, *args)
            return wrapped

        for name in ("forward", "forward_cache", "backward", "input_grad"):
            monkeypatch.setattr(DenseNet, name, counting(getattr(DenseNet, name)))
        cfg = replace(get_profile("desk"), episode_length=100)
        train(cfg, SacConfig(hidden_sizes=(32, 32)), 800, seed=0, reward_kind="diff")
        # 800 updates, each with 3 forward and 5 forward_cache inputs, and
        # 5 backward or input_grad passes of 4 cached arrays and a gradient
        assert seen["arrays"] == 800 * (3 + 5 + 5 * 5)
        assert seen["subnormals"] == 0

    def test_working_copies_are_derived_state(self, cfg):
        # a few updates, a round trip through state_dict, then more updates
        # on both agents from the same replay contents and stream: every
        # master array stays bit-identical, so the float32 copies carry
        # nothing a checkpoint drops
        sac_cfg = SacConfig(hidden_sizes=(16, 16), batch_size=16, buffer_capacity=128)
        agent = SacAgent(cfg, sac_cfg, rng=np.random.default_rng(31))
        buffer = TestUpdates()._fill_buffer(agent, cfg, n=64)
        rng = np.random.default_rng(32)
        for _ in range(5):
            agent.update(buffer, rng)
        arrays = agent.state_dict()
        assert all(arr.dtype != np.float32 for arr in arrays.values())
        reload = SacAgent.from_state_dict(arrays)
        rng, reload_rng = np.random.default_rng(33), np.random.default_rng(33)
        for _ in range(10):
            assert agent.update(buffer, rng) == reload.update(buffer, reload_rng)
        got, want = agent.state_dict(), reload.state_dict()
        for key in got:
            assert got[key].tobytes() == want[key].tobytes(), key


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path, cfg):
        agent = SacAgent(cfg, TOY, rng=np.random.default_rng(13))
        env = EdgeCloudEnv(cfg, rng=np.random.default_rng(2))
        state = env.reset()
        rng = np.random.default_rng(14)
        buffer = replay_for(agent)
        x = agent.observe(state)
        for _ in range(10):
            flat = agent.policy_sample(x, rng=rng)
            outcome = env.step(Action.from_flat(flat))
            x2 = agent.observe(outcome.next_state)
            buffer.push(x, flat, -1.0, x2)
            x = x2
        for _ in range(3):
            agent.update(buffer, rng)
        agent.reward_scale = 0.125

        path = tmp_path / "agent.npz"
        agent.save(path)
        loaded = SacAgent.load(path)

        for name in SacAgent._NETS:
            mine = getattr(agent, name)
            theirs = getattr(loaded, name)
            assert mine.sizes == theirs.sizes
            for p, q in zip(mine.params, theirs.params):
                assert np.array_equal(p, q)
        for name in SacAgent._OPTS:
            o1, o2 = getattr(agent, name), getattr(loaded, name)
            assert o1.t == o2.t
            assert np.array_equal(o1.m, o2.m)
            assert np.array_equal(o1.v, o2.v)
        assert loaded.sac_cfg == agent.sac_cfg
        assert loaded.reward_scale == agent.reward_scale
        assert loaded.update_count == agent.update_count
        assert np.array_equal(loaded.obs_scale, agent.obs_scale)

        # saving the loaded agent reproduces identical network state
        path2 = tmp_path / "agent2.npz"
        loaded.save(path2)
        with np.load(path) as d1, np.load(path2) as d2:
            for key in d1.files:
                if key == "meta":
                    continue
                assert np.array_equal(d1[key], d2[key]), key

    def test_weights_alias_the_buffers_the_optimizers_step(self, tmp_path, cfg):
        # a fresh, a cloned and a loaded agent: every parameter is a view of
        # its net's flat buffer, and one update moves what state_dict returns
        fresh = SacAgent(cfg, TOY, rng=np.random.default_rng(29))
        fresh.save(tmp_path / "a.npz")
        agents = [fresh, SacAgent.from_state_dict(fresh.state_dict()),
                  SacAgent.load(tmp_path / "a.npz")]
        for agent in agents:
            for name in SacAgent._NETS:
                net = getattr(agent, name)
                assert all(np.shares_memory(p, net.flat) for p in net.params), name
            assert not np.shares_memory(agent.q1_target.flat, agent.q1.flat)
        for n, agent in enumerate(agents):
            rng = np.random.default_rng(30)
            buffer = replay_for(agent)
            for _ in range(8):
                buffer.push(rng.random(cfg.state_dim), rng.random(cfg.action_dim),
                            -rng.random(), rng.random(cfg.state_dim))
            live = by_parameter(agent, agent.state_dict())
            before = {key: arr.copy() for key, arr in live.items()}
            x = rng.random((3, cfg.state_dim))
            out = agent.policy.forward(x)
            agent.update(buffer, rng)
            for key, arr in live.items():
                if key not in ("meta", "normalizer.scale"):
                    assert not np.array_equal(arr, before[key]), (n, key)
            assert not np.array_equal(agent.policy.forward(x), out)

    def test_loaded_agent_acts_identically(self, tmp_path, cfg):
        agent = SacAgent(cfg, TOY, rng=np.random.default_rng(15))
        path = tmp_path / "a.npz"
        agent.save(path)
        loaded = SacAgent.load(path)
        x = np.random.default_rng(16).normal(size=cfg.state_dim)
        a1 = agent.policy_sample(x)
        a2 = loaded.policy_sample(x)
        assert np.array_equal(a1, a2)

    def test_copy_is_independent_with_an_empty_buffer(self, cfg):
        agent = SacAgent(cfg, TOY, rng=np.random.default_rng(17))
        rng = np.random.default_rng(18)
        buffer = replay_for(agent)
        for _ in range(8):
            buffer.push(rng.random(cfg.state_dim), rng.random(cfg.action_dim),
                        -rng.random(), rng.random(cfg.state_dim))
        copy = SacAgent.from_state_dict(agent.state_dict())
        before = copy.policy.flat.copy()
        agent.update(buffer, rng)
        assert np.array_equal(copy.policy.flat, before)
        assert not np.array_equal(agent.policy.flat, before)
        # the replay is the trainer's: neither agent holds one
        assert not hasattr(copy, "buffer") and not hasattr(agent, "buffer")
        assert buffer.size == 8

    def test_meta_with_a_buffer_record_still_loads(self, cfg):
        # checkpoints of earlier versions carry a "buffer" record in meta
        agent = SacAgent(cfg, TOY, rng=np.random.default_rng(19))
        arrays = agent.state_dict()
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta["buffer"] = {"size": 40, "cursor": 40}
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        loaded = SacAgent.from_state_dict(arrays)
        assert np.array_equal(loaded.q2.flat, agent.q2.flat)

    def test_an_unknown_format_version_is_refused_by_name(self, cfg):
        arrays = SacAgent(cfg, TOY, rng=np.random.default_rng(24)).state_dict()
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta["format_version"] = 4
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        with pytest.raises(ValueError, match="^unknown checkpoint format 4$"):
            SacAgent.from_state_dict(arrays)

    @pytest.mark.parametrize("version", [1, 2])
    def test_an_earlier_format_is_refused_by_name(self, tmp_path, cfg, version):
        # the per-parameter layout, with the settings both formats saved in
        # meta and the layer widths, Adam step counts and observation kind
        # that format 1 saved as well
        agent = SacAgent(cfg, TOY, rng=np.random.default_rng(24))
        arrays = by_parameter(agent, agent.state_dict())
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta["format_version"] = version
        meta["sac_cfg"].update(target_smoothing=0.005, log_std_min=-5.0, log_std_max=2.0)
        if version == 1:
            meta.update(state_aux="arrival",
                        net_sizes={name: list(getattr(agent, name).sizes)
                                   for name in SacAgent._NETS},
                        opt_steps={name: 0 for name in SacAgent._OPTS})
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        assert len(arrays) == 68
        np.savez(tmp_path / "old.npz", **arrays)
        with pytest.raises(ValueError, match=f"^unknown checkpoint format {version}$"):
            SacAgent.load(tmp_path / "old.npz")

    @pytest.mark.parametrize("sac_cfg", [TOY, DEEP], ids=["2-hidden", "3-hidden"])
    def test_a_checkpoint_holds_one_array_per_buffer(self, tmp_path, cfg, sac_cfg):
        SacAgent(cfg, sac_cfg, rng=np.random.default_rng(24)).save(tmp_path / "a.npz")
        with np.load(tmp_path / "a.npz") as data:
            assert sorted(data.files) == sorted([
                "policy", "q1", "q2", "q1_target", "q2_target",
                "policy_opt.m", "policy_opt.v", "q1_opt.m", "q1_opt.v",
                "q2_opt.m", "q2_opt.v", "normalizer.scale", "meta"])

    def test_meta_with_an_unknown_setting_fails_to_load(self, cfg):
        # gradient_steps is a setting that checkpoints of earlier versions hold
        for key in ("gradient_clip", "gradient_steps"):
            arrays = SacAgent(cfg, TOY, rng=np.random.default_rng(23)).state_dict()
            meta = json.loads(bytes(arrays["meta"]).decode())
            meta["sac_cfg"][key] = 1.0
            arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
            with pytest.raises(ValueError, match=key):
                SacAgent.from_state_dict(arrays)

    @pytest.mark.parametrize("hidden", [[8, 0], [], [8.5, 8], 64])
    def test_meta_with_bad_hidden_sizes_is_refused_by_name(self, cfg, hidden):
        arrays = SacAgent(cfg, TOY, rng=np.random.default_rng(25)).state_dict()
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta["sac_cfg"]["hidden_sizes"] = hidden
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        with pytest.raises(ValueError, match="hidden_sizes must be one or more "
                                             "positive integers"):
            SacAgent.from_state_dict(arrays)

    @pytest.mark.parametrize("key", ["q1", "policy_opt.v", "normalizer.scale"])
    def test_missing_array_is_named(self, cfg, key):
        arrays = SacAgent(cfg, TOY, rng=np.random.default_rng(20)).state_dict()
        del arrays[key]
        with pytest.raises(ValueError, match=f"lacks array '{key}'"):
            SacAgent.from_state_dict(arrays)

    def test_misshapen_array_is_named(self, cfg):
        arrays = SacAgent(cfg, TOY, rng=np.random.default_rng(21)).state_dict()
        arrays["q2_target"] = np.zeros((8, 9))
        with pytest.raises(ValueError, match=r"'q2_target' has shape \(8, 9\), "
                                             r"expected \(225,\)"):
            SacAgent.from_state_dict(arrays)

    @pytest.mark.parametrize("key,dtype", [("q1", np.float32), ("policy_opt.m", np.int64)])
    def test_an_array_of_another_dtype_is_named(self, cfg, key, dtype):
        # the right shape is not enough: a float32 master or integer Adam
        # moments would load and break the float64 masters
        arrays = SacAgent(cfg, TOY, rng=np.random.default_rng(24)).state_dict()
        arrays[key] = arrays[key].astype(dtype)
        with pytest.raises(ValueError, match=f"checkpoint array '{key}' has dtype "
                                             f"{np.dtype(dtype)}, expected float64"):
            SacAgent.from_state_dict(arrays)

    def test_surplus_array_is_named(self, cfg):
        arrays = SacAgent(cfg, TOY, rng=np.random.default_rng(22)).state_dict()
        arrays["q1.0"] = np.zeros(1)
        with pytest.raises(ValueError, match=r"unexpected arrays \['q1.0'\]"):
            SacAgent.from_state_dict(arrays)

    def test_missing_meta_fails_to_load(self, tmp_path, cfg):
        arrays = SacAgent(cfg, TOY, rng=np.random.default_rng(23)).state_dict()
        del arrays["meta"]
        np.savez(tmp_path / "a.npz", **arrays)
        with pytest.raises(ValueError, match="no 'meta'"):
            SacAgent.load(tmp_path / "a.npz")

    def test_incomplete_meta_fails_to_load(self, cfg):
        arrays = SacAgent(cfg, TOY, rng=np.random.default_rng(24)).state_dict()
        meta = json.loads(bytes(arrays["meta"]).decode())
        del meta["update_count"]
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        with pytest.raises(ValueError, match="meta is incomplete.*update_count"):
            SacAgent.from_state_dict(arrays)
