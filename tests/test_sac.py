import json

import numpy as np
import pytest

from lyaq.config import desk_config
from lyaq.env import Action, EdgeCloudEnv
from lyaq.nets import DenseNet
from lyaq.sac import (ReplayBuffer, SacAgent, SacConfig, StateNormalizer,
                      actor_loss_and_grads, critic_loss_and_grads,
                      dual_softmax, gaussian_logp)

TOY = SacConfig(hidden_sizes=(8, 8), batch_size=4, buffer_capacity=64)


@pytest.fixture
def cfg():
    return desk_config()


@pytest.fixture
def agent(cfg):
    return SacAgent(cfg, TOY, rng=np.random.default_rng(0))


class TestReplayBuffer:
    def test_ring_eviction(self):
        buf = ReplayBuffer(3, 2, 1)
        for k in range(4):
            buf.push([float(k), 0.0], [0.5], float(k), [float(k), 1.0])
        assert len(buf) == 3
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


class TestNormalizer:
    def test_zero_maps_to_zero(self, cfg):
        norm = StateNormalizer.from_config(cfg)
        assert np.all(norm.normalize(np.zeros(cfg.state_dim)) == 0.0)

    def test_mean_arrival_maps_to_one(self, cfg):
        norm = StateNormalizer.from_config(cfg)
        n = cfg.n_queues
        x = np.zeros(cfg.state_dim)
        x[n:2 * n] = cfg.mean_bits_per_slot  # the arrival block
        assert np.allclose(norm.normalize(x)[n:2 * n], 1.0)

    def test_round_trip_bijection(self, cfg):
        norm = StateNormalizer.from_config(cfg)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.uniform(0, 1e7, cfg.state_dim)
            back = norm.denormalize(norm.normalize(x))
            assert np.max(np.abs(back - x) / np.maximum(np.abs(x), 1e-12)) < 1e-12


class TestPolicyOutputs:
    def test_zero_weights_give_uniform_action(self, cfg):
        agent = SacAgent(cfg, TOY, rng=np.random.default_rng(0))
        agent.policy.set_flat(np.zeros(agent.policy.get_flat().size))
        flat, _ = agent.policy_sample(np.zeros(cfg.state_dim), deterministic=True)
        assert np.allclose(flat, 1.0 / (cfg.n_queues + 1))

    def test_every_sample_is_on_both_simplexes(self, agent, cfg):
        rng = np.random.default_rng(2)
        for _ in range(300):
            x = rng.normal(0, 10 ** rng.uniform(-2, 3), cfg.state_dim)
            flat, _ = agent.policy_sample(x, rng=rng)
            act = Action.from_flat(flat)
            assert abs(act.alpha.sum() - 1.0) < 1e-9
            assert abs(act.beta.sum() - 1.0) < 1e-9
            assert act.alpha.min() >= 0.0 and act.beta.min() >= 0.0

    def test_deterministic_mode_is_repeatable(self, agent, cfg):
        x = np.random.default_rng(3).normal(size=cfg.state_dim)
        a1, _ = agent.policy_sample(x, deterministic=True)
        a2, _ = agent.policy_sample(x, deterministic=True)
        assert np.array_equal(a1, a2)

    def test_dual_softmax_halves(self):
        z = np.array([[0.0, 0.0, 5.0, -5.0, 0.0, 0.0]])
        out = dual_softmax(z)
        assert out[0, :3].sum() == pytest.approx(1.0)
        assert out[0, 3:].sum() == pytest.approx(1.0)
        assert out[0, 2] > 0.9


    def test_dual_softmax_matches_a_per_half_loop(self):
        rng = np.random.default_rng(26)
        for shape in [(6,), (1, 18), (256, 6), (3, 4, 10)]:
            z = rng.normal(0.0, 10.0, shape)
            ref = np.empty_like(z)
            half = shape[-1] // 2
            for sl in (np.s_[..., :half], np.s_[..., half:]):
                e = np.exp(z[sl] - z[sl].max(axis=-1, keepdims=True))
                ref[sl] = e / e.sum(axis=-1, keepdims=True)
            out = dual_softmax(z)
            assert np.array_equal(out, ref)
            assert out.base is None  # owns its data

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
        for net, grads in ((q1, g1), (q2, g2)):
            an = np.concatenate([g.ravel() for g in grads])
            flat = net.get_flat()
            fd = np.zeros_like(flat)
            for i in range(flat.size):
                for sign in (1.0, -1.0):
                    pert = flat.copy()
                    pert[i] += sign * 1e-5
                    net.set_flat(pert)
                    fd[i] += sign * critic_loss_and_grads(q1, q2, s, a, y)[0]
            net.set_flat(flat)
            fd /= 2e-5
            denom = np.maximum(np.abs(fd), np.maximum(np.abs(an), 1e-6))
            assert np.max(np.abs(fd - an) / denom) < 1e-4

    def test_actor_loss_gradients(self):
        rng = np.random.default_rng(5)
        sac_cfg = SacConfig(hidden_sizes=(8,), log_std_min=-5, log_std_max=2)
        state_dim, action_dim = 5, 4
        policy = DenseNet([state_dim, 8, 2 * action_dim], rng)
        q1 = DenseNet([state_dim + action_dim, 8, 1], rng)
        q2 = DenseNet([state_dim + action_dim, 8, 1], rng)
        s = rng.standard_normal((6, state_dim))
        eps = rng.standard_normal((6, action_dim))
        zeta = 0.3

        loss, grads = actor_loss_and_grads(policy, q1, q2, s, eps, zeta, sac_cfg)
        an = np.concatenate([g.ravel() for g in grads])
        flat = policy.get_flat()
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            for sign in (1.0, -1.0):
                pert = flat.copy()
                pert[i] += sign * 1e-5
                policy.set_flat(pert)
                fd[i] += sign * actor_loss_and_grads(policy, q1, q2, s, eps,
                                                     zeta, sac_cfg)[0]
        policy.set_flat(flat)
        fd /= 2e-5
        denom = np.maximum(np.abs(fd), np.maximum(np.abs(an), 1e-6))
        assert np.max(np.abs(fd - an) / denom) < 1e-4


class TestUpdates:
    def _fill_buffer(self, agent, cfg, n=40):
        rng = np.random.default_rng(6)
        env = EdgeCloudEnv(cfg, seed=1)
        state = env.reset()
        x = agent.normalizer.normalize(state.as_vector(cfg.state_aux))
        for _ in range(n):
            flat, _ = agent.policy_sample(x, rng=rng)
            outcome = env.step(Action.from_flat(flat))
            x2 = agent.normalizer.normalize(
                outcome.next_state.as_vector(cfg.state_aux))
            r = -1e-9 * outcome.queue_after.sum()
            agent.buffer.push(x, flat, r, x2)
            x = x2

    def test_update_runs_and_reports_finite_losses(self, agent, cfg):
        self._fill_buffer(agent, cfg)
        rng = np.random.default_rng(7)
        for _ in range(5):
            losses = agent.update(rng)
            assert np.isfinite(losses["critic_loss"])
            assert np.isfinite(losses["actor_loss"])

    def test_min_double_q_used_in_targets(self):
        # hand-set critics at constants 3 and 5: the target must use 3
        cfg = desk_config()
        agent = SacAgent(cfg, TOY, rng=np.random.default_rng(8))
        for net, const in ((agent.q1_target, 3.0), (agent.q2_target, 5.0)):
            net.set_flat(np.zeros(net.get_flat().size))
            net.params[-1][...] = const
        x = np.zeros((2, cfg.state_dim + cfg.action_dim))
        qmin = np.minimum(agent.q1_target.forward(x), agent.q2_target.forward(x))
        assert np.all(qmin == 3.0)

    def test_degenerate_discount_reduces_target_to_reward(self, cfg):
        sac_cfg = SacConfig(hidden_sizes=(8, 8), batch_size=4,
                            buffer_capacity=64, discount=0.0, entropy_weight=0.0)
        agent = SacAgent(cfg, sac_cfg, rng=np.random.default_rng(9))
        self._fill_buffer(agent, cfg, n=8)
        s, a, r, s2 = agent.buffer.sample(4, np.random.default_rng(0))
        # with gamma = 0 and zeta = 0 the critic target is exactly r
        y = r[:, None]
        loss0, g1, g2 = critic_loss_and_grads(agent.q1, agent.q2, s, a, y)
        rng = np.random.default_rng(1)
        for _ in range(200):
            agent.update(rng)
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
        agent.buffer.push(s, a, r, s)
        rng = np.random.default_rng(11)
        x = np.concatenate([s, a])[None, :]
        gaps = []
        for k in range(1000):
            agent.update(rng)
            if k % 100 == 99:
                gaps.append(abs(float(agent.q1.forward(x)[0, 0]) - r))
        assert gaps[-1] < 0.05
        assert gaps[-1] < gaps[0]

    def test_target_soft_update_coefficient(self, agent, cfg):
        self._fill_buffer(agent, cfg)
        rng = np.random.default_rng(12)
        before = agent.q1_target.get_flat()
        online_prev = agent.q1.get_flat()
        agent.update(rng)
        after = agent.q1_target.get_flat()
        online_new = agent.q1.get_flat()
        expect = 0.995 * before + 0.005 * online_new
        assert np.allclose(after, expect, rtol=1e-10)
        assert not np.array_equal(online_prev, online_new)

    def test_update_matches_a_hand_written_step(self, cfg):
        # reference step with the next action squashed inline; eps2 is drawn
        # before the actor's eps
        agent = SacAgent(cfg, TOY, rng=np.random.default_rng(24))
        self._fill_buffer(agent, cfg, n=8)
        ref = SacAgent.from_state_dict(agent.state_dict())
        agent.update(np.random.default_rng(25))

        rng = np.random.default_rng(25)
        s, a, r, s2 = agent.buffer.sample(TOY.batch_size, rng)
        n = cfg.action_dim
        out2 = ref.policy.forward(s2)
        eps2 = rng.standard_normal((len(s), n))
        log_std2 = np.clip(out2[:, n:], TOY.log_std_min, TOY.log_std_max)
        a2 = dual_softmax(out2[:, :n] + np.exp(log_std2) * eps2)
        x2 = np.concatenate([s2, a2], axis=1)
        q_next = np.minimum(ref.q1_target.forward(x2), ref.q2_target.forward(x2))[:, 0]
        y = r + TOY.discount * (q_next - TOY.entropy_weight * gaussian_logp(eps2, log_std2))
        _, g1, g2 = critic_loss_and_grads(ref.q1, ref.q2, s, a, y[:, None])
        ref.q1_opt.step(ref.q1.params, g1)
        ref.q2_opt.step(ref.q2.params, g2)
        eps = rng.standard_normal((len(s), n))
        _, pg = actor_loss_and_grads(ref.policy, ref.q1, ref.q2, s, eps,
                                     TOY.entropy_weight, TOY)
        ref.policy_opt.step(ref.policy.params, pg)
        for name in ("policy", "q1", "q2"):
            assert np.array_equal(getattr(agent, name).get_flat(),
                                  getattr(ref, name).get_flat()), name

    def test_training_is_bit_reproducible(self, cfg):
        outs = []
        for _ in range(2):
            agent = SacAgent(cfg, TOY, rng=np.random.default_rng(3))
            self._fill_buffer(agent, cfg, n=20)
            rng = np.random.default_rng(4)
            for _ in range(10):
                agent.update(rng)
            outs.append(agent.policy.get_flat())
        assert np.array_equal(outs[0], outs[1])


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path, cfg):
        agent = SacAgent(cfg, TOY, rng=np.random.default_rng(13))
        env = EdgeCloudEnv(cfg, seed=2)
        state = env.reset()
        rng = np.random.default_rng(14)
        x = agent.normalizer.normalize(state.as_vector(cfg.state_aux))
        for _ in range(10):
            flat, _ = agent.policy_sample(x, rng=rng)
            outcome = env.step(Action.from_flat(flat))
            x2 = agent.normalizer.normalize(
                outcome.next_state.as_vector(cfg.state_aux))
            agent.buffer.push(x, flat, -1.0, x2)
            x = x2
        for _ in range(3):
            agent.update(rng)
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
            for m1, m2 in zip(o1.m + o1.v, o2.m + o2.v):
                assert np.array_equal(m1, m2)
        assert loaded.sac_cfg == agent.sac_cfg
        assert loaded.reward_scale == agent.reward_scale
        assert loaded.update_count == agent.update_count
        assert np.array_equal(loaded.normalizer.scale, agent.normalizer.scale)

        # saving the loaded agent reproduces identical network state
        path2 = tmp_path / "agent2.npz"
        loaded.save(path2)
        with np.load(path) as d1, np.load(path2) as d2:
            for key in d1.files:
                if key == "meta":
                    continue
                assert np.array_equal(d1[key], d2[key]), key

    def test_loaded_agent_acts_identically(self, tmp_path, cfg):
        agent = SacAgent(cfg, TOY, rng=np.random.default_rng(15))
        path = tmp_path / "a.npz"
        agent.save(path)
        loaded = SacAgent.load(path)
        x = np.random.default_rng(16).normal(size=cfg.state_dim)
        a1, _ = agent.policy_sample(x, deterministic=True)
        a2, _ = loaded.policy_sample(x, deterministic=True)
        assert np.array_equal(a1, a2)

    def test_copy_is_independent_with_an_empty_buffer(self, cfg):
        agent = SacAgent(cfg, TOY, rng=np.random.default_rng(17))
        rng = np.random.default_rng(18)
        for _ in range(8):
            agent.buffer.push(rng.random(cfg.state_dim), rng.random(cfg.action_dim),
                              -rng.random(), rng.random(cfg.state_dim))
        copy = SacAgent.from_state_dict(agent.state_dict())
        before = copy.policy.get_flat()
        agent.update(rng)
        assert np.array_equal(copy.policy.get_flat(), before)
        assert not np.array_equal(agent.policy.get_flat(), before)
        assert len(copy.buffer) == 0 and len(agent.buffer) == 8

    def test_meta_with_a_buffer_record_still_loads(self, cfg):
        # checkpoints of earlier versions carry a "buffer" record in meta
        agent = SacAgent(cfg, TOY, rng=np.random.default_rng(19))
        arrays = agent.state_dict()
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta["buffer"] = {"size": 40, "cursor": 40}
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        loaded = SacAgent.from_state_dict(arrays)
        assert np.array_equal(loaded.q2.get_flat(), agent.q2.get_flat())

    def test_meta_with_retired_schedule_keys_still_loads(self, cfg):
        # checkpoints of earlier versions name the fixed update schedule
        agent = SacAgent(cfg, TOY, rng=np.random.default_rng(22))
        arrays = agent.state_dict()
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta["sac_cfg"].update(gradient_steps=1, target_update_interval=1)
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        loaded = SacAgent.from_state_dict(arrays)
        assert loaded.sac_cfg == TOY
        assert np.array_equal(loaded.q2.get_flat(), agent.q2.get_flat())

    def test_meta_with_an_unknown_setting_fails_to_load(self, cfg):
        arrays = SacAgent(cfg, TOY, rng=np.random.default_rng(23)).state_dict()
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta["sac_cfg"]["gradient_clip"] = 1.0
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        with pytest.raises(ValueError, match="gradient_clip"):
            SacAgent.from_state_dict(arrays)

    @pytest.mark.parametrize("key", ["q1.0", "policy_opt.v3", "normalizer.scale"])
    def test_missing_array_is_named(self, cfg, key):
        arrays = SacAgent(cfg, TOY, rng=np.random.default_rng(20)).state_dict()
        del arrays[key]
        with pytest.raises(ValueError, match=f"lacks array '{key}'"):
            SacAgent.from_state_dict(arrays)

    def test_misshapen_array_is_named(self, cfg):
        arrays = SacAgent(cfg, TOY, rng=np.random.default_rng(21)).state_dict()
        arrays["q2_target.2"] = np.zeros((8, 9))
        with pytest.raises(ValueError, match=r"'q2_target.2' has shape \(8, 9\), "
                                             r"expected \(8, 8\)"):
            SacAgent.from_state_dict(arrays)

    def test_surplus_array_is_named(self, cfg):
        arrays = SacAgent(cfg, TOY, rng=np.random.default_rng(22)).state_dict()
        arrays["q1.6"] = np.zeros(1)
        with pytest.raises(ValueError, match=r"unexpected arrays \['q1.6'\]"):
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
        del meta["net_sizes"]
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        with pytest.raises(ValueError, match="meta is incomplete.*net_sizes"):
            SacAgent.from_state_dict(arrays)
