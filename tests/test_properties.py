"""Property tests of the environment's invariants over generated actions,
profiles and seeds, and of the SAC policy squash over extreme outputs."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from lyaq.config import get_profile
from lyaq.env import (ARRIVAL_WINDOW, Action, EdgeCloudEnv, actual_cpu_use,
                      cloud_cost, compute_departure, compute_offload,
                      edge_cost, queue_update)
from lyaq.sac import SacConfig, squashed_sample

PROFILES = st.sampled_from(["desk", "paper", "paper8"])
SEEDS = st.integers(0, 2 ** 32 - 1)


@st.composite
def simplex_points(draw, size):
    """Points of the simplex with vertices, faces and interior points."""
    entry = st.sampled_from([0.0, 1e-6, 1.0]) | st.floats(0.0, 1.0)
    w = np.array(draw(st.lists(entry, min_size=size, max_size=size)))
    if w.sum() == 0.0:
        w[draw(st.integers(0, size - 1))] = 1.0
    return w / w.sum()


@st.composite
def actions(draw, n_queues):
    return Action(draw(simplex_points(n_queues + 1)),
                  draw(simplex_points(n_queues + 1)))


@settings(max_examples=40, deadline=None)
@given(profile=PROFILES, seed=SEEDS, data=st.data())
def test_step_obeys_the_queue_and_offload_laws(profile, seed, data):
    cfg = get_profile(profile)
    env = EdgeCloudEnv(cfg, seed=seed)
    env.reset()
    for _ in range(data.draw(st.integers(1, 25))):
        action = data.draw(actions(cfg.n_queues))
        q, a = env.queue, env.arrival
        outcome = env.step(action)
        b = outcome.departures

        # queues stay non-negative and follow q(t+1) = max(0, q + a - b)
        assert np.all(outcome.queue_after >= 0.0)
        np.testing.assert_array_equal(outcome.queue_after, np.maximum(0.0, q + a - b))

        # 0 <= o <= min(beta B, backlog left after the CPU share)
        cpu_bits = action.alpha_eff * cfg.edge_clock / cfg.workloads
        left = np.maximum(0.0, q + a - cpu_bits)
        o = outcome.offloads
        assert np.all(o >= 0.0)
        assert np.all(o <= np.minimum(action.beta_eff * cfg.bandwidth, left))

        # the fused step agrees bit for bit with the pure primitives
        np.testing.assert_array_equal(b, compute_departure(action, cfg))
        np.testing.assert_array_equal(o, compute_offload(q + a, action, cfg))
        np.testing.assert_array_equal(outcome.queue_after, queue_update(q, a, b))
        np.testing.assert_array_equal(outcome.next_state.actual_cpu_use,
                                      actual_cpu_use(q + a, action, cfg))
        assert outcome.edge_cost == edge_cost(action, cfg)
        assert outcome.cloud_cost == cloud_cost(o, cfg)
        np.testing.assert_array_equal(outcome.queue_before, q)


@settings(max_examples=100, deadline=None)
@given(profile=PROFILES, data=st.data())
def test_edge_cost_is_monotone_in_total_cpu_share(profile, data):
    cfg = get_profile(profile)
    first, second = data.draw(actions(cfg.n_queues)), data.draw(actions(cfg.n_queues))
    if first.alpha_eff.sum() > second.alpha_eff.sum():
        first, second = second, first
    assert 0.0 <= edge_cost(first, cfg) <= edge_cost(second, cfg)


@settings(max_examples=100, deadline=None)
@given(profile=PROFILES, kind=st.sampled_from(["cubic", "per-core"]), data=st.data())
def test_cloud_cost_is_monotone_in_offloaded_load(profile, kind, data):
    cfg = replace(get_profile(profile), cloud_cost_kind=kind)
    bits = st.sampled_from([0.0, 1e-6, 1.0]) | st.floats(0.0, 1e9)
    offloads = st.lists(bits, min_size=cfg.n_queues, max_size=cfg.n_queues)
    low = np.array(data.draw(offloads))
    high = low + np.array(data.draw(offloads))
    assert 0.0 <= cloud_cost(low, cfg) <= cloud_cost(high, cfg)


@st.composite
def policy_outputs(draw):
    """Policy outputs of one state or of a batch, entries of either sign with
    magnitudes from 1e-300 to 1e300 or exactly zero, and finite noise of the
    matching shape."""
    action_dim = 2 * draw(st.integers(2, 9))
    lead = draw(st.sampled_from([(), (1,), (3,)]))
    magnitude = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
    entry = st.just(0.0) | st.builds(lambda sign, m: sign * m,
                                     st.sampled_from([-1.0, 1.0]), magnitude)
    size = int(np.prod(lead, dtype=int))
    out = draw(st.lists(entry, min_size=2 * action_dim * size,
                        max_size=2 * action_dim * size))
    eps = draw(st.lists(st.floats(-1e3, 1e3), min_size=action_dim * size,
                        max_size=action_dim * size))
    return (np.reshape(out, lead + (2 * action_dim,)),
            np.reshape(eps, lead + (action_dim,)))


@settings(max_examples=100, deadline=None)
@given(sample=policy_outputs())
def test_squashed_actions_lie_on_both_simplexes(sample):
    out, eps = sample
    for noise in (eps, np.zeros_like(eps)):  # stochastic, then deterministic
        action, logp, _, _ = squashed_sample(out, noise, SacConfig())
        half = action.shape[-1] // 2
        for part in (action[..., :half], action[..., half:]):
            assert np.all(part >= 0.0)
            np.testing.assert_allclose(part.sum(axis=-1), 1.0, rtol=0.0, atol=1e-12)
        assert np.all(np.isfinite(logp))


@settings(max_examples=15, deadline=None)
@given(profile=PROFILES, seed=SEEDS,
       steps=st.integers(ARRIVAL_WINDOW + 1, 3 * ARRIVAL_WINDOW))
def test_ring_window_matches_a_rolled_window(profile, seed, steps):
    # the reference shifts the whole window down one row each slot and
    # writes the newest arrival to row 0
    cfg = get_profile(profile)
    env = EdgeCloudEnv(cfg, seed=seed)
    state = env.reset()
    ref = np.zeros((ARRIVAL_WINDOW, cfg.n_queues))
    ref[0] = state.arrival
    action = Action.uniform(cfg.n_queues)
    for _ in range(steps):
        state = env.step(action).next_state
        ref = np.roll(ref, 1, axis=0)
        ref[0] = state.arrival
        newest_first = np.roll(env._window, -env._slot, axis=0)[::-1]
        np.testing.assert_array_equal(newest_first, ref)
        np.testing.assert_allclose(state.windowed_arrival_avg,
                                   ref.sum(axis=0) / ARRIVAL_WINDOW, rtol=1e-12)
