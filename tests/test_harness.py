import csv
from dataclasses import replace

import numpy as np

from lyaq.config import desk_config
from lyaq.env import EdgeCloudEnv
from lyaq.harness import (UniformController, default_reward_spec,
                          queue_slope_ok, run_episode, sweep)
from lyaq.plots import emit_plots
from lyaq.rewards import compute_reward
from lyaq.sac import SacAgent, SacConfig


def short_desk():
    return replace(desk_config(), episode_length=10)


def read_lines(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


class TestSweepResume:
    def test_resume_on_header_only_csv_writes_one_header(self, tmp_path):
        out = tmp_path / "sweep.csv"
        # a sweep interrupted before its first row leaves only the header
        sweep("uniform", short_desk(), [0.0], [], out_csv=out, episodes=1)
        assert len(read_lines(out)) == 1
        rows = sweep("uniform", short_desk(), [0.0, 1e9], [0, 1], out_csv=out,
                     episodes=1)
        lines = read_lines(out)
        assert len(rows) == 4
        assert len(lines) == 5
        assert lines[0][0] == "controller"
        assert all(line[0] == "uniform" for line in lines[1:])
        assert [p.name for p in emit_plots([out], out_dir=tmp_path)] == ["sweep.svg"]

    def test_rerun_appends_nothing(self, tmp_path):
        out = tmp_path / "sweep.csv"
        sweep("uniform", short_desk(), [0.0, 1e9], [0, 1], out_csv=out, episodes=1)
        before = out.read_bytes()
        assert sweep("uniform", short_desk(), [0.0, 1e9], [0, 1], out_csv=out,
                     episodes=1) == []
        assert out.read_bytes() == before


def test_sweep_takes_iterators():
    rows = sweep("uniform", short_desk(), iter([0.0, 1e9]), (s for s in [0, 1]),
                 episodes=1)
    assert [(r["V"], r["seed"]) for r in rows] == [
        ("0.0", 0), ("0.0", 1), ("1000000000.0", 0), ("1000000000.0", 1)]
    assert all(r["status"] == "ok" for r in rows)


def test_queue_slope_ok():
    load = 1e5  # growth allowed: 1% of it, 1e3 bits a slot
    assert queue_slope_ok(np.full(100, 5e5), load)
    assert queue_slope_ok(5e5 + 500.0 * np.arange(100), load)
    assert not queue_slope_ok(1e4 * np.arange(100), load)
    assert queue_slope_ok([7.0], load)


def test_run_episode_matches_a_hand_rolled_loop():
    cfg = short_desk()
    spec = default_reward_spec(cfg)
    trace, reward_sum = run_episode(UniformController(2), cfg,
                                    np.random.default_rng(5), T=30,
                                    reward_spec=spec)
    env = EdgeCloudEnv(cfg, rng=np.random.default_rng(5))
    state = env.reset()
    queues, arrivals, rewards = [env.queue], [state.arrival], []
    for _ in range(30):
        outcome = env.step(UniformController(2).act(state))
        rewards.append(compute_reward(outcome, 30, spec))
        queues.append(outcome.queue_after)
        state = outcome.next_state
        arrivals.append(state.arrival)
    assert len(trace) == 30
    np.testing.assert_array_equal(trace.t, np.arange(30))
    np.testing.assert_array_equal(trace.q, queues[:-1])
    np.testing.assert_array_equal(trace.a, arrivals[:-1])
    assert reward_sum == sum(rewards)


def test_snapshot_keeps_its_optimizer_state():
    cfg = short_desk()
    agent = SacAgent(cfg, SacConfig(hidden_sizes=(8, 8), batch_size=4),
                     rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    for _ in range(8):
        agent.store_transition(rng.random(cfg.state_dim), rng.random(cfg.action_dim),
                               -rng.random(), rng.random(cfg.state_dim))
    agent.update(rng)
    snap = SacAgent.from_state_dict(agent.state_dict())
    frozen = {name: (getattr(snap, name).t,
                     [m.copy() for m in getattr(snap, name).m],
                     [v.copy() for v in getattr(snap, name).v])
              for name in SacAgent._OPTS}
    agent.update(rng)
    for name, (t, m, v) in frozen.items():
        opt = getattr(snap, name)
        assert opt.t == t == 1
        assert getattr(agent, name).t == 2
        for got, want in zip(opt.m + opt.v, m + v):
            np.testing.assert_array_equal(got, want)
