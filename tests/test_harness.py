import csv
import re
from dataclasses import replace

import numpy as np
import pytest

from lyaq import harness
from lyaq.cli import main
from lyaq.config import desk_config
from lyaq.env import Action, EdgeCloudEnv
from lyaq.harness import (EPISODES_PER_CYCLE, FixedController,
                          default_reward_spec, episode_rng, evaluate,
                          queue_slope_ok, run_episode, sweep, train, write_csv)
from lyaq.plots import emit_plots
from lyaq.rewards import compute_reward
from lyaq.sac import ReplayBuffer, SacAgent, SacConfig


def short_desk():
    return replace(desk_config(), episode_length=10)


def uniform_sweep(grid, seeds, out_csv):
    """A uniform-controller sweep of one 10-slot episode per grid point."""
    return sweep("uniform", short_desk(), grid, seeds, out_csv=out_csv, sac_cfg=None,
                 total_steps=1, reward_kind="diff", episodes=1, progress=lambda row: None)


def spy_buffers(monkeypatch) -> list:
    """Every replay buffer that `harness.train` builds from now on, in the
    order it builds them."""
    built = []

    class Spy(ReplayBuffer):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(harness, "ReplayBuffer", Spy)
    return built


def read_lines(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


class TestSweepResume:
    def test_resume_on_header_only_csv_writes_one_header(self, tmp_path):
        out = tmp_path / "sweep.csv"
        # a sweep interrupted before its first row leaves only the header
        uniform_sweep([0.0], [0], out)
        header = read_lines(out)[0]
        with open(out, "w", newline="") as f:
            csv.writer(f).writerow(header)
        assert len(read_lines(out)) == 1
        rows = uniform_sweep([0.0, 1e9], [0, 1], out)
        lines = read_lines(out)
        assert len(rows) == 4
        assert len(lines) == 5
        assert lines[0][0] == "controller"
        assert all(line[0] == "uniform" for line in lines[1:])
        assert [p.name for p in emit_plots([out], out_dir=tmp_path)] == ["sweep.svg"]

    def test_rerun_appends_nothing(self, tmp_path):
        out = tmp_path / "sweep.csv"
        uniform_sweep([0.0, 1e9], [0, 1], out)
        before = out.read_bytes()
        assert uniform_sweep([0.0, 1e9], [0, 1], out) == []
        assert out.read_bytes() == before


    def test_resume_refuses_another_controllers_file(self, tmp_path, capsys):
        # the (V, seed) keys match, but the rows are not this controller's
        out = tmp_path / "sweep.csv"
        uniform_sweep([0.0], [0], out)
        before = out.read_bytes()
        with pytest.raises(ValueError, match="holds 'uniform' sweep rows; a 'dpp' sweep"):
            sweep("dpp", short_desk(), [0.0], [0], out_csv=out, sac_cfg=None,
                  total_steps=1, reward_kind="diff", episodes=1, progress=lambda row: None)
        assert main(["sweep", "--profile", "desk", "--controller", "dpp", "--Vgrid", "0",
                     "--seeds", "0", "--episodes", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {out} holds 'uniform' sweep rows")
        assert out.read_bytes() == before
        # a file that is not a sweep CSV at all, such as a simulate trace
        trace = tmp_path / "trace.csv"
        assert main(["simulate", "--profile", "desk", "--steps", "5",
                     "--out", str(trace)]) == 0
        capsys.readouterr()
        before = trace.read_bytes()
        with pytest.raises(ValueError, match=re.escape(
                f"{trace} is not a sweep CSV: it lacks the column(s) controller, V, seed")):
            uniform_sweep([0.0], [0], trace)
        assert main(["sweep", "--profile", "desk", "--controller", "uniform", "--Vgrid",
                     "0", "--seeds", "0", "--out", str(trace)]) == 1
        out_text, err = capsys.readouterr()
        assert err.startswith(f"error: {trace} is not a sweep CSV") and out_text == ""
        assert trace.read_bytes() == before
        # the sweep columns in another order: a resumed row would misalign
        shuffled = tmp_path / "shuffled.csv"
        header = "V,controller,seed,avg_queue,avg_penalty,reward_sum,status\n"
        shuffled.write_text(header)
        with pytest.raises(ValueError, match="holds the sweep columns in another layout"):
            uniform_sweep([0.0], [0], shuffled)
        assert shuffled.read_text() == header

    def test_each_row_is_on_disk_before_progress_reports_it(self, tmp_path):
        # a sweep killed after reporting k rows has written those k rows
        out = tmp_path / "sweep.csv"
        on_disk = []
        sweep("uniform", short_desk(), [0.0, 1e9], [0, 1, 2], out_csv=out, sac_cfg=None,
              total_steps=1, reward_kind="diff", episodes=1,
              progress=lambda row: on_disk.append(len(read_lines(out))))
        assert on_disk == [2, 3, 4, 5, 6, 7]


@pytest.mark.parametrize("grid, seeds, message", [
    ([], [0], "V grid must be non-empty"), ([0.0], iter([]), "seeds must be non-empty")])
def test_sweep_refuses_an_empty_grid_or_seed_list(tmp_path, grid, seeds, message):
    out = tmp_path / "sweep.csv"
    with pytest.raises(ValueError, match=message):
        uniform_sweep(grid, seeds, out)
    assert not out.exists()


def test_sweep_takes_iterators(tmp_path):
    rows = uniform_sweep(iter([0.0, 1e9]), (s for s in [0, 1]),
                         tmp_path / "sweep.csv")
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
    cfg = replace(short_desk(), episode_length=30)
    spec = default_reward_spec(cfg, "diff")
    trace, reward_sum = run_episode(FixedController(Action.uniform(2)), cfg,
                                    np.random.default_rng(5), "diff")
    env = EdgeCloudEnv(cfg, rng=np.random.default_rng(5))
    state = env.reset()
    queues, arrivals, rewards = [state.queue], [state.arrival], []
    for _ in range(30):
        outcome = env.step(Action.uniform(2))
        rewards.append(compute_reward(state, outcome, spec))
        state = outcome.next_state
        queues.append(state.queue)
        arrivals.append(state.arrival)
    assert len(trace) == 30
    np.testing.assert_array_equal(trace.t, np.arange(30))
    np.testing.assert_array_equal(trace.q, queues[:-1])
    np.testing.assert_array_equal(trace.a, arrivals[:-1])
    assert reward_sum == sum(rewards)


def reference_collect(cfg, sac_cfg, total_steps, seed, reward_spec):
    """`train`'s collection and update schedule as the inline loop it once
    was, kept as the reference for the loop through `episode_slots`. The
    evaluation episodes are left out: they draw from their own stream and
    leave the agent as it is. Returns the agent and its replay buffer."""
    T = cfg.episode_length
    ss = np.random.SeedSequence(seed)
    env_ss, agent_ss, update_ss, eval_ss = ss.spawn(4)
    env_rng = np.random.default_rng(env_ss)
    update_rng = np.random.default_rng(update_ss)
    collect_rng = np.random.default_rng(agent_ss.spawn(1)[0])

    agent = SacAgent(cfg, sac_cfg, rng=np.random.default_rng(agent_ss))
    buffer = ReplayBuffer(sac_cfg.buffer_capacity, cfg.state_dim, cfg.action_dim)
    env = EdgeCloudEnv(cfg, rng=env_rng)
    steps_done = 0
    scale_set = False

    while steps_done < total_steps:
        pending = []
        episodes_left = -(-(total_steps - steps_done) // T)
        for _ in range(min(EPISODES_PER_CYCLE, episodes_left)):
            state = env.reset()
            s_norm = state.observation / agent.obs_scale
            for _ in range(T):
                flat = agent.policy_sample(s_norm, rng=collect_rng)
                outcome = env.step(Action.from_flat(flat))
                r = compute_reward(state, outcome, reward_spec)
                state = outcome.next_state
                s2_norm = state.observation / agent.obs_scale
                pending.append((s_norm, flat, r, s2_norm))
                s_norm = s2_norm
                steps_done += 1
        if not scale_set:
            typical = float(np.mean(np.abs([p[2] for p in pending[:T]])))
            agent.reward_scale = 1.0 / typical if typical > 0 else 1.0
            scale_set = True
        for s_n, a_f, r, s2_n in pending:
            buffer.push(s_n, a_f, r * agent.reward_scale, s2_n)

        if buffer.size >= sac_cfg.batch_size:
            for _ in range(len(pending)):
                agent.update(buffer, update_rng)
    return agent, buffer


@pytest.mark.parametrize("kind", ["diff", "power"])
def test_train_collects_like_the_reference_loop(kind, monkeypatch):
    cfg = short_desk()
    sac_cfg = SacConfig(hidden_sizes=(8, 8), batch_size=64)
    spec = default_reward_spec(cfg, kind=kind)
    built = spy_buffers(monkeypatch)
    # three 4x10-slot cycles; updates start after the first
    agent = train(cfg, sac_cfg, 120, seed=4, reward_kind=kind).agent
    [buffer] = built
    ref, ref_buffer = reference_collect(cfg, sac_cfg, 120, 4, spec)
    assert buffer.size == ref_buffer.size == 120
    for name in ("states", "actions", "rewards", "next_states"):
        np.testing.assert_array_equal(getattr(buffer, name)[:120],
                                      getattr(ref_buffer, name)[:120])
    assert agent.reward_scale == ref.reward_scale
    assert agent.update_count == ref.update_count == 80
    for got, want in zip(agent.policy.params, ref.policy.params):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("total_steps, curve_steps", [
    (55, [0, 40, 60]), (80, [0, 40, 80]), (3, [0, 10])])
def test_budget_rounds_up_to_whole_episodes_not_cycles(total_steps, curve_steps,
                                                       monkeypatch):
    # T = 10: the last cycle collects ceil(remaining / T) episodes, not 4
    cfg = short_desk()
    built = spy_buffers(monkeypatch)
    result = train(cfg, SacConfig(hidden_sizes=(8, 8), batch_size=8), total_steps,
                   seed=2, reward_kind="diff")
    assert [row["steps"] for row in result.curve] == curve_steps
    [buffer] = built
    assert buffer.size == curve_steps[-1]
    # at batch size 8 every collected transition is followed by one update
    assert result.agent.update_count == curve_steps[-1]


@pytest.mark.parametrize("total_steps, buffer_capacity, rows", [
    (55, 1_000_000, 60), (120, 1_000_000, 120), (3, 1_000_000, 10), (120, 50, 50)])
def test_train_builds_one_replay_sized_to_its_budget(total_steps, buffer_capacity,
                                                     rows, monkeypatch):
    # T = 10: min(buffer_capacity, ceil(total_steps / T) * T) rows, allocated
    # at once; a capacity below the budget is a ring that keeps the newest
    cfg = short_desk()
    built = spy_buffers(monkeypatch)
    sac_cfg = SacConfig(hidden_sizes=(8, 8), batch_size=8,
                        buffer_capacity=buffer_capacity)
    result = train(cfg, sac_cfg, total_steps, seed=2, reward_kind="diff")
    [buffer] = built
    assert buffer.capacity == rows == min(buffer_capacity,
                                          -(-total_steps // 10) * 10)
    for name in ("states", "actions", "rewards", "next_states"):
        assert len(getattr(buffer, name)) == rows, name
    assert buffer.size == rows
    assert not hasattr(result.agent, "buffer")
    assert not hasattr(result.best_agent, "buffer")


@pytest.mark.parametrize("total_steps", [0, -1])
def test_train_refuses_a_budget_below_one_step(total_steps):
    cfg = short_desk()
    message = f"total_steps must be at least 1, got {total_steps}"
    with pytest.raises(ValueError, match=message):
        train(cfg, SacConfig(hidden_sizes=(8, 8)), total_steps, 0, "diff")


@pytest.mark.parametrize("episodes", [0, -1])
def test_evaluate_refuses_a_non_positive_episode_count(episodes):
    with pytest.raises(ValueError, match="episodes must be at least 1"):
        evaluate(FixedController(Action.idle(2)), short_desk(), episodes, seed=0,
                 reward_kind="diff")


@pytest.mark.parametrize("seed", [0, 3, 12345])
def test_episode_rng_is_the_spawned_stream_of_every_count(seed):
    for k in range(4):
        want = episode_rng(seed, k).random(8)
        for n in (k + 1, 16):
            stream = np.random.SeedSequence(seed).spawn(n)[k]
            assert np.random.default_rng(stream).random(8).tobytes() == want.tobytes()


class TestWriteCsv:
    """`write_csv`'s byte format, which every command's file shares."""

    def test_header_and_floats_as_their_repr(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ("n", "a", "b", "c"),
                  [{"n": 3, "a": 0.1 + 0.2, "b": 1e-320, "c": np.float64(1 / 3)}])
        assert path.read_bytes() == (b"n,a,b,c\r\n"
                                     b"3,0.30000000000000004,1e-320,0.3333333333333333\r\n")

    def test_a_missing_key_writes_empty(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ("a", "b", "c"), [{"b": 2.5}, {}])
        assert path.read_text().splitlines() == ["a,b,c", ",2.5,", ",,"]

    def test_a_key_outside_the_columns_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="fields not in fieldnames: 'b'"):
            write_csv(tmp_path / "out.csv", ("a",), [{"a": 1, "b": 2}])


def test_snapshot_keeps_its_optimizer_state():
    cfg = short_desk()
    agent = SacAgent(cfg, SacConfig(hidden_sizes=(8, 8), batch_size=4),
                     rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    buffer = ReplayBuffer(8, cfg.state_dim, cfg.action_dim)
    for _ in range(8):
        buffer.push(rng.random(cfg.state_dim), rng.random(cfg.action_dim),
                    -rng.random(), rng.random(cfg.state_dim))
    agent.update(buffer, rng)
    snap = SacAgent.from_state_dict(agent.state_dict())
    frozen = {name: (getattr(snap, name).t, getattr(snap, name).m.copy(),
                     getattr(snap, name).v.copy())
              for name in SacAgent._OPTS}
    agent.update(buffer, rng)
    for name, (t, m, v) in frozen.items():
        opt = getattr(snap, name)
        assert opt.t == t == 1
        assert getattr(agent, name).t == 2
        np.testing.assert_array_equal(opt.m, m)
        np.testing.assert_array_equal(opt.v, v)
