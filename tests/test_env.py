import dataclasses

import numpy as np
import pytest

from lyaq.config import AppProfile, three_app_config, desk_config
from lyaq.env import (Action, EdgeCloudEnv, Trace,
                      actual_cpu_use, cloud_cost, compute_departure,
                      compute_offload, edge_cost, queue_update,
                      ARRIVAL_BLOCK, ARRIVAL_WINDOW)
from lyaq.harness import write_csv
from lyaq.traffic import sample_arrivals


def from_effective(alpha_eff, beta_eff) -> Action:
    """The action with these effective entries and the idle slack appended."""
    alpha_eff = np.asarray(alpha_eff, dtype=float)
    beta_eff = np.asarray(beta_eff, dtype=float)
    return Action(alpha=np.append(alpha_eff, 1.0 - alpha_eff.sum()),
                  beta=np.append(beta_eff, 1.0 - beta_eff.sum()))


def action_errors(action: Action, tol: float = 1e-9) -> list[str]:
    """Simplex violations of an action; empty list means valid."""
    errors = []
    for name, v in (("alpha", action.alpha), ("beta", action.beta)):
        if np.any(v < -tol):
            errors.append(f"{name} has negative entries")
        if abs(v.sum() - 1.0) > tol:
            errors.append(f"{name} sums to {v.sum()}, not 1")
    return errors


@pytest.fixture
def cfg3():
    return three_app_config()


def single_queue_cfg(w=10435.0, f_E=40e9, B=20e6, **overrides):
    app = AppProfile.from_bounds(w, 5.0, "40kB", "300kB")
    base = dict(edge_clock=f_E, edge_cores=10, bandwidth=B,
                cloud_cores=54, rho=1e-9, penalty_weight=0.0,
                reward_exponent=1.0, episode_length=100, apps=(app,))
    base.update(overrides)
    from lyaq.config import SystemConfig
    return SystemConfig(**base)


class TestAction:
    def test_uniform_and_idle_are_valid(self):
        for a in (Action.uniform(3), Action.idle(3)):
            assert action_errors(a) == []
            assert a.alpha.sum() == pytest.approx(1.0, abs=1e-12)

    def test_from_effective_appends_slack(self):
        a = from_effective([0.2, 0.3], [0.5, 0.1])
        assert a.alpha[-1] == pytest.approx(0.5)
        assert a.beta[-1] == pytest.approx(0.4)
        assert action_errors(a) == []

    def test_flat_round_trip(self):
        a = Action.uniform(2)
        assert np.allclose(Action.from_flat(a.as_flat()).alpha, a.alpha)

    def test_errors_reported(self):
        bad = Action(alpha=np.array([0.5, 0.2]), beta=np.array([-0.1, 1.1]))
        errors = action_errors(bad)
        assert any("alpha sums" in e for e in errors)
        assert any("beta has negative" in e for e in errors)


class TestDeparture:
    def test_direct_substitution(self):
        cfg = single_queue_cfg()
        a = from_effective([0.5], [0.25])
        b = compute_departure(a, cfg)
        assert b[0] == pytest.approx(40e9 * 0.5 / 10435 + 0.25 * 20e6)
        assert b[0] == pytest.approx(6.9166e6, rel=1e-4)

    def test_zero_action(self):
        cfg = single_queue_cfg()
        assert compute_departure(Action.idle(1), cfg)[0] == 0.0

    def test_full_cpu_unit_workload(self):
        cfg = single_queue_cfg(w=1.0)
        b = compute_departure(from_effective([1.0], [0.0]), cfg)
        assert b[0] == pytest.approx(4e10)


class TestOffload:
    def test_backlog_limited(self):
        cfg = single_queue_cfg(w=1.0, f_E=4e5, B=5e6)
        a = from_effective([1.0], [1.0])
        o = compute_offload([1e6], a, cfg)
        assert o[0] == pytest.approx(6e5)

    def test_bandwidth_limited(self):
        cfg = single_queue_cfg(w=1.0, f_E=4e5, B=5e6)
        a = from_effective([1.0], [1.0])
        o = compute_offload([1e7], a, cfg)
        assert o[0] == pytest.approx(5e6)

    def test_cpu_exhausts_backlog_clamps_to_zero(self):
        cfg = single_queue_cfg(w=1.0, f_E=4e5, B=5e6)
        a = from_effective([1.0], [1.0])
        o = compute_offload([3e5], a, cfg)
        assert o[0] == 0.0


class TestQueueUpdate:
    def test_direct(self):
        assert queue_update([100.0], [50.0], [70.0])[0] == pytest.approx(80.0)

    def test_clamp(self):
        assert queue_update([1e6], [2e5], [1.5e6])[0] == 0.0

    def test_no_service(self):
        q = np.array([3.0, 4.0])
        assert np.allclose(queue_update(q, [1.0, 2.0], [0.0, 0.0]), [4.0, 6.0])


class TestCosts:
    """Cost-table anchors: 40 Gcycles/s split over ten 4 GHz edge cores costs
    640 G^3 kappa; 200 Gcycles offloaded over 54 cloud cores costs ~2743."""

    @pytest.mark.parametrize("alpha_sum,expected", [(1.0, 640.0), (0.75, 270.0),
                                                    (0.5, 80.0), (0.0, 0.0)])
    def test_edge_cost_table(self, cfg3, alpha_sum, expected):
        a = from_effective([alpha_sum, 0.0, 0.0], [0.0, 0.0, 0.0])
        assert edge_cost(a.alpha_eff, cfg3) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("cloud_g,expected", [(200.0, 2743.0),
                                                  (210.0, 3175.0),
                                                  (220.0, 3651.0)])
    def test_cloud_cost_table(self, cfg3, cloud_g, expected):
        w1 = cfg3.apps[0].workload_cycles_per_bit
        offloads = np.array([cloud_g * 1e9 / w1, 0.0, 0.0])
        assert cloud_cost(offloads, cfg3) == pytest.approx(expected, abs=2.0)

    def test_cloud_cost_zero_offload(self, cfg3):
        assert cloud_cost(np.zeros(3), cfg3) == 0.0

    def test_per_core_cost_ceiling(self, cfg3):
        cfg = dataclasses.replace(cfg3, cloud_cost_kind="per-core")
        w1 = cfg.apps[0].workload_cycles_per_bit
        offloads = np.array([9e9 / w1, 0.0, 0.0])  # 9 Gcycles -> 3 cores
        assert cloud_cost(offloads, cfg) == pytest.approx(3 * 64.0)
        assert cloud_cost(np.zeros(3), cfg) == 0.0

    def test_cost_bounds_hold_for_random_actions(self, cfg3):
        # 0 <= C_E <= kappa f_E^3 / N_E^2 and C_C <= C_C(B * sum w_i), in
        # G^3 kappa units
        rng = np.random.default_rng(4)
        ce_max = (cfg3.edge_clock / 1e9) ** 3 / cfg3.edge_cores ** 2
        cc_max = cloud_cost(np.full(3, cfg3.bandwidth), cfg3)
        for _ in range(200):
            a = Action(rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4)))
            qpa = rng.uniform(0, 1e8, size=3)
            ce = edge_cost(a.alpha_eff, cfg3)
            cc = cloud_cost(compute_offload(qpa, a, cfg3), cfg3)
            assert 0.0 <= ce <= ce_max + 1e-9
            assert 0.0 <= cc <= cc_max + 1e-9


class TestEnv:
    def test_reset_dimensions_and_zero_queues(self, cfg3):
        env = EdgeCloudEnv(cfg3, rng=np.random.default_rng(0))
        state = env.reset()
        obs = state.observation
        assert obs.shape == (16,)
        assert np.allclose(state.queue, 0.0)
        assert np.allclose(obs[:3], state.arrival)  # q + a
        assert np.allclose(obs[9:12], 0.0)          # previous CPU use
        assert obs[12] == 0.0                       # previous offloaded cycles

    def test_reset_dimension_eight_queues(self):
        from lyaq.config import eight_app_config
        env = EdgeCloudEnv(eight_app_config(), rng=np.random.default_rng(0))
        assert env.reset().observation.shape == (41,)

    def test_null_dynamics(self):
        cfg = single_queue_cfg()
        silent = AppProfile(workload_cycles_per_bit=10435.0, arrival_rate=0.0,
                            size_min=1.0, size_max=2.0, size_mean=1.5,
                            size_std=0.25)
        cfg = dataclasses.replace(cfg, apps=(silent,))
        env = EdgeCloudEnv(cfg, rng=np.random.default_rng(1))
        state = env.reset()
        outcome = env.step(Action.idle(1))
        assert np.allclose(outcome.next_state.queue, state.queue + state.arrival)
        assert outcome.edge_cost == 0.0 and outcome.cloud_cost == 0.0
        assert outcome.penalty_cost == 0.0

    def test_determinism_split(self, cfg3):
        # q(t+1)/b/o/costs are pinned by (state, action); only the
        # arrival coordinates of next_state vary across replays
        action = Action.uniform(3)
        results = []
        for seed in (0, 1):
            env = EdgeCloudEnv(cfg3, rng=np.random.default_rng(42))
            env.reset()
            for _ in range(ARRIVAL_BLOCK - 1):  # reveal the rest of the block
                env.step(action)
            env.rng = np.random.default_rng(seed)  # divergent future arrivals
            outcome = env.step(action)
            results.append(outcome)
        a, b = results
        assert np.array_equal(a.departures, b.departures)
        assert np.array_equal(a.offloads, b.offloads)
        assert a.edge_cost == b.edge_cost and a.cloud_cost == b.cloud_cost
        assert np.array_equal(a.next_state.queue, b.next_state.queue)
        assert not np.array_equal(a.next_state.arrival, b.next_state.arrival)

    def test_reset_takes_its_arrivals_from_a_fresh_block(self, cfg3):
        # what is left of the block is discarded, so a replaced rng takes
        # effect at the reset: a(0..k) are the first rows of its first block
        env = EdgeCloudEnv(cfg3, rng=np.random.default_rng(4))
        env.reset()
        for _ in range(10):
            env.step(Action.uniform(3))
        env.rng = np.random.default_rng(8)
        arrivals = [env.reset().arrival]
        for _ in range(5):
            arrivals.append(env.step(Action.uniform(3)).next_state.arrival)
        block = sample_arrivals(cfg3.apps, ARRIVAL_BLOCK, np.random.default_rng(8))
        np.testing.assert_array_equal(arrivals, block[:6])

    def test_queue_nonnegative_and_conserved(self, cfg3):
        rng = np.random.default_rng(9)
        env = EdgeCloudEnv(cfg3, rng=np.random.default_rng(3))
        state = env.reset()
        for _ in range(300):
            action = Action(rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4)))
            outcome = env.step(action)
            q_after = outcome.next_state.queue
            assert np.all(q_after >= 0.0)
            # served = min(q+a, cpu bits) + o <= b elementwise
            qpa = state.queue + state.arrival
            cpu_bits = action.alpha_eff * cfg3.edge_clock / cfg3.workloads
            served = np.minimum(qpa, cpu_bits) + outcome.offloads
            assert np.all(served <= outcome.departures + 1e-6)
            # q(t+1) - q(t) = a(t) - actually served bits
            drained = qpa - q_after
            assert np.all(drained <= outcome.departures + 1e-6)
            state = outcome.next_state

    def test_a_state_holds_each_value_once(self, cfg3):
        # the arrival is a view of the observation, and the next state's
        # queue is the very array the next step starts from, which the
        # step leaves as it was
        n = cfg3.n_queues
        rng = np.random.default_rng(12)
        env = EdgeCloudEnv(cfg3, rng=np.random.default_rng(11))
        state = env.reset()
        for _ in range(300):
            assert np.shares_memory(state.arrival, state.observation)
            assert state.arrival.tobytes() == state.observation[n:2 * n].tobytes()
            assert env._q is state.queue
            q = state.queue.copy()
            outcome = env.step(Action(rng.dirichlet(np.ones(4)),
                                      rng.dirichlet(np.ones(4))))
            assert state.queue.tobytes() == q.tobytes()
            np.testing.assert_array_equal(
                outcome.next_state.queue,
                np.maximum(0.0, q + state.arrival - outcome.departures))
            state = outcome.next_state

    def test_actual_cpu_use_clamp(self):
        # q+a = 10 bits while alpha*f_E/w = 25 -> realized fraction alpha*10/25
        cfg = single_queue_cfg(w=1.0, f_E=100.0)
        a = from_effective([0.25], [0.0])
        got = actual_cpu_use([10.0], a, cfg)
        assert got[0] == pytest.approx(0.25 * 10.0 / 25.0)
        full = actual_cpu_use([1e9], a, cfg)
        assert full[0] == pytest.approx(0.25)

    def test_window_zero_padding(self, cfg3):
        env = EdgeCloudEnv(cfg3, rng=np.random.default_rng(5))
        state = env.reset()
        n = cfg3.n_queues
        assert np.allclose(state.observation[4 * n + 1:],
                           state.arrival / ARRIVAL_WINDOW)
        arrivals = [state.arrival]
        for _ in range(10):
            outcome = env.step(Action.idle(3))
            arrivals.append(outcome.next_state.arrival)
            expect = np.sum(arrivals, axis=0) / ARRIVAL_WINDOW
            assert np.allclose(outcome.next_state.observation[4 * n + 1:], expect)


class TestTrace:
    def test_columns_are_views_of_the_rows(self):
        rng = np.random.default_rng(3)
        rows = rng.random((150, 14))
        trace = Trace(n_queues=2, capacity=150)
        for r in rows:
            trace.append(r[0:2], r[2:4], from_effective(r[4:6] / 4, r[6:8] / 4),
                         r[8:10], r[10:12], r[12], r[13])
        assert len(trace) == 150
        np.testing.assert_array_equal(trace.t, np.arange(150))
        np.testing.assert_array_equal(trace.q, rows[:, 0:2])
        np.testing.assert_array_equal(trace.a, rows[:, 2:4])
        np.testing.assert_array_equal(trace.alpha, rows[:, 4:6] / 4)
        np.testing.assert_array_equal(trace.beta, rows[:, 6:8] / 4)
        np.testing.assert_array_equal(trace.b, rows[:, 8:10])
        np.testing.assert_array_equal(trace.o, rows[:, 10:12])
        np.testing.assert_array_equal(trace.penalties, rows[:, 12] + rows[:, 13])
        np.testing.assert_array_equal(trace.queue_totals, rows[:, 0] + rows[:, 1])

    def test_csv_round_trip(self, tmp_path, cfg3):
        rng = np.random.default_rng(12)
        env = EdgeCloudEnv(cfg3, rng=np.random.default_rng(8))
        state = env.reset()
        trace = Trace(n_queues=3, capacity=20)
        for _ in range(20):
            action = Action(rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4)))
            outcome = env.step(action)
            trace.append(state.queue, state.arrival, action,
                         outcome.departures, outcome.offloads,
                         outcome.edge_cost, outcome.cloud_cost)
            state = outcome.next_state
        path = tmp_path / "trace.csv"
        write_csv(path, trace.header(), trace.rows())
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(back[:, 0], trace.t)
        for k in range(20):
            assert np.array_equal(back[k, 1:4], trace.q[k])
            assert np.array_equal(back[k, 16:19], trace.o[k])
        assert np.array_equal(back[:, 19] + back[:, 20], trace.penalties)
        header = path.read_text().splitlines()[0]
        assert header == ("t,q_1,q_2,q_3,a_1,a_2,a_3,alpha_1,alpha_2,alpha_3,"
                          "beta_1,beta_2,beta_3,b_1,b_2,b_3,o_1,o_2,o_3,C_E,C_C")
