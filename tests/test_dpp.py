import dataclasses

import numpy as np
import pytest

from lyaq.config import (AppProfile, SystemConfig, desk_config,
                         eight_app_config, three_app_config)
from lyaq.dpp import (OBJECTIVE_KINDS, DppConfig, DppController,
                      SolverDivergedError, UnsupportedObjectiveError,
                      dpp_objective, dpp_step_optimize, project_simplex,
                      _descend, _multistart_descent,
                      _objective_and_gradient, _structured_candidates)
from lyaq.env import Action, EdgeCloudEnv, action_errors
from lyaq.harness import metrics_from_trace, run_episode


def project_simplex_sort(v):
    """Exact sort-based projection oracle (descending scan for the pivot)."""
    u = np.sort(np.asarray(v, dtype=float))[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, len(u) + 1)
    rho = np.nonzero(u + (1.0 - css) / ks > 0)[0][-1]
    lam = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + lam, 0.0)


def speech_cfg(**overrides):
    app = AppProfile.from_bounds(10435, 5.0, "40kB", "300kB", name="speech")
    base = dict(n_queues=1, edge_clock=40e9, edge_cores=10, bandwidth=20e6,
                cloud_cores=54, rho=1e-9, penalty_weight=0.0,
                reward_exponent=1.0, episode_length=100, apps=(app,))
    base.update(overrides)
    return SystemConfig(**base)


class TestProjection:
    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(5000):
            n = int(rng.integers(2, 12))
            scale = 10.0 ** rng.uniform(-3, 6)
            v = rng.normal(0.0, scale, n)
            got = project_simplex(v)
            want = project_simplex_sort(v)
            assert np.max(np.abs(got - want)) < 1e-9
            assert abs(got.sum() - 1.0) < 1e-9
            assert got.min() >= 0.0

    def test_identity_on_simplex_points(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = rng.dirichlet(np.ones(int(rng.integers(2, 8))))
            assert np.max(np.abs(project_simplex(x) - x)) < 1e-12

    def test_minimizes_euclidean_distance(self):
        # projection must beat any random feasible point
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            v = rng.normal(0, 3, n)
            p = project_simplex(v)
            d_p = np.sum((p - v) ** 2)
            for _ in range(50):
                x = rng.dirichlet(np.ones(n))
                assert d_p <= np.sum((x - v) ** 2) + 1e-12


class TestObjective:
    def test_linear_drift_substitution(self):
        cfg = speech_cfg()
        dc = DppConfig(penalty_weight=1.0)
        val = dpp_objective([10.0], [5.0], Action.idle(1), cfg, dc)
        assert val == pytest.approx(50.0)

    def test_zero_queue_zero_weight_is_flat(self):
        cfg = speech_cfg()
        dc = DppConfig(penalty_weight=0.0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = Action(rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2)))
            assert dpp_objective([0.0], [3e6], a, cfg, dc) == 0.0

    def test_full_bound_quadratic_term(self):
        # service exactly 1 bit against arrival 4: 0.5 * (4-1)^2 = 4.5
        cfg = speech_cfg(bandwidth=1.0)
        dc = DppConfig(penalty_weight=0.0, objective_kind="full-bound")
        act = Action.from_effective([0.0], [1.0])
        assert dpp_objective([0.0], [4.0], act, cfg, dc) == pytest.approx(4.5)

    def test_gradient_matches_finite_differences(self):
        # central differences on interior points of both objective kinds
        cfg3 = three_app_config()
        rng = np.random.default_rng(4)
        for kind in ("linear-drift", "full-bound"):
            dc = DppConfig(penalty_weight=10.0 ** rng.uniform(0, 8),
                           objective_kind=kind)
            for _ in range(30):
                q = rng.uniform(0, 3e7, 3)
                a = rng.uniform(0, 2e7, 3)
                alpha = rng.dirichlet(np.ones(4))
                beta = rng.dirichlet(np.ones(4))
                f, g_a, g_b = _objective_and_gradient(q, a, alpha, beta, cfg3, dc)
                assert f == pytest.approx(
                    dpp_objective(q, a, Action(alpha, beta), cfg3, dc), rel=1e-12)
                h = 1e-7
                for vec, grad in ((alpha, g_a), (beta, g_b)):
                    for i in range(3):
                        e = np.zeros(4)
                        e[i] = h
                        up = dpp_objective(q, a, Action(alpha + e if vec is alpha else alpha,
                                                        beta + e if vec is beta else beta),
                                           cfg3, dc)
                        dn = dpp_objective(q, a, Action(alpha - e if vec is alpha else alpha,
                                                        beta - e if vec is beta else beta),
                                           cfg3, dc)
                        fd = (up - dn) / (2 * h)
                        scale = max(abs(fd), abs(grad[i]), 1e-3)
                        # kinks of the min() make isolated points disagree;
                        # interior randomness keeps them measure-zero
                        assert abs(fd - grad[i]) / scale < 1e-4


class TestOptimizer:
    def test_monotone_linear_objective_returns_full_service(self):
        cfg = speech_cfg()
        dc = DppConfig(penalty_weight=0.0)
        rng = np.random.default_rng(5)
        act = dpp_step_optimize([10.0], [0.0], cfg, dc, rng)
        assert act.alpha[0] == pytest.approx(1.0, abs=1e-9)
        assert act.beta[0] == pytest.approx(1.0, abs=1e-9)

    def test_grid_oracle_fifty_instances(self):
        # exhaustive 101x101 oracle over the effective (alpha_1, beta_1),
        # scored in one batched objective call per instance
        cfg = speech_cfg()
        rng = np.random.default_rng(6)
        al, be = np.meshgrid(np.linspace(0.0, 1.0, 101), np.linspace(0.0, 1.0, 101))
        al, be = al.ravel(), be.ravel()
        grid = Action(alpha=np.stack([al, 1.0 - al], axis=1),
                      beta=np.stack([be, 1.0 - be], axis=1))
        for _ in range(50):
            q = rng.uniform(0.0, 3e7)
            a = rng.uniform(0.0, 2e7)
            Vp = 10.0 ** rng.uniform(0.0, 10.0)
            dc = DppConfig(penalty_weight=Vp)
            best = dpp_objective([q], [a], grid, cfg, dc).min()
            act = dpp_step_optimize([q], [a], cfg, dc, rng)
            # the instances were first drawn beside a solver that took 8
            # random starts per call from this stream; burning those draws
            # keeps the same 50 instances
            for _ in range(16):
                rng.dirichlet(np.ones(2))
            val = dpp_objective([q], [a], act, cfg, dc)
            assert val <= best + 0.01 * abs(best)
            assert action_errors(act, tol=1e-9) == []

    def test_batched_objective_matches_single_actions(self):
        cfg = three_app_config()
        rng = np.random.default_rng(13)
        alpha = rng.dirichlet(np.ones(4), 64)
        beta = rng.dirichlet(np.ones(4), 64)
        q = rng.uniform(0, 3e7, 3)
        a = rng.uniform(0, 2e7, 3)
        for kind in OBJECTIVE_KINDS:
            for Vp in (0.0, 1e9):
                dc = DppConfig(penalty_weight=Vp, objective_kind=kind)
                batch = dpp_objective(q, a, Action(alpha, beta), cfg, dc)
                assert batch.shape == (64,)
                for k in range(64):
                    single = dpp_objective(q, a, Action(alpha[k], beta[k]), cfg, dc)
                    assert type(single) is float
                    assert batch[k] == pytest.approx(single, rel=1e-12)

    def test_never_worse_than_multistart_descent(self):
        # the exact solve against the best of uniform, idle and 8 random
        # starts of projected gradient descent on the same instance
        cfgs = (speech_cfg(), desk_config(), three_app_config(), eight_app_config())
        rng = np.random.default_rng(10)
        for i in range(200):
            cfg = cfgs[i % len(cfgs)]
            n = cfg.n_queues
            Vp = 10.0 ** rng.uniform(0.0, 12.0)
            q = 10.0 ** rng.uniform(4.0, 8.0, n) * (rng.random(n) < 0.8)
            a = 10.0 ** rng.uniform(4.0, 8.0, n) * (rng.random(n) < 0.8)
            dc = DppConfig(penalty_weight=Vp, restarts=8)
            act = dpp_step_optimize(q, a, cfg, dc, rng)
            assert action_errors(act, tol=1e-12) == []
            exact = dpp_objective(q, a, act, cfg, dc)
            descent = dpp_objective(q, a, _multistart_descent(q, a, cfg, dc, rng),
                                    cfg, dc)
            assert exact <= descent + 1e-9 * max(1.0, abs(descent))

    def test_pure_drift_returns_lp_vertex(self):
        cfg = three_app_config()
        dc = DppConfig(penalty_weight=0.0)
        s = cfg.edge_clock / cfg.workloads
        rng = np.random.default_rng(11)
        for _ in range(20):
            q = rng.uniform(0, 1e8, 3)
            a = rng.uniform(0, 2e7, 3)
            act = dpp_step_optimize(q, a, cfg, dc, rng)
            np.testing.assert_array_equal(act.alpha, np.eye(4)[np.argmax(q * s)])
            np.testing.assert_array_equal(act.beta, np.eye(4)[np.argmax(q)])
        act = dpp_step_optimize(np.zeros(3), a, cfg, dc, rng)
        np.testing.assert_array_equal(act.alpha, Action.uniform(3).alpha)
        np.testing.assert_array_equal(act.beta, Action.uniform(3).beta)

    def test_no_overflow_and_overflow_programs_both_win(self):
        # no branch of the decomposition is dead: D_none and some D_k are
        # each the unique best candidate on some instance
        cfg = three_app_config()
        rng = np.random.default_rng(12)
        winners = set()
        for _ in range(60):
            Vp = 10.0 ** rng.uniform(0.0, 12.0)
            q = 10.0 ** rng.uniform(4.0, 8.0, 3)
            a = 10.0 ** rng.uniform(4.0, 8.0, 3)
            labels, alpha, beta = _structured_candidates(q, a, cfg, Vp)
            values = dpp_objective(q, a, Action(alpha, beta), cfg,
                                   DppConfig(penalty_weight=Vp))
            best = int(np.argmin(values))
            if np.sum(values == values[best]) == 1:
                winners.add(labels[best].split("-")[0])
        assert {"none", "overflow"} <= winners

    def test_exact_solve_draws_nothing_from_rng(self):
        cfg = three_app_config()
        rng = np.random.default_rng(14)
        q = rng.uniform(0, 3e7, 3)
        a = rng.uniform(0, 2e7, 3)
        before = rng.bit_generator.state
        for Vp in (0.0, 1e6, 1e11):
            dpp_step_optimize(q, a, cfg, DppConfig(penalty_weight=Vp), rng)
        assert rng.bit_generator.state == before

    def test_cubic_cost_without_cloud_cores_fails_clearly(self):
        cfg = three_app_config(cloud_cores=0)
        for kind in OBJECTIVE_KINDS:
            for Vp in (0.0, 1e11):
                with pytest.raises(ValueError, match="cloud_cores"):
                    dpp_step_optimize([1e7, 0.0, 3e6], [2e6, 1e6, 0.0], cfg,
                                      DppConfig(penalty_weight=Vp, objective_kind=kind),
                                      np.random.default_rng(0))

    def test_emitted_actions_satisfy_simplex(self):
        cfg = three_app_config()
        rng = np.random.default_rng(7)
        for _ in range(10):
            q = rng.uniform(0, 1e8, 3)
            a = rng.uniform(0, 2e7, 3)
            dc = DppConfig(penalty_weight=10.0 ** rng.uniform(0, 8), restarts=3)
            act = dpp_step_optimize(q, a, cfg, dc, rng)
            assert action_errors(act, tol=1e-9) == []

    def test_descent_is_monotone_in_iteration_budget(self):
        cfg = three_app_config()
        dc = DppConfig(penalty_weight=1e6)
        rng = np.random.default_rng(8)
        q = rng.uniform(0, 1e8, 3)
        a = rng.uniform(0, 2e7, 3)
        start = Action.uniform(3)
        prev = np.inf
        for iters in (1, 2, 5, 10, 30, 80, 200):
            f, _, _ = _descend(q, a, start.alpha.copy(), start.beta.copy(),
                               cfg, dataclasses.replace(dc, iterations=iters))
            assert f <= prev + 1e-9
            prev = f

    def test_symmetry_identical_queues_get_equal_service(self):
        # full-bound objective is strictly convex in the per-queue service
        # deficits, so the optimum of a symmetric instance is symmetric
        app = AppProfile.from_bounds(10000, 5.0, "10kB", "50kB")
        cfg = SystemConfig(n_queues=2, edge_clock=8e9, edge_cores=2,
                           bandwidth=3e6, cloud_cores=4, rho=1e-9,
                           penalty_weight=0.0, reward_exponent=1.0,
                           episode_length=100, apps=(app, app))
        dc = DppConfig(penalty_weight=1e8, objective_kind="full-bound")
        rng = np.random.default_rng(9)
        for _ in range(5):
            q = float(rng.uniform(1e5, 1e7))
            a = float(rng.uniform(1e5, 5e6))
            act = dpp_step_optimize([q, q], [a, a], cfg, dc,
                                    np.random.default_rng(0))
            b = act.alpha_eff * cfg.edge_clock / cfg.workloads \
                + act.beta_eff * cfg.bandwidth
            assert b[0] == pytest.approx(b[1], rel=1e-2, abs=1.0)

    def test_symmetry_swapped_instance_swaps_solution(self):
        app1 = AppProfile.from_bounds(8000, 5.0, "10kB", "50kB")
        cfg = SystemConfig(n_queues=2, edge_clock=8e9, edge_cores=2,
                           bandwidth=3e6, cloud_cores=4, rho=1e-9,
                           penalty_weight=0.0, reward_exponent=1.0,
                           episode_length=100, apps=(app1, app1))
        dc = DppConfig(penalty_weight=1e8, objective_kind="full-bound")
        q = np.array([2e6, 8e6])
        a = np.array([1e6, 3e6])
        act1 = dpp_step_optimize(q, a, cfg, dc, np.random.default_rng(0))
        act2 = dpp_step_optimize(q[::-1], a[::-1], cfg, dc,
                                 np.random.default_rng(0))
        b1 = act1.alpha_eff * cfg.edge_clock / cfg.workloads \
            + act1.beta_eff * cfg.bandwidth
        b2 = act2.alpha_eff * cfg.edge_clock / cfg.workloads \
            + act2.beta_eff * cfg.bandwidth
        assert b1[0] == pytest.approx(b2[1], rel=1e-2)
        assert b1[1] == pytest.approx(b2[0], rel=1e-2)

    def test_per_core_cost_refused(self):
        cfg = speech_cfg(cloud_cost_kind="per-core")
        with pytest.raises(UnsupportedObjectiveError):
            dpp_step_optimize([1.0], [1.0], cfg, DppConfig(), np.random.default_rng(0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DppConfig(objective_kind="nope")
        with pytest.raises(ValueError):
            DppConfig(iterations=0)
        with pytest.raises(ValueError):
            DppConfig(penalty_weight=-1.0)


def dpp_episode(cfg, dpp_cfg, T, rng):
    """The episode `lyaq dpp` runs: the solver on a stream spawned from the
    arrivals' generator."""
    controller = DppController(cfg, dpp_cfg, rng.spawn(1)[0])
    trace, _ = run_episode(controller, cfg, rng, T=T)
    return trace, metrics_from_trace(trace)


class TestEpisode:
    def test_zero_arrivals_stay_empty(self):
        silent = AppProfile(workload_cycles_per_bit=1e4, arrival_rate=0.0,
                            size_min=1.0, size_max=2.0, size_mean=1.5,
                            size_std=0.25)
        cfg = speech_cfg(apps=(silent,))
        trace, metrics = dpp_episode(cfg, DppConfig(restarts=1, iterations=5),
                                     50, np.random.default_rng(0))
        assert metrics["avg_queue"] == 0.0
        assert len(trace) == 50

    def test_per_core_error_carries_slot_index(self):
        cfg = desk_config(cloud_cost_kind="per-core")
        with pytest.raises(UnsupportedObjectiveError, match="slot 0"):
            dpp_episode(cfg, DppConfig(), 10, np.random.default_rng(0))

    def test_solver_draws_leave_the_arrivals_alone(self):
        # full-bound draws random starts; the arrivals must still be those
        # of an environment that owns the generator alone
        cfg = desk_config()
        dc = DppConfig(penalty_weight=1e8, objective_kind="full-bound",
                       restarts=1, iterations=5)
        trace, _ = dpp_episode(cfg, dc, 10, np.random.default_rng(3))
        env = EdgeCloudEnv(cfg, rng=np.random.default_rng(3))
        arrivals = [env.reset().arrival]
        for _ in range(9):
            arrivals.append(env.step(Action.idle(2)).next_state.arrival)
        np.testing.assert_array_equal(np.array(trace.a), np.array(arrivals))

    def test_desk_episode_metrics_match_trace(self):
        cfg = desk_config()
        dc = DppConfig(penalty_weight=0.0, restarts=2, iterations=60)
        trace, metrics = dpp_episode(cfg, dc, 60, np.random.default_rng(1))
        assert metrics["avg_penalty"] == pytest.approx(trace.penalties.mean())
        assert metrics["avg_queue"] == pytest.approx(trace.queue_totals.mean())
        for k in range(len(trace)):
            assert trace.alpha[k].sum() <= 1.0 + 1e-9
            assert trace.beta[k].sum() <= 1.0 + 1e-9
