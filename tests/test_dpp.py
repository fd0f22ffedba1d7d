import dataclasses

import numpy as np
import pytest

from lyaq.config import (AppProfile, SystemConfig, desk_config,
                         eight_app_config, three_app_config)
from lyaq.dpp import (DppConfig, DppController, UnsupportedObjectiveError,
                      dpp_objective, dpp_step_optimize, project_simplex,
                      _structured_candidates)
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


def objective_and_gradient(q, a, alpha, beta, cfg: SystemConfig,
                           dpp_cfg: DppConfig):
    """Linear-drift value plus subgradient w.r.t. the full (N+1)-vectors; the
    dummy slack coordinates never enter the objective, so their gradient is
    zero."""
    n = cfg.n_queues
    s = cfg.edge_clock / cfg.workloads          # bits served per unit alpha
    B = cfg.bandwidth
    ae, be = alpha[:n], beta[:n]
    d = a - ae * s - be * B

    value = float(np.dot(q, d))
    g_alpha = np.zeros(n + 1)
    g_beta = np.zeros(n + 1)
    g_alpha[:n] = -q * s
    g_beta[:n] = -q * B

    Vp = dpp_cfg.penalty_weight
    if Vp != 0.0:
        ghz = 1e9
        sum_alpha = float(ae.sum())
        per_core = cfg.edge_clock * sum_alpha / cfg.edge_cores / ghz
        value += Vp * cfg.edge_cores * per_core ** 3
        g_alpha[:n] += Vp * 3.0 * per_core ** 2 * cfg.edge_clock / ghz

        remaining = q + a - ae * s
        o = np.maximum(0.0, np.minimum(be * B, remaining))
        W = float(np.dot(cfg.workloads, o))
        if W > 0.0:
            value += Vp * cfg.cloud_cores * (W / cfg.cloud_cores / ghz) ** 3
            dC_dW = 3.0 * (W / cfg.cloud_cores / ghz) ** 2 / ghz
            # min() subgradient: bandwidth-limited branch wins at ties
            bw_branch = (remaining > 0.0) & (be * B <= remaining)
            bl_branch = (remaining > 0.0) & ~bw_branch
            g_beta[:n] += np.where(bw_branch, Vp * dC_dW * cfg.workloads * B, 0.0)
            g_alpha[:n] += np.where(bl_branch, -Vp * dC_dW * cfg.workloads * s, 0.0)
    return value, g_alpha, g_beta


DESCENT_ITERATIONS = 200
DESCENT_STEP = 0.5
DESCENT_TOLERANCE = 1e-8      # relative objective-change stop
DESCENT_RESTARTS = 8          # random starts beside uniform + idle


def descend(q, a, alpha, beta, cfg, dpp_cfg, iterations=DESCENT_ITERATIONS):
    """Projected gradient descent with backtracking from one start; the
    objective never increases."""
    f, g_a, g_b = objective_and_gradient(q, a, alpha, beta, cfg, dpp_cfg)
    step = DESCENT_STEP
    for _ in range(iterations):
        assert np.isfinite(f) and np.all(np.isfinite(g_a)) and np.all(np.isfinite(g_b))
        trial = min(2.0 * step, DESCENT_STEP)
        accepted = False
        for _ in range(60):
            na = project_simplex(alpha - trial * g_a)
            nb = project_simplex(beta - trial * g_b)
            fn = dpp_objective(q, a, Action(na, nb), cfg, dpp_cfg)
            if fn < f:
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            break
        step = trial
        done = (f - fn) <= DESCENT_TOLERANCE * max(1.0, abs(fn))
        alpha, beta, f = na, nb, fn
        if done:
            break
        _, g_a, g_b = objective_and_gradient(q, a, alpha, beta, cfg, dpp_cfg)
    return f, alpha, beta


def multistart_descent(q, a, cfg: SystemConfig, dpp_cfg: DppConfig,
                       rng: np.random.Generator) -> Action:
    """Best descent over the uniform, all-idle and DESCENT_RESTARTS random
    simplex starts drawn from rng: the reference the exact solve must beat."""
    n = cfg.n_queues
    starts = [Action.uniform(n), Action.idle(n)]
    ones = np.ones(n + 1)
    for _ in range(DESCENT_RESTARTS):
        starts.append(Action(rng.dirichlet(ones), rng.dirichlet(ones)))

    best = None
    for start in starts:
        f, alpha, beta = descend(q, a, start.alpha.copy(), start.beta.copy(),
                                 cfg, dpp_cfg)
        if best is None or f < best[0]:
            best = (f, alpha, beta)
    return Action(alpha=best[1], beta=best[2])


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

    def test_gradient_matches_finite_differences(self):
        # central differences on interior points: the descent reference of
        # test_never_worse_than_multistart_descent is only as strong as this
        # gradient
        cfg3 = three_app_config()
        rng = np.random.default_rng(4)
        dc = DppConfig(penalty_weight=10.0 ** rng.uniform(0, 8))
        for _ in range(30):
            q = rng.uniform(0, 3e7, 3)
            a = rng.uniform(0, 2e7, 3)
            alpha = rng.dirichlet(np.ones(4))
            beta = rng.dirichlet(np.ones(4))
            f, g_a, g_b = objective_and_gradient(q, a, alpha, beta, cfg3, dc)
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
        act = dpp_step_optimize([10.0], [0.0], cfg, dc)
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
            act = dpp_step_optimize([q], [a], cfg, dc)
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
        for Vp in (0.0, 1e9):
            dc = DppConfig(penalty_weight=Vp)
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
            dc = DppConfig(penalty_weight=Vp)
            act = dpp_step_optimize(q, a, cfg, dc)
            assert action_errors(act, tol=1e-12) == []
            exact = dpp_objective(q, a, act, cfg, dc)
            descent = dpp_objective(q, a, multistart_descent(q, a, cfg, dc, rng),
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
            act = dpp_step_optimize(q, a, cfg, dc)
            np.testing.assert_array_equal(act.alpha, np.eye(4)[np.argmax(q * s)])
            np.testing.assert_array_equal(act.beta, np.eye(4)[np.argmax(q)])
        act = dpp_step_optimize(np.zeros(3), a, cfg, dc)
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

    def test_cubic_cost_without_cloud_cores_fails_clearly(self):
        cfg = three_app_config(cloud_cores=0)
        for Vp in (0.0, 1e11):
            with pytest.raises(ValueError, match="cloud_cores"):
                dpp_step_optimize([1e7, 0.0, 3e6], [2e6, 1e6, 0.0], cfg,
                                  DppConfig(penalty_weight=Vp))

    def test_exact_solve_draws_nothing_from_rng(self):
        # the solve takes no generator, and it must not fall back on numpy's
        # global one: the same instance gives the same action every time
        cfg = three_app_config()
        rng = np.random.default_rng(14)
        q = rng.uniform(0, 3e7, 3)
        a = rng.uniform(0, 2e7, 3)
        before = np.random.get_state()
        for Vp in (0.0, 1e6, 1e11):
            dc = DppConfig(penalty_weight=Vp)
            first = dpp_step_optimize(q, a, cfg, dc)
            again = dpp_step_optimize(q, a, cfg, dc)
            assert np.array_equal(first.alpha, again.alpha)
            assert np.array_equal(first.beta, again.beta)
        after = np.random.get_state()
        assert before[0] == after[0] and np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]

    def test_descent_is_monotone_in_iteration_budget(self):
        # the gate's reference descent: a larger budget never ends higher
        cfg = three_app_config()
        dc = DppConfig(penalty_weight=1e6)
        rng = np.random.default_rng(8)
        q = rng.uniform(0, 1e8, 3)
        a = rng.uniform(0, 2e7, 3)
        start = Action.uniform(3)
        prev = np.inf
        for iters in (1, 2, 5, 10, 30, 80, 200):
            f, _, _ = descend(q, a, start.alpha.copy(), start.beta.copy(),
                              cfg, dc, iterations=iters)
            assert f <= prev + 1e-9
            prev = f

    def test_emitted_actions_satisfy_simplex(self):
        cfg = three_app_config()
        rng = np.random.default_rng(7)
        for _ in range(10):
            q = rng.uniform(0, 1e8, 3)
            a = rng.uniform(0, 2e7, 3)
            dc = DppConfig(penalty_weight=10.0 ** rng.uniform(0, 8))
            act = dpp_step_optimize(q, a, cfg, dc)
            assert action_errors(act, tol=1e-9) == []

    def test_symmetry_swapped_instance_swaps_solution(self):
        # relabelling the queues relabels the program, so the optimal value
        # must not move; a solve that depended on queue order would
        app1 = AppProfile.from_bounds(8000, 5.0, "10kB", "50kB")
        cfg = SystemConfig(n_queues=2, edge_clock=8e9, edge_cores=2,
                           bandwidth=3e6, cloud_cores=4, rho=1e-9,
                           penalty_weight=0.0, reward_exponent=1.0,
                           episode_length=100, apps=(app1, app1))
        dc = DppConfig(penalty_weight=1e8)
        q = np.array([2e6, 8e6])
        a = np.array([1e6, 3e6])
        cases = [(cfg, dc, q, a, np.array([1, 0]))]
        rng = np.random.default_rng(15)
        for _ in range(50):
            base = three_app_config()
            perm = rng.permutation(3)
            cases.append((base, DppConfig(penalty_weight=10.0 ** rng.uniform(0.0, 12.0)),
                          10.0 ** rng.uniform(4.0, 8.0, 3),
                          10.0 ** rng.uniform(4.0, 8.0, 3), perm))
        for cfg, dc, q, a, perm in cases:
            swapped = dataclasses.replace(cfg, apps=tuple(cfg.apps[k] for k in perm))
            f1 = dpp_objective(q, a, dpp_step_optimize(q, a, cfg, dc), cfg, dc)
            f2 = dpp_objective(q[perm], a[perm],
                               dpp_step_optimize(q[perm], a[perm], swapped, dc),
                               swapped, dc)
            assert f2 == pytest.approx(f1, rel=1e-12)

    def test_per_core_cost_refused(self):
        cfg = speech_cfg(cloud_cost_kind="per-core")
        with pytest.raises(UnsupportedObjectiveError):
            dpp_step_optimize([1.0], [1.0], cfg, DppConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DppConfig(penalty_weight=-1.0)


def dpp_episode(cfg, dpp_cfg, T, rng):
    """A T-slot DPP episode whose arrivals draw from rng."""
    trace, reward_sum = run_episode(DppController(cfg, dpp_cfg), cfg, rng, T=T)
    return trace, metrics_from_trace(trace, reward_sum)


class TestEpisode:
    def test_zero_arrivals_stay_empty(self):
        silent = AppProfile(workload_cycles_per_bit=1e4, arrival_rate=0.0,
                            size_min=1.0, size_max=2.0, size_mean=1.5,
                            size_std=0.25)
        cfg = speech_cfg(apps=(silent,))
        trace, metrics = dpp_episode(cfg, DppConfig(), 50, np.random.default_rng(0))
        assert metrics["avg_queue"] == 0.0
        assert len(trace) == 50

    def test_per_core_error_carries_slot_index(self):
        cfg = desk_config(cloud_cost_kind="per-core")
        with pytest.raises(UnsupportedObjectiveError, match="slot 0"):
            dpp_episode(cfg, DppConfig(), 10, np.random.default_rng(0))

    def test_solver_draws_leave_the_arrivals_alone(self):
        # the arrivals must be those of an environment that owns the
        # generator alone
        cfg = desk_config()
        dc = DppConfig(penalty_weight=1e8)
        trace, _ = dpp_episode(cfg, dc, 10, np.random.default_rng(3))
        env = EdgeCloudEnv(cfg, rng=np.random.default_rng(3))
        arrivals = [env.reset().arrival]
        for _ in range(9):
            arrivals.append(env.step(Action.idle(2)).next_state.arrival)
        np.testing.assert_array_equal(np.array(trace.a), np.array(arrivals))

    def test_desk_episode_metrics_match_trace(self):
        cfg = desk_config()
        dc = DppConfig(penalty_weight=0.0)
        trace, metrics = dpp_episode(cfg, dc, 60, np.random.default_rng(1))
        assert metrics["avg_penalty"] == pytest.approx(trace.penalties.mean())
        assert metrics["avg_queue"] == pytest.approx(trace.queue_totals.mean())
        for k in range(len(trace)):
            assert trace.alpha[k].sum() <= 1.0 + 1e-9
            assert trace.beta[k].sum() <= 1.0 + 1e-9
