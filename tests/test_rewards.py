import numpy as np
import pytest

from lyaq.rewards import (RewardSpec, UnsupportedRewardError,
                          check_theorem1_conditions, compute_reward,
                          episode_reward_identities, power_reward_bound,
                          reward_diff, reward_mean_diff, reward_power,
                          reward_reshaped, StabilityBound)


def spec(**kw):
    base = dict(kind="power", exponent=1.0, rho=1.0, penalty_weight=0.0)
    base.update(kw)
    return RewardSpec(**base)


class TestPowerReward:
    def test_substitution(self):
        assert reward_power([2.0, 3.0], 0.0, spec()) == pytest.approx(-5.0)

    def test_empty_system(self):
        assert reward_power([0.0, 0.0], 0.0, spec()) == 0.0

    def test_with_cost(self):
        s = spec(exponent=2.0, penalty_weight=1.0)
        assert reward_power([2.0], 3.0, s) == pytest.approx(-7.0)


class TestReshapedReward:
    def test_substitution(self):
        s = spec()
        assert reward_reshaped([3.0], [7.0], 1, 4, s) == pytest.approx(-3.0)

    def test_hand_trajectory_sum_equivalence(self):
        # q = [0, 2, 5, 4], T=3, nu=1: both sides equal -11/3
        s = spec()
        q = [[0.0], [2.0], [5.0], [4.0]]
        total = sum(reward_reshaped(q[t], q[t + 1], t, 3, s) for t in range(3))
        assert total == pytest.approx(-11.0 / 3.0)
        power_mean = sum(reward_power(q[t + 1], 0.0, s) for t in range(3)) / 3
        assert total == pytest.approx(power_mean)

    def test_no_change_is_zero(self):
        s = spec()
        assert reward_reshaped([4.0], [4.0], 0, 10, s) == 0.0

    def test_slot_range_checked(self):
        with pytest.raises(ValueError):
            reward_reshaped([0.0], [1.0], 5, 5, spec())


class TestDiffReward:
    def test_nu2_equals_negative_twice_drift(self):
        # with nu=2, V=0 the diff reward is -2 rho * [L(t+1) - L(t)] for the
        # quadratic congestion function L = 0.5 * sum q^2
        rng = np.random.default_rng(0)
        s = spec(kind="diff", exponent=2.0, rho=0.7)
        for _ in range(100):
            q0 = rng.uniform(0, 10, 4)
            q1 = rng.uniform(0, 10, 4)
            drift = 0.5 * (np.sum(q1 ** 2) - np.sum(q0 ** 2))
            got = reward_diff(q0, q1, 0.0, s)
            assert got == pytest.approx(-2.0 * s.rho * drift, rel=1e-12)

    def test_telescoping_to_final_backlog(self):
        rng = np.random.default_rng(1)
        s = spec(kind="diff", exponent=1.0, rho=1.0)
        q = np.vstack([np.zeros(3), rng.uniform(0, 50, size=(30, 3))])
        total = sum(reward_diff(q[t], q[t + 1], 0.0, s) for t in range(30))
        assert total == pytest.approx(-np.sum(q[-1]), rel=1e-9)

    def test_pure_penalty(self):
        s = spec(kind="diff", penalty_weight=2.0)
        assert reward_diff([5.0], [5.0], 3.0, s) == pytest.approx(-6.0)


class TestUnitExponent:
    """At nu = 1, x ** 1.0 is exactly x, and reward_diff, reward_reshaped
    and reward_power skip the power: each must still equal the general
    expression bit for bit, on arrays and on lists."""

    # 16 queues near 1e15, where sums lose low bits: summing in another
    # order, or subtracting the two sums, gives other floats (checked below)
    NEAR = 1e15 + np.random.default_rng(30).uniform(0.0, 1e3, size=(2, 16))
    ZERO = np.zeros(16)
    CASES = [(NEAR[0], NEAR[1]), (NEAR[1], NEAR[0]), (ZERO, ZERO), (ZERO, NEAR[1]),
             (NEAR[0], ZERO)]

    def test_the_queues_tell_a_reassociated_sum(self):
        prev, nxt = self.NEAR
        assert np.sum(nxt) - np.sum(prev) != np.sum(nxt - prev)
        assert sum(nxt.tolist()) != np.sum(nxt)

    @pytest.mark.parametrize("penalty_weight,cost", [(0.0, 0.0), (0.3, 2.5)])
    @pytest.mark.parametrize("as_list", [False, True])
    def test_diff_and_reshaped_are_the_general_expression(self, penalty_weight, cost,
                                                          as_list):
        s = spec(kind="diff", rho=1e-9, penalty_weight=penalty_weight)
        for prev, nxt in self.CASES:
            change = np.sum(nxt ** 1.0 - prev ** 1.0)
            general = float(-s.rho * change - s.penalty_weight * cost)
            args = (prev.tolist(), nxt.tolist()) if as_list else (prev, nxt)
            assert reward_diff(*args, cost, s).hex() == general.hex()
            reshaped = float(-s.rho * ((7 - 2) / 7) * change)
            assert reward_reshaped(*args, 2, 7, s).hex() == reshaped.hex()

    @pytest.mark.parametrize("penalty_weight,cost", [(0.0, 0.0), (0.3, 2.5)])
    @pytest.mark.parametrize("as_list", [False, True])
    def test_power_is_the_general_expression(self, penalty_weight, cost, as_list):
        s = spec(kind="power", rho=1e-9, penalty_weight=penalty_weight)
        for q in (self.NEAR[0], self.NEAR[1], self.ZERO):
            general = float(-s.rho * np.sum(q ** 1.0) - s.penalty_weight * cost)
            assert reward_power(q.tolist() if as_list else q, cost, s).hex() == general.hex()


class TestMeanDiffReward:
    def test_nu1_substitution(self):
        s = spec(kind="mean-diff", mean_arrival_bits=np.array([10.0]))
        assert reward_mean_diff([0.0], [12.0], 0.0, s) == pytest.approx(2.0)

    def test_nu2_substitution(self):
        s = spec(kind="mean-diff", exponent=2.0,
                 mean_arrival_bits=np.array([10.0]))
        assert reward_mean_diff([5.0], [12.0], 0.0, s) == pytest.approx(16.0)

    def test_balanced_service_is_zero(self):
        m = np.array([7.0, 3.0])
        s1 = spec(kind="mean-diff", mean_arrival_bits=m)
        s2 = spec(kind="mean-diff", exponent=2.0, mean_arrival_bits=m)
        assert reward_mean_diff([0.0, 0.0], m, 0.0, s1) == 0.0
        assert reward_mean_diff([4.0, 9.0], m, 0.0, s2) == 0.0

    def test_unsupported_exponent_rejected(self):
        with pytest.raises(UnsupportedRewardError):
            spec(kind="mean-diff", exponent=1.5, mean_arrival_bits=np.array([1.0]))

    def test_nu2_matches_mean_substituted_diff_form(self):
        # expanding (q + m - b)^2 - q^2 must equal 2q(m-b) + (m-b)^2
        rng = np.random.default_rng(2)
        for _ in range(300):
            q = rng.uniform(0, 100, 3)
            b = rng.uniform(0, 50, 3)
            m = rng.uniform(0, 50, 3)
            s = spec(kind="mean-diff", exponent=2.0, rho=1e-3,
                     mean_arrival_bits=m)
            got = reward_mean_diff(q, b, 0.0, s)
            direct = -s.rho * (np.sum((q + m - b) ** 2) - np.sum(q ** 2))
            scale = max(abs(got), abs(direct), 1e-30)
            assert abs(got - direct) / scale < 1e-12


class TestRewardSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(UnsupportedRewardError):
            RewardSpec(kind="bogus")

    def test_exponent_domain(self):
        with pytest.raises(UnsupportedRewardError):
            RewardSpec(exponent=0.5)

    def test_mean_diff_needs_its_means(self):
        with pytest.raises(UnsupportedRewardError, match="mean_arrival_bits"):
            RewardSpec(kind="mean-diff")


class TestTheorem1:
    def test_power_reward_satisfies_condition_with_slack_rho_n(self):
        # r_t <= rho*N - rho*sum q(t+1) via x^nu >= x - 1, any nu >= 1
        rng = np.random.default_rng(3)
        for nu in (1.0, 1.5, 2.0, 3.0):
            s = spec(exponent=nu, rho=0.3)
            n = 4
            bound = power_reward_bound(s.rho, n)
            q = np.vstack([np.zeros(n), rng.uniform(0, 20, size=(200, n))])
            r = np.array([reward_power(q[t + 1], 0.0, s) for t in range(200)])
            report = check_theorem1_conditions(r, q, bound.U, bound.eta)
            assert report.upper_holds
            if nu == 1.0:
                gaps = bound.U - bound.eta * q[1:].sum(axis=1) - r
                assert np.allclose(gaps, s.rho * n)

    def test_violation_reports_first_index(self):
        q = np.vstack([np.zeros(1), np.ones((5, 1))])
        r = np.full(5, 2.0)  # r_t = U + 1 with U = 1, eta = 1, q == 1
        report = check_theorem1_conditions(r, q, U=1.0, eta=1.0)
        assert not report.upper_holds
        assert report.first_upper_violation == 0

    def test_prefix_chain_on_random_conforming_traces(self):
        # brute-force oracle: traces built to satisfy both pointwise
        # conditions must satisfy the averaged chain on every prefix
        rng = np.random.default_rng(4)
        for _ in range(1000):
            T = int(rng.integers(2, 40))
            n = int(rng.integers(1, 4))
            U = float(rng.uniform(0.5, 5.0))
            eta = float(rng.uniform(0.1, 2.0))
            q = np.vstack([np.zeros(n), rng.uniform(0, 3.0, size=(T, n))])
            caps = U - eta * q[1:].sum(axis=1)
            r_min = float(caps.min() - rng.uniform(0.1, 2.0))
            r = rng.uniform(r_min, caps)
            report = check_theorem1_conditions(r, q, U, eta, r_min=r_min)
            assert report.ok, report
            # independent prefix recomputation
            for t in range(1, T + 1):
                avg_q = q[: t + 1].sum() / t
                mean_r = r[:t].mean()
                assert avg_q <= (U - mean_r) / eta + 1e-9
                assert (U - mean_r) / eta <= (U - r_min) / eta + 1e-9

    def test_lower_bound_violation_detected(self):
        q = np.vstack([np.zeros(2), np.ones((4, 2))])
        r = np.array([0.0, -3.0, 0.0, 0.0])
        report = check_theorem1_conditions(r, q, U=5.0, eta=1.0, r_min=-1.0)
        assert report.lower_holds is False
        assert report.first_lower_violation == 1

    def test_stability_bound_value(self):
        b = StabilityBound(U=3.0, eta=0.5, r_min=-7.0)
        assert b.bound == pytest.approx(20.0)
        assert StabilityBound(U=1.0, eta=1.0).bound is None

    def test_alignment_errors(self):
        with pytest.raises(ValueError):
            check_theorem1_conditions([1.0], np.zeros((3, 1)), 1.0, 1.0)
        with pytest.raises(ValueError):
            check_theorem1_conditions([1.0], np.ones((2, 1)), 1.0, 1.0)


class TestEpisodeIdentities:
    def test_random_trajectories_both_exponents(self):
        # evaluate both sides of each identity independently on 1000 random
        # trajectories; 1e-9 relative is far above float64 round-off here
        rng = np.random.default_rng(5)
        for k in range(1000):
            T = int(rng.integers(1, 60) if k % 10 else rng.integers(600, 1000))
            n = int(rng.integers(1, 4))
            nu = 1.0 if k % 2 else 2.0
            scale = 10.0 ** rng.integers(0, 7)
            q = np.vstack([np.zeros(n),
                           rng.uniform(0, scale, size=(T, n))])
            report = episode_reward_identities(q, T, nu, rho=1e-9)
            assert report.coefficient_exact
            assert report.ok(rel_tol=1e-9), (T, n, nu, report)

    def test_zero_trajectory(self):
        report = episode_reward_identities(np.zeros((11, 2)), 10, 2.0, 1.0)
        assert report.sum_reshaped == 0.0
        assert report.mean_power == 0.0
        assert report.sum_diff == 0.0
        assert report.ok()

    def test_single_step_episode(self):
        q = np.array([[0.0, 0.0], [3.0, 4.0]])
        report = episode_reward_identities(q, 1, 1.0, rho=2.0)
        # weight (T-0)/T = 1; sum equals -rho * sum q(1)
        assert report.sum_reshaped == pytest.approx(-14.0)
        assert report.final_power == pytest.approx(-14.0)
        assert report.ok()

    def test_requires_zero_start(self):
        with pytest.raises(ValueError):
            episode_reward_identities(np.ones((4, 1)), 3, 1.0, 1.0)


def test_compute_reward_dispatch():
    from lyaq.env import StateVector, StepOutcome

    def state(q):  # what the rewards read of a state is its queue
        return StateVector(queue=np.array([q]), arrival=None, observation=None)

    before = state(1.0)
    outcome = StepOutcome(next_state=state(4.0),
                          departures=np.array([2.0]), offloads=np.array([0.0]),
                          edge_cost=1.5, cloud_cost=0.5)
    m = np.array([5.0])
    cases = {
        "power": -4.0 - 2.0,
        "diff": -(4.0 - 1.0) - 2.0,
        "mean-diff": -(5.0 - 2.0) - 2.0,
    }
    for kind, expected in cases.items():
        s = spec(kind=kind, penalty_weight=1.0, mean_arrival_bits=m)
        assert compute_reward(before, outcome, s) == pytest.approx(expected)
    # the queue-only analysis form is refused by name, not computed
    with pytest.raises(UnsupportedRewardError, match="'reshaped'"):
        spec(kind="reshaped")
