import dataclasses
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lyaq.config import AppProfile, SystemConfig, get_profile, parse_size
from lyaq.dpp import (DppConfig, DppController, UnsupportedObjectiveError,
                      dpp_objective, project_simplex,
                      _pairs, _quadratic_roots, _structured_candidates)
from lyaq.env import Action, EdgeCloudEnv, cloud_cost, edge_cost
from lyaq.harness import make_controller, metrics_from_trace, run_episode

from reference_dynamics import compute_offload
from test_env import action_errors


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


# The V' > 0 solve before the closed form: the same decomposition, with a
# 9-round refined grid search over t = alpha_k. Kept verbatim (two names
# changed) as the reference the closed form must match.
# The 1-D search over t = alpha_k evaluates _SEARCH_GRID points per round and
# keeps the two cells around the best: (2 / 64)^9 < 4e-14 of [L_k, 1] is left.
_SEARCH_GRID = 65
_SEARCH_ROUNDS = 9


class GridSearchOffloadCandidates:
    """Candidate maximizers y of the cloud part of each program,

        sum_i v_i y_i - cC (W0 + sum_i w_i y_i)^3,  y >= 0, sum_i y_i <= Bp,

    with C = 1 + N + N(N-1)/2 candidates: y = 0, each queue alone at its
    stationary point clipped to [0, Bp], and each pair (i, l) filling Bp at
    W = W0 + sum w y with 3 cC W^2 = (v_i - v_l) / (w_i - w_l). v is fixed
    per program, and no pair may include a queue marked in `excluded`
    (whose v is 0, so it never gets y alone either); W0 and Bp vary with t."""

    def __init__(self, v, w, cC, excluded):
        n = w.size
        self.v, self.w, self.cC, self.n = v, w, cC, n
        self.I, self.L = np.triu_indices(n, 1)
        self.W_single = np.sqrt(np.maximum(v, 0.0) / (3.0 * cC * w))
        dw = w[self.I] - w[self.L]
        self.dw = np.where(dw == 0.0, 1.0, dw)
        self.v_i, self.v_l, self.w_l = v[..., self.I], v[..., self.L], w[self.L]
        mu = (self.v_i - self.v_l) / self.dw
        self.W_pair = np.sqrt(np.maximum(mu, 0.0) / (3.0 * cC))
        self.pair_cost = cC * self.W_pair ** 3
        self.pair_ok = ~(excluded[..., self.I] | excluded[..., self.L]) \
            & (dw != 0.0) & (mu > 0.0)

    def __call__(self, W0, Bp):
        """(values (..., C), y_single (..., N), y_pair_i, y_pair_l (..., P))."""
        W0e, Bpe = W0[..., None], Bp[..., None]
        single = np.minimum(np.maximum((self.W_single - W0e) / self.w, 0.0), Bpe)
        y_i = (self.W_pair - W0e - self.w_l * Bpe) / self.dw
        y_l = Bpe - y_i
        pair = self.v_i * y_i + self.v_l * y_l - self.pair_cost
        values = np.concatenate([
            -self.cC * W0e ** 3,
            self.v * single - self.cC * (W0e + self.w * single) ** 3,
            np.where(self.pair_ok & (y_i >= 0.0) & (y_l >= 0.0), pair, -np.inf),
        ], axis=-1)
        return values, single, y_i, y_l

    def dense(self, single, y_i, y_l):
        """Every candidate as a full vector, shape (..., C, N)."""
        eye = np.eye(self.n)
        return np.concatenate([np.zeros(single.shape[:-1] + (1, self.n)),
                               single[..., :, None] * eye,
                               y_i[..., :, None] * eye[self.I]
                               + y_l[..., :, None] * eye[self.L]], axis=-2)


def grid_search_candidates(q, a, cfg: SystemConfig, penalty_weight: float):
    """(labels, alpha (S, N+1), beta (S, N+1)) of the candidate actions the
    exact linear-drift solve scores: uniform, idle, then the LP vertex at
    V' = 0, else the optima of D_none and of every feasible D_k (see the
    module docstring)."""
    n = cfg.n_queues
    uniform, idle = Action.uniform(n), Action.idle(n)
    w = cfg.workloads
    s = cfg.edge_clock / w
    B = cfg.bandwidth
    g = q * s
    if penalty_weight == 0.0:
        alpha = np.zeros(n + 1)
        beta = np.zeros(n + 1)
        alpha[np.argmax(g)] = 1.0
        beta[np.argmax(q)] = 1.0
        return (("uniform", "idle", "lp-vertex"),
                np.stack([uniform.alpha, idle.alpha, alpha]),
                np.stack([uniform.beta, idle.beta, beta]))

    cE = penalty_weight * cfg.edge_cores * (cfg.edge_clock / cfg.edge_cores / 1e9) ** 3
    cC = penalty_weight * cfg.cloud_cores * (1.0 / cfg.cloud_cores / 1e9) ** 3
    backlog = q + a
    lower = np.maximum(0.0, (backlog - B) / s)
    ks = np.flatnonzero(lower <= 1.0)
    # program 0 is D_none, a D_k with no overflow queue and t pinned at 0
    rows = np.arange(ks.size + 1)
    own = np.zeros((rows.size, n), dtype=bool)
    own[rows[1:], ks] = True

    def per_program(x, none_value):
        return np.concatenate([[none_value], x[ks]])[:, None]

    qk, gk = per_program(q, 0.0), per_program(g, 0.0)
    rk0, sk, wk = per_program(backlog, 0.0), per_program(s, 1.0), per_program(w, 0.0)
    g_rest = np.where(own, 0.0, g)
    m = np.argmax(g_rest, axis=1)
    gm = g_rest[rows, m][:, None]
    a_star = np.minimum(np.sqrt(gm / (3.0 * cE)), 1.0)
    offload = GridSearchOffloadCandidates((q - qk)[:, None, :], w, cC, own[:, None, :])

    def solve(t):
        """Edge total A, cloud candidates and value of every program at
        alpha_k = t, each with leading shape t.shape."""
        r = np.maximum(0.0, rk0 - sk * t)
        A = np.maximum(a_star, t)
        cloud = offload(wk * r, B - r)
        edge = gk * t + gm * (A - t) - cE * A ** 3
        return A, cloud, edge + qk * B + cloud[0].max(axis=-1)

    t = lo = per_program(lower, 0.0)
    hi = per_program(np.ones(n), 0.0)
    if ks.size:  # D_none alone needs no search
        frac = np.linspace(0.0, 1.0, _SEARCH_GRID)
        for _ in range(_SEARCH_ROUNDS):
            grid = lo + (hi - lo) * frac
            j = np.argmax(solve(grid)[2], axis=1)
            lo = grid[rows, np.maximum(j - 1, 0)][:, None]
            hi = grid[rows, np.minimum(j + 1, _SEARCH_GRID - 1)][:, None]
        t = grid[rows, j][:, None]

    A, (values, *parts), _ = solve(t)
    y = offload.dense(*parts)[rows, 0, np.argmax(values[:, 0], axis=-1)]
    y = np.where(own, B - y.sum(axis=1, keepdims=True), y)
    alpha = np.zeros((rows.size, n + 1))
    alpha[rows, m] = A[:, 0] - t[:, 0]
    alpha[:, :n] += own * t
    alpha[:, n] = 1.0 - A[:, 0]
    beta = np.concatenate([y / B, 1.0 - y.sum(axis=1, keepdims=True) / B], axis=1)
    labels = ("uniform", "idle", "none") + tuple(f"overflow-{k}" for k in ks)
    return (labels, np.vstack([uniform.alpha, idle.alpha, alpha]),
            np.vstack([uniform.beta, idle.beta, beta]))



# The solve before its constants moved into the controller, kept verbatim
# (names aside) as the bit-for-bit reference: every (cfg, V') constant is
# rebuilt per call, the programs' values are seven concatenations, and the
# objective calls the reference compute_offload.


def reference_project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1} by iterative active-set
    removal: shift the active coordinates to sum to one, drop any that went
    nonpositive, repeat. Exact in at most n passes."""
    v = np.asarray(v, dtype=float)
    active = np.ones(v.size, dtype=bool)
    n_active = v.size
    tau = (v.sum() - 1.0) / n_active
    for _ in range(v.size):
        keep = active & (v > tau)
        n_keep = int(keep.sum())
        if n_keep == n_active or n_keep == 0:
            break
        active = keep
        n_active = n_keep
        tau = (v[active].sum() - 1.0) / n_active
    return np.maximum(v - tau, 0.0)


def reference_dpp_objective(q, a, action: Action, cfg: SystemConfig,
                  dpp_cfg: DppConfig):
    """Drift-plus-penalty value of a candidate action at observed (q, a): a
    float for one action, an (S,) array when alpha and beta are (S, N+1)."""
    q = np.asarray(q, dtype=float)
    a = np.asarray(a, dtype=float)
    d = a - action.alpha_eff * cfg.edge_clock / cfg.workloads \
        - action.beta_eff * cfg.bandwidth
    value = d @ q
    if dpp_cfg.penalty_weight != 0.0:
        o = compute_offload(q + a, action, cfg)
        value = value + dpp_cfg.penalty_weight * (edge_cost(action.alpha_eff, cfg)
                                                  + cloud_cost(o, cfg))
    return float(value) if value.ndim == 0 else value


class ReferenceOffloadCandidates:
    """Candidate maximizers y of the cloud part of each program,

        sum_i v_i y_i - cC (W0 + sum_i w_i y_i)^3,  y >= 0, sum_i y_i <= Bp,

    with C = 1 + N + N(N-1)/2 candidates: y = 0, each queue alone at its
    stationary point clipped to [0, Bp], and each pair (i, l) filling Bp at
    W = W0 + sum w y with 3 cC W^2 = (v_i - v_l) / (w_i - w_l). v is fixed
    per program, and no pair may include a queue marked in `excluded`
    (whose v is 0, so it never gets y alone either); W0 and Bp vary with t."""

    def __init__(self, v, w, cC, excluded):
        n = w.size
        self.v, self.w, self.cC, self.n = v, w, cC, n
        self.I, self.L, self.eye = _pairs(n)
        self.size = 1 + n + self.I.size
        self.W_single = np.sqrt(np.maximum(v, 0.0) / (3.0 * cC * w))
        dw = w[self.I] - w[self.L]
        self.dw = np.where(dw == 0.0, 1.0, dw)
        self.v_i, self.v_l, self.w_l = v[..., self.I], v[..., self.L], w[self.L]
        mu = (self.v_i - self.v_l) / self.dw
        self.W_pair = np.sqrt(np.maximum(mu, 0.0) / (3.0 * cC))
        self.pair_cost = cC * self.W_pair ** 3
        self.pair_ok = ~(excluded[..., self.I] | excluded[..., self.L]) \
            & (dw != 0.0) & (mu > 0.0)

    def __call__(self, W0, Bp):
        """(values (..., C), y_single (..., N), y_pair_i, y_pair_l (..., P))
        of every candidate c at its own W0[..., c] and Bp[..., c]."""
        n = self.n
        W0, Ws, Wp = W0[..., :1], W0[..., 1:n + 1], W0[..., n + 1:]
        Bs, Bpp = Bp[..., 1:n + 1], Bp[..., n + 1:]
        single = np.minimum(np.maximum((self.W_single - Ws) / self.w, 0.0), Bs)
        y_i = (self.W_pair - Wp - self.w_l * Bpp) / self.dw
        y_l = Bpp - y_i
        pair = self.v_i * y_i + self.v_l * y_l - self.pair_cost
        values = np.concatenate([
            -self.cC * W0 ** 3,
            self.v * single - self.cC * (Ws + self.w * single) ** 3,
            np.where(self.pair_ok & (y_i >= 0.0) & (y_l >= 0.0), pair, -np.inf),
        ], axis=-1)
        return values, single, y_i, y_l

    def dense(self, single, y_i, y_l):
        """Every candidate as a full vector, shape (..., C, N)."""
        eye = self.eye
        return np.concatenate([np.zeros(single.shape[:-1] + (1, self.n)),
                               single[..., :, None] * eye,
                               y_i[..., :, None] * eye[self.I]
                               + y_l[..., :, None] * eye[self.L]], axis=-2)


def reference_structured_candidates(q, a, cfg: SystemConfig, penalty_weight: float):
    """(labels, alpha (S, N+1), beta (S, N+1)) of the candidate actions the
    exact linear-drift solve scores: uniform, idle, then the LP vertex at
    V' = 0, else the optima of D_none and of every feasible D_k (see the
    module docstring)."""
    n = cfg.n_queues
    uniform, idle = Action.uniform(n), Action.idle(n)
    w = cfg.workloads
    s = cfg.edge_clock / w
    B = cfg.bandwidth
    g = q * s
    if penalty_weight == 0.0:
        alpha = np.zeros(n + 1)
        beta = np.zeros(n + 1)
        alpha[np.argmax(g)] = 1.0
        beta[np.argmax(q)] = 1.0
        return (("uniform", "idle", "lp-vertex"),
                np.stack([uniform.alpha, idle.alpha, alpha]),
                np.stack([uniform.beta, idle.beta, beta]))

    cE = penalty_weight * cfg.edge_cores * (cfg.edge_clock / cfg.edge_cores / 1e9) ** 3
    cC = penalty_weight * cfg.cloud_cores * (1.0 / cfg.cloud_cores / 1e9) ** 3
    backlog = q + a
    lower = np.maximum(0.0, (backlog - B) / s)
    ks = np.flatnonzero(lower <= 1.0)
    # program 0 is D_none, a D_k with no overflow queue and t pinned at 0
    rows = np.arange(ks.size + 1)
    own = np.zeros((rows.size, n), dtype=bool)
    own[rows[1:], ks] = True

    def per_program(x, none_value):
        return np.concatenate([[none_value], x[ks]])[:, None, None]

    qk, gk = per_program(q, 0.0), per_program(g, 0.0)
    rk0, sk, wk = per_program(backlog, 0.0), per_program(s, 1.0), per_program(w, 0.0)
    lo, hi = per_program(lower, 0.0), per_program(np.ones(n), 0.0)
    g_rest = np.where(own, 0.0, g)
    m = np.argmax(g_rest, axis=1)
    gm = g_rest[rows, m][:, None, None]
    a_star = np.minimum(np.sqrt(gm / (3.0 * cE)), 1.0)
    offload = ReferenceOffloadCandidates(q - qk, w, cC, own[:, None, :])

    # Every candidate is scored at its own critical points (module
    # docstring), G = 7 of them: 4 that all share, then the roots of the
    # slope of y = 0, or the one of a queue inside its clip. Pairs add none;
    # a candidate with fewer points repeats L_k.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        shared = [lo, hi, rk0 / sk, np.sqrt(gk / (3.0 * cE))]
        # y = 0 has cloud value -cC (wk r)^3, so t-slope 3 cC wk^3 sk r^2:
        # set against gk - gm below a*, and against gk - 3 cE t^2 above a*
        # (a quadratic in t, as wk r = U - ds t)
        U, ds = wk * rk0, wk * sk
        empty = [rk0 / sk - np.sqrt((gm - gk) / (3.0 * cC * ds ** 3)),
                 *_quadratic_roots(3.0 * cC * ds ** 3 - 3.0 * cE,
                                   -6.0 * cC * ds * ds * U, 3.0 * cC * ds * U * U + gk)]
        # queue i inside its clip: the constant t-slope sk v_i wk / w_i
        # against gk - 3 cE t^2 (against gk - gm it leaves f monotone)
        alone = np.sqrt((gk + sk * offload.v * wk / w) / (3.0 * cE))
    t = np.zeros((rows.size, 7, offload.size)) + lo
    t[:, :4] = np.concatenate(shared, axis=1)
    t[:, 4:, :1] = np.concatenate(empty, axis=1)
    t[:, 4:5, 1:n + 1] = alone
    t = np.fmin(np.fmax(t, lo), hi)  # NaN -> L_k

    # the value of every program with cloud candidate c at alpha_k = t[..., c]
    r = np.maximum(0.0, rk0 - sk * t)
    A = np.maximum(a_star, t)
    values, *parts = offload(wk * r, B - r)
    total = gk * t + gm * (A - t) - cE * A ** 3 + qk * B + values
    j, c = np.divmod(np.argmax(total.reshape(rows.size, -1), axis=1), total.shape[2])
    t, A = t[rows, j, c], A[rows, j, c]
    y = offload.dense(*(p[rows, j] for p in parts))[rows, c]
    y = np.where(own, B - y.sum(axis=1, keepdims=True), y)
    alpha = np.zeros((rows.size, n + 1))
    alpha[rows, m] = A - t
    alpha[:, :n] += own * t[:, None]
    alpha[:, n] = 1.0 - A
    beta = np.concatenate([y / B, 1.0 - y.sum(axis=1, keepdims=True) / B], axis=1)
    labels = ("uniform", "idle", "none") + tuple(f"overflow-{k}" for k in ks)
    return (labels, np.vstack([uniform.alpha, idle.alpha, alpha]),
            np.vstack([uniform.beta, idle.beta, beta]))


def reference_dpp_step_optimize(q, a, cfg: SystemConfig, dpp_cfg: DppConfig) -> Action:
    """Exact minimizer of one slot's drift-plus-penalty program."""
    if cfg.cloud_cost_kind != "cubic":
        raise UnsupportedObjectiveError(
            f"cloud cost kind {cfg.cloud_cost_kind!r} is discontinuous; "
            "the drift-plus-penalty solver does not support it")
    q = np.asarray(q, dtype=float)
    a = np.asarray(a, dtype=float)
    _, alpha, beta = reference_structured_candidates(q, a, cfg, dpp_cfg.penalty_weight)
    best = int(np.argmin(reference_dpp_objective(q, a, Action(alpha, beta), cfg, dpp_cfg)))
    return Action(alpha=reference_project_simplex(alpha[best]),
                  beta=reference_project_simplex(beta[best]))


def grid_search_value(q, a, cfg, dpp_cfg):
    """Objective value of the action the retired grid search returned."""
    _, alpha, beta = grid_search_candidates(q, a, cfg, dpp_cfg.penalty_weight)
    best = int(np.argmin(dpp_objective(q, a, Action(alpha, beta), cfg, dpp_cfg)))
    act = Action(alpha=project_simplex(alpha[best]), beta=project_simplex(beta[best]))
    return dpp_objective(q, a, act, cfg, dpp_cfg)


def tied_config(base, ties):
    """base with app i given app j's workload for every i: j in ties."""
    apps = list(base.apps)
    for i, j in ties.items():
        apps[i] = dataclasses.replace(
            apps[i], workload_cycles_per_bit=apps[j].workload_cycles_per_bit)
    return dataclasses.replace(base, apps=tuple(apps))


def tied_three_app_config():
    """paper with face at nlp's workload."""
    return tied_config(get_profile("paper"), {2: 1})


def tied_eight_app_config():
    """paper8 with search at speech's, 3dgame at face's and ar at vr's
    workload."""
    return tied_config(get_profile("paper8"), {3: 0, 5: 2, 7: 6})


def random_instance(rng, n):
    """V', q and a drawn as in the optimality gates."""
    Vp = 10.0 ** rng.uniform(0.0, 12.0)
    q = 10.0 ** rng.uniform(4.0, 8.0, n) * (rng.random(n) < 0.8)
    a = 10.0 ** rng.uniform(4.0, 8.0, n) * (rng.random(n) < 0.8)
    return Vp, q, a


def speech_cfg(**overrides):
    app = AppProfile(10435.0, 5.0, parse_size("40kB"), parse_size("300kB"), name="speech")
    base = dict(edge_clock=40e9, edge_cores=10, bandwidth=20e6,
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
        cfg3 = get_profile("paper")
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
        act = DppController(cfg, dc).solve([10.0], [0.0])
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
            act = DppController(cfg, dc).solve([q], [a])
            # the instances were first drawn beside a solver that took 8
            # random starts per call from this stream; burning those draws
            # keeps the same 50 instances
            for _ in range(16):
                rng.dirichlet(np.ones(2))
            val = dpp_objective([q], [a], act, cfg, dc)
            assert val <= best + 0.01 * abs(best)
            assert action_errors(act, tol=1e-9) == []

    def test_batched_objective_matches_single_actions(self):
        cfg = get_profile("paper")
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
        cfgs = (speech_cfg(), get_profile("desk"), get_profile("paper"), get_profile("paper8"))
        rng = np.random.default_rng(10)
        for i in range(200):
            cfg = cfgs[i % len(cfgs)]
            n = cfg.n_queues
            Vp = 10.0 ** rng.uniform(0.0, 12.0)
            q = 10.0 ** rng.uniform(4.0, 8.0, n) * (rng.random(n) < 0.8)
            a = 10.0 ** rng.uniform(4.0, 8.0, n) * (rng.random(n) < 0.8)
            dc = DppConfig(penalty_weight=Vp)
            act = DppController(cfg, dc).solve(q, a)
            assert action_errors(act, tol=1e-12) == []
            exact = dpp_objective(q, a, act, cfg, dc)
            descent = dpp_objective(q, a, multistart_descent(q, a, cfg, dc, rng),
                                    cfg, dc)
            assert exact <= descent + 1e-9 * max(1.0, abs(descent))

    def test_tied_workloads_never_worse_than_multistart_descent(self):
        # the gate above on configs where two or more apps share a workload,
        # which no profile has: pairs of equal w never fill B' together, and
        # the breakpoints of a queue tied with w_k drop out
        cfgs = (tied_three_app_config(), tied_eight_app_config())
        assert [cfg.n_queues - np.unique(cfg.workloads).size for cfg in cfgs] == [1, 3]
        rng = np.random.default_rng(16)
        for i in range(40):
            cfg = cfgs[i % len(cfgs)]
            Vp, q, a = random_instance(rng, cfg.n_queues)
            dc = DppConfig(penalty_weight=Vp)
            act = DppController(cfg, dc).solve(q, a)
            assert action_errors(act, tol=1e-12) == []
            exact = dpp_objective(q, a, act, cfg, dc)
            descent = dpp_objective(q, a, multistart_descent(q, a, cfg, dc, rng),
                                    cfg, dc)
            assert exact <= descent + 1e-9 * max(1.0, abs(descent))

    @pytest.mark.parametrize("name, seed", [
        ("speech", 30), ("desk", 31), ("paper", 32), ("paper8", 33),
        ("tied3", 34), ("tied8", 35)])
    def test_never_worse_than_the_retired_grid_search(self, name, seed):
        # 350 seeded instances per config, 2,100 in all
        cfg = TEST_CONFIGS[name]()
        rng = np.random.default_rng(seed)
        for _ in range(350):
            Vp, q, a = random_instance(rng, cfg.n_queues)
            dc = DppConfig(penalty_weight=Vp)
            exact = dpp_objective(q, a, DppController(cfg, dc).solve(q, a), cfg, dc)
            ref = grid_search_value(q, a, cfg, dc)
            assert exact <= ref + 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("name", ["paper", "paper8", "tied3"])
    def test_episode_states_match_the_retired_grid_search(self, name):
        cfg = TEST_CONFIGS[name]()
        for Vp in (1e9, 1e11):
            dc = DppConfig(penalty_weight=Vp)
            trace, _ = dpp_episode(cfg, dc, 60, np.random.default_rng(5))
            for q, a in zip(trace.q, trace.a):
                exact = dpp_objective(q, a, DppController(cfg, dc).solve(q, a), cfg, dc)
                ref = grid_search_value(q, a, cfg, dc)
                assert exact <= ref + 1e-12 * max(1.0, abs(ref))

    def test_pure_drift_returns_lp_vertex(self):
        cfg = get_profile("paper")
        dc = DppConfig(penalty_weight=0.0)
        s = cfg.edge_clock / cfg.workloads
        rng = np.random.default_rng(11)
        for _ in range(20):
            q = rng.uniform(0, 1e8, 3)
            a = rng.uniform(0, 2e7, 3)
            act = DppController(cfg, dc).solve(q, a)
            np.testing.assert_array_equal(act.alpha, np.eye(4)[np.argmax(q * s)])
            np.testing.assert_array_equal(act.beta, np.eye(4)[np.argmax(q)])
        act = DppController(cfg, dc).solve(np.zeros(3), a)
        np.testing.assert_array_equal(act.alpha, Action.uniform(3).alpha)
        np.testing.assert_array_equal(act.beta, Action.uniform(3).beta)
        # with five queues the projection moves the uniform row by rounding
        five = dataclasses.replace(cfg, apps=get_profile("paper8").apps[:5])
        ref = reference_dpp_step_optimize(np.zeros(5), np.ones(5), five, dc)
        assert ref.alpha.tobytes() != Action.uniform(5).alpha.tobytes()
        assert same_bytes(DppController(five, dc).solve(np.zeros(5), np.ones(5)), ref)

    def test_no_overflow_and_overflow_programs_both_win(self):
        # no branch of the decomposition is dead: D_none and some D_k are
        # each the unique best candidate on some instance
        cfg = get_profile("paper")
        rng = np.random.default_rng(12)
        winners = set()
        for _ in range(60):
            Vp = 10.0 ** rng.uniform(0.0, 12.0)
            q = 10.0 ** rng.uniform(4.0, 8.0, 3)
            a = 10.0 ** rng.uniform(4.0, 8.0, 3)
            dc = DppConfig(penalty_weight=Vp)
            alpha, beta = _structured_candidates(q, a, DppController(cfg, dc).constants)
            values = dpp_objective(q, a, Action(alpha, beta), cfg, dc)
            best = int(np.argmin(values))
            # rows 0 and 1 are uniform and idle, row 2 is D_none and the
            # rows after it the overflow programs D_k
            if np.sum(values == values[best]) == 1 and best >= 2:
                winners.add("none" if best == 2 else "overflow")
        assert {"none", "overflow"} <= winners

    def test_cubic_cost_without_cloud_cores_fails_clearly(self):
        for Vp in (0.0, 1e11):
            with pytest.raises(ValueError, match="cloud_cores"):
                cfg = dataclasses.replace(get_profile("paper"), cloud_cores=0)
                DppController(cfg, DppConfig(penalty_weight=Vp))

    def test_exact_solve_draws_nothing_from_rng(self):
        # the solve takes no generator, and it must not fall back on numpy's
        # global one: the same instance gives the same action every time
        cfg = get_profile("paper")
        rng = np.random.default_rng(14)
        q = rng.uniform(0, 3e7, 3)
        a = rng.uniform(0, 2e7, 3)
        before = np.random.get_state()
        for Vp in (0.0, 1e6, 1e11):
            dc = DppConfig(penalty_weight=Vp)
            first = DppController(cfg, dc).solve(q, a)
            again = DppController(cfg, dc).solve(q, a)
            assert np.array_equal(first.alpha, again.alpha)
            assert np.array_equal(first.beta, again.beta)
        after = np.random.get_state()
        assert before[0] == after[0] and np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]

    def test_descent_is_monotone_in_iteration_budget(self):
        # the gate's reference descent: a larger budget never ends higher
        cfg = get_profile("paper")
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
        cfg = get_profile("paper")
        rng = np.random.default_rng(7)
        for _ in range(10):
            q = rng.uniform(0, 1e8, 3)
            a = rng.uniform(0, 2e7, 3)
            dc = DppConfig(penalty_weight=10.0 ** rng.uniform(0, 8))
            act = DppController(cfg, dc).solve(q, a)
            assert action_errors(act, tol=1e-9) == []

    def test_symmetry_swapped_instance_swaps_solution(self):
        # relabelling the queues relabels the program, so the optimal value
        # must not move; a solve that depended on queue order would
        app1 = AppProfile(8000.0, 5.0, parse_size("10kB"), parse_size("50kB"))
        cfg = SystemConfig(edge_clock=8e9, edge_cores=2, bandwidth=3e6,
                           cloud_cores=4, rho=1e-9, penalty_weight=0.0,
                           reward_exponent=1.0, episode_length=100,
                           apps=(app1, app1))
        dc = DppConfig(penalty_weight=1e8)
        q = np.array([2e6, 8e6])
        a = np.array([1e6, 3e6])
        cases = [(cfg, dc, q, a, np.array([1, 0]))]
        rng = np.random.default_rng(15)
        for _ in range(50):
            base = get_profile("paper")
            perm = rng.permutation(3)
            cases.append((base, DppConfig(penalty_weight=10.0 ** rng.uniform(0.0, 12.0)),
                          10.0 ** rng.uniform(4.0, 8.0, 3),
                          10.0 ** rng.uniform(4.0, 8.0, 3), perm))
        for cfg, dc, q, a, perm in cases:
            swapped = dataclasses.replace(cfg, apps=tuple(cfg.apps[k] for k in perm))
            f1 = dpp_objective(q, a, DppController(cfg, dc).solve(q, a), cfg, dc)
            f2 = dpp_objective(q[perm], a[perm],
                               DppController(swapped, dc).solve(q[perm], a[perm]),
                               swapped, dc)
            assert f2 == pytest.approx(f1, rel=1e-12)

    def test_per_core_cost_refused(self):
        cfg = speech_cfg(cloud_cost_kind="per-core")
        with pytest.raises(UnsupportedObjectiveError):
            DppController(cfg, DppConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DppConfig(penalty_weight=-1.0)

    @pytest.mark.parametrize("Vp", [float("inf"), float("nan"), -float("inf")])
    def test_non_finite_weight_is_refused(self, Vp):
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            DppConfig(penalty_weight=Vp)


TEST_CONFIGS = {"speech": speech_cfg, "desk": partial(get_profile, "desk"),
                "paper": partial(get_profile, "paper"),
                "paper8": partial(get_profile, "paper8"), "tied3": tied_three_app_config,
                "tied8": tied_eight_app_config}


def same_bytes(action, ref):
    return (action.alpha.tobytes() == ref.alpha.tobytes()
            and action.beta.tobytes() == ref.beta.tobytes())


class ReferenceController:
    """The controller before it held its solve constants."""

    def __init__(self, cfg, dpp_cfg):
        self.cfg, self.dpp_cfg = cfg, dpp_cfg

    def act(self, state):
        return reference_dpp_step_optimize(state.queue, state.arrival, self.cfg,
                                           self.dpp_cfg)


def pure_drift_edges(rng, cfg):
    """(q, a) at the edges of the V' = 0 closed form, with random arrivals:
    q all zero, exact ties in q (and in q s where two apps share a
    workload, as in tied3 and tied8) at the maximum, the smallest subnormal
    and 1e15, each alone and among ordinary queues."""
    n, w = cfg.n_queues, cfg.workloads
    twins = [(i, j) for i in range(n) for j in range(i + 1, n) if w[i] == w[j]]
    for _ in range(20):
        _, q, a = random_instance(rng, n)
        i, j = twins[rng.integers(len(twins))] if twins else rng.integers(n, size=2)
        top = q * 1e-3
        top[[i, j]] = 10.0 ** rng.uniform(4.0, 8.0)
        lone = np.zeros(n)
        lone[i] = 5e-324
        for edge in (np.zeros(n), np.full(n, q.max()), top, lone, np.full(n, 5e-324),
                     np.where(q > 0.0, q, 5e-324), np.full(n, 1e15),
                     np.where(q > 0.0, 1e15, q)):
            yield edge, a


class TestSolveConstants:
    """The controller's constants change no output bit: every decision equals
    the pre-change code's, kept verbatim above as reference_*."""

    @pytest.mark.parametrize("name, seed", [
        ("speech", 40), ("desk", 41), ("paper", 42), ("paper8", 43),
        ("tied3", 44), ("tied8", 45)])
    def test_decisions_match_the_reference_bit_for_bit(self, name, seed):
        cfg = TEST_CONFIGS[name]()
        rng = np.random.default_rng(seed)
        pure_drift = DppController(cfg, DppConfig(penalty_weight=0.0))
        for _ in range(200):
            Vp, q, a = random_instance(rng, cfg.n_queues)
            cost_active = DppController(cfg, DppConfig(penalty_weight=Vp))
            for controller in (pure_drift, cost_active):
                dc = controller.dpp_cfg
                ref = reference_dpp_step_optimize(q, a, cfg, dc)
                assert same_bytes(controller.solve(q, a), ref), (Vp, q, a)
                assert same_bytes(DppController(cfg, dc).solve(q, a), ref), (Vp, q, a)
            # V' = 0 has no candidate rows; at V' > 0 row i is the
            # reference's candidate ref_labels[i]: uniform, idle, D_none,
            # then the overflow programs
            alpha, beta = _structured_candidates(q, a, cost_active.constants)
            ref_labels, ref_alpha, ref_beta = reference_structured_candidates(q, a, cfg, Vp)
            assert len(alpha) == len(ref_labels)
            assert all(label.startswith("overflow") for label in ref_labels[3:])
            assert alpha.tobytes() == ref_alpha.tobytes()
            assert beta.tobytes() == ref_beta.tobytes()
        for q, a in pure_drift_edges(rng, cfg):
            ref = reference_dpp_step_optimize(q, a, cfg, pure_drift.dpp_cfg)
            assert same_bytes(pure_drift.solve(q, a), ref), (q, a)

    @pytest.mark.parametrize("name", ["paper", "paper8", "tied3"])
    def test_episode_decisions_match_the_reference_bit_for_bit(self, name):
        cfg = dataclasses.replace(TEST_CONFIGS[name](), episode_length=60)
        for Vp in (0.0, 1e9, 1e11):
            dc = DppConfig(penalty_weight=Vp)
            trace, _ = run_episode(DppController(cfg, dc), cfg,
                                   np.random.default_rng(6), "diff")
            ref, _ = run_episode(ReferenceController(cfg, dc), cfg,
                                 np.random.default_rng(6), "diff")
            assert np.asarray(trace.alpha).tobytes() == np.asarray(ref.alpha).tobytes()
            assert np.asarray(trace.beta).tobytes() == np.asarray(ref.beta).tobytes()
            assert np.asarray(trace.q).tobytes() == np.asarray(ref.q).tobytes()

    @pytest.mark.parametrize("name", list(TEST_CONFIGS))
    def test_objective_matches_the_reference_bit_for_bit(self, name):
        cfg = TEST_CONFIGS[name]()
        rng = np.random.default_rng(46)
        n = cfg.n_queues
        for _ in range(50):
            Vp, q, a = random_instance(rng, n)
            batch = Action(rng.dirichlet(np.ones(n + 1), 9), rng.dirichlet(np.ones(n + 1), 9))
            for dc in (DppConfig(penalty_weight=0.0), DppConfig(penalty_weight=Vp)):
                got = dpp_objective(q, a, batch, cfg, dc)
                assert got.tobytes() == reference_dpp_objective(q, a, batch, cfg, dc).tobytes()
                one = Action(batch.alpha[0], batch.beta[0])
                assert dpp_objective(q, a, one, cfg, dc) == reference_dpp_objective(
                    q, a, one, cfg, dc)

    def test_projection_matches_the_reference_bit_for_bit(self):
        rng = np.random.default_rng(47)
        for _ in range(2000):
            n = int(rng.integers(1, 10))
            v = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), n)
            if rng.random() < 0.3:  # near the simplex, as a solve's rows are
                v = rng.dirichlet(np.ones(n)) + rng.normal(0.0, 1e-15, n)
            assert project_simplex(v).tobytes() == reference_project_simplex(v).tobytes()

    @pytest.mark.parametrize("Vp", [0.0, 1e11])
    def test_a_controller_keeps_no_state_across_decisions(self, Vp):
        cfg = get_profile("paper8")
        controller = DppController(cfg, DppConfig(penalty_weight=Vp))
        rng = np.random.default_rng(48)
        for _ in range(20):
            (_, qa, aa), (_, qb, ab) = random_instance(rng, 8), random_instance(rng, 8)
            first = controller.solve(qa, aa)
            controller.solve(qb, ab)
            assert same_bytes(controller.solve(qa, aa), first)

    def test_controllers_share_no_writable_array(self):
        cfg = get_profile("paper")

        def walk(x):
            # the arrays in x, through tuples, lists (the vertex table) and
            # Actions (its entries and the uniform action)
            if isinstance(x, np.ndarray):
                return [x]
            if isinstance(x, Action):
                x = (x.alpha, x.beta)
            if isinstance(x, (tuple, list)):
                return [y for z in x for y in walk(z)]
            return []

        def arrays(controller):
            return walk([list(vars(obj).values())
                         for obj in (controller, controller.constants)])

        controllers = [DppController(cfg, DppConfig(penalty_weight=Vp))
                       for Vp in (0.0, 1e9, 1e11)]
        # every decision at V' = 0 hands out the Actions its constants hold
        held = walk([controllers[0].constants.uniform, controllers[0].constants.vertices])
        assert len(held) == 2 * (1 + cfg.n_queues ** 2)
        assert not any(x.flags.writeable for x in held)
        for i, one in enumerate(controllers):
            for other in controllers[i + 1:]:
                for x in arrays(one):
                    for y in arrays(other):
                        if x.flags.writeable or y.flags.writeable:
                            assert not np.shares_memory(x, y)


@st.composite
def projected_rows(draw):
    """Rows as a solve projects them, and worse: one-hots, exact zeros of
    either sign, negative entries, and rows scaled onto the simplex."""
    n = draw(st.integers(1, 9))
    entry = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1.0 / 3.0, 1e-300, -1e-17])
             | st.floats(-10.0, 10.0))
    v = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["one-hot", "raw", "scaled"]))
    if kind == "one-hot":
        return np.eye(n)[draw(st.integers(0, n - 1))] * draw(st.sampled_from([1.0, 2.0, -1.0]))
    if kind == "scaled" and v.sum() > 0.0:
        return np.abs(v) / np.abs(v).sum()
    return v


@settings(max_examples=1000, deadline=None)
@given(v=projected_rows())
def test_projection_matches_the_reference_on_projected_rows(v):
    assert project_simplex(v).tobytes() == reference_project_simplex(v).tobytes()


@pytest.mark.parametrize("Vp", [0.0, 1e11])
def test_an_action_outlives_later_decisions(Vp):
    # a decision returns fresh arrays (V' > 0) or a shared read-only Action
    # (V' = 0): an Action kept by the caller does not change when the
    # controller decides again
    cfg = get_profile("paper")
    controller = DppController(cfg, DppConfig(penalty_weight=Vp))
    env = EdgeCloudEnv(cfg, rng=np.random.default_rng(49))
    state = env.reset()
    for _ in range(5):  # past the empty queues of the first slots
        state = env.step(controller.act(state)).next_state
    kept = controller.act(state)
    alpha, beta = kept.alpha.tobytes(), kept.beta.tobytes()
    state = env.step(kept).next_state
    for _ in range(10):
        state = env.step(controller.act(state)).next_state
    assert kept.alpha.tobytes() == alpha and kept.beta.tobytes() == beta


def test_a_fixed_action_refuses_writes():
    # idle, uniform and a V' = 0 DPP controller hand every slot the same
    # Action, so a caller's write would reach later slots; it raises instead
    cfg = get_profile("paper")
    state = EdgeCloudEnv(cfg, rng=np.random.default_rng(50)).reset()
    queued = state._replace(queue=np.array([3e5, 0.0, 1e5]))
    dpp = DppController(cfg, DppConfig(penalty_weight=0.0))
    actions = [make_controller(kind, cfg, DppConfig()).act(state)
               for kind in ("idle", "uniform")]
    actions += [dpp.act(state), dpp.act(queued)]
    assert same_bytes(actions[2], Action.uniform(cfg.n_queues))
    assert actions[3].beta.tolist() == [1.0, 0.0, 0.0, 0.0]
    for action in actions:
        for x in (action.alpha, action.beta):
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 0.5


def dpp_episode(cfg, dpp_cfg, T, rng):
    """A T-slot DPP episode whose arrivals draw from rng."""
    cfg = dataclasses.replace(cfg, episode_length=T)
    trace, reward_sum = run_episode(DppController(cfg, dpp_cfg), cfg, rng, "diff")
    return trace, metrics_from_trace(trace, reward_sum)


class TestEpisode:
    def test_zero_arrivals_stay_empty(self):
        # a rate of 1e-300 tasks per slot draws no task in 50 slots
        silent = AppProfile(workload_cycles_per_bit=1e4, arrival_rate=1e-300,
                            size_min=1.0, size_max=2.0, size_mean=1.5,
                            size_std=0.25)
        cfg = speech_cfg(apps=(silent,))
        trace, metrics = dpp_episode(cfg, DppConfig(), 50, np.random.default_rng(0))
        assert not np.any(trace.a)
        assert metrics["avg_queue"] == 0.0
        assert len(trace) == 50

    def test_per_core_cost_is_refused_when_the_controller_is_built(self):
        # the refusal depends on the config alone, so no episode starts
        cfg = dataclasses.replace(get_profile("desk"), cloud_cost_kind="per-core")
        for Vp in (0.0, 1e11):
            with pytest.raises(UnsupportedObjectiveError, match="'per-core'"):
                DppController(cfg, DppConfig(penalty_weight=Vp))

    def test_solver_draws_leave_the_arrivals_alone(self):
        # the arrivals must be those of an environment that owns the
        # generator alone
        cfg = get_profile("desk")
        dc = DppConfig(penalty_weight=1e8)
        trace, _ = dpp_episode(cfg, dc, 10, np.random.default_rng(3))
        env = EdgeCloudEnv(cfg, rng=np.random.default_rng(3))
        arrivals = [env.reset().arrival]
        for _ in range(9):
            arrivals.append(env.step(Action.idle(2)).next_state.arrival)
        np.testing.assert_array_equal(np.array(trace.a), np.array(arrivals))

    def test_desk_episode_metrics_match_trace(self):
        cfg = get_profile("desk")
        dc = DppConfig(penalty_weight=0.0)
        trace, metrics = dpp_episode(cfg, dc, 60, np.random.default_rng(1))
        assert metrics["avg_penalty"] == pytest.approx(trace.penalties.mean())
        assert metrics["avg_queue"] == pytest.approx(trace.queue_totals.mean())
        for k in range(len(trace)):
            assert trace.alpha[k].sum() <= 1.0 + 1e-9
            assert trace.beta[k].sum() <= 1.0 + 1e-9
