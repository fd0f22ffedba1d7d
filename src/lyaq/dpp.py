"""Drift-plus-penalty baseline: per-slot minimization over the two action
simplexes.

Each slot solves

    min_{alpha, beta}  sum_i q_i (a_i - alpha_i s_i - beta_i B)
                       + V' [C_E(alpha) + C_C(o)]

where s_i = f_E / w_i is the bits one unit of CPU serves, r_i =
(q_i + a_i - alpha_i s_i)^+ the backlog the CPU leaves, o_i =
min(beta_i B, r_i) the offload, C_E = c_E (sum alpha)^3 and, for the cubic
cloud cost, C_C = c_C (sum w_i o_i)^3. The min() makes the program
nonconvex.

The linear-drift objective (the program above) is solved exactly:

* V' = 0 leaves a linear program over two simplexes. Its vertex puts all
  CPU on argmax q_i s_i and all bandwidth on argmax q_i.
* For V' > 0 write y_i = beta_i B. Replacing o_i by y_i can only raise the
  cost, and at most one queue k ever needs "overflow" bandwidth beyond r_k,
  because moving overflow to the queue with the larger q_i never hurts. So
  the optimum is the best, scored with the true objective, of N + 1 concave
  programs: D_none with o_i = y_i for every queue, and, for each k with
  L_k = max(0, (q_k + a_k - B) / s_k) <= 1, D_k with o_k = r_k, y_k taking
  the rest of the budget and o_i = y_i for the others.
* With t = alpha_k (t = 0 in D_none) each program splits in two closed
  forms. The edge part puts the CPU beyond t on m = argmax_{i != k} q_i s_i,
  for a total A = clip(sqrt(q_m s_m / 3 c_E), t, 1). The cloud part
      max  sum v_i y_i - c_C (W_0 + sum w_i y_i)^3   s.t.  sum y_i <= B'
  has at most two active queues, so its optimum is y = 0, one queue at its
  stationary point clipped to [0, B'], or a pair that fills B' at
  3 c_C W^2 = (v_i - v_l) / (w_i - w_l). D_none has v = q, W_0 = 0, B' = B;
  D_k has v_i = q_i - q_k, W_0 = w_k r_k(t), B' = B - r_k(t).
* The value of D_k is concave in t; a grid search refined around its best
  point finds the maximum on [L_k, 1] for every k at once.

The uniform action, the idle action and the structured candidates are
scored in one batched objective call; the first minimum wins. The solve
draws nothing from the random stream.

The full-bound objective adds the quadratic drift 0.5 |a - b|^2 and is
minimized by multi-start projected gradient descent with an analytic
subgradient and exact Euclidean simplex projection. The discontinuous
per-core cloud cost has neither structure nor gradient, so the solver
refuses it outright instead of returning garbage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .env import (Action, check_cloud_cores, cloud_cost, compute_offload,
                  edge_cost)


class UnsupportedObjectiveError(RuntimeError):
    """Objective the solver cannot minimize (discontinuous cost)."""


class SolverDivergedError(RuntimeError):
    """Non-finite objective or gradient during descent."""


OBJECTIVE_KINDS = ("linear-drift", "full-bound")

# The 1-D search over t = alpha_k evaluates _SEARCH_GRID points per round and
# keeps the two cells around the best: (2 / 64)^9 < 4e-14 of [L_k, 1] is left.
_SEARCH_GRID = 65
_SEARCH_ROUNDS = 9


@dataclass(frozen=True)
class DppConfig:
    penalty_weight: float = 0.0          # V'
    objective_kind: str = "linear-drift"
    # descent settings, full-bound only
    iterations: int = 200
    step_size: float = 0.5
    restarts: int = 8                    # random starts beside uniform + idle
    tolerance: float = 1e-8              # relative objective-change stop

    def __post_init__(self):
        if self.objective_kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective kind {self.objective_kind!r}")
        if not self.penalty_weight >= 0.0:
            raise ValueError(f"penalty weight V' must be >= 0, got {self.penalty_weight}")
        if self.iterations < 1 or self.restarts < 1 or self.tolerance <= 0:
            raise ValueError("iterations >= 1, restarts >= 1, tolerance > 0 required")


def project_simplex(v: np.ndarray) -> np.ndarray:
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


def dpp_objective(q, a, action: Action, cfg: SystemConfig,
                  dpp_cfg: DppConfig):
    """Drift-plus-penalty value of a candidate action at observed (q, a): a
    float for one action, an (S,) array when alpha and beta are (S, N+1)."""
    q = np.asarray(q, dtype=float)
    a = np.asarray(a, dtype=float)
    d = a - action.alpha_eff * cfg.edge_clock / cfg.workloads \
        - action.beta_eff * cfg.bandwidth
    value = d @ q
    if dpp_cfg.objective_kind == "full-bound":
        value = value + 0.5 * (d * d).sum(axis=-1)
    if dpp_cfg.penalty_weight != 0.0:
        o = compute_offload(q + a, action, cfg)
        value = value + dpp_cfg.penalty_weight * (edge_cost(action, cfg)
                                                  + cloud_cost(o, cfg))
    return float(value) if value.ndim == 0 else value


def _objective_and_gradient(q, a, alpha, beta, cfg: SystemConfig,
                            dpp_cfg: DppConfig):
    """Value plus subgradient w.r.t. the full (N+1)-vectors; the dummy slack
    coordinates never enter the objective, so their gradient is zero."""
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
    if dpp_cfg.objective_kind == "full-bound":
        value += 0.5 * float(np.dot(d, d))
        g_alpha[:n] += -s * d
        g_beta[:n] += -B * d

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


def _descend(q, a, alpha, beta, cfg, dpp_cfg):
    """Projected gradient descent from one start; objective never increases."""
    f, g_a, g_b = _objective_and_gradient(q, a, alpha, beta, cfg, dpp_cfg)
    step = dpp_cfg.step_size
    for _ in range(dpp_cfg.iterations):
        if not (np.isfinite(f) and np.all(np.isfinite(g_a)) and np.all(np.isfinite(g_b))):
            raise SolverDivergedError(
                f"non-finite objective/gradient: f={f}, "
                f"|g|={np.max(np.abs(np.concatenate([g_a, g_b])))}")
        trial = min(2.0 * step, dpp_cfg.step_size)
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
        done = (f - fn) <= dpp_cfg.tolerance * max(1.0, abs(fn))
        alpha, beta, f = na, nb, fn
        if done:
            break
        _, g_a, g_b = _objective_and_gradient(q, a, alpha, beta, cfg, dpp_cfg)
    return f, alpha, beta


def _multistart_descent(q, a, cfg: SystemConfig, dpp_cfg: DppConfig,
                        rng: np.random.Generator, extra_starts=()) -> Action:
    """Best projected-gradient descent over the uniform, all-idle, any extra
    and dpp_cfg.restarts random simplex starts."""
    n = cfg.n_queues
    starts = [Action.uniform(n), Action.idle(n)]
    starts.extend(extra_starts)
    ones = np.ones(n + 1)
    for _ in range(dpp_cfg.restarts):
        starts.append(Action(rng.dirichlet(ones), rng.dirichlet(ones)))

    best = None
    for start in starts:
        f, alpha, beta = _descend(q, a, start.alpha.copy(), start.beta.copy(),
                                  cfg, dpp_cfg)
        if best is None or f < best[0]:
            best = (f, alpha, beta)
    return Action(alpha=best[1], beta=best[2])


class _OffloadCandidates:
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


def _structured_candidates(q, a, cfg: SystemConfig, penalty_weight: float):
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
    offload = _OffloadCandidates((q - qk)[:, None, :], w, cC, own[:, None, :])

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


def dpp_step_optimize(q, a, cfg: SystemConfig, dpp_cfg: DppConfig,
                      rng: np.random.Generator,
                      extra_starts: tuple = ()) -> Action:
    """Minimizer of one slot's drift-plus-penalty program.

    linear-drift: the exact structured solve; draws nothing from rng and
    ignores extra_starts. full-bound: multi-start descent from uniform, idle,
    extra_starts and dpp_cfg.restarts random simplex points drawn from rng."""
    if cfg.cloud_cost_kind != "cubic":
        raise UnsupportedObjectiveError(
            f"cloud cost kind {cfg.cloud_cost_kind!r} is discontinuous; "
            "the drift-plus-penalty solver does not support it")
    check_cloud_cores(cfg)
    q = np.asarray(q, dtype=float)
    a = np.asarray(a, dtype=float)
    if dpp_cfg.objective_kind == "full-bound":
        return _multistart_descent(q, a, cfg, dpp_cfg, rng, extra_starts)
    _, alpha, beta = _structured_candidates(q, a, cfg, dpp_cfg.penalty_weight)
    best = int(np.argmin(dpp_objective(q, a, Action(alpha, beta), cfg, dpp_cfg)))
    return Action(alpha=project_simplex(alpha[best]),
                  beta=project_simplex(beta[best]))


class DppController:
    """Per-slot solver wrapper usable wherever a policy is expected. The
    full-bound descent also starts from the previous slot's action."""

    def __init__(self, cfg: SystemConfig, dpp_cfg: DppConfig,
                 rng: np.random.Generator):
        self.cfg = cfg
        self.dpp_cfg = dpp_cfg
        self.rng = rng
        self._last: Action | None = None

    def act(self, state) -> Action:
        extra = () if self._last is None else (self._last,)
        action = dpp_step_optimize(state.queue, state.arrival, self.cfg,
                                   self.dpp_cfg, self.rng, extra_starts=extra)
        self._last = action
        return action
