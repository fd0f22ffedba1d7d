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

* V' = 0 leaves a linear program over two simplexes. Its max-weight vertex
  puts all CPU on argmax q_i s_i and all bandwidth on argmax q_i, the first
  maximum winning a tie (Tassiulas and Ephremides, IEEE TAC 37(12), 1992;
  Neely 2010, ch. 4). For q >= 0, q != 0 it scores below idle by at least
  B max(q) and below uniform by at least B max(q) / (N+1), far beyond
  rounding as B > 0 (a SystemConfig refuses B <= 0). At q = 0 every
  action scores exactly 0, and the answer is the projected uniform action,
  which the scoring below would pick first. A one-hot is its own
  projection.
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
* The maximum over t in [L_k, 1] is exact. Let f_c(t) be D_k's value when
  its cloud part takes candidate c (y = 0, one queue, a pair); then
  max_t max_c f_c(t) = max_c max_t f_c(t). A candidate that fills B' (a
  pair, or one queue at its clip) leaves y_k = r_k, no overflow, so D_none
  already holds that point and scores it no lower: those pieces need no
  point of their own. The t-slope of the rest is an edge slope
  (q_k s_k - q_m s_m below a*, q_k s_k - 3 c_E t^2 above) plus a cloud
  slope: 3 c_C w_k^3 s_k r_k^2 for y = 0, the constant s_k v_i w_k / w_i for
  queue i inside its clip, and 0 once r_k = 0. It jumps only where r_k(t)
  reaches 0: at a* the two edge slopes agree, and at the ends of a clip
  the two cloud slopes do. So each f_c peaks at L_k, 1, r_k(t) = 0 or a
  real root of its slope, 7 points at most, and one batched evaluation of
  every f_c at its own points, for every k at once, finds the maximum; no
  search is left.

A decision at V' > 0 (`DppController.act`) does each piece of work once:

* `_structured_candidates` writes the S x (N+1) candidate rows straight
  into one fresh (alpha, beta) pair: the uniform and the idle action, then
  the optima of D_none and of each feasible D_k. Every cloud candidate of
  a program is scored at its own points, but only the winner's offload
  vector y is built.
* One `dpp_objective` call scores all S rows with the true objective; the
  first minimum wins. The programs' own values cannot pick the winner:
  they replace o by y, which over-estimates the cost, and they leave out
  the uniform and idle rows (at q = 0 and V' > 0, idle wins).
* Two `project_simplex` calls put the winner's alpha and beta on their
  simplexes, which moves them by rounding at most.

The solve is deterministic. The discontinuous per-core cloud cost has no
such structure, so a `DppController` refuses it when it is built, as it
does a cubic cost without cloud cores, instead of returning garbage.

A `DppController` builds its `_SolveConstants`, what a solve reads from
(cfg, V') alone, once. At V' = 0 they hold every answer, each a read-only
Action: the projected uniform one and one per (CPU vertex, link vertex)
pair. A decision there looks one up and allocates nothing; writing into the
Action it returns raises. A decision at V' > 0 writes only fresh arrays.
So a controller keeps no state across decisions and an Action it returned
never changes.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .env import Action, cloud_cost, edge_cost


class UnsupportedObjectiveError(RuntimeError):
    """Objective the solver cannot minimize (discontinuous cost)."""


@dataclass(frozen=True)
class DppConfig:
    penalty_weight: float = 0.0          # V'

    def __post_init__(self):
        if not 0.0 <= self.penalty_weight < np.inf:
            raise ValueError(f"penalty weight V' must be finite and >= 0, "
                             f"got {self.penalty_weight}")


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1} by iterative active-set
    removal: shift the active coordinates to sum to one, drop any that went
    nonpositive, repeat. Exact in at most n passes; a pass whose shift equals
    the last one would drop nothing, so the loop stops there."""
    v = np.asarray(v, dtype=float)
    n_active = v.size
    tau = (np.add.reduce(v) - 1.0) / n_active
    active = v > tau
    for _ in range(v.size):
        n_keep = np.count_nonzero(active)
        if n_keep == n_active or n_keep == 0:
            break
        n_active = n_keep
        # a lone survivor is the maximum, since tau < max(v) on every pass
        kept = v[v.argmax()] if n_keep == 1 else np.add.reduce(v[active])
        last, tau = tau, (kept - 1.0) / n_active
        if tau == last:
            break
        active &= v > tau
    out = v - tau
    return np.maximum(out, 0.0, out=out)


def dpp_objective(q, a, action: Action, cfg: SystemConfig,
                  dpp_cfg: DppConfig):
    """Drift-plus-penalty value of a candidate action at observed (q, a): a
    float for one action, an (S,) array when alpha and beta are (S, N+1)."""
    q = np.asarray(q, dtype=float)
    a = np.asarray(a, dtype=float)
    alpha = action.alpha[..., :-1]
    cpu_bits = alpha * cfg.edge_clock / cfg.workloads
    link_bits = action.beta[..., :-1] * cfg.bandwidth
    value = (a - cpu_bits - link_bits) @ q
    if dpp_cfg.penalty_weight != 0.0:
        # the offloads of EdgeCloudEnv.step, on the CPU bits computed above
        o = np.maximum(0.0, np.minimum(link_bits, q + a - cpu_bits))
        value = value + dpp_cfg.penalty_weight * (edge_cost(alpha, cfg)
                                                  + cloud_cost(o, cfg))
    return float(value) if value.ndim == 0 else value


def _quadratic_roots(a2, a1, a0):
    """Both roots of a2 t^2 + a1 t + a0 = 0 by the cancellation-free formula
    (a2 = 0 leaves the linear root and an infinite one). A negative
    discriminant counts as zero, so a near-double root survives rounding."""
    h = -0.5 * (a1 + np.copysign(np.sqrt(np.maximum(a1 * a1 - 4.0 * a2 * a0, 0.0)), a1))
    return h / a2, a0 / h


@functools.lru_cache(maxsize=None)
def _pairs(n):
    """np.triu_indices(n, 1) and np.eye(n), read-only, built once per N."""
    out = (*np.triu_indices(n, 1), np.eye(n))
    for x in out:
        x.flags.writeable = False
    return out


class _SolveConstants:
    """What a solve reads from (cfg, V') alone. At V' = 0: s as floats,
    the projected uniform action and the read-only vertex table, whose entry
    [i][j] puts all CPU on queue i and all bandwidth on queue j. At V' > 0:
    s, w, B, c_E, c_C, the uniform and idle rows, the w-only arrays of the
    cloud candidates and the per-program table, whose column 0 is D_none and
    column k + 1 is D_k.
    The table's rows are q, g = q s, q + a and L_k, written per solve into a
    copy, then s, w, 1 and the coefficients of the critical points that do
    not depend on (q, a)."""

    def __init__(self, cfg: SystemConfig, penalty_weight: float):
        n = self.n = cfg.n_queues
        self.penalty_weight = penalty_weight
        w = self.w = cfg.workloads
        s = self.s = cfg.edge_clock / w
        self.B = cfg.bandwidth
        uniform, idle = Action.uniform(n), Action.idle(n)
        if penalty_weight == 0.0:  # every answer (module docstring)
            self.s = s.tolist()
            row = project_simplex(uniform.alpha)
            eye = np.eye(n + 1)
            row.flags.writeable = eye.flags.writeable = False
            self.uniform = Action(alpha=row, beta=row)
            self.vertices = [[Action(alpha=eye[i], beta=eye[j]) for j in range(n)]
                             for i in range(n)]
            return
        self.alpha = np.stack([uniform.alpha, idle.alpha])
        self.beta = np.stack([uniform.beta, idle.beta])
        self.cE = penalty_weight * cfg.edge_cores * (cfg.edge_clock / cfg.edge_cores / 1e9) ** 3
        self.cC = penalty_weight * cfg.cloud_cores * (1.0 / cfg.cloud_cores / 1e9) ** 3
        cE, cC = self.cE, self.cC
        I, L, eye = _pairs(n)
        self.IL, self.n_pairs = np.concatenate([I, L]), I.size
        self.size = 1 + n + I.size  # C, the number of cloud candidates
        # where each program's (7, C) grid starts in the flattened grid
        self.offsets = np.arange(n + 1) * (7 * self.size)
        dw = w[I] - w[L]
        self.dw = np.where(dw == 0.0, 1.0, dw)
        self.w_l = w[L]
        self.cC3w = 3.0 * cC * w
        # the rows of the table that depend on (cfg, V') alone: s, w, the
        # upper bound 1 of t, and the coefficients of the critical points
        # of y = 0 (see _structured_candidates), with ds = w s
        sk, wk, hi = np.append(1.0, s), np.append(0.0, w), np.append(0.0, np.ones(n))
        ds = wk * sk
        cC3ds3 = 3.0 * cC * ds ** 3
        self.table = np.vstack([np.zeros((4, n + 1)), sk, wk, hi, cC3ds3,
                                cC3ds3 - 3.0 * cE, -6.0 * cC * ds * ds, 3.0 * cC * ds])
        # per program: its own overflow queue, then the pairs free of it
        own = np.concatenate([np.zeros((1, n), dtype=bool), np.eye(n, dtype=bool)])
        self.masks = np.concatenate([own, ~(own[:, I] | own[:, L]) & (dw != 0.0)], axis=1)
        # candidate c is y = y_c e_c + y'_c e'_c: rows e_c (y = 0, each queue
        # alone, the pair's first queue) and e'_c (zero, or the pair's second)
        self.basis = np.zeros((2, self.size, n))
        self.basis[0, 1:] = np.concatenate([eye, eye[I]])
        self.basis[1, n + 1:] = eye[L]


class _OffloadCandidates:
    """Candidate maximizers y of the cloud part of each program,

        sum_i v_i y_i - cC (W0 + sum_i w_i y_i)^3,  y >= 0, sum_i y_i <= Bp,

    with C = 1 + N + N(N-1)/2 candidates: y = 0, each queue alone at its
    stationary point clipped to [0, Bp], and each pair (i, l) filling Bp at
    W = W0 + sum w y with 3 cC W^2 = (v_i - v_l) / (w_i - w_l). v is fixed
    per program, and only the pairs marked in `free` may fill Bp (a queue
    excluded from them has v = 0, so it never gets y alone either); W0 and
    Bp vary with t. What depends on w alone comes from the solve constants
    `k`."""

    def __init__(self, v, k: _SolveConstants, free):
        self.v, self.k = v, k
        self.W_single = np.sqrt(np.maximum(v, 0.0) / k.cC3w)
        v_pairs = v[..., k.IL]
        self.v_i, self.v_l = v_pairs[..., :k.n_pairs], v_pairs[..., k.n_pairs:]
        mu = (self.v_i - self.v_l) / k.dw
        self.W_pair = np.sqrt(np.maximum(mu, 0.0) / (3.0 * k.cC))
        self.pair_cost = k.cC * self.W_pair ** 3
        self.pair_ok = free & (mu > 0.0)

    def __call__(self, W0, Bp):
        """(values (..., C), coef (2, ..., C)) of every candidate c at its own
        W0[..., c] and Bp[..., c]: its value, and y_c and y'_c, the weights
        of its rows of the `basis` (y'_c = -0.0 where the row is zero, so
        that the sum adds nothing, not even to the sign of a zero)."""
        k = self.k
        n, w, cC = k.n, k.w, k.cC
        W0, Ws, Wp = W0[..., :1], W0[..., 1:n + 1], W0[..., n + 1:]
        Bs, Bpp = Bp[..., 1:n + 1], Bp[..., n + 1:]
        coef = np.empty((2,) + W0.shape[:-1] + (k.size,))
        coef[0, ..., 0] = 0.0
        coef[1, ..., :n + 1] = -0.0
        single = np.minimum(np.maximum((self.W_single - Ws) / w, 0.0), Bs,
                            out=coef[0, ..., 1:n + 1])
        y_i = np.divide(self.W_pair - Wp - k.w_l * Bpp, k.dw, out=coef[0, ..., n + 1:])
        y_l = np.subtract(Bpp, y_i, out=coef[1, ..., n + 1:])
        pair = self.v_i * y_i + self.v_l * y_l - self.pair_cost
        values = np.concatenate([
            -cC * W0 ** 3,
            self.v * single - cC * (Ws + w * single) ** 3,
            np.where(self.pair_ok & (np.minimum(y_i, y_l) >= 0.0), pair, -np.inf),
        ], axis=-1)
        return values, coef


def _structured_candidates(q, a, k: _SolveConstants):
    """(alpha (S, N+1), beta (S, N+1)) of the candidate actions the exact
    cost-active (V' > 0) solve scores: row 0 is uniform and row 1 idle,
    then the optima of D_none (row 2) and of every feasible D_k in
    increasing k (see the module docstring)."""
    n, s, B = k.n, k.s, k.B
    g = q * s
    cE, cC, w = k.cE, k.cC, k.w
    qa = q + a
    table = k.table.copy()
    table[:4, 1:] = q, g, qa, np.maximum(0.0, (qa - B) / s)
    # program 0 is D_none, a D_k with no overflow queue and t pinned at 0
    programs = (table[3] <= 1.0).nonzero()[0]
    rows = np.arange(programs.size)
    masks = k.masks[programs]
    own = masks[:, :n]
    qk, gk, rk0, lo, sk, wk, hi, cC3ds3, a2, a1, a0 = table[:, programs, None, None]
    g_rest = np.where(own, 0.0, g)
    m = g_rest.argmax(axis=1)
    gm = g_rest[rows, m][:, None, None]
    a_star = np.minimum(np.sqrt(gm / (3.0 * cE)), 1.0)
    offload = _OffloadCandidates(q - qk, k, masks[:, None, n:])

    # Every candidate is scored at its own critical points (module
    # docstring), G = 7 of them: 4 that all share, then the roots of the
    # slope of y = 0, or the one of a queue inside its clip. Pairs add none;
    # a candidate with fewer points repeats L_k.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rs = rk0 / sk
        shared = [lo, hi, rs, np.sqrt(gk / (3.0 * cE))]
        # y = 0 has cloud value -cC (wk r)^3, so t-slope 3 cC wk^3 sk r^2 =
        # cC3ds3 r^2 with ds = wk sk: set against gk - gm below a*, and
        # against gk - 3 cE t^2 above a* (a quadratic in t, as wk r = U - ds t)
        U = wk * rk0
        empty = [rs - np.sqrt((gm - gk) / cC3ds3),
                 *_quadratic_roots(a2, a1 * U, a0 * U * U + gk)]
        # queue i inside its clip: the constant t-slope sk v_i wk / w_i
        # against gk - 3 cE t^2 (against gk - gm it leaves f monotone)
        alone = np.sqrt((gk + sk * offload.v * wk / w) / (3.0 * cE))
    t = np.zeros((rows.size, 7, k.size)) + lo
    t[:, :4] = np.concatenate(shared, axis=1)
    t[:, 4:, :1] = np.concatenate(empty, axis=1)
    t[:, 4:5, 1:n + 1] = alone
    np.fmin(np.fmax(t, lo, out=t), hi, out=t)  # NaN -> L_k

    # the value of every program with cloud candidate c at alpha_k = t[..., c]
    r = np.maximum(0.0, rk0 - sk * t)
    A = np.maximum(a_star, t)
    values, coef = offload(wk * r, B - r)
    total = gk * t + gm * (A - t) - cE * A ** 3 + qk * B + values
    flat = total.reshape(rows.size, -1).argmax(axis=1)
    win = flat + k.offsets[:rows.size]  # each program's winner in the whole grid
    t, A = t.take(win), A.take(win)
    # each program's winning y, built only for the winner, candidate c
    y_c, y2_c = coef.reshape(2, -1).take(win, axis=1)[..., None]
    e_c, e2_c = k.basis[:, flat % k.size]
    y = y_c * e_c + y2_c * e2_c
    y = np.where(own, B - np.add.reduce(y, axis=1, keepdims=True), y)

    alpha = np.zeros((rows.size + 2, n + 1))
    beta = np.empty((rows.size + 2, n + 1))
    alpha[:2], beta[:2] = k.alpha, k.beta
    body = alpha[2:]
    body[rows, m] = A - t
    body[:, :n] += own * t[:, None]
    body[:, n] = 1.0 - A
    np.divide(y, B, out=beta[2:, :n])
    beta[2:, n] = 1.0 - np.add.reduce(y, axis=1) / B
    return alpha, beta


class DppController:
    """Per-slot solver wrapper usable wherever a policy is expected. It
    refuses a config it cannot solve when it is built, builds its solve
    constants once and keeps no state across decisions. At V' = 0 it
    returns read-only Actions that its constants hold and every such
    decision shares; at V' > 0 each decision returns fresh arrays."""

    def __init__(self, cfg: SystemConfig, dpp_cfg: DppConfig):
        if cfg.cloud_cost_kind != "cubic":
            raise UnsupportedObjectiveError(
                f"cloud cost kind {cfg.cloud_cost_kind!r} is discontinuous; "
                "the drift-plus-penalty solver does not support it")
        self.cfg = cfg
        self.dpp_cfg = dpp_cfg
        self.constants = _SolveConstants(cfg, dpp_cfg.penalty_weight)

    def solve(self, q, a) -> Action:
        """Exact minimizer of the program at queues q and arrivals a."""
        q = np.asarray(q, dtype=float)
        k = self.constants
        if k.penalty_weight == 0.0:  # the max-weight vertex (module docstring)
            q = q.tolist()
            if not any(q):
                return k.uniform
            g = list(map(operator.mul, q, k.s))
            return k.vertices[g.index(max(g))][q.index(max(q))]
        a = np.asarray(a, dtype=float)
        alpha, beta = _structured_candidates(q, a, k)
        best = dpp_objective(q, a, Action(alpha, beta), self.cfg, self.dpp_cfg).argmin()
        return Action(alpha=project_simplex(alpha[best]),
                      beta=project_simplex(beta[best]))

    def act(self, state) -> Action:
        return self.solve(state.queue, state.arrival)
