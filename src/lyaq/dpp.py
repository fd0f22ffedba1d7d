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

A decision at V' > 0 (`DppController.act`) does each piece of work once,
and what is one number per program it does in Python floats: for a few
programs numpy spends more on each call than on the arithmetic.

* `_structured_candidates` writes the S x (N+1) candidate rows into one
  fresh (alpha, beta) pair: the uniform and the idle action, then the
  optima of D_none and of each feasible D_k. From q and a as lists it
  works out, per program, q_k, g_k, r_k(0), L_k, the best other g_m and
  its m, a*, the four shared critical points and the three of y = 0 as
  Python floats. Where they divide by zero or take the root of a
  negative, `_fdiv` and `_fsqrt` answer as numpy does, so a NaN still
  lands on L_k in the clip. What runs over queues and pairs stays in
  numpy: the points inside the clips, the cloud candidates, and every
  program's (7, C) grid, on operands expanded once per decision to one
  shape. Every cloud candidate of a program is scored at its own points,
  but only the winner's offload vector y is built, and its rows are
  written from floats as numpy would add them up from one-hots. Every
  `** 3` stays an array power: numpy's array power gives the same bits at
  any length or stride, but a scalar power, numpy's or Python's, differs
  from it on about 5% of values.
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
import math
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


def _fdiv(x, y):
    """x / y on Python floats as numpy divides arrays: a zero y gives a
    signed infinity, or NaN where x is 0 or NaN."""
    if y:
        return x / y
    return x * math.copysign(math.inf, y) if x else math.nan


def _fsqrt(x):
    """math.sqrt with numpy's NaN below zero."""
    return math.sqrt(x) if x >= 0.0 else math.nan


def _quadratic_roots(a2, a1, a0):
    """Both roots of a2 t^2 + a1 t + a0 = 0 on Python floats, by the
    cancellation-free formula (a2 = 0 leaves the linear root and an infinite
    one). A negative discriminant counts as zero, so a near-double root
    survives rounding."""
    d = a1 * a1 - 4.0 * a2 * a0
    h = -0.5 * (a1 + math.copysign(math.sqrt(0.0 if d <= 0.0 else d), a1))
    return _fdiv(h, a2), _fdiv(a0, h)


@functools.lru_cache(maxsize=None)
def _pairs(n):
    """np.triu_indices(n, 1) and np.eye(n), read-only, built once per N."""
    out = (*np.triu_indices(n, 1), np.eye(n))
    for x in out:
        x.flags.writeable = False
    return out


# The point table: row d of program p's column is one of its points t, and
# row j of its (7, C) grid reads, for candidate c, row d(j, c). Rows 0-6 are
# the points of the y = 0 candidate (c = 0): L_k, 1, r_k(0) / s_k, the t of
# a*, then the three roots of y = 0. Rows 7-13 are those of the others: the
# four shared points, then L_k three times. Row 14 + i is queue i's point
# inside its clip, which takes row 4 of the single candidate c = 1 + i.
_SHARED_POINTS, _ALONE_POINTS = 7, 14


class _SolveConstants:
    """What a solve reads from (cfg, V') alone. At V' = 0: s as floats,
    the projected uniform action and the read-only vertex table, whose entry
    [i][j] puts all CPU on queue i and all bandwidth on queue j. At V' > 0,
    as Python floats: s, B, c_E, c_C, the uniform and idle rows, and a
    column per program, `columns[0]` D_none's and `columns[k + 1]` D_k's:
    s_k, w_k, the upper bound 1 of t and the coefficients of the critical
    points of y = 0 (see `_structured_candidates`), computed as arrays, so
    that their ** 3 is the array power the grid's is. As arrays: what the
    cloud candidates read from w alone, which pairs each program may fill,
    and 0-d copies of the scalars the array arithmetic takes."""

    def __init__(self, cfg: SystemConfig, penalty_weight: float):
        n = self.n = cfg.n_queues
        self.penalty_weight = penalty_weight
        w = cfg.workloads
        s = cfg.edge_clock / w
        self.s = s.tolist()
        self.B = cfg.bandwidth
        uniform, idle = Action.uniform(n), Action.idle(n)
        if penalty_weight == 0.0:  # every answer (module docstring)
            row = project_simplex(uniform.alpha)
            eye = np.eye(n + 1)
            row.flags.writeable = eye.flags.writeable = False
            self.uniform = Action(alpha=row, beta=row)
            self.vertices = [[Action(alpha=eye[i], beta=eye[j]) for j in range(n)]
                             for i in range(n)]
            return
        self.alpha = uniform.alpha.tolist() + idle.alpha.tolist()
        self.beta = uniform.beta.tolist() + idle.beta.tolist()
        self.cE = penalty_weight * cfg.edge_cores * (cfg.edge_clock / cfg.edge_cores / 1e9) ** 3
        self.cC = penalty_weight * cfg.cloud_cores * (1.0 / cfg.cloud_cores / 1e9) ** 3
        cE, cC = self.cE, self.cC
        I, L, _ = _pairs(n)
        self.n_pairs = I.size
        self.size = 1 + n + I.size  # C, the number of cloud candidates
        # the coefficients of the critical points of y = 0, with ds = w s;
        # each ** 3 an array power, as the grid's are
        sk, wk, hi = np.append(1.0, s), np.append(0.0, w), np.append(0.0, np.ones(n))
        ds = wk * sk
        cC3ds3 = 3.0 * cC * ds ** 3
        self.columns = list(zip(*(x.tolist() for x in (
            sk, wk, hi, cC3ds3, cC3ds3 - 3.0 * cE, -6.0 * cC * ds * ds, 3.0 * cC * ds))))
        # the candidates' w-only columns (see _OffloadCandidates)
        dw = w[I] - w[L]
        self.queue_rows = np.concatenate([np.arange(n), I, L])
        self.w_col = w[:, None]
        self.cC3w_col = (3.0 * cC * w)[:, None]
        self.w_l_dw_col = np.concatenate([w[L], np.where(dw == 0.0, 1.0, dw)])[:, None]
        # a pair may fill B' in program p unless it holds p's overflow queue
        # or its two queues share a workload
        own = np.eye(n + 1, n, -1, dtype=bool)
        self.free = (~(own[:, I] | own[:, L]) & (dw != 0.0)).T.copy()
        # 0-d arrays: ufuncs take them faster than Python floats, to the same bits
        (self.zero, self.B_0d, self.cE_0d, self.cE3_0d, self.cC_0d, self.cC3_0d,
         self.neg_cC_0d) = (np.array(float(x)) for x in (
            0.0, self.B, cE, 3.0 * cE, cC, 3.0 * cC, -cC))
        # the queues that candidate c's y_c and y'_c weigh
        self.queues = [(None, None)] + [(i, None) for i in range(n)] + list(
            zip(I.tolist(), L.tolist()))


class _OffloadCandidates:
    """Candidate maximizers y of the cloud part of each program,

        sum_i v_i y_i - cC (W0 + sum_i w_i y_i)^3,  y >= 0, sum_i y_i <= Bp,

    with C = 1 + N + N(N-1)/2 candidates: y = 0, each queue alone at its
    stationary point clipped to [0, Bp], and each pair (i, l) filling Bp at
    W = W0 + sum w y with 3 cC W^2 = (v_i - v_l) / (w_i - w_l). v is fixed
    per program, and only the pairs marked in `free` may fill Bp (a queue
    excluded from them has v = 0, so it never gets y alone either); W0 and
    Bp vary with t.

    The arrays run candidate by program: (N, P) for the singles, w, W alone
    and v, then (N(N-1)/2, P) for the pairs, v_i, v_l, W of the pair, its
    cost, w_l and w_i - w_l, all in one buffer, so that v, v_i and v_l are
    one subtraction. Each stack is expanded once to the (7, ., P) of its
    block of the grid, where the arithmetic runs on operands of one shape."""

    def __init__(self, q, qk, k: _SolveConstants, free):
        n, n_pairs, P = k.n, k.n_pairs, qk.size
        zero, cC = k.zero, k.cC_0d
        stacks = np.empty((3 * n + 6 * n_pairs, P))
        single, pair = stacks[:3 * n].reshape(3, n, P), stacks[3 * n:].reshape(6, n_pairs, P)
        stacks[:n] = k.w_col
        stacks[3 * n + 4 * n_pairs:] = k.w_l_dw_col
        np.subtract.outer(q[k.queue_rows], qk, out=stacks[2 * n:3 * n + 2 * n_pairs])
        self.v = single[2]
        mu = np.divide(pair[0] - pair[1], pair[5], out=pair[2])
        self.pair_ok = free & (mu > zero)
        np.sqrt(np.maximum(self.v, zero) / k.cC3w_col, out=single[1])
        np.sqrt(np.maximum(mu, zero) / k.cC3_0d, out=pair[2])
        np.multiply(cC, pair[2] ** 3, out=pair[3])
        self.single = np.empty((3, 7, n, P))
        self.single[...] = single[:, None]
        self.pair = np.empty((6, 7, n_pairs, P))
        self.pair[...] = pair[:, None]
        self.k = k

    def __call__(self, W0, Bp):
        """The values of the singles' and the pairs' blocks, each at its own
        W0 and Bp, and their weights: y_c of each single, y_c and y'_c of each
        pair (the y = 0 block's value is -cC W0^3, its weights 0 and -0.0)."""
        zero, cC = self.k.zero, self.k.cC_0d
        (Ws, Wp), (Bs, Bpp) = W0, Bp
        w, W_single, v = self.single
        single = np.minimum(np.maximum((W_single - Ws) / w, zero), Bs)
        singles = v * single - cC * (Ws + w * single) ** 3
        v_i, v_l, W_pair, pair_cost, w_l, dw = self.pair
        y_i = (W_pair - Wp - w_l * Bpp) / dw
        y_l = Bpp - y_i
        pair = v_i * y_i + v_l * y_l - pair_cost
        pairs = np.where(self.pair_ok & (np.minimum(y_i, y_l) >= zero), pair, -np.inf)
        return singles, pairs, single, y_i, y_l


def _structured_candidates(q, a, k: _SolveConstants):
    """(alpha, beta), one (2, S, N+1) array, of the candidate actions the
    exact cost-active (V' > 0) solve scores: row 0 is uniform and row 1
    idle, then the optima of D_none (row 2) and of every feasible D_k in
    increasing k (see the module docstring)."""
    n, B, s = k.n, k.B, k.s
    cE3 = 3.0 * k.cE
    q_ = q.tolist()
    g = list(map(operator.mul, q_, s))
    qa = list(map(operator.add, q_, a.tolist()))
    # program 0 is D_none, a D_k with no overflow queue and t pinned at 0;
    # each program's column in the constants
    lower = [_fdiv(x - B, y) for x, y in zip(qa, s)]
    programs = [0] + [i + 1 for i, x in enumerate(lower) if x <= 1.0]
    # the best other g_m: the first maximum of g with the program's own queue
    # at 0, so for every program but that maximum's own, the maximum itself
    g_top = max(g)
    top = g.index(g_top)

    best, columns, no_alone = [], [], (0.0,) * n
    for col in programs:
        sk, wk, hi, cC3ds3, a2, a1, a0 = k.columns[col]
        kk = col - 1  # D_k's k, -1 for D_none
        if col:
            qk, gk, rk0, lo = q_[kk], g[kk], qa[kk], lower[kk]
            if lo < 0.0:
                lo = 0.0
        else:
            qk = gk = rk0 = lo = 0.0
        if not col or kk != top and g_top > 0.0:
            m, gm = top, g_top
        else:
            rest = g.copy()
            rest[kk] = 0.0
            gm = max(rest)
            m = rest.index(gm)
        best.append((kk, m))
        # Every candidate is scored at its own critical points (module
        # docstring), G = 7 of them: 4 that all share, then the roots of the
        # slope of y = 0, or the one of a queue inside its clip. Pairs add
        # none; a candidate with fewer points repeats L_k.
        rs = _fdiv(rk0, sk)
        shared = (lo, hi, rs, _fsqrt(_fdiv(gk, cE3)))
        # y = 0 has cloud value -cC (wk r)^3, so t-slope 3 cC wk^3 sk r^2 =
        # cC3ds3 r^2 with ds = wk sk: set against gk - gm below a*, and
        # against gk - 3 cE t^2 above a* (a quadratic in t, as wk r = U - ds t)
        U = wk * rk0
        empty = (rs - _fsqrt(_fdiv(gm - gk, cC3ds3)),
                 *_quadratic_roots(a2, a1 * U, a0 * U * U + gk))
        columns.append((*shared, *empty, *shared, lo, lo, lo, *no_alone,
                        lo, hi, rk0, sk, min(_fsqrt(_fdiv(gm, cE3)), 1.0), wk, gk, gm,
                        qk * B, qk))
    P, D = len(programs), _ALONE_POINTS + n
    table = np.array(columns, order="F").T
    t = table[:D]
    # the per-program scalars, each expanded once to the point table's shape
    scalars = np.empty((9, D, P))
    scalars[...] = table[D:D + 9, None]
    lo, hi, rk0, sk, a_star, wk, gk, gm, qkB = scalars
    offload = _OffloadCandidates(q, table[D + 9], k, k.free[:, programs])
    # queue i inside its clip: the constant t-slope sk v_i wk / w_i against
    # gk - 3 cE t^2 (against gk - gm it leaves f monotone)
    alone = slice(_ALONE_POINTS, D)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.sqrt((gk[alone] + sk[alone] * offload.v * wk[alone] / offload.single[0, 0])
                / k.cE3_0d,
                out=t[alone])
    np.fmin(np.fmax(t, lo, out=t), hi, out=t)  # NaN -> L_k

    # the value of every program at each of its points alpha_k = t, but
    # the cloud part's, and that part's W0 and B'
    point = np.empty((4, D, P))  # W0, B', the value, A
    r = np.maximum(k.zero, rk0 - sk * t)
    A = np.maximum(a_star, t, out=point[3])
    np.multiply(wk, r, out=point[0])
    np.subtract(k.B_0d, r, out=point[1])
    np.add(gk * t + gm * (A - t) - k.cE_0d * A ** 3, qkB, out=point[2])
    # each block of the (7, C, P) grid: y = 0 reads rows 0-6 of the points,
    # the singles and the pairs rows 7-13, and the singles' row 4 reads the
    # points inside their clips
    y0 = point[:3, :_SHARED_POINTS]
    singles = np.empty((3, 7, n, P))
    singles[...] = point[:3, _SHARED_POINTS:_ALONE_POINTS, None]
    singles[:, 4] = point[:3, alone]
    pairs = np.empty((3, 7, k.n_pairs, P))
    pairs[...] = point[:3, _SHARED_POINTS:_ALONE_POINTS, None]
    values_s, values_p, y_s, y_i, y_l = offload(
        (singles[0], pairs[0]), (singles[1], pairs[1]))
    total = np.concatenate([
        (y0[2] + k.neg_cC_0d * y0[0] ** 3)[:, None], singles[2] + values_s,
        pairs[2] + values_p],
        axis=1)
    # each program's winner, the first maximum of its (7, C) grid
    flat = total.reshape(-1, P).argmax(axis=0).tolist()

    C = k.size
    alpha, beta, y_rows = list(k.alpha), list(k.beta), []  # flat rows
    for p, ((kk, m), f) in enumerate(zip(best, flat)):
        j, c = divmod(f, C)
        d = (j if c == 0 else _ALONE_POINTS + c - 1 if j == 4 and c <= n
             else _SHARED_POINTS + j)  # the point table's row (see _SHARED_POINTS)
        t_w, A_w = t.item(d, p), point.item(3, d, p)
        if c == 0:
            y_c, y2_c = 0.0, -0.0
        elif c <= n:
            y_c, y2_c = y_s.item(j, c - 1, p), -0.0
        else:
            y_c, y2_c = y_i.item(j, c - 1 - n, p), y_l.item(j, c - 1 - n, p)
        # the rows exactly as numpy builds them from one-hots: alpha's m and
        # k entries over 0 + own * t (0 elsewhere, as t is finite), then
        # y = y_c e_c + y'_c e'_c
        row = [0.0] * n + [1.0 - A_w]
        row[m] = (A_w - t_w) + (t_w if m == kk else 0.0 * t_w)
        y = [y_c * 0.0 + y2_c * 0.0] * n
        i, l = k.queues[c]
        u = v = y[0]
        if i is not None:
            u = y[i] = y_c + y2_c * 0.0
        if l is not None:
            v = y[l] = y_c * 0.0 + y2_c
        if kk >= 0:
            if m != kk:
                row[kk] = 0.0 + t_w
            # the overflow queue takes the rest of B: y has no entries but
            # zeros besides u and v, so numpy's sum of y is u + v
            y[kk] = B - (u + v)
        alpha += row
        y_rows += y
    sums = np.add.reduce(np.array(y_rows).reshape(P, n), axis=1).tolist()
    for p, total_y in enumerate(sums):
        beta += [x / B for x in y_rows[p * n:(p + 1) * n]]
        beta.append(1.0 - total_y / B)
    return np.array(alpha + beta).reshape(2, P + 2, n + 1)


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
