"""Experiment harness: episode runners, training loop, V-sweeps, comparisons.

`episode_slots` is the one loop that resets an `EdgeCloudEnv` and steps it.
`run_episode` consumes it with a controller to build a trace (eval,
simulate, sweep, compare and train's evaluation episodes); `train` consumes
it with its exploring policy to fill the replay buffer. `metrics_from_trace`
is the one per-episode summary every command reports.

All runs are keyed by (command, config, seed): every random stream descends
from one SeedSequence, so identical inputs give byte-identical metric CSVs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .config import SystemConfig
from .dpp import DppConfig, DppController, UnsupportedObjectiveError
from .env import Action, EdgeCloudEnv, Trace
from .rewards import RewardSpec, compute_reward
from .sac import SacAgent, SacConfig


# ---------------------------------------------------------------------------
# Controllers


class FixedController:
    """The same action in every slot (idle: all-dummy; uniform: an even
    split over each (N+1)-simplex)."""

    def __init__(self, action: Action):
        self._action = action

    def act(self, state) -> Action:
        return self._action


class SacController:
    """Deterministic (mean-logit) policy of a trained agent."""

    def __init__(self, agent: SacAgent):
        self.agent = agent

    def act(self, state) -> Action:
        return self.agent.act(state)


def make_controller(kind: str, cfg: SystemConfig, dpp_cfg: DppConfig,
                    agent: SacAgent | None = None):
    if kind == "idle":
        return FixedController(Action.idle(cfg.n_queues))
    if kind == "uniform":
        return FixedController(Action.uniform(cfg.n_queues))
    if kind == "dpp":
        return DppController(cfg, dpp_cfg)
    if kind == "sac":
        if agent is None:
            raise ValueError("sac controller needs a trained agent")
        return SacController(agent)
    raise ValueError(f"unknown controller kind {kind!r}")


# ---------------------------------------------------------------------------
# Episode running and metrics


def episode_slots(act, env: EdgeCloudEnv, T: int):
    """The one episode loop: reset env to empty queues, then for each of T
    slots choose act(state), step, and yield (state, action, outcome)."""
    state = env.reset()
    for _ in range(T):
        action = act(state)
        outcome = env.step(action)
        yield state, action, outcome
        state = outcome.next_state


def run_episode(controller, cfg: SystemConfig, rng: np.random.Generator,
                reward_spec: RewardSpec):
    """One cfg.episode_length-slot episode from empty queues; returns
    (trace, reward_sum)."""
    T = cfg.episode_length
    trace = Trace(n_queues=cfg.n_queues, capacity=T)
    reward_sum = 0.0
    for state, action, outcome in episode_slots(controller.act,
                                                EdgeCloudEnv(cfg, rng=rng), T):
        reward_sum += compute_reward(outcome, reward_spec)
        trace.append(outcome.queue_before, state.arrival, action,
                     outcome.departures, outcome.offloads,
                     outcome.edge_cost, outcome.cloud_cost)
    return trace, reward_sum


def metrics_from_trace(trace: Trace, reward_sum: float) -> dict:
    """The one per-episode summary: the reward sum and the two headline
    averages, recomputable from any exported trace."""
    return {
        "reward_sum": reward_sum,
        "avg_penalty": float(trace.penalties.mean()),
        "avg_queue": float(trace.queue_totals.mean()),
    }


def queue_slope_ok(queue_traj, mean_load_bits: float, frac: float = 0.01) -> bool:
    """No positive linear trend: the least-squares slope of the total queue
    over the last half of the episode must stay below frac of the mean
    arriving bits per slot (the natural per-slot growth scale).
    """
    q = np.asarray(queue_traj, dtype=float)
    tail = q[len(q) // 2:]
    t = np.arange(len(tail), dtype=float)
    slope = float(np.polyfit(t, tail, 1)[0]) if len(tail) > 1 else 0.0
    return slope <= 0.0 or slope < frac * mean_load_bits


def default_reward_spec(cfg: SystemConfig, kind: str) -> RewardSpec:
    return RewardSpec(kind=kind, exponent=cfg.reward_exponent, rho=cfg.rho,
                      penalty_weight=cfg.penalty_weight,
                      mean_arrival_bits=cfg.mean_bits_per_slot)


def evaluate(controller, cfg: SystemConfig, episodes: int, seed: int,
             reward_spec: RewardSpec) -> list[dict]:
    """One metrics_from_trace dict per deterministic-policy episode; episode
    k draws its arrivals from SeedSequence(seed).spawn(episodes)[k]. The
    traces are not kept."""
    if episodes < 1:
        raise ValueError(f"episodes must be at least 1, got {episodes}")
    return [metrics_from_trace(*run_episode(controller, cfg,
                                            np.random.default_rng(stream),
                                            reward_spec))
            for stream in np.random.SeedSequence(seed).spawn(episodes)]


# ---------------------------------------------------------------------------
# Training

EPISODES_PER_CYCLE = 4  # episodes collected between two rounds of updates


@dataclass
class TrainResult:
    agent: SacAgent
    curve: list            # dicts: steps, reward_sum, avg_penalty, avg_queue
    best_agent: SacAgent   # best eval reward over the final 20% of training

    def write_curve_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["steps", "reward_sum", "avg_penalty", "avg_queue"])
            for row in self.curve:
                writer.writerow([row["steps"], repr(row["reward_sum"]),
                                 repr(row["avg_penalty"]), repr(row["avg_queue"])])


def train(cfg: SystemConfig, sac_cfg: SacConfig, total_steps: int, seed: int,
          reward_spec: RewardSpec, progress=None) -> TrainResult:
    """Mirror of the paper's schedule: repeatedly collect EPISODES_PER_CYCLE
    episodes from empty queues into the buffer, take one gradient step per
    collected transition (none until the buffer holds one batch), then log
    one deterministic evaluation episode (undiscounted reward sum). The last
    cycle collects only the episodes the budget still needs, so total_steps
    is rounded up to whole episodes: the curve ends at ceil(total_steps / T)
    * T steps.
    """
    if total_steps < 1:
        raise ValueError(f"total_steps must be at least 1, got {total_steps}")
    T = cfg.episode_length
    ss = np.random.SeedSequence(seed)
    env_ss, agent_ss, update_ss, eval_ss = ss.spawn(4)
    env_rng = np.random.default_rng(env_ss)
    update_rng = np.random.default_rng(update_ss)
    collect_rng = np.random.default_rng(agent_ss.spawn(1)[0])

    agent = SacAgent(cfg, sac_cfg, rng=np.random.default_rng(agent_ss))
    env = EdgeCloudEnv(cfg, rng=env_rng)
    last = [None, None]  # the latest state and its observation

    def norm(state):
        # one array per state, shared by the transitions it ends and starts
        if state is not last[0]:
            last[:] = state, agent.observe(state)
        return last[1]

    def explore(state) -> Action:
        flat, _ = agent.policy_sample(norm(state), rng=collect_rng)
        return Action.from_flat(flat)

    def eval_record(steps: int) -> dict:
        rng = np.random.default_rng(eval_ss.spawn(1)[0])
        return {"steps": steps, **metrics_from_trace(*run_episode(
            SacController(agent), cfg, rng, reward_spec))}

    curve = [eval_record(0)]
    best = None  # best eval over the final 20% of the step budget
    steps_done = 0
    scale_set = False

    while steps_done < total_steps:
        pending = []
        episodes_left = -(-(total_steps - steps_done) // T)
        for _ in range(min(EPISODES_PER_CYCLE, episodes_left)):
            for state, action, outcome in episode_slots(explore, env, T):
                pending.append((norm(state), action.as_flat(),
                                compute_reward(outcome, reward_spec),
                                norm(outcome.next_state)))
        steps_done += len(pending)
        if not scale_set:
            typical = float(np.mean(np.abs([p[2] for p in pending[:T]])))
            agent.reward_scale = 1.0 / typical if typical > 0 else 1.0
            scale_set = True
        for s_n, a_f, r, s2_n in pending:
            agent.buffer.push(s_n, a_f, r * agent.reward_scale, s2_n)

        if len(agent.buffer) >= sac_cfg.batch_size:
            for _ in range(len(pending)):
                agent.update(update_rng)

        record = eval_record(steps_done)
        curve.append(record)
        if not np.isfinite(record["reward_sum"]):
            raise FloatingPointError(
                f"non-finite evaluation reward at step {steps_done}")
        if steps_done >= 0.8 * total_steps and (best is None
                                                or record["reward_sum"] >= best[0]):
            best = (record["reward_sum"],
                    SacAgent.from_state_dict(agent.state_dict()))
        if progress is not None:
            progress(record)

    return TrainResult(agent=agent, curve=curve, best_agent=best[1])


# ---------------------------------------------------------------------------
# Sweeps and comparison


def _sweep_csv_rows(path) -> set:
    done = set()
    try:
        with open(path, newline="") as f:
            for row in csv.DictReader(f):
                done.add((row["V"], row["seed"]))
    except FileNotFoundError:
        pass
    return done


def sweep(controller_kind: str, cfg: SystemConfig, V_grid, seeds, *, out_csv,
          sac_cfg: SacConfig | None, total_steps: int, reward_kind: str,
          episodes: int, progress) -> list[dict]:
    """Trade-off sweep: one (V, seed) per row, appended idempotently, plus
    per-V means. DPP reads V as its own weighting factor V' and solves the
    linear-drift objective. V_grid and seeds may be any iterables."""
    V_grid, seeds = list(V_grid), list(seeds)
    if not V_grid:
        raise ValueError("V grid must be non-empty")
    if not seeds:
        raise ValueError("seeds must be non-empty")
    bad = [V for V in V_grid if not 0.0 <= float(V) < np.inf]
    if bad:
        raise ValueError(f"V grid values must be finite and >= 0, got {bad}")
    rows = []
    done = _sweep_csv_rows(out_csv)
    fieldnames = ["controller", "V", "seed", "avg_queue", "avg_penalty",
                  "reward_sum", "status"]
    with open(out_csv, "a", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fieldnames)
        if f.tell() == 0:  # new or empty file; a resumed one has its header
            writer.writeheader()
        for V in V_grid:
            for seed in seeds:
                key = (repr(float(V)), str(seed))
                if key in done:
                    continue
                row = {"controller": controller_kind, "V": repr(float(V)),
                       "seed": seed, "status": "ok"}
                try:
                    rec = _sweep_entry(controller_kind, cfg, float(V), int(seed),
                                       sac_cfg, total_steps, reward_kind,
                                       episodes)
                    row.update(avg_queue=repr(rec["avg_queue"]),
                               avg_penalty=repr(rec["avg_penalty"]),
                               reward_sum=repr(rec["reward_sum"]))
                except UnsupportedObjectiveError as exc:  # None writes as ''
                    row.update(avg_queue=None, avg_penalty=None, reward_sum=None,
                               status=f"unsupported-objective: {exc}")
                except Exception as exc:  # record, keep sweeping
                    row.update(avg_queue=None, avg_penalty=None, reward_sum=None,
                               status=f"error: {exc}")
                rows.append(row)
                done.add(key)  # a repeated (V, seed) runs once, as on resume
                writer.writerow(row)
                progress(row)
    return rows


def _sweep_entry(controller_kind, cfg, V, seed, sac_cfg, total_steps,
                 reward_kind, episodes) -> dict:
    """Means over `episodes` evaluation episodes for one grid point."""
    cfg = replace(cfg, penalty_weight=V)
    spec = default_reward_spec(cfg, kind=reward_kind)
    if controller_kind == "sac":
        result = train(cfg, sac_cfg, total_steps, seed, spec)
        controller = SacController(result.best_agent)
    else:
        controller = make_controller(controller_kind, cfg,
                                     dpp_cfg=DppConfig(penalty_weight=V))
    records = evaluate(controller, cfg, episodes, seed, spec)
    return {key: float(np.mean([r[key] for r in records]))
            for key in ("avg_queue", "avg_penalty", "reward_sum")}


def sweep_means(rows) -> list[dict]:
    """Per-V means of avg_queue and avg_penalty, in grid order: `lyaq
    sweep`'s summary and the plotted trade-off line. Rows whose averages
    are None (a failed sweep row, an empty CSV cell) are left out."""
    groups = {}
    for row in rows:
        if row["avg_queue"] is not None and row["avg_penalty"] is not None:
            groups.setdefault(row["V"], []).append(row)
    return [{"V": V,
             "avg_queue": float(np.mean([float(r["avg_queue"]) for r in group])),
             "avg_penalty": float(np.mean([float(r["avg_penalty"]) for r in group])),
             "n": len(group)}
            for V, group in groups.items()]


def compare(cfg: SystemConfig, dpp_cfg: DppConfig, sac_cfg: SacConfig,
            seed: int, total_steps: int, reward_kind: str,
            progress) -> list[dict]:
    """Both controllers on both cloud-cost kinds. On the discontinuous
    per-core cost the DPP row records its structured refusal while the
    learner's row reports the learning-curve improvement."""
    rows = []
    for cost_kind in ("cubic", "per-core"):
        cfg_k = replace(cfg, cloud_cost_kind=cost_kind)
        spec = default_reward_spec(cfg_k, kind=reward_kind)

        row = {"controller": "dpp", "cost_kind": cost_kind, "status": "ok",
               "avg_queue": "", "avg_penalty": "", "reward_first": "",
               "reward_final": ""}
        try:
            controller = DppController(cfg_k, dpp_cfg)
            m = evaluate(controller, cfg_k, 1, seed, spec)[0]
            row.update(avg_queue=repr(m["avg_queue"]),
                       avg_penalty=repr(m["avg_penalty"]))
        except UnsupportedObjectiveError as exc:
            row["status"] = f"unsupported-objective: {exc}"
        rows.append(row)
        progress(row)

        result = train(cfg_k, sac_cfg, total_steps, seed, spec)
        m = evaluate(SacController(result.best_agent), cfg_k, 1, seed, spec)[0]
        rows.append({
            "controller": "sac", "cost_kind": cost_kind, "status": "ok",
            "avg_queue": repr(m["avg_queue"]),
            "avg_penalty": repr(m["avg_penalty"]),
            "reward_first": repr(result.curve[0]["reward_sum"]),
            "reward_final": repr(max(r["reward_sum"] for r in result.curve[1:])),
        })
        progress(rows[-1])
    return rows


def write_compare_csv(rows, path) -> None:
    fieldnames = ["controller", "cost_kind", "status", "avg_queue",
                  "avg_penalty", "reward_first", "reward_final"]
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
