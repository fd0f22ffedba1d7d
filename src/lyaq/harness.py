"""Experiment harness: episode runners, training loop, V-sweeps, comparisons.

`episode_slots` is the one loop that resets an `EdgeCloudEnv` and steps it.
`run_episode` consumes it with a controller to build a trace (evaluate's
episodes, which eval, sweep and compare run, and train's evaluation
episodes); `train` consumes it with its exploring policy to fill the replay
buffer. `metrics_from_trace` is the one per-episode summary every command
reports.

The entry points `run_episode`, `evaluate`, `train`, `sweep` and `compare`
take the reward kind; each builds the rest of the reward (rho, nu, V, m_i)
from the config it runs on, with `default_reward_spec`. `write_csv` writes
each command's file over its column tuple, except the sweep CSV, which
`sweep` appends and flushes row by row so that a killed sweep resumes.

Each random stream descends from SeedSequence(seed) by its own spawn key, so
identical inputs give byte-identical CSVs and no evaluation replays training:

    (k,)           arrivals of evaluation episode k (`episode_rng`)
    (2**32, 0)     train: arrivals of the collection episodes
    (2**32, 1)     train: initial weights; (2**32, 1, 0): exploring noise
    (2**32, 2)     train: replay batches and update noise
    (2**32, 3, i)  train: arrivals of its i-th evaluation episode
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .config import SystemConfig
from .dpp import DppConfig, DppController, UnsupportedObjectiveError
from .env import Action, EdgeCloudEnv, Trace
from .rewards import RewardSpec, compute_reward
from .sac import ReplayBuffer, SacAgent, SacConfig


# ---------------------------------------------------------------------------
# Controllers


class FixedController:
    """The same action in every slot (idle: all-dummy; uniform: an even
    split over each (N+1)-simplex). Every slot shares it, so its arrays are
    made read-only when the controller is built."""

    def __init__(self, action: Action):
        action.alpha.flags.writeable = action.beta.flags.writeable = False
        self._action = action

    def act(self, state) -> Action:
        return self._action


class SacController:
    """Deterministic (mean-logit) policy of a trained agent."""

    def __init__(self, agent: SacAgent):
        self.agent = agent

    def act(self, state) -> Action:
        return self.agent.act(state)


def make_controller(kind: str, cfg: SystemConfig, dpp_cfg: DppConfig):
    """A controller that needs no training: idle, uniform or DPP."""
    if kind == "idle":
        return FixedController(Action.idle(cfg.n_queues))
    if kind == "uniform":
        return FixedController(Action.uniform(cfg.n_queues))
    if kind == "dpp":
        return DppController(cfg, dpp_cfg)
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


def default_reward_spec(cfg: SystemConfig, kind: str) -> RewardSpec:
    """The reward of this kind with its other constants read from cfg."""
    return RewardSpec(kind=kind, exponent=cfg.reward_exponent, rho=cfg.rho,
                      penalty_weight=cfg.penalty_weight,
                      mean_arrival_bits=cfg.mean_bits_per_slot)


def run_episode(controller, cfg: SystemConfig, rng: np.random.Generator,
                reward_kind: str):
    """One cfg.episode_length-slot episode from empty queues; returns
    (trace, reward_sum)."""
    reward_spec = default_reward_spec(cfg, reward_kind)
    T = cfg.episode_length
    trace = Trace(n_queues=cfg.n_queues, capacity=T)
    reward_sum = 0.0
    for state, action, outcome in episode_slots(controller.act,
                                                EdgeCloudEnv(cfg, rng=rng), T):
        reward_sum += compute_reward(state, outcome, reward_spec)
        trace.append(state.queue, state.arrival, action,
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


def episode_rng(seed: int, k: int) -> np.random.Generator:
    """The arrival generator of episode k under seed: the stream of
    SeedSequence(seed).spawn(n)[k] for every n > k."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))


def evaluate(controller, cfg: SystemConfig, episodes: int, seed: int,
             reward_kind: str) -> tuple[list[dict], Trace]:
    """(one metrics_from_trace dict per deterministic-policy episode, the
    trace of episode 0, which `eval --trace` writes); episode k draws its
    arrivals from episode_rng(seed, k). No other trace is kept."""
    if episodes < 1:
        raise ValueError(f"episodes must be at least 1, got {episodes}")
    records = []
    for k in range(episodes):
        trace, reward_sum = run_episode(controller, cfg, episode_rng(seed, k), reward_kind)
        records.append(metrics_from_trace(trace, reward_sum))
        if k == 0:
            first = trace
    return records, first


def write_csv(path, columns, rows) -> None:
    """The one writer of a command's CSV: a header of columns, then one
    line per row dict. A float is written as its repr, a key missing from a
    row as '', and a key outside columns is refused (ValueError)."""
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Training

EPISODES_PER_CYCLE = 4  # episodes collected between two rounds of updates
CURVE_COLUMNS = ("steps", "reward_sum", "avg_penalty", "avg_queue")


@dataclass
class TrainResult:
    agent: SacAgent
    curve: list            # dicts over CURVE_COLUMNS
    best_agent: SacAgent   # best eval reward over the final 20% of training


def train(cfg: SystemConfig, sac_cfg: SacConfig, total_steps: int, seed: int,
          reward_kind: str, progress=None) -> TrainResult:
    """Mirror of the paper's schedule over episodes = ceil(total_steps / T)
    episodes: the curve ends at episodes * T steps. Each cycle collects
    EPISODES_PER_CYCLE episodes (the last only those left) from empty queues
    into the replay buffer, takes one gradient step per collected transition
    (none until the buffer holds one batch), then logs one deterministic
    evaluation episode (undiscounted reward sum). The buffer is train's own,
    one ring of min(buffer_capacity, episodes * T) rows; no agent holds it.
    """
    if total_steps < 1:
        raise ValueError(f"total_steps must be at least 1, got {total_steps}")
    reward_spec = default_reward_spec(cfg, reward_kind)
    T = cfg.episode_length
    episodes = -(-total_steps // T)
    # train's own root (module docstring): episode_rng's keys are (k,), k < 2**32
    ss = np.random.SeedSequence(seed, spawn_key=(2**32,))
    env_ss, agent_ss, update_ss, eval_ss = ss.spawn(4)
    env_rng = np.random.default_rng(env_ss)
    update_rng = np.random.default_rng(update_ss)
    collect_rng = np.random.default_rng(agent_ss.spawn(1)[0])

    agent = SacAgent(cfg, sac_cfg, rng=np.random.default_rng(agent_ss))
    buffer = ReplayBuffer(min(sac_cfg.buffer_capacity, episodes * T),
                          cfg.state_dim, cfg.action_dim)
    env = EdgeCloudEnv(cfg, rng=env_rng)
    last = [None, None]  # the latest state and its observation

    def norm(state):
        # one array per state, shared by the transitions it ends and starts
        if state is not last[0]:
            last[:] = state, agent.observe(state)
        return last[1]

    def explore(state) -> Action:
        return Action.from_flat(agent.policy_sample(norm(state), rng=collect_rng))

    def eval_record(steps: int) -> dict:
        rng = np.random.default_rng(eval_ss.spawn(1)[0])
        return {"steps": steps, **metrics_from_trace(*run_episode(
            SacController(agent), cfg, rng, reward_kind))}

    curve = [eval_record(0)]
    best = None  # best eval over the final 20% of the step budget

    for first in range(0, episodes, EPISODES_PER_CYCLE):
        end = min(first + EPISODES_PER_CYCLE, episodes)
        for episode in range(first, end):
            slots = [(norm(state), action.as_flat(),
                      compute_reward(state, outcome, reward_spec), norm(outcome.next_state))
                     for state, action, outcome in episode_slots(explore, env, T)]
            if episode == 0:  # the reward scale comes from the first episode alone
                typical = float(np.mean(np.abs([slot[2] for slot in slots])))
                agent.reward_scale = 1.0 / typical if typical > 0 else 1.0
            for s_n, a_f, r, s2_n in slots:
                buffer.push(s_n, a_f, r * agent.reward_scale, s2_n)
        steps_done = end * T
        if buffer.size >= sac_cfg.batch_size:
            for _ in range((end - first) * T):
                agent.update(buffer, update_rng)

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

SWEEP_COLUMNS = ("controller", "V", "seed", "avg_queue", "avg_penalty",
                 "reward_sum", "status")


def _sweep_csv_rows(path, controller_kind: str) -> set:
    """The (V, seed) keys of the rows the sweep CSV at path already holds."""
    done = set()
    try:
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            header = reader.fieldnames or SWEEP_COLUMNS  # an empty file has none
            missing = [c for c in SWEEP_COLUMNS if c not in header]
            if missing:
                raise ValueError(f"{path} is not a sweep CSV: it lacks the "
                                 f"column(s) {', '.join(missing)}")
            if tuple(header) != SWEEP_COLUMNS:  # appended rows would land in wrong columns
                raise ValueError(f"{path} holds the sweep columns in another layout: {header}")
            for row in reader:
                if row["controller"] != controller_kind:  # its per-V means would mix two
                    raise ValueError(f"{path} holds {row['controller']!r} sweep rows; "
                                     f"a {controller_kind!r} sweep needs a file of its own")
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
    done = _sweep_csv_rows(out_csv, controller_kind)
    with open(out_csv, "a", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=SWEEP_COLUMNS)
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
                f.flush()  # a killed sweep keeps every row it reported
                progress(row)
    return rows


def _sweep_entry(controller_kind, cfg, V, seed, sac_cfg, total_steps,
                 reward_kind, episodes) -> dict:
    """Means over `episodes` evaluation episodes for one grid point."""
    cfg = replace(cfg, penalty_weight=V)
    if controller_kind == "sac":
        result = train(cfg, sac_cfg, total_steps, seed, reward_kind)
        controller = SacController(result.best_agent)
    else:
        controller = make_controller(controller_kind, cfg,
                                     dpp_cfg=DppConfig(penalty_weight=V))
    records, _ = evaluate(controller, cfg, episodes, seed, reward_kind)
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


COMPARE_COLUMNS = ("controller", "cost_kind", "status", "avg_queue",
                   "avg_penalty", "reward_first", "reward_final")


def compare(cfg: SystemConfig, dpp_cfg: DppConfig, sac_cfg: SacConfig,
            seed: int, total_steps: int, reward_kind: str,
            progress) -> list[dict]:
    """Both controllers on both cloud-cost kinds, one row dict over
    COMPARE_COLUMNS each (a DPP row has no reward columns). On the
    discontinuous per-core cost the DPP row records its structured refusal
    while the learner's row reports the learning-curve improvement."""
    rows = []
    for cost_kind in ("cubic", "per-core"):
        cfg_k = replace(cfg, cloud_cost_kind=cost_kind)

        row = {"controller": "dpp", "cost_kind": cost_kind, "status": "ok"}
        try:
            controller = DppController(cfg_k, dpp_cfg)
            [m], _ = evaluate(controller, cfg_k, 1, seed, reward_kind)
            row.update(avg_queue=m["avg_queue"], avg_penalty=m["avg_penalty"])
        except UnsupportedObjectiveError as exc:
            row["status"] = f"unsupported-objective: {exc}"
        rows.append(row)
        progress(row)

        result = train(cfg_k, sac_cfg, total_steps, seed, reward_kind)
        [m], _ = evaluate(SacController(result.best_agent), cfg_k, 1, seed, reward_kind)
        rows.append({
            "controller": "sac", "cost_kind": cost_kind, "status": "ok",
            "avg_queue": m["avg_queue"], "avg_penalty": m["avg_penalty"],
            "reward_first": result.curve[0]["reward_sum"],
            "reward_final": max(r["reward_sum"] for r in result.curve[1:]),
        })
        progress(rows[-1])
    return rows
