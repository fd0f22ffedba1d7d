"""The lyaq workloads: the inputs each one writes from its seed, the CLI call
that makes one op, and the checks on that call's outputs.

Every workload is a closed loop of batch jobs: one caller runs a `lyaq`
command in-process through `lyaq.cli.main`, waits for it, checks what it
wrote and starts the next one with the next op seed. No check compares with
a golden number, so the checks hold across refactors that keep behaviour.
"""

from __future__ import annotations

import csv
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

import lyaq
import lyaq.cli  # noqa: F401 - the ops look lyaq.cli.main up at call time

# Span name, the lookup site callers use, and how to split the name by
# call arguments. See tracer.py for why the site matters.
HOOKS = (
    ("traffic.sample_arrivals", "lyaq.env:sample_arrivals", None),
    ("env.EdgeCloudEnv.step", "lyaq.env:EdgeCloudEnv.step", None),
    ("env.Trace.append", "lyaq.env:Trace.append", None),
    ("rewards.compute_reward", "lyaq.harness:compute_reward", None),
    ("harness.run_episode", "lyaq.harness:run_episode", None),
    ("harness.train", "lyaq.harness:train", None),
    ("harness.sweep", "lyaq.harness:sweep", None),
    ("sac.SacAgent.policy_sample", "lyaq.sac:SacAgent.policy_sample", None),
    ("sac.SacAgent.update", "lyaq.sac:SacAgent.update", None),
    ("sac.SacAgent.save", "lyaq.sac:SacAgent.save", None),
    ("sac.SacAgent.load", "lyaq.sac:SacAgent.load", None),
    ("sac.critic_loss_and_grads", "lyaq.sac:critic_loss_and_grads", None),
    ("sac.actor_loss_and_grads", "lyaq.sac:actor_loss_and_grads", None),
    ("sac.ReplayBuffer.push", "lyaq.sac:ReplayBuffer.push", None),
    ("sac.ReplayBuffer.sample", "lyaq.sac:ReplayBuffer.sample", None),
    ("nets.DenseNet.forward", "lyaq.nets:DenseNet.forward", "batch"),
    ("nets.DenseNet.forward_cache", "lyaq.nets:DenseNet.forward_cache", "batch"),
    ("nets.DenseNet.backward", "lyaq.nets:DenseNet.backward", "batch"),
    ("nets.Adam.step", "lyaq.nets:Adam.step", None),
    ("nets.soft_update", "lyaq.sac:soft_update", None),
    ("dpp.DppController.act", "lyaq.dpp:DppController.act", "regime"),
    ("dpp.dpp_objective", "lyaq.dpp:dpp_objective", None),
    ("dpp.project_simplex", "lyaq.dpp:project_simplex", None),
    ("cli.main", "lyaq.cli:main", None),
)


def dpp_regime(controller) -> str:
    """'v0' for a pure-drift DPP controller (V' = 0), 'vcost' otherwise."""
    weight = getattr(getattr(controller, "dpp_cfg", None), "penalty_weight", None)
    return "v0" if weight == 0 else "vcost"


def batch_split(args) -> str:
    """'b1' when the first array argument has one row (acting on one
    state), 'batch' otherwise."""
    for a in args[1:]:
        shape = getattr(a, "shape", None)
        if shape:
            return "b1" if shape[0] == 1 else "batch"
    return "batch"


SPLITS = {"batch": batch_split, "regime": lambda args: dpp_regime(args[0])}


def op_seed(seed: int, i: int) -> int:
    """Seed of the i-th op of a run, a pure function of the run seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


class Rollout:
    """`lyaq eval --controller sac` on paper8 with a freshly seeded policy."""

    name = "rollout-paper8"
    decide_site = "lyaq.harness:SacController.act"
    regime = None
    checks_decisions = False
    episodes = 16
    episode_length = 500  # about 1.5 s a command, twenty or more per run

    def setup(self, seed: int, inputs: Path) -> dict:
        cfg = replace(lyaq.get_profile("paper8"), episode_length=self.episode_length)
        lyaq.save_config(cfg, inputs / "config.json")
        agent = lyaq.SacAgent(cfg, lyaq.SacConfig(hidden_sizes=(64, 64), seed=seed))
        agent.save(inputs / "agent.npz")
        return {"config": str(inputs / "config.json"),
                "checkpoint": str(inputs / "agent.npz")}

    def argv(self, inputs: dict, seed: int, out: Path) -> list[str]:
        return ["eval", "--config", inputs["config"], "--controller", "sac",
                "--checkpoint", inputs["checkpoint"],
                "--episodes", str(self.episodes), "--seed", str(seed),
                "--out", str(out / "records.csv")]

    outputs = ("records.csv",)

    def slots(self) -> int:
        return self.episodes * self.episode_length

    def check(self, out: Path, code: int, decisions) -> tuple[int, int, list[str]]:
        """(attempted, failed, errors); an op is one episode."""
        if code != 0:
            return self.episodes, self.episodes, []
        rows = _read_csv(out / "records.csv")
        errors = []
        if len(rows) != self.episodes:
            errors.append(f"{len(rows)} episode rows, expected {self.episodes}")
        for r in rows:
            if not _finite(r["reward_sum"], r["avg_penalty"], r["avg_queue"]):
                errors.append(f"episode {r['episode']}: non-finite row {r}")
            elif float(r["avg_penalty"]) < 0 or float(r["avg_queue"]) < 0:
                errors.append(f"episode {r['episode']}: negative average {r}")
        return self.episodes, 0, errors

    def check_trace(self, spans: dict, n_ops: int) -> list[str]:
        want = n_ops * self.slots()
        got = spans.get("env.EdgeCloudEnv.step", {}).get("calls", 0)
        return [] if got == want else [
            f"env.EdgeCloudEnv.step ran {got} times, expected K*T*ops = {want}"]


class DppSweep:
    """`lyaq sweep --controller dpp --Vprime 0,1e11` on paper, one seed.

    V'=1e11 rather than 1e10 for the cost-active regime. At 1e10 about a
    quarter of the decisions cost no more solver work than at V'=0 and the
    rest up to seven times as much, so the work in a sweep depends strongly
    on its arrival draw: over ten seeded 36-s runs on a 2-vCPU x86-64 VM
    (Python 3.11, numpy 2.4, OpenBLAS, one thread), slots_per_s and
    decide_ms_p90 spread by 28% and 27% (quartile distance over median),
    against 12% and 13% at 1e11 on the same seeds, where every decision
    is cost-active.
    """

    name = "dpp-sweep-paper"
    decide_site = "lyaq.dpp:DppController.act"
    regime = staticmethod(dpp_regime)
    checks_decisions = True
    vprimes = (0.0, 1e11)
    # about five seconds a sweep, so that one run pools six or more sweeps
    # (seeds) and at least 100 decisions per regime even when traced
    episode_length = 50

    def setup(self, seed: int, inputs: Path) -> dict:
        cfg = replace(lyaq.get_profile("paper"), episode_length=self.episode_length)
        lyaq.save_config(cfg, inputs / "config.json")
        return {"config": str(inputs / "config.json")}

    def argv(self, inputs: dict, seed: int, out: Path) -> list[str]:
        return ["sweep", "--config", inputs["config"], "--controller", "dpp",
                "--Vprime", ",".join(repr(v) for v in self.vprimes),
                "--seeds", str(seed), "--episodes", "1",
                "--out", str(out / "sweep.csv")]

    outputs = ("sweep.csv",)

    def slots(self) -> int:
        return len(self.vprimes) * self.episode_length

    def check(self, out: Path, code: int, decisions) -> tuple[int, int, list[str]]:
        """(attempted, failed, errors); an op is one sweep row."""
        attempted = len(self.vprimes)
        if code != 0:
            return attempted, attempted, []
        rows = {float(r["V"]): r for r in _read_csv(out / "sweep.csv")}
        ok = {v: r for v, r in rows.items() if r["status"] == "ok"}
        errors = []
        if set(rows) != set(self.vprimes):
            errors.append(f"sweep rows for V' = {sorted(rows)}, expected {self.vprimes}")
        lo, hi = self.vprimes
        if lo in ok and hi in ok:
            if not float(ok[hi]["avg_penalty"]) < float(ok[lo]["avg_penalty"]):
                errors.append("avg_penalty is not lower at V'=%r than at V'=%r" % (hi, lo))
            if not float(ok[hi]["avg_queue"]) > float(ok[lo]["avg_queue"]):
                errors.append("avg_queue is not higher at V'=%r than at V'=%r" % (hi, lo))
        errors += [check_decision(*d) for d in decisions]
        return attempted, attempted - len(ok), [e for e in errors if e]

    def check_trace(self, spans: dict, n_ops: int) -> list[str]:
        return []


def check_decision(args, action) -> str:
    """The action a DPP controller chose lies on both simplexes and scores
    no worse on the program's own objective than the uniform and the idle
    action at the same queues and arrivals. Returns '' when it holds."""
    controller, state = args[0], args[1]
    for name, v in (("alpha", action.alpha), ("beta", action.beta)):
        if np.any(v < -1e-12) or abs(float(v.sum()) - 1.0) > 1e-9:
            return f"DPP {name} off the simplex: {v.tolist()}"
    q, a = state.queue, state.arrival
    n = len(q)
    objective = lyaq.dpp.dpp_objective
    value = objective(q, a, action, controller.cfg, controller.dpp_cfg)
    for ref_name, ref in (("uniform", lyaq.Action.uniform(n)), ("idle", lyaq.Action.idle(n))):
        ref_value = objective(q, a, ref, controller.cfg, controller.dpp_cfg)
        if value > ref_value + 1e-9 * max(1.0, abs(ref_value)):
            return (f"DPP action scores {value!r}, worse than the {ref_name} "
                    f"action's {ref_value!r} at q={q.tolist()}, a={a.tolist()}")
    return ""


class TrainDesk:
    """`lyaq train --profile desk --steps 2000 --hidden 64,64`."""

    name = "train-desk"
    decide_site = "lyaq.sac:SacAgent.policy_sample"
    regime = None
    checks_decisions = False
    steps = 2000

    def setup(self, seed: int, inputs: Path) -> dict:
        return {}

    def argv(self, inputs: dict, seed: int, out: Path) -> list[str]:
        return ["train", "--profile", "desk", "--steps", str(self.steps),
                "--hidden", "64,64", "--seed", str(seed),
                "--out", str(out / "curve.csv"),
                "--checkpoint", str(out / "agent.npz")]

    outputs = ("curve.csv",)

    def slots(self) -> int:
        return self.steps

    def check(self, out: Path, code: int, decisions) -> tuple[int, int, list[str]]:
        """(attempted, failed, errors); an op is one training run."""
        if code != 0:
            return 1, 1, []
        rows = _read_csv(out / "curve.csv")
        errors = []
        if len(rows) < 2 or int(rows[-1]["steps"]) < self.steps:
            errors.append(f"learning curve has {len(rows)} rows ending at "
                          f"{rows[-1]['steps'] if rows else None} steps")
        for r in rows:
            if not _finite(r["reward_sum"], r["avg_penalty"], r["avg_queue"]):
                errors.append(f"non-finite learning-curve row {r}")
        try:
            lyaq.SacAgent.load(out / "agent.npz")
        except (OSError, ValueError, KeyError) as exc:
            errors.append(f"checkpoint does not reload: {exc!r}")
        return 1, 0, errors

    def check_trace(self, spans: dict, n_ops: int) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (Rollout(), DppSweep(), TrainDesk())}
