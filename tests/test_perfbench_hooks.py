"""The benchmark's span hooks still name functions that exist.

perfbench/ wraps lyaq functions from outside the package, by lookup site; a
refactor that moves or renames one turns its span into a missing span
instead of failing, and a lean path that goes round a hooked function
leaves its span unfired. The benchmark files are loaded by path and only
read.
"""

import importlib.util
import json
import sys
from contextlib import ExitStack
from dataclasses import replace
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_site_resolves(monkeypatch):
    tracer = load("tracer", monkeypatch)
    workloads = load("workloads", monkeypatch)
    assert workloads.HOOKS
    for span, site, _ in workloads.HOOKS:
        try:
            _, _, raw = tracer.resolve(site)
        except LookupError as exc:
            pytest.fail(f"span {span}: {exc}")
        assert callable(getattr(raw, "__func__", raw)), span


def test_every_dpp_sweep_decision_passes_the_benchmark_check(tmp_path, monkeypatch):
    # the benchmark's dpp-sweep-paper run calls a decision `incorrect` when
    # check_decision fails; a solver change that would do so fails here first
    from dataclasses import replace

    import lyaq
    from lyaq.cli import main
    from lyaq.dpp import DppController

    workloads = load("workloads", monkeypatch)
    decisions = []
    act = DppController.act

    def recording_act(self, state):
        action = act(self, state)
        decisions.append(((self, state), action))
        return action

    monkeypatch.setattr(DppController, "act", recording_act)
    config = tmp_path / "paper.json"
    lyaq.save_config(replace(lyaq.get_profile("paper"), episode_length=20), config)
    assert main(["sweep", "--config", str(config), "--controller", "dpp",
                 "--Vprime", "0,1e11", "--seeds", "0", "--episodes", "1",
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    regimes = [workloads.dpp_regime(args[0]) for args, _ in decisions]
    assert regimes == ["v0"] * 20 + ["vcost"] * 20
    assert [workloads.check_decision(*d) for d in decisions] == [""] * 40


def traced_spans(argv, monkeypatch):
    """Run `lyaq <argv>` in-process with every workloads.HOOKS site patched
    by a perfbench Tracer, as a traced benchmark op does; the span table."""
    import lyaq.cli

    tracer_module = load("tracer", monkeypatch)
    workloads = load("workloads", monkeypatch)
    tracer = tracer_module.Tracer()
    with ExitStack() as stack:
        for name, site, split in workloads.HOOKS:
            stack.enter_context(tracer_module.patched(
                site, tracer.wrapper(name, workloads.SPLITS.get(split))))
        assert lyaq.cli.main(argv) == 0
    return tracer.aggregate()["spans"]


def declared_spans(workload):
    with open(PERFBENCH / "layers.json") as f:
        groups = json.load(f)["groups"]
    return [s for g in groups if workload in g["on"] for s in g["spans"]]


def calls(spans, name):
    return spans.get(name, {}).get("calls", 0)


def test_sac_rollout_fires_every_declared_span(tmp_path, monkeypatch):
    import lyaq

    # longer than one 256-slot arrival block
    cfg = replace(lyaq.get_profile("paper8"), episode_length=300)
    lyaq.save_config(cfg, tmp_path / "paper8.json")
    lyaq.SacAgent(cfg, lyaq.SacConfig(hidden_sizes=(8, 8))).save(tmp_path / "agent.npz")
    spans = traced_spans(["eval", "--config", str(tmp_path / "paper8.json"),
                          "--controller", "sac", "--checkpoint", str(tmp_path / "agent.npz"),
                          "--episodes", "2", "--out", str(tmp_path / "records.csv")],
                         monkeypatch)
    assert [s for s in declared_spans("rollout-paper8") if s not in spans] == []
    slots = 2 * 300
    assert calls(spans, "env.EdgeCloudEnv.step") == slots
    assert calls(spans, "sac.SacAgent.policy_sample") == slots
    assert calls(spans, "nets.DenseNet.forward.b1") == slots
    # one draw per block: slots 0..300 of an episode span two blocks
    assert calls(spans, "traffic.sample_arrivals") == 2 * 2


def test_dpp_sweep_fires_every_declared_span(tmp_path, monkeypatch):
    import lyaq

    lyaq.save_config(replace(lyaq.get_profile("paper"), episode_length=20),
                     tmp_path / "paper.json")
    spans = traced_spans(["sweep", "--config", str(tmp_path / "paper.json"),
                          "--controller", "dpp", "--Vprime", "0,1e11", "--seeds", "0",
                          "--episodes", "1", "--out", str(tmp_path / "sweep.csv")],
                         monkeypatch)
    assert [s for s in declared_spans("dpp-sweep-paper") if s not in spans] == []
    assert calls(spans, "env.EdgeCloudEnv.step") == 2 * 20
    vcost = calls(spans, "dpp.DppController.act.vcost")
    assert calls(spans, "dpp.DppController.act.v0") == vcost == 20
    # a cost-active decision scores its candidates once and projects the
    # winner's two rows; a pure-drift one does neither, and only building
    # the V' = 0 controller projects its uniform row, once
    assert calls(spans, "dpp.dpp_objective") == vcost
    assert calls(spans, "dpp.project_simplex") == 2 * vcost + 1
