"""The benchmark's span hooks still name functions that exist.

perfbench/ wraps lyaq functions from outside the package, by lookup site; a
refactor that moves or renames one turns its span into a missing span
instead of failing. The benchmark files are loaded by path and only read.
"""

import importlib.util
import sys
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
