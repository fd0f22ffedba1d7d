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
