"""tools/pins.py's report on a mismatch and its command subsets, without
running the pinned commands."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pins", ROOT / "tools" / "pins.py")
pins = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pins)


def fake_openblas(monkeypatch, symbols, paths=("libopenblas.so",)):
    """Stand in for the loaded OpenBLAS: libraries at `paths`, each with the
    corename functions `symbols` maps to the bytes they return."""
    class Library:
        def __init__(self, path):
            for name, core in symbols.items():
                setattr(self, name, lambda core=core: core)

    monkeypatch.setattr(pins, "loaded_openblas", lambda: list(paths))
    monkeypatch.setattr(pins.ctypes, "CDLL", Library)


@pytest.mark.parametrize("simd, record", [
    ({"baseline": ["X86_V2"], "not found": ["X86_V3", "X86_V4"]},
     "numpy SIMD baseline: X86_V2; found: none; OpenBLAS core: Haswell"),
    ({"baseline": ["X86_V2"], "found": ["X86_V3", "X86_V4"]},
     "numpy SIMD baseline: X86_V2; found: X86_V3, X86_V4; OpenBLAS core: Haswell"),
], ids=["baseline-only", "dispatching"])
def test_a_mismatch_prints_one_host_record(monkeypatch, capsys, simd, record):
    # a host with numpy's baseline alone has no "found" list
    pinned = json.loads(pins.TABLE.read_text())
    moved = {**pinned, "eval-dpp-v0.csv": "0" * 64, "train.csv": "1" * 64}
    monkeypatch.setattr(pins, "run_all", lambda work, names: moved)
    monkeypatch.setattr(pins.np, "show_config", lambda mode: {"SIMD Extensions": simd})
    fake_openblas(monkeypatch, {"scipy_openblas_get_corename64_": b"Haswell"})
    assert pins.main([]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in out if line.startswith("MISMATCH")] == [
        "eval-dpp-v0.csv", "train.csv"]
    assert out[-2:] == [record, "2 mismatch(es)"]


@pytest.mark.parametrize("symbols, paths, core", [
    ({"scipy_openblas_get_corename64_": b"SkylakeX"}, ["libscipy_openblas64_.so"],
     "SkylakeX"),
    ({"openblas_get_corename": b"Zen"}, ["libopenblas.so.0"], "Zen"),
    ({}, ["libopenblas.so.0"], "unknown"),
    ({"openblas_get_corename": b"Zen"}, [], "unknown"),
], ids=["scipy-openblas", "system-openblas", "no-symbol", "no-openblas"])
def test_the_host_record_names_the_openblas_core(monkeypatch, symbols, paths, core):
    fake_openblas(monkeypatch, symbols, paths)
    assert pins.openblas_core() == core
    assert pins.host_record().endswith(f"; OpenBLAS core: {core}")


# the commands CI checks: every DPP pin held on each emulated host
DPP_COMMANDS = ["eval-dpp-v0", "eval-trace-dpp-v0", "sweep-dpp", "eval-dpp-vcost",
                "eval-trace-dpp-vcost", "eval-dpp-power", "eval-dpp-mean-diff"]


def fake_run_all(monkeypatch, moved):
    """run_all as the named commands would print the pinned bytes, but for
    the pins in `moved`; returns the list of the names each call ran."""
    pinned = json.loads(pins.TABLE.read_text())
    calls = []

    def run_all(work, names):
        calls.append(list(names))
        return {name: moved.get(name, h) for name, h in pinned.items()
                if name in pins.pins_of(names)}
    monkeypatch.setattr(pins, "run_all", run_all)
    return calls


def test_the_dpp_subset_checks_its_fourteen_pins(monkeypatch, capsys):
    # a SAC pin that moved is none of the subset's business
    calls = fake_run_all(monkeypatch, {"train.csv": "1" * 64})
    assert pins.main(DPP_COMMANDS) == 0
    out = capsys.readouterr().out.splitlines()
    assert calls == [DPP_COMMANDS]
    assert sorted(line.split()[1] for line in out[:-1]) == sorted(
        f"{name}.{kind}" for name in DPP_COMMANDS for kind in ("csv", "stdout"))
    assert all(line.startswith("ok") for line in out[:-1])
    assert out[-1] == "all 14 pins hold"


def test_a_mismatch_in_the_subset_fails_it(monkeypatch, capsys):
    fake_run_all(monkeypatch, {"eval-dpp-vcost.csv": "0" * 64})
    monkeypatch.setattr(pins, "host_record", lambda: "host")
    assert pins.main(["sweep-dpp", "eval-dpp-vcost"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in out if line.startswith("MISMATCH")] == [
        "eval-dpp-vcost.csv"]
    assert out[-2:] == ["host", "1 mismatch(es)"]


@pytest.mark.parametrize("argv, message", [
    (["sweep-dpp", "no-such-command"], "unknown command no-such-command"),
    (["--write", "sweep-dpp"], "--write rewrites the whole pin table"),
    (["eval-sac"], "eval-sac reads the checkpoint train writes"),
], ids=["unknown-name", "write-with-names", "eval-sac-without-train"])
def test_a_bad_subset_exits_2_before_running_anything(monkeypatch, capsys, argv, message):
    calls = fake_run_all(monkeypatch, {})
    with pytest.raises(SystemExit) as exit_:
        pins.main(argv)
    assert exit_.value.code == 2
    assert message in capsys.readouterr().err
    assert calls == []
