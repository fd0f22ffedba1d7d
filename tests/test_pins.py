"""tools/pins.py's report on a mismatch, without running the pinned commands."""

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
    monkeypatch.setattr(pins, "run_all", lambda work: moved)
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
