"""tools/pins.py's report on a mismatch, without running the pinned commands."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pins", ROOT / "tools" / "pins.py")
pins = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pins)


@pytest.mark.parametrize("simd, record", [
    ({"baseline": ["X86_V2"], "not found": ["X86_V3", "X86_V4"]},
     "numpy SIMD baseline: X86_V2; found: none"),
    ({"baseline": ["X86_V2"], "found": ["X86_V3", "X86_V4"]},
     "numpy SIMD baseline: X86_V2; found: X86_V3, X86_V4"),
], ids=["baseline-only", "dispatching"])
def test_a_mismatch_prints_one_host_record(monkeypatch, capsys, simd, record):
    # a host with numpy's baseline alone has no "found" list
    pinned = json.loads(pins.TABLE.read_text())
    moved = {**pinned, "eval-dpp-v0.csv": "0" * 64, "train.csv": "1" * 64}
    monkeypatch.setattr(pins, "run_all", lambda work: moved)
    monkeypatch.setattr(pins.np, "show_config", lambda mode: {"SIMD Extensions": simd})
    assert pins.main([]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in out if line.startswith("MISMATCH")] == [
        "eval-dpp-v0.csv", "train.csv"]
    assert out[-2:] == [record, "2 mismatch(es)"]
