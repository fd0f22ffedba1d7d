import csv
from dataclasses import replace

import numpy as np

from lyaq.config import desk_config
from lyaq.harness import controller_rng, sweep
from lyaq.plots import emit_plots


def short_desk():
    return replace(desk_config(), episode_length=10)


def read_lines(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


class TestSweepResume:
    def test_resume_on_header_only_csv_writes_one_header(self, tmp_path):
        out = tmp_path / "sweep.csv"
        # a sweep interrupted before its first row leaves only the header
        sweep("uniform", short_desk(), [0.0], [], out_csv=out, episodes=1)
        assert len(read_lines(out)) == 1
        rows = sweep("uniform", short_desk(), [0.0, 1e9], [0, 1], out_csv=out,
                     episodes=1)
        lines = read_lines(out)
        assert len(rows) == 4
        assert len(lines) == 5
        assert lines[0][0] == "controller"
        assert all(line[0] == "uniform" for line in lines[1:])
        assert [p.name for p in emit_plots([out], out_dir=tmp_path)] == ["sweep.svg"]

    def test_rerun_appends_nothing(self, tmp_path):
        out = tmp_path / "sweep.csv"
        sweep("uniform", short_desk(), [0.0, 1e9], [0, 1], out_csv=out, episodes=1)
        before = out.read_bytes()
        assert sweep("uniform", short_desk(), [0.0, 1e9], [0, 1], out_csv=out,
                     episodes=1) == []
        assert out.read_bytes() == before


def test_controller_stream_is_no_episode_stream():
    # evaluate gives episode k the stream SeedSequence(seed).spawn(episodes)[k]
    for seed in (0, 1, 7, 12345):
        first = controller_rng(seed).random(4)
        for stream in np.random.SeedSequence(seed).spawn(16):
            assert not np.array_equal(first, np.random.default_rng(stream).random(4))
