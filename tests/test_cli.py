import csv
from dataclasses import replace

from lyaq.cli import main
from lyaq.config import desk_config, save_config
from lyaq.env import read_trace_csv


def desk_config_file(tmp_path, **overrides):
    path = tmp_path / "desk.json"
    save_config(replace(desk_config(), episode_length=20, **overrides), path)
    return str(path)


def test_dpp_episode(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["dpp", "--profile", "desk", "--steps", "20", "--Vprime", "1e11",
                 "--out", str(out)]) == 0
    trace = read_trace_csv(out)
    assert len(trace) == 20
    assert trace.penalties.min() >= 0.0


def test_dpp_sweep_trades_queue_for_penalty(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", desk_config_file(tmp_path),
                 "--controller", "dpp", "--Vprime", "0,1e11", "--seeds", "0",
                 "--episodes", "1", "--out", str(out)]) == 0
    with open(out, newline="") as f:
        rows = {float(r["V"]): r for r in csv.DictReader(f)}
    assert sorted(rows) == [0.0, 1e11]
    assert all(r["status"] == "ok" for r in rows.values())
    assert float(rows[1e11]["avg_penalty"]) < float(rows[0.0]["avg_penalty"])
    assert float(rows[1e11]["avg_queue"]) > float(rows[0.0]["avg_queue"])


def test_dpp_without_cloud_cores_fails_clearly(tmp_path, capsys):
    code = main(["dpp", "--config", desk_config_file(tmp_path, cloud_cores=0),
                 "--Vprime", "1e11"])
    assert code == 1
    assert "cloud_cores" in capsys.readouterr().err
