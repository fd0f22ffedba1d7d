import argparse
import csv
import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

import lyaq.cli
from lyaq import harness
from lyaq.cli import COMMANDS, build_parser, main
from lyaq.config import desk_config, get_profile, save_config
from lyaq.env import Trace
from lyaq.sac import SacAgent


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def trace_penalties(path):
    """C_E + C_C per slot of a trace CSV, its last two columns."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, -2] + table[:, -1]


def desk_config_file(tmp_path, **overrides):
    path = tmp_path / "desk.json"
    save_config(replace(desk_config(), episode_length=20, **overrides), path)
    return str(path)


def test_dpp_episode(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--controller", "dpp", "--profile", "desk",
                 "--steps", "20", "--Vprime", "1e11", "--out", str(out)]) == 0
    penalties = trace_penalties(out)
    assert len(penalties) == 20
    assert penalties.min() >= 0.0


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


def test_dpp_sweep_whose_every_row_fails_exits_1(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", desk_config_file(tmp_path), "--controller", "dpp",
            "--cost", "per-core", "--Vprime", "0", "--seeds", "0", "--episodes", "1",
            "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: all 1 sweep rows failed")
    rows = read_rows(out)
    assert len(rows) == 1
    assert rows[0]["status"].startswith("unsupported-objective")
    # a fully resumed sweep runs no row, so no row failed
    assert main(argv) == 0
    assert len(read_rows(out)) == 1


@pytest.mark.parametrize("argv", [["feasibility"],
                                  ["eval", "--controller", "uniform", "--episodes", "1"],
                                  ["simulate", "--controller", "idle"]],
                         ids=["feasibility", "eval-uniform", "simulate-idle"])
def test_cubic_cost_without_cloud_cores_fails_clearly(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", desk_config_file(tmp_path, cloud_cores=0)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "cloud_cores" in err


def test_dpp_without_cloud_cores_fails_clearly(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--controller", "dpp", "--Vprime", "1e11",
              "--config", desk_config_file(tmp_path, cloud_cores=0)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "cloud_cores" in err


def test_config_with_missing_keys_fails_clearly(tmp_path, capsys):
    d = asdict(replace(desk_config(), episode_length=20))
    del d["rho"], d["apps"][1]["arrival_rate"]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(d))
    assert main(["eval", "--config", str(path), "--controller", "uniform",
                 "--episodes", "1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: config lacks required key(s): rho, apps[1].arrival_rate\n"


@pytest.mark.parametrize("edit, message", [
    (lambda d: [1, 2], "config must be a JSON object, got list"),
    (lambda d: {**d, "apps": [5]}, "apps[0] must be a JSON object, got int"),
    (lambda d: {**d, "edge_cores": None}, "edge_cores: expected a number, got None"),
    (lambda d: {**d, "edge_clock": "fast"}, "edge_clock: expected a number, got 'fast'"),
    (lambda d: {**d, "apps": "xy"}, "apps must be a list of JSON objects, got str"),
], ids=["top-level-list", "app-not-an-object", "null-number", "word-for-a-number",
        "apps-a-string"])
def test_malformed_config_fails_naming_its_key(tmp_path, capsys, edit, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(edit(asdict(replace(desk_config(), episode_length=20)))))
    assert main(["feasibility", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n" and out == ""


@pytest.mark.parametrize("argv, path", [
    (["train", "--steps", "600", "--out"], "curve.csv"),
    (["train", "--steps", "600", "--checkpoint"], "agent.npz"),
    (["compare", "--steps", "600", "--out"], "report.csv"),
    (["sweep", "--controller", "uniform", "--Vgrid", "0", "--seeds", "0", "--out"], "sweep.csv"),
    (["eval", "--controller", "uniform", "--episodes", "1", "--out"], "records.csv"),
    (["simulate", "--controller", "uniform", "--out"], "trace.csv"),
    (["plot", "curve.csv", "--out"], ""),
], ids=["train-out", "train-checkpoint", "compare", "sweep", "eval", "simulate", "plot"])
def test_an_output_in_a_missing_directory_fails_before_any_work(tmp_path, capsys,
                                                                argv, path):
    missing = tmp_path / "nodir"
    target = str(missing / path) if path else str(missing)
    config = [] if argv[0] == "plot" else ["--config", desk_config_file(tmp_path)]
    assert main(argv + [target] + config) == 1
    out, err = capsys.readouterr()
    assert out == ""  # no progress line: nothing ran
    assert err == f"error: cannot write {target}: directory {missing} does not exist\n"


def test_every_subcommand_has_a_handler():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(COMMANDS)
    with pytest.raises(SystemExit) as exc:
        main(["dpp"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["sweep", "--controller", "uniform", "--Vgrid", "0", "--seeds", "0",
     "--episodes", "0"],
    ["eval", "--controller", "uniform", "--episodes", "-1"],
    ["simulate", "--steps", "-5"],
    ["simulate", "--steps", "0"],
    ["train", "--steps", "-3", "--hidden", "8,8"],
    ["train", "--steps", "many", "--hidden", "8,8"],
], ids=["sweep-episodes-0", "eval-episodes-neg", "simulate-steps-neg",
        "simulate-steps-0", "train-steps-neg", "train-steps-text"])
def test_counts_must_be_positive(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out), "--config", desk_config_file(tmp_path)])
    assert exc.value.code == 2
    flag = next(a for a in argv if a in ("--steps", "--episodes"))
    assert f"argument {flag}: must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("hidden", ["0,64", "-4", ",", "", "64,x", "1.5"])
def test_hidden_widths_must_be_positive_integers(tmp_path, capsys, hidden):
    out = tmp_path / "curve.csv"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", desk_config_file(tmp_path), "--steps", "40",
              f"--hidden={hidden}", "--out", str(out)])
    assert exc.value.code == 2
    assert ("argument --hidden: must be a comma list of positive integers, "
            f"got {hidden!r}") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("zeta", ["nan", "inf", "-5"])
def test_train_refuses_a_bad_entropy_weight(tmp_path, capsys, zeta):
    # refused before any episode runs, not as a non-finite loss later
    out = tmp_path / "curve.csv"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", desk_config_file(tmp_path), "--steps", "40",
              "--hidden", "8,8", f"--zeta={zeta}", "--out", str(out)])
    assert exc.value.code == 2
    assert (f"argument --zeta: must be finite and >= 0, got {zeta!r}"
            in capsys.readouterr().err)
    assert not out.exists()
    assert build_parser().parse_args(["train", "--zeta", "0"]).zeta == 0.0


@pytest.mark.parametrize("seeds", ["", ","])
def test_sweep_refuses_an_empty_seed_list(tmp_path, capsys, seeds):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", desk_config_file(tmp_path), "--controller",
                 "uniform", "--Vgrid", "0", f"--seeds={seeds}", "--episodes", "1",
                 "--out", str(out)]) == 1
    assert "error: seeds must be non-empty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["1.5", "0,x", "-1", "0,1e3"])
def test_sweep_refuses_seeds_that_are_not_whole(tmp_path, capsys, seeds):
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", desk_config_file(tmp_path), "--controller",
              "uniform", "--Vgrid", "0", f"--seeds={seeds}", "--episodes", "1",
              "--out", str(out)])
    assert exc.value.code == 2
    assert (f"argument --seeds: must be a comma list of integers >= 0, got {seeds!r}"
            in capsys.readouterr().err)
    assert not out.exists()
    assert build_parser().parse_args(["sweep", "--Vgrid", "0", "--out", "s.csv",
                                      "--seeds", " 3, 0,"]).seeds == [3, 0]


@pytest.mark.parametrize("flag", ["--Vgrid", "--Vprime"])
@pytest.mark.parametrize("grid", ["abc", "0,1e9x", "0;1"])
def test_sweep_refuses_a_grid_that_is_not_numbers(tmp_path, capsys, flag, grid):
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", desk_config_file(tmp_path), "--controller",
              "uniform", f"{flag}={grid}", "--seeds", "0", "--episodes", "1",
              "--out", str(out)])
    assert exc.value.code == 2
    assert (f"argument --Vgrid/--Vprime: must be a comma list of numbers, got {grid!r}"
            in capsys.readouterr().err)
    assert not out.exists()
    assert build_parser().parse_args(["sweep", "--Vgrid", " 1e9, 0,", "--out",
                                      "s.csv"]).grid == [1e9, 0.0]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("argv", [
    ["eval", "--controller", "uniform", "--episodes", "1", "--V"],
    ["simulate", "--controller", "dpp", "--steps", "5", "--V"],
    ["train", "--steps", "40", "--hidden", "8,8", "--V"],
], ids=["eval", "simulate", "train"])
def test_non_finite_V_is_refused(tmp_path, capsys, argv, value):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + [value, "--out", str(out), "--config", desk_config_file(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"config error: penalty_weight {value} not finite\n"
    assert not out.exists()


def test_config_file_with_non_finite_field_is_refused(tmp_path, capsys):
    d = asdict(replace(desk_config(), episode_length=20))
    d["bandwidth"] = float("inf")
    d["apps"][0]["arrival_rate"] = float("nan")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(SystemExit) as exc:
        main(["feasibility", "--config", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "config error: bandwidth inf not finite" in err
    assert "config error: compress: arrival_rate nan not finite" in err


@pytest.mark.parametrize("field", ["edge_cores", "cloud_cores", "episode_length"])
@pytest.mark.parametrize("value", [float("inf"), float("nan"), 2.5])
def test_config_file_with_a_count_that_is_not_whole_is_refused(tmp_path, capsys,
                                                                field, value):
    d = asdict(replace(desk_config(), episode_length=20))
    d[field] = value  # JSON Infinity, NaN or 2.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(SystemExit) as exc:
        main(["feasibility", "--config", str(path)])
    assert exc.value.code == 2
    assert f"config error: {field} {value} is not a whole number\n" in capsys.readouterr().err


def test_a_whole_float_count_is_read_as_an_integer(tmp_path):
    d = asdict(replace(desk_config(), episode_length=20))
    d["edge_cores"] = 10.0
    path = tmp_path / "whole.json"
    path.write_text(json.dumps(d))
    assert main(["feasibility", "--config", str(path)]) == 0
    assert lyaq.cli.load_config(path).edge_cores == 10
    assert isinstance(lyaq.cli.load_config(path).edge_cores, int)


def test_back_to_back_calls_share_the_parser_but_no_options(monkeypatch):
    seen = []
    monkeypatch.setitem(COMMANDS, "eval", lambda args: seen.append(vars(args)) or 0)
    first = ["eval", "--profile", "paper8", "--V", "1e9", "--nu", "2", "--cost",
             "per-core", "--seed", "7", "--controller", "dpp", "--checkpoint", "a.npz",
             "--Vprime", "1e11", "--reward", "power", "--episodes", "3", "--out", "r.csv"]
    second = ["eval"]
    assert main(first) == 0 and main(second) == 0
    assert build_parser() is build_parser()
    fresh = build_parser.__wrapped__()
    assert seen == [vars(fresh.parse_args(first)), vars(fresh.parse_args(second))]
    assert seen[1]["seed"] == 0 and seen[1]["out"] is None


@pytest.mark.parametrize("command", ["simulate", "eval"])
def test_non_finite_Vprime_is_refused(tmp_path, capsys, command):
    argv = [command, "--config", desk_config_file(tmp_path), "--controller", "dpp",
            "--Vprime", "inf"]
    assert main(argv + (["--steps", "5"] if command == "simulate" else
                        ["--episodes", "1"])) == 1
    assert capsys.readouterr().err == (
        "error: penalty weight V' must be finite and >= 0, got inf\n")


@pytest.mark.parametrize("controller, flag", [("dpp", "--Vprime"), ("uniform", "--Vgrid")])
@pytest.mark.parametrize("bad", ["inf", "nan", "-1"])
def test_sweep_refuses_a_non_finite_or_negative_V(tmp_path, capsys, controller, flag, bad):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", desk_config_file(tmp_path), "--controller",
                 controller, flag, f"0,{bad}", "--seeds", "0", "--episodes", "1",
                 "--out", str(out)]) == 1
    assert (f"error: V grid values must be finite and >= 0, got [{float(bad)}]"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("grid, seeds", [("1e9,1000000000", "0"), ("1e9", "0,0")])
def test_sweep_runs_a_repeated_point_once(tmp_path, capsys, grid, seeds):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", desk_config_file(tmp_path), "--controller",
                 "dpp", "--Vprime", grid, "--seeds", seeds, "--episodes", "1",
                 "--out", str(out)]) == 0
    assert len(read_rows(out)) == 1
    assert "(1 runs)" in capsys.readouterr().out


@pytest.mark.parametrize("controller", ["uniform", "dpp"])
def test_both_grid_spellings_sweep_any_controller(tmp_path, controller):
    # --Vprime and --Vgrid are one option, whatever the controller
    outs = []
    for flag in ("--Vprime", "--Vgrid"):
        out = tmp_path / f"{flag[2:]}.csv"
        assert main(["sweep", "--config", desk_config_file(tmp_path), "--controller",
                     controller, flag, "0,1e11", "--seeds", "0", "--episodes", "1",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert [float(r["V"]) for r in read_rows(out)] == [0.0, 1e11]


def test_sweep_without_a_grid_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--controller", "dpp", "--out", "never.csv"])
    assert exc.value.code == 2
    assert "required: --Vgrid/--Vprime" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["feasibility", "--V", "1e9"], ["feasibility", "--nu", "2"],
    ["feasibility", "--cost", "cubic"], ["feasibility", "--seed", "1"],
    ["sweep", "--Vgrid", "0", "--out", "never.csv", "--V", "1e9"],
    ["sweep", "--Vgrid", "0", "--out", "never.csv", "--seed", "1"],
    ["compare", "--cost", "cubic"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_inert_flags_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


class ReadRecorder(argparse.Namespace):
    """A Namespace that notes every attribute a handler reads."""

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").get("_reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


def test_every_option_is_read(tmp_path, monkeypatch, capsys):
    # the desk profile with T=20 keeps every run tiny while --profile is read
    monkeypatch.setattr(lyaq.cli, "get_profile",
                        lambda name: replace(get_profile(name), episode_length=20))
    ckpt, curve = str(tmp_path / "agent.npz"), str(tmp_path / "curve.csv")
    system = ["--V", "1e9", "--nu", "2", "--cost", "cubic", "--seed", "1"]
    runs = [
        ["feasibility"],
        ["train", *system, "--reward", "power", "--steps", "40", "--hidden", "8,8",
         "--zeta", "0.1", "--out", curve, "--checkpoint", ckpt],
        ["simulate", *system, "--controller", "sac", "--checkpoint", ckpt,
         "--Vprime", "0", "--reward", "power", "--steps", "10",
         "--out", str(tmp_path / "trace.csv")],
        ["eval", *system, "--controller", "sac", "--checkpoint", ckpt,
         "--Vprime", "0", "--reward", "power", "--episodes", "1",
         "--out", str(tmp_path / "records.csv")],
        ["sweep", "--nu", "2", "--cost", "cubic", "--controller", "dpp",
         "--Vprime", "0", "--seeds", "0", "--reward", "power", "--steps", "40",
         "--episodes", "1", "--out", str(tmp_path / "dpp.csv")],
        ["sweep", "--controller", "uniform", "--Vgrid", "0", "--seeds", "0",
         "--episodes", "1", "--out", str(tmp_path / "uniform.csv")],
        ["compare", "--V", "1e9", "--nu", "2", "--seed", "1", "--Vprime", "1e11",
         "--reward", "power", "--steps", "40", "--out", str(tmp_path / "report.csv")],
        ["plot", curve, "--out", str(tmp_path)],
    ]
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    read = {command: set() for command in subparsers.choices}
    for argv in runs:
        args = parser.parse_args(argv, namespace=ReadRecorder())
        args._reads = read[argv[0]]
        assert COMMANDS[argv[0]](args) == 0, argv
    capsys.readouterr()
    unread = {command: sorted(a.option_strings[0] if a.option_strings else a.dest
                              for a in sub._actions
                              if a.dest != "help" and a.dest not in read[command])
              for command, sub in subparsers.choices.items()}
    assert unread == {command: [] for command in subparsers.choices}


def test_sac_sweep_writes_an_ok_row_per_grid_point(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", desk_config_file(tmp_path), "--controller",
                 "sac", "--Vgrid", "0,1e9", "--seeds", "0", "--steps", "80",
                 "--episodes", "1", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert [float(r["V"]) for r in rows] == [0.0, 1e9]
    for r in rows:
        assert r["status"] == "ok"
        assert all(math.isfinite(float(r[k]))
                   for k in ("avg_queue", "avg_penalty", "reward_sum"))


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """`lyaq train` on desk with T=20: (config file, checkpoint, curve CSV)."""
    tmp = tmp_path_factory.mktemp("train")
    config = desk_config_file(tmp)
    ckpt, curve = tmp / "agent.npz", tmp / "curve.csv"
    assert main(["train", "--config", config, "--steps", "40", "--hidden", "8,8",
                 "--out", str(curve), "--checkpoint", str(ckpt)]) == 0
    return config, ckpt, curve


def test_feasibility(capsys):
    assert main(["feasibility", "--profile", "desk"]) == 0
    out = capsys.readouterr().out
    assert "total capacity" in out and "feasible: True" in out


def test_train_writes_curve_and_loadable_checkpoint(trained):
    _, ckpt, curve = trained
    rows = read_rows(curve)
    # --steps 40 at T = 20 is two episodes, not a whole 4-episode cycle
    assert [int(r["steps"]) for r in rows] == [0, 40]
    assert SacAgent.load(ckpt).sac_cfg.hidden_sizes == (8, 8)


@pytest.mark.parametrize("controller", ["idle", "uniform", "dpp", "sac"])
def test_simulate(tmp_path, trained, controller):
    config, ckpt, _ = trained
    out = tmp_path / "trace.csv"
    argv = ["simulate", "--config", config, "--controller", controller,
            "--Vprime", "1e11", "--out", str(out)]
    assert main(argv + (["--checkpoint", str(ckpt)] if controller == "sac" else [])) == 0
    penalties = trace_penalties(out)
    assert len(penalties) == 20
    assert penalties.min() >= 0.0
    if controller == "idle":
        assert penalties.max() == 0.0


@pytest.mark.parametrize("controller", ["uniform", "dpp"])
def test_simulate_reproduces_evaluate_episode_zero(tmp_path, capsys, controller):
    config = desk_config_file(tmp_path)
    common = ["--config", config, "--controller", controller, "--Vprime", "1e11",
              "--seed", "11"]
    assert main(["simulate"] + common) == 0
    simulated = capsys.readouterr().out.strip()
    assert main(["eval"] + common + ["--episodes", "2"]) == 0
    episodes = capsys.readouterr().out.strip().splitlines()
    assert episodes[0] == f"episode 0: {simulated}"
    assert episodes[1] != f"episode 1: {simulated}"


def test_eval_writes_one_row_per_episode(tmp_path, trained):
    config, ckpt, _ = trained
    out = tmp_path / "records.csv"
    assert main(["eval", "--config", config, "--controller", "sac",
                 "--checkpoint", str(ckpt), "--episodes", "3", "--seed", "2",
                 "--out", str(out)]) == 0
    rows = read_rows(out)
    assert [r["episode"] for r in rows] == ["0", "1", "2"]
    assert all(float(r["avg_queue"]) >= 0.0 for r in rows)


def test_each_command_file_has_its_column_tuple_as_header(tmp_path, trained):
    config, ckpt, curve = trained
    trace, records, report = (tmp_path / name for name in
                              ("trace.csv", "records.csv", "report.csv"))
    assert main(["simulate", "--config", config, "--controller", "uniform",
                 "--out", str(trace)]) == 0
    assert main(["eval", "--config", config, "--controller", "sac",
                 "--checkpoint", str(ckpt), "--episodes", "1",
                 "--out", str(records)]) == 0
    assert main(["compare", "--config", config, "--steps", "20",
                 "--out", str(report)]) == 0
    n_queues = desk_config().n_queues
    for path, columns in [(curve, harness.CURVE_COLUMNS),
                          (trace, Trace(n_queues, capacity=1).header()),
                          (records, lyaq.cli.EVAL_COLUMNS),
                          (report, harness.COMPARE_COLUMNS)]:
        with open(path, newline="") as f:
            assert next(csv.reader(f)) == list(columns), path.name


def test_compare_refuses_dpp_on_per_core_cost(tmp_path):
    out = tmp_path / "report.csv"
    assert main(["compare", "--config", desk_config_file(tmp_path),
                 "--Vprime", "1e11", "--steps", "40", "--out", str(out)]) == 0
    rows = {(r["controller"], r["cost_kind"]): r for r in read_rows(out)}
    assert sorted(rows) == [("dpp", "cubic"), ("dpp", "per-core"),
                            ("sac", "cubic"), ("sac", "per-core")]
    assert rows["dpp", "cubic"]["status"] == "ok"
    assert rows["dpp", "per-core"]["status"].startswith("unsupported-objective")
    assert all(rows["sac", k]["status"] == "ok" for k in ("cubic", "per-core"))


def test_plot_renders_every_csv_kind(tmp_path, trained):
    _, _, curve = trained
    trace, sweep = tmp_path / "trace.csv", tmp_path / "sweep.csv"
    assert main(["simulate", "--controller", "dpp", "--profile", "desk",
                 "--steps", "20", "--out", str(trace)]) == 0
    assert main(["sweep", "--config", desk_config_file(tmp_path), "--controller",
                 "uniform", "--Vgrid", "0", "--seeds", "0", "--episodes", "1",
                 "--out", str(sweep)]) == 0
    assert main(["plot", str(curve), str(trace), str(sweep),
                 "--out", str(tmp_path)]) == 0
    for name in ("curve.svg", "trace.svg", "sweep.svg"):
        assert "</svg>" in (tmp_path / name).read_text()


def test_checkpoint_of_another_config_fails_clearly(trained, capsys):
    _, ckpt, _ = trained
    code = main(["eval", "--profile", "paper8", "--controller", "sac",
                 "--checkpoint", str(ckpt), "--episodes", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "state_dim=11 but the config has state_dim=41" in err


def test_checkpoint_without_meta_fails_clearly(tmp_path, trained, capsys):
    config, ckpt, _ = trained
    with np.load(ckpt) as data:
        arrays = {key: data[key] for key in data.files if key != "meta"}
    broken = tmp_path / "broken.npz"
    np.savez(broken, **arrays)
    assert main(["eval", "--config", config, "--controller", "sac",
                 "--checkpoint", str(broken), "--episodes", "1"]) == 1
    assert "no 'meta'" in capsys.readouterr().err


def test_training_divergence_fails_clearly(tmp_path, monkeypatch, capsys):
    def diverge(self, buffer, rng):
        raise FloatingPointError("non-finite loss at update 1")

    monkeypatch.setattr(SacAgent, "update", diverge)
    # four 4x20-slot cycles fill the buffer to one 256-transition batch
    assert main(["train", "--config", desk_config_file(tmp_path), "--steps", "320",
                 "--hidden", "8,8"]) == 1
    assert "error: non-finite loss" in capsys.readouterr().err


def test_train_warns_when_no_gradient_step_is_taken(tmp_path, capsys):
    config = desk_config_file(tmp_path)
    # 40 steps collect one 4x20-slot cycle, 80 transitions, short of a batch
    assert main(["train", "--config", config, "--steps", "40", "--hidden", "8,8"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning:")
    assert "40 steps" in err and "256 transitions" in err
    assert main(["train", "--config", config, "--steps", "320", "--hidden", "8,8"]) == 0
    assert "warning" not in capsys.readouterr().err


def test_train_is_byte_reproducible(tmp_path):
    outputs = []
    for run in ("a", "b"):
        curve, ckpt = tmp_path / f"{run}.csv", tmp_path / f"{run}.npz"
        assert main(["train", "--profile", "desk", "--steps", "400", "--hidden", "8,8",
                     "--seed", "2", "--out", str(curve), "--checkpoint", str(ckpt)]) == 0
        outputs.append((curve.read_bytes(), ckpt.read_bytes()))
    assert outputs[0] == outputs[1]
