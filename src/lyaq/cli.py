"""Command-line front end: lyaq feasibility|simulate|train|eval|sweep|compare|plot."""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace

from . import harness, plots
from .config import (get_profile, load_config, validate_config,
                     feasibility_check, PROFILES)
from .dpp import DppConfig, UnsupportedObjectiveError
from .sac import SacAgent, SacConfig


_SYSTEM_FLAGS = {
    "--V": dict(type=float, default=None, help="penalty weight V for the reward"),
    "--nu": dict(type=float, choices=(1.0, 2.0), default=None,
                 help="queue-reward exponent"),
    "--cost": dict(choices=("cubic", "per-core"), default=None,
                   help="cloud cost kind"),
    "--seed": dict(type=int, default=0),
}


def _add_common(p: argparse.ArgumentParser, flags=tuple(_SYSTEM_FLAGS)) -> None:
    """--config and --profile, plus those of --V, --nu, --cost and --seed
    that the command reads."""
    p.add_argument("--config", help="JSON system config file")
    p.add_argument("--profile", choices=sorted(PROFILES), default="desk",
                   help="built-in profile when no --config is given")
    for flag in flags:
        p.add_argument(flag, **_SYSTEM_FLAGS[flag])


def _add_reward(p: argparse.ArgumentParser) -> None:
    p.add_argument("--reward", choices=("power", "diff", "mean-diff"),
                   default="diff", help="reward kind")


def _resolve_config(args):
    cfg = load_config(args.config) if args.config else get_profile(args.profile)
    if getattr(args, "V", None) is not None:
        cfg = replace(cfg, penalty_weight=args.V)
    if getattr(args, "nu", None) is not None:
        cfg = replace(cfg, reward_exponent=args.nu)
    if getattr(args, "cost", None) is not None:
        cfg = replace(cfg, cloud_cost_kind=args.cost)
    errors = validate_config(cfg)
    if errors:
        for e in errors:
            print(f"config error: {e}", file=sys.stderr)
        raise SystemExit(2)
    return cfg


def _widths(text: str) -> tuple:
    """Hidden-layer widths, as `SacConfig` takes them: a comma list of one
    or more positive integers."""
    widths = tuple(int(x) if x.strip().isdecimal() else 0
                   for x in text.split(",") if x.strip())
    try:
        return SacConfig(hidden_sizes=widths).hidden_sizes
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a comma list of positive integers, got {text!r}") from None


def _count(text: str) -> int:
    """A step or episode count: a positive integer."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _weight(text: str) -> float:
    """An entropy weight, as `SacConfig` takes it: a finite float >= 0."""
    try:
        return SacConfig(entropy_weight=float(text)).entropy_weight
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be finite and >= 0, got {text!r}") from None


def _seeds(text: str) -> list:
    """Sweep seeds: a comma list of integers >= 0. An empty list passes, for
    `harness.sweep` to refuse."""
    seeds = [x.strip() for x in text.split(",") if x.strip()]
    if not all(x.isdecimal() for x in seeds):
        raise argparse.ArgumentTypeError(
            f"must be a comma list of integers >= 0, got {text!r}")
    return [int(x) for x in seeds]


def _grid(text: str) -> list:
    """A sweep grid: a comma list of numbers. An empty list passes, for
    `harness.sweep` to refuse, as do a non-finite or a negative number."""
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a comma list of numbers, got {text!r}") from None


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parsing leaves it as it
    was, and each parse returns a fresh namespace."""
    ap = argparse.ArgumentParser(prog="lyaq",
                                 description="Edge-cloud queue control toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("feasibility", help="closed-form load vs capacity check")
    _add_common(p, flags=())

    p = sub.add_parser("simulate", help="run one episode with a fixed controller")
    _add_common(p)
    p.add_argument("--controller", choices=("idle", "uniform", "dpp", "sac"),
                   default="uniform")
    p.add_argument("--checkpoint", help="agent checkpoint for --controller sac")
    p.add_argument("--Vprime", type=float, default=0.0, help="DPP weight")
    _add_reward(p)
    p.add_argument("--steps", type=_count, default=None, help="episode length")
    p.add_argument("--out", help="trace CSV path")

    p = sub.add_parser("train", help="train the soft actor-critic agent")
    _add_common(p)
    _add_reward(p)
    p.add_argument("--steps", type=_count, default=20000,
                   help="environment-step training budget, rounded up to "
                        "whole episodes")
    p.add_argument("--hidden", type=_widths, default=None,
                   help="comma list of hidden widths, e.g. 64,64")
    p.add_argument("--zeta", type=_weight, default=None, help="entropy weight")
    p.add_argument("--out", help="learning-curve CSV path")
    p.add_argument("--checkpoint", help="where to save the trained agent")

    p = sub.add_parser("eval", help="evaluation episodes for a controller")
    _add_common(p)
    p.add_argument("--controller", choices=("idle", "uniform", "dpp", "sac"),
                   default="uniform")
    p.add_argument("--checkpoint", help="agent checkpoint for --controller sac")
    p.add_argument("--Vprime", type=float, default=0.0)
    _add_reward(p)
    p.add_argument("--episodes", type=_count, default=5)
    p.add_argument("--out", help="records CSV path")

    p = sub.add_parser("sweep", help="V sweep producing the trade-off CSV")
    _add_common(p, flags=("--nu", "--cost"))
    p.add_argument("--controller", choices=("dpp", "sac", "idle", "uniform"),
                   default="dpp")
    p.add_argument("--Vgrid", "--Vprime", dest="grid", type=_grid, required=True,
                   help="comma list of V values (DPP reads them as V')")
    p.add_argument("--seeds", type=_seeds, default="0,1,2,3,4",
                   help="comma list of seeds")
    _add_reward(p)
    p.add_argument("--steps", type=_count, default=20000,
                   help="training budget per grid point (sac), rounded up "
                        "to whole episodes")
    p.add_argument("--episodes", type=_count, default=5)
    p.add_argument("--out", required=True, help="trade-off CSV path")

    p = sub.add_parser("compare", help="DPP vs SAC on both cloud-cost kinds")
    _add_common(p, flags=("--V", "--nu", "--seed"))
    p.add_argument("--Vprime", type=float, default=0.0)
    _add_reward(p)
    p.add_argument("--steps", type=_count, default=20000,
                   help="training budget of each SAC row, rounded up to "
                        "whole episodes")
    p.add_argument("--out", help="report CSV path")

    p = sub.add_parser("plot", help="render metric CSVs to SVG charts")
    p.add_argument("csvs", nargs="+", help="input CSV files")
    p.add_argument("--out", help="output directory (default: beside inputs)")
    for p in sub.choices.values():
        # no prefixes: `sweep --seed` would pass as --seeds
        p.allow_abbrev = False
    return ap


# the options whose paths each command writes; plot's --out is a directory
_OUTPUTS = {"simulate": ("out",), "train": ("out", "checkpoint"), "eval": ("out",),
            "sweep": ("out",), "compare": ("out",), "plot": ("out",)}


def _check_outputs(args) -> None:
    """Refuse an output path whose directory does not exist, before any
    work is done."""
    for name in _OUTPUTS.get(args.command, ()):
        path = getattr(args, name)
        if path is None:
            continue
        directory = path if args.command == "plot" else os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise OSError(f"cannot write {path}: directory {directory} does not exist")


def cmd_feasibility(args) -> int:
    cfg = _resolve_config(args)
    report = feasibility_check(cfg)
    for i, (app, rate) in enumerate(zip(cfg.apps, report.per_app_cycle_rate)):
        print(f"app {i + 1} ({app.name or 'unnamed'}): "
              f"{rate / 1e9:.2f} Gcycles/s")
    print(f"total cycle demand: {report.total_cycle_rate / 1e9:.2f} Gcycles/s")
    print(f"total capacity:     {report.total_capacity / 1e9:.2f} Gcycles/s")
    print(f"bandwidth demand:   {report.required_bandwidth / 1e6:.3f} Mbps "
          f"(link {report.bandwidth / 1e6:.3f} Mbps)")
    print(f"feasible: {report.feasible}")
    return 0


def _controller_for(args, cfg):
    """The controller of --controller; sac acts with the agent of
    --checkpoint. --Vprime is checked whichever controller runs."""
    dpp_cfg = DppConfig(penalty_weight=args.Vprime)
    if args.controller != "sac":
        return harness.make_controller(args.controller, cfg, dpp_cfg=dpp_cfg)
    if not args.checkpoint:
        print("--controller sac needs --checkpoint", file=sys.stderr)
        raise SystemExit(2)
    agent = SacAgent.load(args.checkpoint)
    for name in ("state_dim", "action_dim"):
        got, want = getattr(agent, name), getattr(cfg, name)
        if got != want:
            raise ValueError(f"checkpoint {args.checkpoint} has {name}={got!r} "
                             f"but the config has {name}={want!r}")
    return harness.SacController(agent)


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    if args.steps:
        cfg = replace(cfg, episode_length=args.steps)
    controller = _controller_for(args, cfg)
    # the arrivals of evaluate's episode 0 under the same seed
    trace, reward_sum = harness.run_episode(controller, cfg,
                                            harness.episode_rng(args.seed, 0),
                                            args.reward)
    m = harness.metrics_from_trace(trace, reward_sum)
    if args.out:
        harness.write_csv(args.out, trace.header(), trace.rows())
        print(f"trace written to {args.out}")
    print(f"reward_sum={m['reward_sum']!r} avg_penalty={m['avg_penalty']!r} "
          f"avg_queue={m['avg_queue']!r}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    sac_cfg = SacConfig(seed=args.seed)
    if args.hidden:
        sac_cfg = replace(sac_cfg, hidden_sizes=args.hidden)
    if args.zeta is not None:
        sac_cfg = replace(sac_cfg, entropy_weight=args.zeta)
    result = harness.train(cfg, sac_cfg, args.steps, args.seed, args.reward,
                           progress=lambda r: print(
                               f"steps={r['steps']} reward_sum={r['reward_sum']:.6g}"))
    if result.agent.update_count == 0:
        print(f"warning: the budget of {args.steps} steps never filled one batch of "
              f"{sac_cfg.batch_size} transitions; no gradient step was taken and "
              "the agent is untrained", file=sys.stderr)
    if args.out:
        harness.write_csv(args.out, harness.CURVE_COLUMNS, result.curve)
        print(f"learning curve written to {args.out}")
    if args.checkpoint:
        result.best_agent.save(args.checkpoint)
        print(f"checkpoint written to {args.checkpoint}")
    return 0


EVAL_COLUMNS = ("controller", "V", "nu", "reward", "seed", "episode",
                "reward_sum", "avg_penalty", "avg_queue")


def cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    controller = _controller_for(args, cfg)
    records = harness.evaluate(controller, cfg, args.episodes, args.seed, args.reward)
    if args.out:
        harness.write_csv(args.out, EVAL_COLUMNS, (
            {"controller": args.controller, "V": cfg.penalty_weight,
             "nu": cfg.reward_exponent, "reward": args.reward, "seed": args.seed,
             "episode": ep, **r} for ep, r in enumerate(records)))
        print(f"records written to {args.out}")
    for ep, r in enumerate(records):
        print(f"episode {ep}: reward_sum={r['reward_sum']!r} "
              f"avg_penalty={r['avg_penalty']!r} avg_queue={r['avg_queue']!r}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    sac_cfg = SacConfig(hidden_sizes=(64, 64)) if args.controller == "sac" else None
    rows = harness.sweep(args.controller, cfg, args.grid, args.seeds, out_csv=args.out,
                         sac_cfg=sac_cfg, total_steps=args.steps,
                         reward_kind=args.reward, episodes=args.episodes,
                         progress=lambda r: print(
                             f"V={r['V']} seed={r['seed']} status={r['status']}"))
    for m in harness.sweep_means(rows):
        print(f"V={m['V']}: mean avg_queue={m['avg_queue']:.6g} "
              f"mean avg_penalty={m['avg_penalty']:.6g} ({m['n']} runs)")
    print(f"sweep rows appended to {args.out}")
    if rows and not any(r["status"] == "ok" for r in rows):
        print(f"error: all {len(rows)} sweep rows failed; their status column "
              f"in {args.out} says why", file=sys.stderr)
        return 1
    return 0


def cmd_compare(args) -> int:
    cfg = _resolve_config(args)
    sac_cfg = SacConfig(hidden_sizes=(64, 64), seed=args.seed)
    rows = harness.compare(cfg, DppConfig(penalty_weight=args.Vprime),
                           sac_cfg, seed=args.seed, total_steps=args.steps,
                           reward_kind=args.reward,
                           progress=lambda r: print(
                               f"{r['controller']}/{r['cost_kind']}: {r['status']}"))
    if args.out:
        harness.write_csv(args.out, harness.COMPARE_COLUMNS, rows)
        print(f"report written to {args.out}")
    return 0


def cmd_plot(args) -> int:
    outputs = plots.emit_plots(args.csvs, out_dir=args.out)
    for p in outputs:
        print(f"wrote {p}")
    return 0


COMMANDS = {
    "feasibility": cmd_feasibility,
    "simulate": cmd_simulate,
    "train": cmd_train,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "plot": cmd_plot,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_outputs(args)
        return COMMANDS[args.command](args)
    except UnsupportedObjectiveError as exc:
        print(f"unsupported objective: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
