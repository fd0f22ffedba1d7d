"""Command-line front end: lyaq feasibility|simulate|dpp|train|eval|sweep|compare|plot."""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace

import numpy as np

from . import harness, plots
from .config import (get_profile, load_config, validate_config,
                     feasibility_check, PROFILES)
from .dpp import DppConfig, DppController, UnsupportedObjectiveError
from .sac import SacAgent, SacConfig


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON system config file")
    p.add_argument("--profile", choices=sorted(PROFILES), default="desk",
                   help="built-in profile when no --config is given")
    p.add_argument("--V", type=float, default=None,
                   help="penalty weight V for the reward")
    p.add_argument("--nu", type=float, choices=(1.0, 2.0), default=None,
                   help="queue-reward exponent")
    p.add_argument("--cost", choices=("cubic", "per-core"), default=None,
                   help="cloud cost kind")
    p.add_argument("--seed", type=int, default=0)


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


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lyaq",
                                 description="Edge-cloud queue control toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("feasibility", help="closed-form load vs capacity check")
    _add_common(p)

    p = sub.add_parser("simulate", help="run one episode with a fixed controller")
    _add_common(p)
    p.add_argument("--controller", choices=("idle", "uniform", "dpp", "sac"),
                   default="uniform")
    p.add_argument("--checkpoint", help="agent checkpoint for --controller sac")
    p.add_argument("--Vprime", type=float, default=0.0, help="DPP weight")
    p.add_argument("--reward", choices=("power", "diff", "mean-diff"),
                   default="diff")
    p.add_argument("--steps", type=int, default=None, help="episode length")
    p.add_argument("--out", help="trace CSV path")

    p = sub.add_parser("dpp", help="drift-plus-penalty episode")
    _add_common(p)
    p.add_argument("--Vprime", type=float, default=0.0)
    p.add_argument("--objective", choices=("linear-drift", "full-bound"),
                   default="linear-drift")
    p.add_argument("--restarts", type=int, default=8,
                   help="random descent restarts (full-bound only)")
    p.add_argument("--steps", type=int, default=None, help="episode length")
    p.add_argument("--out", help="trace CSV path")

    p = sub.add_parser("train", help="train the soft actor-critic agent")
    _add_common(p)
    p.add_argument("--reward", choices=("power", "diff", "mean-diff"),
                   default="diff")
    p.add_argument("--steps", type=int, default=20000,
                   help="environment-step training budget")
    p.add_argument("--hidden", default=None,
                   help="comma list of hidden widths, e.g. 64,64")
    p.add_argument("--zeta", type=float, default=None, help="entropy weight")
    p.add_argument("--out", help="learning-curve CSV path")
    p.add_argument("--checkpoint", help="where to save the trained agent")

    p = sub.add_parser("eval", help="evaluation episodes for a controller")
    _add_common(p)
    p.add_argument("--controller", choices=("idle", "uniform", "dpp", "sac"),
                   default="uniform")
    p.add_argument("--checkpoint", help="agent checkpoint for --controller sac")
    p.add_argument("--Vprime", type=float, default=0.0)
    p.add_argument("--reward", choices=("power", "diff", "mean-diff"),
                   default="diff")
    p.add_argument("--episodes", type=int, default=5)
    p.add_argument("--out", help="records CSV path")

    p = sub.add_parser("sweep", help="V sweep producing the trade-off CSV")
    _add_common(p)
    p.add_argument("--controller", choices=("dpp", "sac", "idle", "uniform"),
                   default="dpp")
    p.add_argument("--Vprime", default=None,
                   help="comma list of V' values (DPP)")
    p.add_argument("--Vgrid", default=None, help="comma list of V values")
    p.add_argument("--seeds", default="0,1,2,3,4", help="comma list of seeds")
    p.add_argument("--reward", choices=("power", "diff", "mean-diff"),
                   default="diff")
    p.add_argument("--steps", type=int, default=20000,
                   help="training budget per grid point (sac)")
    p.add_argument("--episodes", type=int, default=5)
    p.add_argument("--out", required=True, help="trade-off CSV path")

    p = sub.add_parser("compare", help="DPP vs SAC on both cloud-cost kinds")
    _add_common(p)
    p.add_argument("--Vprime", type=float, default=0.0)
    p.add_argument("--reward", choices=("power", "diff", "mean-diff"),
                   default="diff")
    p.add_argument("--steps", type=int, default=20000)
    p.add_argument("--out", help="report CSV path")

    p = sub.add_parser("plot", help="render metric CSVs to SVG charts")
    p.add_argument("csvs", nargs="+", help="input CSV files")
    p.add_argument("--out", help="output directory (default: beside inputs)")
    return ap


def _make_sac_cfg(args, seed) -> SacConfig:
    kwargs = {"seed": seed}
    if getattr(args, "hidden", None):
        kwargs["hidden_sizes"] = tuple(_int_list(args.hidden))
    if getattr(args, "zeta", None) is not None:
        kwargs["entropy_weight"] = args.zeta
    return SacConfig(**kwargs)


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
    """The controller of --controller; a solver that draws gets the seed's
    controller stream, never an episode's arrival stream."""
    agent = None
    if args.controller == "sac":
        if not args.checkpoint:
            print("--controller sac needs --checkpoint", file=sys.stderr)
            raise SystemExit(2)
        agent = SacAgent.load(args.checkpoint)
        for name in ("state_dim", "action_dim", "state_aux"):
            got, want = getattr(agent, name), getattr(cfg, name)
            if got != want:
                raise ValueError(f"checkpoint {args.checkpoint} has {name}={got!r} "
                                 f"but the config has {name}={want!r}")
    dpp_cfg = DppConfig(penalty_weight=args.Vprime)
    return harness.make_controller(args.controller, cfg,
                                   harness.controller_rng(args.seed),
                                   dpp_cfg=dpp_cfg, agent=agent)


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    if args.steps:
        cfg = replace(cfg, episode_length=args.steps)
    # the arrivals of evaluate's episode 0 under the same seed
    env_rng = np.random.default_rng(np.random.SeedSequence(args.seed).spawn(1)[0])
    controller = _controller_for(args, cfg)
    spec = harness.default_reward_spec(cfg, kind=args.reward)
    trace, reward_sum = harness.run_episode(controller, cfg, env_rng,
                                            reward_spec=spec)
    m = harness.metrics_from_trace(trace)
    if args.out:
        trace.write_csv(args.out)
        print(f"trace written to {args.out}")
    print(f"reward_sum={reward_sum!r} avg_penalty={m['avg_penalty']!r} "
          f"avg_queue={m['avg_queue']!r}")
    return 0


def cmd_dpp(args) -> int:
    cfg = _resolve_config(args)
    T = args.steps or cfg.episode_length
    dpp_cfg = DppConfig(penalty_weight=args.Vprime,
                        objective_kind=args.objective,
                        restarts=args.restarts)
    # the arrivals draw from rng and the solver from a stream spawned from
    # it, so solver draws never shift the arrivals
    rng = np.random.default_rng(args.seed)
    controller = DppController(cfg, dpp_cfg, rng.spawn(1)[0])
    trace, _ = harness.run_episode(controller, cfg, rng, T=T)
    metrics = harness.metrics_from_trace(trace)
    if args.out:
        trace.write_csv(args.out)
        print(f"trace written to {args.out}")
    print(f"avg_penalty={metrics['avg_penalty']!r} "
          f"avg_queue={metrics['avg_queue']!r}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    sac_cfg = _make_sac_cfg(args, args.seed)
    spec = harness.default_reward_spec(cfg, kind=args.reward)
    result = harness.train(cfg, sac_cfg, args.steps, args.seed, spec,
                           progress=lambda r: print(
                               f"steps={r['steps']} reward_sum={r['reward_sum']:.6g}"))
    if result.agent.update_count == 0:
        print(f"warning: the budget of {args.steps} steps never filled one batch of "
              f"{sac_cfg.batch_size} transitions; no gradient step was taken and "
              "the agent is untrained", file=sys.stderr)
    if args.out:
        result.write_curve_csv(args.out)
        print(f"learning curve written to {args.out}")
    if args.checkpoint:
        result.best_agent.save(args.checkpoint)
        print(f"checkpoint written to {args.checkpoint}")
    return 0


def cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    controller = _controller_for(args, cfg)
    spec = harness.default_reward_spec(cfg, kind=args.reward)
    records = harness.evaluate(controller, cfg, args.episodes, args.seed, spec,
                               controller_name=args.controller)
    if args.out:
        with open(args.out, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["controller", "V", "nu", "reward", "seed",
                             "episode", "reward_sum", "avg_penalty", "avg_queue"])
            for ep, r in enumerate(records):
                writer.writerow([r.controller, repr(r.V), repr(r.nu),
                                 r.reward_kind, r.seed, ep,
                                 repr(r.episode_reward_sum),
                                 repr(r.avg_penalty), repr(r.avg_queue)])
        print(f"records written to {args.out}")
    for ep, r in enumerate(records):
        print(f"episode {ep}: reward_sum={r.episode_reward_sum!r} "
              f"avg_penalty={r.avg_penalty!r} avg_queue={r.avg_queue!r}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    grid_text = args.Vprime if args.controller == "dpp" and args.Vprime else args.Vgrid
    if not grid_text:
        print("sweep needs --Vgrid (or --Vprime for dpp)", file=sys.stderr)
        raise SystemExit(2)
    grid = _float_list(grid_text)
    seeds = _int_list(args.seeds)
    sac_cfg = SacConfig(hidden_sizes=(64, 64)) if args.controller == "sac" else None
    rows = harness.sweep(args.controller, cfg, grid, seeds, out_csv=args.out,
                         sac_cfg=sac_cfg, total_steps=args.steps,
                         reward_kind=args.reward, episodes=args.episodes,
                         progress=lambda r: print(
                             f"V={r['V']} seed={r['seed']} status={r['status']}"))
    for m in harness.sweep_means(rows):
        print(f"V={m['V']}: mean avg_queue={m['avg_queue']:.6g} "
              f"mean avg_penalty={m['avg_penalty']:.6g} ({m['n']} runs)")
    print(f"sweep rows appended to {args.out}")
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
        harness.write_compare_csv(rows, args.out)
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
    "dpp": cmd_dpp,
    "train": cmd_train,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "plot": cmd_plot,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except UnsupportedObjectiveError as exc:
        print(f"unsupported objective: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
