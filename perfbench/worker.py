"""One run of one workload, in a process of its own.

run.py starts this file with the BLAS thread count already in the
environment, so the count is in force before numpy is imported. The worker
imports lyaq from ./src and writes the workload's inputs (the set-up it
times), then runs ops through `lyaq.cli.main` until its time budget is
spent. With --trace 1 it runs one warm-up op and then each op twice in a
row, untraced and with every hook of workloads.HOOKS installed, for three
quarters of the budget (so that a DPP run holds 100 decisions a regime),
and checks that both runs of an op wrote byte-identical CSVs. Its result
goes to <out>/result.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from array import array
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from pathlib import Path

from tracer import Tracer, patched, self_check

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
MAX_ERRORS = 20


class DecideTimer:
    """The one timer of an untraced pass: wall time of each controller
    decision, tagged with its regime. Keeps (args, action) of each decision
    too when the workload checks decisions."""

    def __init__(self, regime, keep: bool):
        # flat arrays, so that the timer's own memory stays small beside the
        # program's in peak_rss_mb
        self.durations = array("d")
        self.regimes = array("b")
        self.regime_names: list[str] = []
        self.samples: list = []
        self._regime = regime
        self._keep = keep

    def _regime_id(self, controller) -> int:
        name = self._regime(controller) if self._regime else "all"
        if name not in self.regime_names:
            self.regime_names.append(name)
        return self.regime_names.index(name)

    def wrap(self, fn):
        clock, durations, regimes, samples = (time.perf_counter, self.durations,
                                              self.regimes, self.samples)
        regime_id, keep = self._regime_id, self._keep

        def timed(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            durations.append(clock() - t0)
            regimes.append(regime_id(args[0]))
            if keep:
                samples.append((args, out))
            return out
        return timed


def call_cli(argv: list[str], op_dir: Path) -> tuple[int, float]:
    """One `lyaq` command in-process; (exit code, wall seconds). A crash
    counts as exit code 1 with its traceback in the op's log."""
    cli = sys.modules["lyaq.cli"]
    with open(op_dir / "log.txt", "w") as log, redirect_stdout(log), redirect_stderr(log):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - t0
    return (0 if code is None else int(code)), wall


def run_op(wl, inputs, seed: int, op_dir: Path, timer=None, tracer=None) -> dict:
    """One op: the CLI call under the decision timer or under every hook of
    the tracer, then the checks on what it wrote (outside the timed call
    and with the wrappers removed)."""
    import workloads

    op_dir.mkdir(parents=True)
    missing = []
    with ExitStack() as stack:
        if timer is not None:
            stack.enter_context(patched(wl.decide_site, timer.wrap))
        if tracer is not None:
            for name, site, split in workloads.HOOKS:
                try:
                    stack.enter_context(patched(
                        site, tracer.wrapper(name, workloads.SPLITS.get(split))))
                except LookupError as exc:
                    missing.append((name, str(exc)))
        code, wall = call_cli(wl.argv(inputs, seed, op_dir), op_dir)
    samples = timer.samples if timer is not None else []
    attempted, failed, errors = wl.check(op_dir, code, samples)
    samples.clear()
    return {"seed": seed, "dir": op_dir, "code": code, "wall": wall,
            "attempted": attempted, "failed": failed, "missing": missing,
            "errors": [f"op seed {seed}: {e}" for e in errors]}


def loop(budget: float, step) -> list:
    """Call step(i) for i = 0, 1, ... until the next call, taking as long
    as the last, would end past `budget` seconds; at least once."""
    done, start = [], time.perf_counter()
    while True:
        done.append(step(len(done)))
        if time.perf_counter() - start + done[-1]["wall"] > budget:
            return done


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) if len(values) else 0.0


def decide_metrics(timer: DecideTimer) -> tuple[dict, list[str]]:
    """decide_ms_p90: the geometric mean over regimes of each regime's 90th
    percentile, so that a workload with two solver regimes (dpp-sweep-paper)
    never takes a percentile of their bimodal mix. The medians go to the
    report only: on a host whose speed flips between two levels for seconds
    at a time, the median decision jumps between them from run to run."""
    import numpy as np

    durations = np.frombuffer(timer.durations, dtype=np.float64)
    regimes = np.frombuffer(timer.regimes, dtype=np.int8)
    by_regime = {name: durations[regimes == i] for i, name in enumerate(timer.regime_names)}
    if not by_regime:
        raise RuntimeError("the decision timer never fired: stale decide_site")
    metrics, report = {}, []
    logs = [math.log(percentile(v, 90) * 1e3) for v in by_regime.values()]
    metrics["decide_ms_p90"] = math.exp(sum(logs) / len(logs))
    for r, v in sorted(by_regime.items()):
        report.append(f"decide_ms[{r}]: p50={percentile(v, 50) * 1e3:.4f} "
                      f"p90={percentile(v, 90) * 1e3:.4f} n={len(v)}")
    return metrics, report


def layer_metrics(names, agg: dict, extra: dict) -> dict:
    """Value of each declared per-layer metric `<span>.<stat>`; a span that
    never fired reads 0."""
    spans = agg["spans"]
    decisions = sum(s["calls"] for n, s in spans.items()
                    if n.startswith("dpp.DppController.act."))
    out = {}
    for name in names:
        if name in extra:
            out[name] = extra[name]
            continue
        base, _, stat = name.rpartition(".")
        s = spans.get(base)
        if stat == "calls":
            out[name] = s["calls"] if s else 0
        elif stat == "self_s":
            out[name] = s["self_s"] if s else 0.0
        elif stat == "calls_per_decision":
            out[name] = s["calls"] / decisions if s and decisions else 0.0
        elif stat[:4] in ("us_p", "ms_p"):
            scale = 1e6 if stat.startswith("us") else 1e3
            out[name] = percentile(s["durations"], int(stat[4:])) * scale if s else 0.0
        else:
            raise KeyError(f"per-layer metric {name!r} has no known statistic")
    return out


def trace_run(wl, inputs, seed, budget, out: Path, spec: dict) -> dict:
    """Run each op untraced and then traced, so that both runs of an op see
    the same outside load, and check the trace."""
    import workloads

    timer = DecideTimer(wl.regime, keep=wl.checks_decisions)
    tracer = Tracer()

    def pair(i):
        s = workloads.op_seed(seed, i)
        u = run_op(wl, inputs, s, out / "untraced" / f"op{i:03d}", timer=timer)
        t = run_op(wl, inputs, s, out / "traced" / f"op{i:03d}", tracer=tracer)
        return {"untraced": u, "traced": t, "wall": u["wall"] + t["wall"]}

    # the first op of a process tends to run slower (allocator and cache
    # warm-up); a warm-up op keeps that out of trace.overhead_s
    warmup = run_op(wl, inputs, workloads.op_seed(seed, 0), out / "warmup")
    pairs = loop(budget, pair)
    ops = [warmup] + [p["untraced"] for p in pairs] + [p["traced"] for p in pairs]
    agg = tracer.aggregate()
    tracer.write(out / "spans.npz")
    wall = sum(p["traced"]["wall"] for p in pairs)
    outside = wall - agg["self_total_s"]
    missing = dict(pairs[0]["traced"]["missing"])
    names = [m["name"] for m in spec["per_layer"]]
    metrics = layer_metrics(names, agg, {
        "trace.overhead_s": wall - sum(p["untraced"]["wall"] for p in pairs),
        "trace.outside_s": outside,
        "trace.missing_spans": len(missing),
    })

    errors = [e for o in ops for e in o["errors"]]
    errors += self_check()
    errors += wl.check_trace(agg["spans"], len(pairs))
    with open(HERE / "layers.json") as f:
        layers = json.load(f)
    for g in layers["groups"]:
        for name in g["spans"] if wl.name in g["on"] else ():
            if name not in agg["spans"] and name not in missing \
                    and name.rsplit(".", 1)[0] not in missing:
                errors.append(f"declared span {name} never fired: stale lookup site")
    reported = {n.rsplit(".", 1)[0] for n in names if n.endswith(".self_s")}
    errors += [f"span {name} fired but has no per-layer self_s metric"
               for name in agg["spans"] if name not in reported]
    if abs(agg["self_total_s"] - agg["root_s"]) > 1e-9 * max(1.0, agg["root_s"]):
        errors.append(f"self times add up to {agg['self_total_s']}, root spans to {agg['root_s']}")
    self_sum = sum(metrics[n] for n in names if n.endswith(".self_s"))
    if outside < -1e-6 or abs(self_sum + outside - wall) > 1e-6 * wall:
        errors.append(f"self times {self_sum} + outside {outside} != traced wall {wall}")
    for p in pairs:
        for csv_name in wl.outputs:
            a, b = p["untraced"]["dir"] / csv_name, p["traced"]["dir"] / csv_name
            if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
                errors.append(f"op seed {p['traced']['seed']}: traced and untraced "
                              f"{csv_name} differ")

    report = [f"op pairs={len(pairs)} traced wall={wall:.3f}s untraced wall="
              f"{sum(p['untraced']['wall'] for p in pairs):.3f}s spans={len(tracer.start)}"]
    report += [f"missing span {name}: {why}" for name, why in missing.items()]
    return {"metrics": metrics, "errors": errors, "report": report,
            "attempted": sum(o["attempted"] for o in ops),
            "failed": sum(o["failed"] for o in ops)}


def measure_run(wl, inputs, seed, budget, out: Path) -> dict:
    import workloads

    timer = DecideTimer(wl.regime, keep=wl.checks_decisions)
    ops = loop(budget, lambda i: run_op(wl, inputs, workloads.op_seed(seed, i),
                                        out / f"op{i:03d}", timer=timer))
    wall = sum(o["wall"] for o in ops)
    metrics, report = decide_metrics(timer)
    metrics["slots_per_s"] = len(ops) * wl.slots() / wall
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(o["attempted"] for o in ops)
    failed = sum(o["failed"] for o in ops)
    report.append(f"ops={len(ops)} wall={wall:.3f}s slots={len(ops) * wl.slots()} "
                  f"attempted={attempted} failed={failed} "
                  f"ops_failed_frac={failed / attempted if attempted else 0.0!r}")
    return {"metrics": metrics, "errors": [e for o in ops for e in o["errors"]],
            "report": report, "attempted": attempted, "failed": failed}


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10)
            commit = r.stdout.strip() if r.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "git_commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    t0 = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    out = Path(args.out)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports numpy and lyaq: part of the timed set-up

    wl = workloads.WORKLOADS[args.workload]
    (out / "inputs").mkdir(parents=True)
    inputs = wl.setup(args.seed, out / "inputs")
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        result = {"setup_s": setup_s}
    else:
        with open(ROOT / "BENCHMARK.json") as f:
            spec = json.load(f)
        if args.trace:
            result = trace_run(wl, inputs, args.seed, args.seconds * 3 / 4, out, spec)
        else:
            result = measure_run(wl, inputs, args.seed, args.seconds, out)
        env = environment(args)
        with open(out / "environment.json", "w") as f:
            json.dump(env, f, indent=1)
        result["report"].insert(0, "environment: " + json.dumps(env))
        result["errors"] = result["errors"][:MAX_ERRORS]
    with open(out / "result.json", "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
