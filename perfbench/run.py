"""Benchmark of the `lyaq` command line, end to end and layer by layer.

Usage, from the root of a lyaq checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads, the metrics and their bounds are declared in BENCHMARK.json;
which spans each workload must fire, and which end-to-end metric they move,
in perfbench/layers.json.

A run first times the set-up (import lyaq, write the workload's inputs from
the seed) in several fresh processes and keeps the median as setup_s. It
then starts one worker process (worker.py) that runs the workload's `lyaq`
command in a closed loop for S seconds and checks every output. With
--trace 0 it prints the end-to-end metrics; with --trace 1 it prints the
per-layer metrics of a traced replay. The last line of standard output is
the JSON result; the lines before it record the environment and per-regime
detail. Work files go to .perfbench_work/<workload>/ in the checkout.

End-to-end metrics, on every workload:
  setup_s      median set-up time of SETUP_PROBES fresh processes
  peak_rss_mb  peak resident set of the worker
  slots_per_s  environment slots the commands were asked to simulate, per
               second of their wall time (on train-desk the slots are the
               2000 training steps of each command)
  decide_ms_p90
               90th percentile latency of one controller decision
               (SacController.act, DppController.act, or
               SacAgent.policy_sample while training); on dpp-sweep-paper
               the geometric mean of the V'=0 and the V'=1e11 regime's
               percentile. Each regime's p50 and p90 and the decision count
               are printed on a line of their own.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_PROBES = 5
# The workloads are single-process batch jobs whose largest matrices are
# 256x64, too small for BLAS threads to pay; one thread keeps timings steady.
BLAS_THREADS = 1
DEADLINE_S = 170


class WorkerError(RuntimeError):
    pass


def run_worker(args, out: Path, env: dict, deadline: float, setup_only: bool = False) -> dict:
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    log_path = out / "worker.log"
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=log,
                                  stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise WorkerError(f"worker timed out; log in {log_path}") from None
    if proc.returncode != 0:
        tail = log_path.read_text()[-4000:]
        raise WorkerError(f"worker exited with {proc.returncode}:\n{tail}")
    with open(out / "result.json") as f:
        return json.load(f)


def main(argv=None) -> int:
    started = time.monotonic()
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError as exc:
        print(f"error: run from the root of a lyaq checkout: {exc}", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "lyaq" / "__init__.py").is_file():
        print("error: src/lyaq not found; run from the root of a lyaq checkout",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    deadline = started + DEADLINE_S
    try:
        setup = [run_worker(args, work / f"setup{i}", env, deadline, setup_only=True)["setup_s"]
                 for i in range(SETUP_PROBES)]
        result = run_worker(args, work / "run", env, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    absent = [m["name"] for m in declared if m["name"] not in metrics]
    if absent:
        print(f"error: metrics not measured: {absent}", file=sys.stderr)
        return 1
    for line in result["report"]:
        print(line)
    if not args.trace:
        print("setup_s probes: " + " ".join(f"{s:.4f}" for s in setup))
    for e in result["errors"]:
        print(f"CHECK FAILED: {e}")
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
