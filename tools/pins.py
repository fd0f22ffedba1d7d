"""Check that the pinned `lyaq` commands print the bytes they printed before.

Runs ten commands, which cover every controller and every command that
writes a CSV, in a temporary directory at one BLAS thread, and hashes with
sha256:
- each CSV a command writes;
- each command's stdout, with the temporary directory's path taken out;
- the trained checkpoint's arrays: the name and bytes of every array,
  `meta` included, in sorted name order.

It compares every hash with the table in `pins.json` beside this script and
exits 1 on any mismatch. The DPP outputs hold only per SIMD dispatch level
of numpy (numpy's `**` on an array and on a scalar can differ in the last
bit), so a DPP mismatch is printed with numpy's SIMD "found" list.

    python tools/pins.py            # check
    python tools/pins.py --write    # re-pin: rewrite pins.json from this tree

Re-pin only for a change that is meant to move bits, and say why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "pins.json"
THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")}

# (name, argv, the CSV it writes, whether a DPP solve makes it);
# eval-sac reads the checkpoint that train writes
COMMANDS = (
    ("train", ["train", "--profile", "desk", "--steps", "2000", "--hidden", "64,64",
               "--seed", "0", "--out", "train.csv", "--checkpoint", "agent.npz"],
     "train.csv", False),
    ("eval-sac", ["eval", "--profile", "desk", "--controller", "sac",
                  "--checkpoint", "agent.npz", "--episodes", "3", "--seed", "2",
                  "--out", "eval-sac.csv"], "eval-sac.csv", False),
    ("eval-uniform-paper8", ["eval", "--profile", "paper8", "--controller", "uniform",
                             "--episodes", "2", "--seed", "3",
                             "--out", "eval-uniform-paper8.csv"],
     "eval-uniform-paper8.csv", False),
    ("eval-dpp-v0", ["eval", "--profile", "paper", "--controller", "dpp", "--Vprime", "0",
                     "--episodes", "2", "--seed", "3", "--out", "eval-dpp-v0.csv"],
     "eval-dpp-v0.csv", True),
    ("simulate-dpp-v0", ["simulate", "--profile", "paper8", "--steps", "200",
                         "--controller", "dpp", "--Vprime", "0", "--seed", "1",
                         "--out", "simulate-dpp-v0.csv"], "simulate-dpp-v0.csv", True),
    ("sweep-dpp", ["sweep", "--profile", "paper", "--controller", "dpp",
                   "--Vprime", "0,1e11", "--seeds", "0", "--episodes", "1",
                   "--out", "sweep-dpp.csv"], "sweep-dpp.csv", True),
    ("eval-dpp-vcost", ["eval", "--profile", "paper", "--controller", "dpp",
                        "--Vprime", "1e11", "--episodes", "2", "--seed", "3",
                        "--out", "eval-dpp-vcost.csv"], "eval-dpp-vcost.csv", True),
    ("simulate-dpp-vcost", ["simulate", "--profile", "desk", "--steps", "200",
                            "--controller", "dpp", "--Vprime", "1e9", "--seed", "1",
                            "--out", "simulate-dpp-vcost.csv"],
     "simulate-dpp-vcost.csv", True),
    ("compare", ["compare", "--profile", "desk", "--Vprime", "1e11", "--steps", "600",
                 "--out", "compare.csv"], "compare.csv", True),
    ("sweep-sac", ["sweep", "--profile", "desk", "--controller", "sac",
                   "--Vgrid", "0,1e9", "--seeds", "0", "--steps", "400",
                   "--episodes", "2", "--out", "sweep-sac.csv"], "sweep-sac.csv", False),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def checkpoint_hash(path: Path) -> str:
    h = hashlib.sha256()
    with np.load(path) as arrays:
        for name in sorted(arrays.files):
            h.update(name.encode())
            h.update(arrays[name].tobytes())
    return h.hexdigest()


def simd_found() -> list:
    return np.show_config(mode="dicts")["SIMD Extensions"]["found"]


def run_all(work: Path) -> tuple[dict, set]:
    """({pin name: hash}, the pin names a DPP solve makes)."""
    env = {**os.environ, **THREADS,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    hashes, dpp = {}, set()
    for name, argv, csv_name, uses_dpp in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "lyaq.cli", *argv], cwd=work,
                              env=env, capture_output=True, check=False)
        if done.returncode != 0:
            raise SystemExit(f"{name} exited {done.returncode}:\n"
                             f"{done.stderr.decode(errors='replace')}")
        stdout = done.stdout.replace(str(work).encode() + os.sep.encode(), b"")
        hashes[f"{name}.csv"] = sha256((work / csv_name).read_bytes())
        hashes[f"{name}.stdout"] = sha256(stdout)
        if uses_dpp:
            dpp |= {f"{name}.csv", f"{name}.stdout"}
        print(f"ran {name}", file=sys.stderr)
    hashes["train.checkpoint-arrays"] = checkpoint_hash(work / "agent.npz")
    return hashes, dpp


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help="rewrite the pin table from this tree instead of checking")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="lyaq-pins-") as tmp:
        hashes, dpp = run_all(Path(tmp))
    if args.write:
        TABLE.write_text(json.dumps(hashes, indent=2) + "\n")
        print(f"{len(hashes)} pins written to {TABLE}")
        return 0
    pinned = json.loads(TABLE.read_text())
    bad = 0
    for name in sorted(pinned.keys() | hashes.keys()):
        want, got = pinned.get(name), hashes.get(name)
        status = "ok" if want == got else "MISMATCH"
        line = f"{status:8} {name:32} {got}"
        if want != got:
            bad += 1
            line += f" (pinned {want})"
            if name in dpp:
                line += f" [numpy SIMD found: {', '.join(simd_found())}]"
        print(line)
    print(f"{bad} mismatch(es)" if bad else f"all {len(pinned)} pins hold")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
