"""Check that the pinned `lyaq` commands print the bytes they printed before.

Runs twelve commands, which cover every controller, every reward kind and
every command that writes a CSV, in a temporary directory at one BLAS
thread, and checks 25 sha256 pins:
- each CSV a command writes;
- each command's stdout, with the temporary directory's path taken out;
- the trained checkpoint's arrays: the name and bytes of every array,
  `meta` included, in sorted name order.

It compares every hash with the table in `pins.json` beside this script and
exits 1 on any mismatch, after one line that records numpy's SIMD baseline
and found lists and the kernel the loaded OpenBLAS runs. What moves between
hosts is the SAC update and short BLAS or SIMD reductions. Emulated on one
x86-64 host (`NPY_DISABLE_CPU_FEATURES` and `OPENBLAS_CORETYPE` reach the
child processes), every DPP pin held at numpy's X86_V3 and X86_V2 levels
and under OpenBLAS's Haswell kernel; train.csv moved at each, the
checkpoint and sweep-sac at X86_V2 and under Haswell, and
eval-uniform-paper8 under Haswell.

    python tools/pins.py            # check
    python tools/pins.py --write    # re-pin: rewrite pins.json from this tree

Re-pin only for a change that is meant to move bits, and say why.
"""

from __future__ import annotations

import argparse
import ctypes
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

# (name, argv, the CSV it writes); eval-sac reads the checkpoint that train
# writes
COMMANDS = (
    ("train", ["train", "--profile", "desk", "--steps", "2000", "--hidden", "64,64",
               "--seed", "0", "--out", "train.csv", "--checkpoint", "agent.npz"],
     "train.csv"),
    ("eval-sac", ["eval", "--profile", "desk", "--controller", "sac",
                  "--checkpoint", "agent.npz", "--episodes", "3", "--seed", "2",
                  "--out", "eval-sac.csv"], "eval-sac.csv"),
    ("eval-uniform-paper8", ["eval", "--profile", "paper8", "--controller", "uniform",
                             "--episodes", "2", "--seed", "3",
                             "--out", "eval-uniform-paper8.csv"],
     "eval-uniform-paper8.csv"),
    ("eval-dpp-v0", ["eval", "--profile", "paper", "--controller", "dpp", "--Vprime", "0",
                     "--episodes", "2", "--seed", "3", "--out", "eval-dpp-v0.csv"],
     "eval-dpp-v0.csv"),
    ("eval-trace-dpp-v0", ["eval", "--profile", "paper8", "--steps", "200",
                           "--controller", "dpp", "--Vprime", "0", "--seed", "1",
                           "--episodes", "1", "--trace", "eval-trace-dpp-v0.csv"],
     "eval-trace-dpp-v0.csv"),
    ("sweep-dpp", ["sweep", "--profile", "paper", "--controller", "dpp",
                   "--Vprime", "0,1e11", "--seeds", "0", "--episodes", "1",
                   "--out", "sweep-dpp.csv"], "sweep-dpp.csv"),
    ("eval-dpp-vcost", ["eval", "--profile", "paper", "--controller", "dpp",
                        "--Vprime", "1e11", "--episodes", "2", "--seed", "3",
                        "--out", "eval-dpp-vcost.csv"], "eval-dpp-vcost.csv"),
    ("eval-trace-dpp-vcost", ["eval", "--profile", "desk", "--steps", "200",
                              "--controller", "dpp", "--Vprime", "1e9", "--seed", "1",
                              "--episodes", "1", "--trace", "eval-trace-dpp-vcost.csv"],
     "eval-trace-dpp-vcost.csv"),
    ("compare", ["compare", "--profile", "desk", "--Vprime", "1e11", "--steps", "600",
                 "--out", "compare.csv"], "compare.csv"),
    ("sweep-sac", ["sweep", "--profile", "desk", "--controller", "sac",
                   "--Vgrid", "0,1e9", "--seeds", "0", "--steps", "400",
                   "--episodes", "2", "--out", "sweep-sac.csv"], "sweep-sac.csv"),
    ("eval-dpp-power", ["eval", "--profile", "desk", "--controller", "dpp",
                        "--Vprime", "0", "--V", "1e-6", "--nu", "2", "--episodes", "2",
                        "--seed", "5", "--reward", "power", "--out", "eval-dpp-power.csv"],
     "eval-dpp-power.csv"),
    ("eval-dpp-mean-diff", ["eval", "--profile", "desk", "--controller", "dpp",
                            "--Vprime", "0", "--V", "1e-6", "--nu", "2", "--episodes", "2",
                            "--seed", "5", "--reward", "mean-diff",
                            "--out", "eval-dpp-mean-diff.csv"], "eval-dpp-mean-diff.csv"),
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


def loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process, read from
    /proc/self/maps; none where that file does not exist."""
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return []
    return sorted({line.split(maxsplit=5)[-1] for line in maps.read_text().splitlines()
                   if "openblas" in line.lower()})


def openblas_core() -> str:
    """The kernel the loaded OpenBLAS runs: its DYNAMIC_ARCH choice for this
    CPU, or the one OPENBLAS_CORETYPE names. "unknown" where no loaded
    library has a symbol that names it."""
    for path in loaded_openblas():
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown"


def host_record() -> str:
    """numpy's SIMD baseline, the extensions it dispatches to on this host
    (a host with the baseline alone has no "found" list) and the OpenBLAS
    kernel."""
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    return (f"numpy SIMD baseline: {', '.join(simd['baseline'])}; "
            f"found: {', '.join(simd.get('found', [])) or 'none'}; "
            f"OpenBLAS core: {openblas_core()}")


def run_all(work: Path) -> dict:
    """{pin name: hash}"""
    env = {**os.environ, **THREADS,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    hashes = {}
    for name, argv, csv_name in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "lyaq.cli", *argv], cwd=work,
                              env=env, capture_output=True, check=False)
        if done.returncode != 0:
            raise SystemExit(f"{name} exited {done.returncode}:\n"
                             f"{done.stderr.decode(errors='replace')}")
        stdout = done.stdout.replace(str(work).encode() + os.sep.encode(), b"")
        hashes[f"{name}.csv"] = sha256((work / csv_name).read_bytes())
        hashes[f"{name}.stdout"] = sha256(stdout)
        print(f"ran {name}", file=sys.stderr)
    hashes["train.checkpoint-arrays"] = checkpoint_hash(work / "agent.npz")
    return hashes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help="rewrite the pin table from this tree instead of checking")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="lyaq-pins-") as tmp:
        hashes = run_all(Path(tmp))
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
        print(line)
    if bad:
        print(host_record())
    print(f"{bad} mismatch(es)" if bad else f"all {len(pinned)} pins hold")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
