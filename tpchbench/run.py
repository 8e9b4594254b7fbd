#!/usr/bin/env python3
"""Builds and runs the TPC-H end-to-end benchmark.

    python3 tpchbench/run.py --workload tpch-rdma --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout. The engine is compiled from src/
with tpchbench/CMakeLists.txt into $CARGO_TARGET_DIR/tpchbench (default
.bench_build/tpchbench); later runs rebuild incrementally. Build output
goes to stderr. The benchmark's own output goes to stdout, and its last
line is the JSON report. The exit code is the benchmark's: 0 only when
every result matched the reference and every workload claim held.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "tpchbench"
# A run measures --seconds plus set-up and warm-up; this caps a hung one.
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "tpchbench"


def build(out):
    if not (ROOT / "src" / "tpch" / "queries.h").is_file():
        sys.exit("run.py: engine sources not found under %s/src" % ROOT)
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "tpch_bench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return out / "tpch_bench"


def commit():
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the engine and benchmark sources (path and content)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h", ".txt", ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("run.py: build failed: %s" % err)

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--commit", commit(), "--source-digest", source_digest()]
    if args.trace:
        cmd += ["--trace-out",
                str(out / ("trace-%s-seed%d.json" % (args.workload,
                                                     args.seed)))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
