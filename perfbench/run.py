#!/usr/bin/env python3
"""Builds the perfbench program from this checkout's sources and runs one
workload.

    python3 perfbench/run.py --workload bfs-lci --seed 1 --seconds 10 --trace 0

The build tree is $CARGO_TARGET_DIR/perfbench (default .bench_build), traces
go to .bench_out/. The program's output is passed through; its last line is
the result JSON. Exits non-zero, printing no result, when the sources are
missing, the build fails, or the program fails or overruns its time limit.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NoReturn

RUN_TIMEOUT_S = 170  # perfbench bounds each query itself; this is the backstop


def fail(msg: str) -> NoReturn:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root: Path, build_dir: Path) -> Path:
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"runtime sources not found under {root / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return build_dir / "perfbench"


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 120:
        fail("--seconds must be in [1, 120]")

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    exe = build(root, target / "perfbench")

    # The runtime reads LCR_* overrides from the environment; the benchmark
    # pins its own configuration, so none may leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("LCR_")}
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", ".bench_out"]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s and was killed")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"perfbench exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(proc.stdout)
        fail("perfbench printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result keys: {sorted(result)}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
