#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload rebuild --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest      # the oracle must catch a bad block
    python3 perfbench/run.py --capacity      # degraded-read closed-loop capacity

The benchmark is built with CMake from perfbench/CMakeLists.txt (which
compiles the library from src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset. Build output goes to
stderr; stdout carries the record line and, last, the result line.
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = pathlib.Path(base)
    if not path.is_absolute():
        path = REPO / path
    return path / "perfbench"


def build(out, env):
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    if not (out / "CMakeCache.txt").is_file():
        cfg = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, check=False)
        if cfg.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    res = subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                         stdout=sys.stderr, stderr=sys.stderr, env=env,
                         check=False)
    return res.returncode == 0


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(REPO.parent))
    try:
        res = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def src_digest():
    """SHA-256 over the library sources: identifies the code measured when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((REPO / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(REPO)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--capacity", action="store_true")
    args = ap.parse_args()

    out = build_dir()
    # Compiler and program temporaries stay inside the build tree.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not build(out, env):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = out / "perfbench"
    if args.selftest:
        cmd = [str(exe), "--selftest"]
    else:
        if not args.capacity and not args.workload:
            ap.error("--workload is required")
        cmd = [str(exe), "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-sha", git_sha(), "--src-digest", src_digest()]
        cmd += ["--capacity"] if args.capacity else ["--workload", args.workload]
    try:
        res = subprocess.run(cmd, cwd=REPO, env=env, timeout=RUN_TIMEOUT_S,
                             check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
