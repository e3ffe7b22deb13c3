#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <serve-mix|offline-single|offline-pipelined>
                             --seed <n> --seconds <s> --trace <0|1>

Builds the `mime` CLI and the `perfbench` binary (release, into
$CARGO_TARGET_DIR, default `.bench_build` at the repository root), pins
MIME_THREADS to nproc, and runs one measurement. The last stdout line is
the result JSON; the exit code is non-zero on a build failure, a bad
argument, or any result that does not match the reference logits.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve-mix", "offline-single", "offline-pipelined")


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--offline", "--release", "-p", "mime-cli"],
        ["cargo", "build", "--offline", "--release",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        # cargo's progress goes to stderr; keep stdout for the result line
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(root, target):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    work = os.path.join(root, ".bench_work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    env = dict(os.environ, MIME_THREADS=str(nproc))
    cmd = [
        os.path.join(target, "release", "perfbench"), "bench",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--mime", os.path.join(target, "release", "mime"),
        "--work", work,
    ]
    try:
        return subprocess.run(cmd, cwd=root, env=env).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
