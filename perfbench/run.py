#!/usr/bin/env python3
"""Build and run the ncql benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <wire_small|wire_bulk|analytic|all> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `ncql-perfbench` package (into `$CARGO_TARGET_DIR`, default
`.bench_build/`) and runs it with the given arguments, one process per
workload (`all` runs the three in turn). The last line of standard output is
the run's JSON result; the exit code is non-zero when the build fails, a
check fails, or a run overruns its time limit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
WORKLOADS = ["wire_small", "wire_bulk", "analytic"]


def revision():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "ncql-perfbench")
    args = sys.argv[1:]
    runs = [args]
    if "--workload" in args:
        at = args.index("--workload") + 1
        if args[at : at + 1] == ["all"]:
            runs = [args[:at] + [w] + args[at + 1 :] for w in WORKLOADS]
    rev = revision()
    status = 0
    for argv in runs:
        status = run(binary, argv + ["--rev", rev], env) or status
    return status


def run(binary, args, env):
    with subprocess.Popen([binary, *args], env=env, cwd=ROOT) as child:
        try:
            return child.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
