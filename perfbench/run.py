#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: suite-test, gemm-bench, graph-bench, decode-session. The
binary is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`); traced runs write their spans to
`<target dir>/perfbench/`. The last line of standard output is the
result object; build output goes to standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if "LADM_SIM_THREADS" in os.environ:
        print("run.py: LADM_SIM_THREADS is set; the benchmark measures the "
              "serial engine only, unset it", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                             os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--locked", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "ladm-perfbench")
    run = subprocess.run(
        [binary, "--root", ROOT, "--out-dir", os.path.join(target, "perfbench")]
        + sys.argv[1:],
        env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
