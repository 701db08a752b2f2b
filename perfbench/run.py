#!/usr/bin/env python3
r"""Build and run the repository benchmark (documented in README.md here).

Run one workload; the last stdout line is the JSON result:

    python3 perfbench/run.py --workload train_grid --seed 1 --seconds 30 \
        --trace 0

Rewrite the stored expected outputs (prints every op that moved):

    python3 perfbench/run.py --rebless [--workload cluster_contend]

The benchmark is built from the repository sources one level up, with
CMake, into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
inside the checkout. Build output goes to stderr.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["train_grid", "cluster_contend", "serve_burst"]
EXPECTED_DIR = os.path.join(HERE, "expected")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure (once) and build the perfbench binary; return its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: the mcdla sources (src/, CMakeLists.txt) are "
                 "missing from " + ROOT)
    out = build_dir()
    env = dict(os.environ, CCACHE_DISABLE="1")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, env=env)
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--rebless", action="store_true",
                        help="rewrite the stored expected outputs")
    args = parser.parse_args()
    if not args.rebless and args.workload is None:
        parser.error("--workload is required")

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")

    if args.rebless:
        for workload in [args.workload] if args.workload else WORKLOADS:
            subprocess.run([exe, "--workload", workload, "--bless",
                            "--expected-dir", EXPECTED_DIR], check=True)
        print("Re-blessed. Add a CHANGES.md line naming the ops that "
              "moved and why.")
        return 0

    return subprocess.run([exe, "--workload", args.workload,
                           "--seed", args.seed, "--seconds", args.seconds,
                           "--trace", args.trace,
                           "--expected-dir", EXPECTED_DIR]).returncode


if __name__ == "__main__":
    sys.exit(main())
