#!/usr/bin/env python3
"""Builds the benchmark program from this checkout's sources and runs one
workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); traced runs also write their spans as
Chrome trace-event JSON under traces/ there. The last line of stdout is
the result as one JSON object; build output goes to stderr. Exits non-zero
without a result when the sources are missing or the build fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lib10k_cold", "paper_corpus", "edit_session")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no argus sources next to perfbench/; run from a "
                 "full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            sys.exit("run.py: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "--target", "argus_perfbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: build failed")
    return os.path.join(out, "argus_perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="make one reference entry wrong (self-test)")
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--expect", os.path.join(HERE, "paper_corpus_expected.tsv")]
    if args.trace == "1":
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-events", os.path.join(
            traces, "%s-s%d.trace.json" % (args.workload, args.seed))]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        sys.exit("run.py: benchmark exited with %d" % run.returncode)
    json.loads(lines[-1])  # The result line must parse.
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
