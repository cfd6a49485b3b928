#!/usr/bin/env python3
"""Build the gengc benchmark driver from source and run it.

One benchmark run (from the repository root):

    python3 gcperf/run.py --workload <batch-javac|batch-db|serve-churn> \
        --seed <n> --seconds <s> --trace <0|1>

The driver is configured and built (incrementally) under the directory
named by CARGO_TARGET_DIR, default .bench_build, relative to the repository
root.  Build output goes to stderr; the run's own output, ending with the
JSON result line, goes to stdout.  A traced run also writes its spans to
<build dir>/gcperf/spans-<workload>.csv.

    python3 gcperf/run.py --self-test

checks the verdict: every workload, run with one stamp corrupted, must
report "correct": false and exit nonzero.  See gcperf/README.md.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch-javac", "batch-db", "serve-churn")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "gcperf")


def build():
    """Configure and build the driver (both incremental); return its path,
    or None if a step failed."""
    out = build_dir()
    steps = [["cmake", "-S", HERE, "-B", out,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "--target", "gcperf_driver",
              "-j", "3"]]
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("gcperf: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(out, "gcperf_driver")


def self_test(driver):
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [driver, "--workload", workload, "--seed", "1", "--seconds", "1",
             "--trace", "0", "--corrupt-stamp"],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        caught = proc.returncode != 0 and result.get("correct") is False
        print("self-test %-12s corrupted stamp %s (exit %d)" %
              (workload, "caught" if caught else "MISSED", proc.returncode))
        ok = ok and caught
    return ok


def flag(args, name):
    """The value following flag `name` in `args`, or None."""
    return args[args.index(name) + 1] if name in args[:-1] else None


def main(argv):
    driver = build()
    if driver is None:
        return 3
    if argv == ["--self-test"]:
        return 0 if self_test(driver) else 1
    args = list(argv)
    workload = flag(args, "--workload")
    if flag(args, "--trace") == "1" and workload in WORKLOADS:
        args += ["--span-file",
                 os.path.join(build_dir(), "spans-%s.csv" % workload)]
    return subprocess.call([driver] + args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
