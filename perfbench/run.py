#!/usr/bin/env python3
"""Build and run the repo benchmark for one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload tables|sweep|serve --seed N \
        --seconds S --trace 0|1

It builds perfbench/perfbench.exe and bin/tatsd.exe from source in the
release profile under .bench_build/, then runs the workload with nproc
sized pools, a private scratch directory under .bench_run/ and the
host/config stamp arguments. The benchmark's stdout is passed through;
its last line is the result object. The exit code is the benchmark's, or
3 when the checkout cannot be built or run.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
TATSD = os.path.join(BUILD_DIR, "default", "bin", "tatsd.exe")
GOLDEN = os.path.join("test", "goldens", "tables.golden")
SOURCES = ["dune-project", "lib", "bin", "perfbench"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(3)


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.md5()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-" + h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["tables", "sweep", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    for p in SOURCES + [GOLDEN, os.path.join("bin", "tatsd.ml")]:
        if not os.path.exists(p):
            fail("not a source checkout (missing %s)" % p)

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "--cache", "disabled",
         "--build-dir", BUILD_DIR, "./perfbench/perfbench.exe", "./bin/tatsd.exe"],
        stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed")

    nproc = len(os.sched_getaffinity(0))
    workdir = os.path.join(RUN_DIR, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--nproc", str(nproc), "--commit", commit_id(), "--tatsd", TATSD,
           "--golden", GOLDEN, "--workdir", workdir]
    # A new process group, so a timeout can stop tatsd children too.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = 4
        print("perfbench: timed out", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(RUN_DIR)
        except OSError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
