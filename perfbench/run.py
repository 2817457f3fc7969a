#!/usr/bin/env python3
"""Build the benchmark from the repository's sources and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

The repository's root CMakeLists.txt is configured into .bench_build/hcm
with perfbench/perfbench.cmake hooked in, and only the benchmark and the
libraries it links are built (reused when up to date). Build output goes
to stderr; stdout carries only the benchmark's output, whose
last line is the JSON result. The exit code is the benchmark binary's.
"""

import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "hcm")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    generated = [os.path.join(BUILD_DIR, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        configure = ["cmake", "-S", ROOT, "-B", BUILD_DIR,
                     "-DCMAKE_PROJECT_hcm_INCLUDE=" +
                     os.path.join(BENCH_DIR, "perfbench.cmake")]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench", "perfbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unavailable"


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "svc", "query.hh")):
        print("perfbench: the repository sources (src/) are missing; "
              "nothing to build", file=sys.stderr)
        return 2
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    run = subprocess.run([exe] + sys.argv[1:] + ["--git-sha", git_sha()],
                         cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
