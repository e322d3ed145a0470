#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 hopsbench/run.py --workload spotify_hot --seed 1 --seconds 10 \
        --trace 0

Run it from the repository root. The build tree is $CARGO_TARGET_DIR if
set, else .bench_build; the first run configures and builds it (Release),
later runs only rebuild what changed. Build output goes to stderr. The
last line of stdout is the benchmark's JSON result, and the exit code is
the benchmark's: 0 when every output check passed.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "build.ninja")) and \
            not os.path.exists(os.path.join(build_dir, "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "hopsbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "hopsbench")


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"hopsbench: build failed: {e}", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
