#!/usr/bin/env python3
"""Build and run the host-normalized benchmark (perfbench/main.cc).

    python3 perfbench/run.py --ref-mops R --workload W --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark is a CMake package of its
own that compiles the library layers it times from ../src, so it fails
(exit 2, no result line) where only the benchmark's files are present.
Build output goes to stderr; the benchmark's last stdout line is its
JSON result. The build directory is $CARGO_TARGET_DIR (default
.bench_build) under the repository root.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to the benchmark (expected src/)")
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target", target]
    if subprocess.run(cmd, stdout=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(build_dir, target)


def main(argv):
    if argv == ["--selftest"]:
        return subprocess.run([build("perfbench_test")]).returncode
    return subprocess.run([build("perfbench")] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
