#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) as a Release tree; generated inputs and span
traces go to .../work. Build output goes to standard error, so the last line
of standard output is the benchmark's result line. Exits non-zero, printing
no result, when the sources cannot be built.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_root():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build():
    """Configures (once) and builds kcore_perfbench; returns its path."""
    build_dir = build_root()
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "kcore_perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "kcore_perfbench")


def main(argv):
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    work_dir = os.path.join(build_root(), "work")
    return subprocess.run([binary, *argv, "--work-dir", work_dir]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
