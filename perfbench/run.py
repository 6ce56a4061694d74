#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload cold_module --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR when
set, else .bench_build/ (configured once, then rebuilt incrementally);
its output goes to stderr so that the last line of stdout is the
benchmark's JSON result. A traced run (--trace 1) also writes its spans
to <build dir>/traces/<workload>-seed<N>.json unless --trace-out is
given. Exits non-zero, printing no result, when the sources are missing
or do not build.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Longer than any workload needs; a hung run must still end.
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    )


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        print("perfbench: the repository sources are missing", file=sys.stderr)
        return None
    out = os.path.join(build_dir(), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(step), file=sys.stderr)
            return None
    return os.path.join(out, target)


def arg_value(args, name, default=None):
    """The value following `name` in `args`, or `default`."""
    if name in args and args.index(name) + 1 < len(args):
        return args[args.index(name) + 1]
    return default


def main(argv):
    if argv == ["--self-test"]:
        binary = build("perfbench_selftest")
        if binary is None:
            return 1
        return subprocess.run([binary], stdout=sys.stderr, cwd=ROOT).returncode

    binary = build("perfbench")
    if binary is None:
        return 1
    args = list(argv)
    work = None
    if arg_value(args, "--work-dir") is None:
        work = os.path.join(build_dir(), "work-" + str(os.getpid()))
        # Relative to the checkout, so socket paths stay short.
        args += ["--work-dir", os.path.relpath(work, ROOT)]
    if arg_value(args, "--trace") == "1" and arg_value(args, "--trace-out") is None:
        name = "{}-seed{}.json".format(
            arg_value(args, "--workload", "run"), arg_value(args, "--seed", "0")
        )
        args += ["--trace-out", os.path.join(build_dir(), "traces", name)]
    try:
        return subprocess.run([binary] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
