#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <train|serve_hop|serve_aig|featurize>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to .bench_build/ (or
$CARGO_TARGET_DIR when it names a directory inside the checkout); its log
goes to stderr so the last stdout line stays the benchmark's JSON result.
Extra arguments (--tiny, --corrupt) are passed through to the binary.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", "")
    if target:
        path = os.path.abspath(os.path.join(ROOT, target))
        if path.startswith(ROOT + os.sep):
            return path
    return os.path.join(ROOT, ".bench_build")


def build():
    """Configures once and builds incrementally; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(1)
    return os.path.join(out, "perfbench")


def run(binary, args, timeout=RUN_TIMEOUT_S):
    """Runs the binary in its own process group (so forked workers go down
    with it on a timeout); returns (exit code, stdout text)."""
    proc = subprocess.Popen([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write("perfbench: timed out after %d s\n" % timeout)
        return 1, ""
    return proc.returncode, out


def main():
    binary = build()
    code, out = run(binary, sys.argv[1:])
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
