#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload sweep|explore|serve --seed N \
        --seconds S --trace 0|1

Builds perfbench/main.exe with dune, runs it in its own process group,
and passes its output through: the last stdout line is the result
object. Exits non-zero, printing no result, when the checkout has no
sources to build, the build fails, or the run fails or overruns.
"""

import os
import signal
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
# The benchmark must finish within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir(os.path.join("lib", "jrpm"))):
        print("run.py: run from the root of a jrpm checkout", file=sys.stderr)
        return 2
    # no shared build cache: the build stays inside the checkout
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode
    proc = subprocess.Popen([EXE] + sys.argv[1:], start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: run timed out", file=sys.stderr)
        code = 124
    finally:
        # the benchmark reaps its own workers and daemon; this only
        # catches what a crash or a timeout left behind
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        wait_group_gone(proc.pid)
    return code


def wait_group_gone(pgid, timeout_s=10):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


if __name__ == "__main__":
    sys.exit(main())
