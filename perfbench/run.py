#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds bin/xaos.exe and perfbench/bench.exe from the checkout's sources
(release profile, dune's shared cache off so nothing is written outside
the checkout), then runs bench.exe from the checkout root. bench.exe
prints the result as the last line of stdout. See perfbench/README.md.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
XAOS = os.path.join("_build", "default", "bin", "xaos.exe")
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, env=None, stdout=None):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    for f in ("dune-project", os.path.join("bin", "xaos.ml"),
              os.path.join("perfbench", "bench.ml")):
        if not os.path.exists(os.path.join(ROOT, f)):
            fail("missing %s: run from a full checkout of the repository" % f)
    env = dict(os.environ, DUNE_CACHE="disabled")
    # dune's progress and errors go to stderr; stdout stays the result's
    code = run_group(["dune", "build", "--root", ".", "--profile", "release",
                      XAOS, BENCH], BUILD_TIMEOUT_S, env=env,
                     stdout=sys.stderr)
    if code != 0:
        fail("build failed (exit %d)" % code)
    sys.exit(run_group([os.path.join(ROOT, BENCH), "--xaos", XAOS]
                       + sys.argv[1:], RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
