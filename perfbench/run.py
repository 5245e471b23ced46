#!/usr/bin/env python3
"""Build TreeLattice and its serving benchmark from source, then run one
benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hot-zipf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The last line of standard output is the run's JSON result; build output
goes to standard error.  See perfbench/README.md.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")):
        sys.stderr.write("run.py: run from the root of a TreeLattice checkout\n")
        return 2
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root,
             "./bin/treelattice_cli.exe", "./perfbench/tlbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"run.py: build failed: {e}\n")
        return 2
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return 2
    exe = os.path.join(root, "_build", "default", "perfbench", "tlbench.exe")
    # The client and the servers it starts share one CPU: a closed loop is
    # a ping-pong, and a wake-up across virtual CPUs costs more, and varies
    # more with the host's other tenants, than the work it waits for.
    # serve -j 1 runs its OCaml code on one core in any case.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # In a process group of its own, so a timeout or a signal also stops
    # the servers it started.
    proc = subprocess.Popen([exe, "--root", root] + sys.argv[1:],
                            start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("run.py: benchmark timed out\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
