#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

Usage, from the repository root:

    python3 daasbench/run.py --workload study --seed 7 --seconds 10 --trace 0

The Go build cache, the binary and trace files go under .bench_build
(or $CARGO_TARGET_DIR when set) in the repository root. Build output goes
to standard error, so the benchmark's result stays the last line of
standard output.

While the benchmark runs, one idle-priority (SCHED_IDLE) busy loop per
CPU keeps the CPUs from halting. On a virtual machine a halted virtual
CPU waits for the host to schedule it again when work arrives, and on a
busy host that wait showed in every open-loop latency, varying with the
neighbours' load. A SCHED_IDLE task runs only when nothing else is
runnable and gives way as soon as anything is, so the benchmark keeps
the CPUs to itself. See daasbench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# HOLD is the idle-priority busy loop. It dies with the process that
# started it (PR_SET_PDEATHSIG), so it cannot outlive the benchmark.
HOLD = """
import ctypes, os, signal, sys
ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)
if os.getppid() != int(sys.argv[1]):
    sys.exit(0)
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
while True:
    pass
"""


def hold_cpus():
    """Start one idle-priority busy loop per CPU this process may use."""
    return [subprocess.Popen([sys.executable, "-c", HOLD, str(os.getpid())],
                             stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
            for _ in os.sched_getaffinity(0)]


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-buildvcs=false",
        "GOWORK": "off",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "daasbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("daasbench: build failed", file=sys.stderr)
        return built.returncode or 1
    holds = hold_cpus()
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode
    finally:
        for p in holds:
            p.kill()
        for p in holds:
            p.wait()


if __name__ == "__main__":
    sys.exit(main())
