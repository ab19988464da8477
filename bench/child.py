"""Pinning, the child environment and timed child processes.

Every child inherits the harness's single-vCPU affinity, and BLAS/OpenMP
pools are held to one thread, so a timed run never competes with itself.

Children are started by a small launcher process, this file run as a
script, and not by the harness itself.  Linux carries the resident size of
the process that forks into the child's ``ru_maxrss``; the harness holds
numpy, victrap and the RK4 reference (about 50 MB for ``trajectory_csv``),
while the launcher holds only the standard library, so the peak RSS that
``wait4`` reports is the CLI's own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 60.0


def pin_one_cpu() -> int:
    """Restrict this process (and so every child) to the highest allowed vCPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env(src: Path) -> dict[str, str]:
    """Environment for victrap children: the checkout's sources, one BLAS thread.

    The caller's ``PYTHON*`` settings are dropped, so that unbuffered
    output or disabled bytecode caches in the caller's shell do not change
    what is timed: children write and reuse bytecode caches, as an
    installed program would.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass(frozen=True)
class ChildRun:
    raw_s: float      # wall seconds from spawn to reap
    exit_code: int
    maxrss_kb: int    # peak resident set of the child, from wait4


def _run(argv: list[str], env: dict[str, str], stdout_path: str, stderr_path: str) -> ChildRun:
    """Run one child to completion; wall time and peak RSS come from the launcher side."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        raw = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(raw, proc.returncode, usage.ru_maxrss)


def _serve() -> None:
    """Launcher loop: one JSON request per stdin line, one JSON ChildRun per stdout line."""
    for line in sys.stdin:
        run = _run(**json.loads(line))
        sys.stdout.write(json.dumps(asdict(run)) + "\n")
        sys.stdout.flush()


class Launcher:
    """Handle on a launcher process; start it after pinning, so that it and its children inherit the pin."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, "-I", __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], env: dict[str, str], stdout_path: Path, stderr_path: Path) -> ChildRun:
        request = {"argv": argv, "env": env, "stdout_path": str(stdout_path), "stderr_path": str(stderr_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"child launcher exited with {self.proc.wait()}")
        return ChildRun(**json.loads(reply))

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    _serve()
