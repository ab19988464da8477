"""One benchmark run of one workload: scratch directory, CLI invocations, tally.

Every child the session starts counts toward ``attempted``; one that exits
with the wrong code, writes output that fails its check, or writes bytes
that differ from the session's first CLI invocation counts toward ``failed``.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from checks import CHECKS, compute_reference
from child import ChildRun, Launcher, child_env
from workloads import Workload

# A child that starts Python, imports the CLI module and builds the job from
# the config text, as every CLI invocation does before any integration.
SETUP_CODE = (
    "import sys, victrap.cli\n"
    "from victrap.config import parse_config_full\n"
    "with open(sys.argv[1], encoding='utf-8') as f:\n"
    "    parse_config_full(f.read())\n"
)


class Session:
    def __init__(self, workload: Workload, src: Path, scratch_root: Path):
        self.workload = workload
        self.reference = compute_reference(workload.kind, workload.config)
        scratch_root.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch_root))
        self.config_path = self.dir / "job.ini"
        self.config_path.write_text(workload.config, encoding="utf-8")
        self.out_path = self.dir / "out.dat"
        self.stdout_path = self.dir / "stdout.dat"
        self.stderr_path = self.dir / "stderr.txt"
        self.env = child_env(src)
        fill = {"config": str(self.config_path), "out": str(self.out_path)}
        self.cli_argv = [sys.executable, "-m", "victrap.cli"] + [a.format(**fill) for a in workload.argv]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_output: bytes | None = None
        self.launcher = Launcher()

    def tally(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems)

    def invoke(self) -> ChildRun:
        """Run the CLI once and check what it wrote."""
        if self.out_path.exists():
            self.out_path.unlink()
        run = self.launcher.run(self.cli_argv, self.env, self.stdout_path, self.stderr_path)
        target = self.out_path if self.workload.writes_file else self.stdout_path
        output = target.read_bytes() if target.exists() else b""
        problems = CHECKS[self.workload.kind](output, run.exit_code, self.reference)
        if self.first_output is None:
            self.first_output = output
        elif output != self.first_output:
            problems.append("output bytes differ from the first invocation")
        self.tally(problems)
        return run

    def python(self, code: str, *args: str) -> ChildRun:
        """Run a Python child with the session's environment; a non-zero exit counts as failed."""
        argv = [sys.executable, "-c", code, *args]
        run = self.launcher.run(argv, self.env, self.stdout_path, self.stderr_path)
        self.tally([] if run.exit_code == 0 else [f"{code.splitlines()[0]!r} exited with {run.exit_code}"])
        return run

    def setup(self) -> ChildRun:
        return self.python(SETUP_CODE, str(self.config_path))

    def close(self) -> None:
        self.launcher.close()
        shutil.rmtree(self.dir, ignore_errors=True)
