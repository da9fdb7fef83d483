"""Process, timing and statistics helpers shared by the workloads.

Every child process the benchmark starts goes through :func:`run_child`
or ``serveload.Daemon``: it gets the pinned environment of :func:`child_env`,
and its CPU time and peak RSS are read from its own ``os.wait4`` rusage,
never from ``RUSAGE_CHILDREN`` (whose max-RSS is the largest of *all*
reaped children, so an earlier 850 MB campaign would leak into every
later figure).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

#: the checkout the benchmark runs from
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for stores, outputs and result files (git-ignored)
WORK = ROOT / ".perfbench"

#: thread-pool knobs of the BLAS/OpenMP runtimes NumPy and SciPy may load;
#: unpinned, fig8 on a 2-CPU box burns 6.7-7.4 s of CPU in 5.2-5.5 s of wall
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def require_source() -> None:
    """Exit 2 (no result printed) when the program's source is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}",
              file=sys.stderr)
        raise SystemExit(2)


def child_env(runs_dir: Path | None = None) -> dict:
    """The environment of every child: pinned threads, source on the path."""
    env = dict(os.environ)
    for name in _THREAD_VARS:
        env[name] = "1"
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_FAULTS", None)
    if runs_dir is not None:
        env["REPRO_RUNS_DIR"] = str(runs_dir)
    return env


def repro_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


@dataclass
class ChildResult:
    """One finished child process and what it cost."""

    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def reap(proc: subprocess.Popen) -> tuple[int, float, float]:
    """Wait for ``proc`` through ``os.wait4``: (exit code, cpu s, rss MB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, cpu, usage.ru_maxrss / 1024.0


def run_child(argv: list, out_dir: Path, name: str,
              env: dict | None = None, timeout_s: float = 170.0
              ) -> ChildResult:
    """Run one child to completion, capturing its output into files.

    The wall time runs from spawn to reap; a child still alive after
    ``timeout_s`` is killed (and then reported with its signal code).
    """
    out_path = out_dir / f"{name}.out"
    err_path = out_dir / f"{name}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=err,
                                env=env or child_env())
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            code, cpu, rss = reap(proc)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    return ChildResult(code, wall, cpu, rss,
                       out_path.read_text(errors="replace"),
                       err_path.read_text(errors="replace"))


def fresh_dir(path: Path) -> Path:
    """An empty directory at ``path`` (whatever was there is removed)."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


#: a tail needs ten samples beyond it, and is reported from forty samples
TAIL_BEYOND = 10
TAIL_MIN_SAMPLES = 40


def tail(values) -> float | None:
    """The highest-ranked sample with ``TAIL_BEYOND`` samples above it.

    None below ``TAIL_MIN_SAMPLES``: with fewer samples that percentile
    sits too close to the median to say anything about the tail.
    """
    if len(values) < TAIL_MIN_SAMPLES:
        return None
    return sorted(values)[len(values) - TAIL_BEYOND - 1]


def source_digest() -> str:
    """SHA-256 over the program's Python source (paths and contents)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def steal_s() -> float:
    """CPU seconds the hypervisor has given other guests, over all CPUs.

    Recorded around each run: on a shared host a burst of steal slows
    every process of the run, and this tells such a run apart.
    """
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
