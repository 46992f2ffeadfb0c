"""Paths, child-process measurement and order statistics for the harness.

Every module of the harness runs from the checkout root's ``perfbench``
directory and imports chowkit from ``src`` of the same checkout, so the
numbers always describe the sources next to the benchmark.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"


class MissingSources(RuntimeError):
    """The checkout holds no chowkit sources to measure."""


def require_sources() -> None:
    if not (SRC / "chowkit" / "__init__.py").is_file():
        raise MissingSources(f"no chowkit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


@dataclass
class ChildRun:
    """One finished child process with its own resource usage."""

    argv: list[str]
    returncode: int
    start: float
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes

    @property
    def traceback(self) -> bool:
        return b"Traceback (most recent call last)" in self.stderr


def run_child(argv: list[str], workdir: Path, tag: str) -> ChildRun:
    """Run argv to completion and measure it from spawn to exit.

    stdout and stderr go to files, so a large payload cannot block the
    child on a full pipe.  ``os.wait4`` returns the usage of exactly this
    child; ``RUSAGE_CHILDREN`` would report a high-water mark over every
    child reaped so far.
    """
    out_path = workdir / f"{tag}.stdout"
    err_path = workdir / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=child_env(), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        argv=argv,
        returncode=proc.returncode,
        start=start,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "chowkit", *args]


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def quantile(values: list[float], p: float) -> float:
    """The p-quantile by the exclusive method of ``statistics.quantiles``.

    The quantile sits at 1-based position (n + 1) p of the sorted values,
    interpolated linearly, and is held to the smallest and largest value
    where that position falls outside them.  For quartiles of three or more
    values this equals ``statistics.quantiles(values, n=4)``.
    """
    ordered = sorted(values)
    h = min(max((len(ordered) + 1) * p, 1.0), float(len(ordered)))
    lo = math.floor(h)
    hi = min(lo, len(ordered) - 1)
    return ordered[lo - 1] + (h - lo) * (ordered[hi] - ordered[lo - 1])


def summary(values: list[float]) -> dict:
    """Median, quartiles, sample count and the samples of one metric."""
    return {
        "median": quantile(values, 0.5),
        "q1": quantile(values, 0.25),
        "q3": quantile(values, 0.75),
        "n": len(values),
        "samples": values,
    }


def source_digest() -> str:
    """sha256 over the package sources, for checkouts without git metadata."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "chowkit").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def provenance(seed: int) -> dict:
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
    }
