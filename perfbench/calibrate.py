"""Host-speed calibration: a fixed computation that shares the ops' CPU.

This machine is a few cores of a shared host, and how fast one of its CPUs
runs the same Python code swings by 20% and more from one second to the
next and drifts over minutes, with the load of the host's other tenants.
Raw timings would measure the host as much as the program.

So a timed run pins itself and every process it starts to one CPU, and
runs a calibration process there for the whole run.  That process repeats
a fixed reference computation, written here and independent of chowkit, and
logs the CPU time of every repetition (a *unit*).  The scheduler alternates
the op and the calibration on that CPU every few milliseconds, so both run
at the same host speed, and the harness reports every CPU time at the
reference speed::

    normalized = cpu time * REFERENCE_UNIT_S / median(CPU time of the units
                                                       that overlap the op)

A program change moves the op's CPU time and not the units, so it shows in
full; a host that runs everything 20% slower for a while moves both, and
cancels.  The unit does what the program mostly does: exact Fraction
arithmetic, dicts of strings, and ``json.dumps(sort_keys=True, indent=...)``
with its pure-Python encoder, then parsing the text back and hashing it.

Run as a script this is the calibration process::

    python3 perfbench/calibrate.py LOG

It writes one line per unit to LOG, ``start end cpu`` (the first two on the
system-wide ``time.perf_counter`` clock, the last from ``time.thread_time``),
and exits when its parent has gone.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

# median CPU time of a unit on the host the benchmark was defined on (one
# vCPU of an Intel Xeon under a hypervisor, CPython 3.11, sharing the CPU
# with an op), so normalized timings read as seconds of that host
REFERENCE_UNIT_S = 0.046

_ROWS = 1000
# sha256 of the unit's text; a unit that computes anything else is an error
_DIGEST = "e2cf2b3d9da4dc905ee4fee8eb94f5474f064b809ba6cc868902e46449941810"


def work() -> str:
    """The reference computation; returns the sha256 of the text it built."""
    rows = []
    acc = Fraction(0)
    for i in range(_ROWS):
        r = i % 7 + 1
        c = Fraction(i % 41 - 20, r)
        q = c * c / 2 + Fraction(i % 11, 6) - Fraction(r, 3)
        acc += q / (i + 1)
        rows.append({
            "id": f"e{i:05d}",
            "inputs": {"r": r, "c": str(c)},
            "values": [str(q), str(q.numerator % 97), str(acc.denominator % 1009)],
            "positive": q > 0,
        })
    text = json.dumps({"rows": rows, "version": 1}, sort_keys=True, indent=2)
    back = json.loads(text)
    if len(back["rows"]) != _ROWS:
        raise RuntimeError("calibration unit parsed back the wrong row count")
    return hashlib.sha256(text.encode()).hexdigest()


def serve(log: Path) -> int:
    """Repeat units and log them until the parent process has gone.

    The cyclic garbage collector is off (a unit's garbage is freed by
    reference counting), so a unit's time depends on the host alone.
    """
    parent = os.getppid()
    gc.disable()
    with open(log, "w", encoding="ascii", buffering=1) as out:
        while os.getppid() == parent:
            start = time.perf_counter()
            cpu = time.thread_time()
            digest = work()
            cpu = time.thread_time() - cpu
            if digest != _DIGEST:
                print(f"calibrate: unit digest {digest} != {_DIGEST}", file=sys.stderr)
                return 1
            out.write(f"{start!r} {time.perf_counter()!r} {cpu!r}\n")
    return 0


class HostSpeed:
    """The calibration process of one run, and the scale its units give."""

    def __init__(self, workdir: Path):
        self.log = workdir / "calibration.log"
        self.units: list[tuple[float, float, float]] = []
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.log)],
            cwd=workdir, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        while not self._read():
            if self.proc.poll() is not None:
                raise RuntimeError(f"calibration process exited {self.proc.returncode}")
            time.sleep(0.01)

    def _read(self) -> list[tuple[float, float, float]]:
        if self.log.is_file():
            # text after the last newline may be a line still being written
            lines = self.log.read_text(encoding="ascii").split("\n")[:-1]
            self.units = [tuple(map(float, line.split())) for line in lines]
        return self.units

    def stop(self) -> bool:
        """Stop the process; False when it had stopped by itself (a wrong unit)."""
        alive = self.proc.poll() is None
        if alive:
            self.proc.kill()
        self.proc.wait()
        self._read()
        return alive

    def unit_s(self, start: float, end: float) -> float:
        """Median CPU time of the units that overlap [start, end].

        An interval shorter than a unit may overlap none; it takes the unit
        nearest to its middle.
        """
        inside = [cpu for s, e, cpu in self.units if s < end and e > start]
        if inside:
            return statistics.median(inside)
        middle = (start + end) / 2
        return min(self.units, key=lambda u: abs((u[0] + u[1]) / 2 - middle))[2]

    def scale(self, start: float, end: float) -> float:
        return REFERENCE_UNIT_S / self.unit_s(start, end)


if __name__ == "__main__":
    sys.exit(serve(Path(sys.argv[1])))
