"""chowkit's benchmark: one command, four workloads, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload strata_grid --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload with tracing off and prints the end-to-end
metrics: CPU times of the ops and set-ups, measured on one CPU beside the
calibration process of ``calibrate.py`` and scaled to its reference speed,
so that the host's changing speed cancels out.  ``--trace 1`` is the
separate traced run, which replays every workload in-process and prints
the per-layer metrics.  ``--smoke`` runs the same code paths on tiny
grids.  Human-readable lines come first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--record FILE`` also writes the full results record, with provenance,
samples and quartiles.

Workloads (each runs in its own child processes, one at a time):

* ``strata_grid``    one ``catalog strata`` write per op: the write path.
* ``families_grid``  ``catalog resolutions``, ``monads`` and ``bounds``
  writes per op: per-entry library arithmetic.
* ``catalog_diff``   ``catalog diff A B`` per op, on two strata catalogs
  written during set-up: the read path.
* ``bound_sweep``    a closed loop of bound queries in one child process.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import sweep
import workloads
from common import (
    WORK_ROOT,
    MissingSources,
    child_env,
    provenance,
    quantile,
    require_sources,
    summary,
)
from workloads import Op, Outcome

WORKLOADS = ("strata_grid", "families_grid", "catalog_diff", "bound_sweep")

END_TO_END_UNITS = {
    "cpu_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "setup_s": "s",
}

# fewest timed ops per run, whatever --seconds says
MIN_OPS = {"strata_grid": 4, "families_grid": 4, "catalog_diff": 4}
# set-ups per run, spread over it; writing the two diff inputs takes
# seconds, the others take a fraction of one
SETUPS = {"strata_grid": 12, "families_grid": 12, "catalog_diff": 2, "bound_sweep": 7}


def run_sweep(seed: int, seconds: float, smoke: bool, setups: int, workdir: Path) -> Outcome:
    """bound_sweep: set-up is spawn-to-ready of the child, several times.

    The child in the middle runs the measured loop; the set-up-only
    children before and after it take their samples at both ends of the run.
    """
    out = Outcome()
    argv = [sys.executable, str(Path(__file__).with_name("sweep.py")),
            "--seed", str(seed), "--seconds", str(seconds)] + (["--smoke"] if smoke else [])
    result = None
    for i in range(setups):
        measuring = i == setups // 2
        err_path = workdir / f"sweep{i}.stderr"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv + ([] if measuring else ["--setup-only"]), cwd=workdir,
                                    env=child_env(), stdout=subprocess.PIPE, stderr=err)
            ready = proc.stdout.readline().split()
            wall = time.perf_counter() - start
            rest = proc.stdout.read()
            proc.stdout.close()
            _, status, _ = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        failed = len(ready) != 2 or ready[0] != b"ready" or proc.returncode != 0 or \
            b"Traceback" in err_path.read_bytes()
        out.tally(f"sweep child {i}: exit {proc.returncode}" if failed else None)
        if failed:
            continue
        out.setups.append((start, wall, float(ready[1])))
        if measuring:
            result = json.loads(rest)
    if result is None:
        return out
    out.attempted += result["attempted"]
    out.failed += result["failed"]
    out.problems.extend(result["problems"])
    at = 0
    for block in result["blocks"]:
        latencies = result["latencies_ms"][at:at + block["queries"]]
        at += block["queries"]
        out.ops.append(Op(block["start"], block["wall_s"], block["cpu_s"],
                          result["maxrss_mb"], block["queries"], latencies))
    out.info["queries"] = {
        "per_block": sweep.SMOKE.block if smoke else sweep.FULL.block,
        "blocks": len(result["blocks"]),
        "p3_bounds_calls": sum(b["p3_calls"] for b in result["blocks"]),
    }
    out.info["repeat_share"] = {
        "input": "(r, c1) over queries",
        "distinct": result["distinct_rc1"],
        "calls": result["attempted"],
    }
    return out


def end_to_end(out: Outcome, host: calibrate.HostSpeed | None) -> dict:
    """Every end-to-end metric of a run at the reference host speed.

    Each op's and set-up's CPU time is scaled by the calibration units that
    ran beside it (``calibrate.py``); with no ``host``, the raw figures.
    """
    def scale(start: float, wall: float) -> float:
        return 1.0 if host is None else host.scale(start, start + wall)

    cpu = [op.cpu_s * scale(op.start, op.wall_s) for op in out.ops]
    queries = [q * scale(op.start, op.wall_s) for op in out.ops for q in op.query_ms]
    samples = {
        "cpu_s": cpu,
        "items_per_s": [op.items / c for op, c in zip(out.ops, cpu)],
        "peak_rss_mb": [op.peak_rss_mb for op in out.ops],
        "setup_s": [c * scale(start, wall) for start, wall, c in out.setups],
    }
    stats = {name: summary(values) for name, values in samples.items()}
    for name, p in (("query_p50_ms", 0.5), ("query_p99_ms", 0.99)):
        value = quantile(queries, p)
        stats[name] = {"median": value, "n": len(queries),
                       "beyond": sum(1 for q in queries if q > value)}
    return {name: stats[name] for name in END_TO_END_UNITS}


def timed(workload: str, seed: int, seconds: float, smoke: bool,
          workdir: Path) -> tuple[dict, Outcome]:
    """One timed run on one CPU, beside the calibration process.

    The run pins itself, and so every process it starts, to one CPU before
    it starts the calibration process there.  The raw medians and the
    wall-clock op times (the calibration's share of the CPU included) go to
    the record's sizes, under ``raw``.
    """
    grids = workloads.SMOKE if smoke else workloads.FULL
    setups = 1 if smoke else SETUPS[workload]
    if smoke:
        seconds = 0.0
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    host = calibrate.HostSpeed(workdir)
    try:
        if workload == "bound_sweep":
            out = run_sweep(seed, seconds, smoke, setups, workdir)
        else:
            runner = {
                "strata_grid": workloads.run_strata,
                "families_grid": workloads.run_families,
                "catalog_diff": workloads.run_diff,
            }[workload]
            min_ops = 1 if smoke else MIN_OPS[workload]
            out = runner(grids, workdir, seconds, min_ops, setups, seed)
    finally:
        calibrated = host.stop()
    out.tally(None if calibrated else "calibration unit computed a wrong result")
    if not out.ops or not out.setups:
        return {}, out
    units = summary([cpu for _, _, cpu in host.units])
    out.info["calibration"] = {
        "units": units["n"],
        "unit_cpu_median_s": units["median"],
        "unit_cpu_q1_s": units["q1"],
        "unit_cpu_q3_s": units["q3"],
        "reference_unit_s": calibrate.REFERENCE_UNIT_S,
    }
    raw = {name: s["median"] for name, s in end_to_end(out, None).items()}
    raw["op_wall_s"] = summary([op.wall_s for op in out.ops])["median"]
    out.info["raw"] = raw
    return end_to_end(out, host), out


def _fmt(value: float) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one chowkit benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny grids, one op")
    parser.add_argument("--record", type=Path, default=None, metavar="FILE",
                        help="also write the full results record as JSON")
    args = parser.parse_args(argv)
    try:
        require_sources()
    except MissingSources as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            import traced

            trace_dir = WORK_ROOT / "trace"
            trace_dir.mkdir(exist_ok=True)
            spans = trace_dir / f"{args.workload}-seed{args.seed}.spans.csv.gz"
            grids = workloads.SMOKE if args.smoke else workloads.FULL
            size = sweep.SMOKE if args.smoke else sweep.FULL
            values, out = traced.traced_run(
                args.workload, args.seed, grids, size, workdir, spans, args.smoke)
            units = traced.PER_LAYER_UNITS
            stats = {name: {"median": v, "n": 1} for name, v in values.items()}
        else:
            stats, out = timed(args.workload, args.seed, args.seconds, args.smoke, workdir)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "provenance": provenance(args.seed),
        "sizes": out.info,
        "metrics": {name: {**stats[name], "unit": units[name]} for name in stats},
        "attempted": out.attempted,
        "failed": out.failed,
        "error_rate": out.failed / out.attempted if out.attempted else 1.0,
        "problems": out.problems,
    }
    correct = out.failed == 0 and out.attempted > 0 and set(stats) == set(units)

    print(f"# {args.workload} seed={args.seed} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}")
    for key, value in record["provenance"].items():
        print(f"#   {key}: {value}")
    for key, value in out.info.items():
        print(f"#   {key}: {json.dumps(value)}")
    for name, s in stats.items():
        line = f"{name:<40} {_fmt(s['median']):>12} {units[name]}"
        if "q1" in s:
            line += f"  (median; q1 {_fmt(s['q1'])}, q3 {_fmt(s['q3'])}, n={s['n']})"
        elif "beyond" in s:
            line += f"  (n={s['n']} samples, {s['beyond']} beyond)"
        print(line)
    print(f"error_rate {record['error_rate']:.6g} ({out.failed} of {out.attempted} operations failed)")
    for problem in out.problems[:20]:
        print(f"FAILED: {problem}")
    if args.record is not None:
        args.record.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": correct,
        "attempted": max(out.attempted, 1),
        "failed": out.failed if out.attempted else 1,
        "metrics": {name: {"value": stats[name]["median"], "unit": units[name]}
                    for name in stats},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
