"""Run the benchmark over several seeds and report each metric's spread.

For every workload and seed this runs ``perfbench/run.py`` once (each line
ends with the run's own elapsed time, set-up and checks included), then
prints, per end-to-end metric, the median over seeds and the spread: the
distance between the first and third quartile (``common.quantile``, the
method of ``statistics.quantiles``) as a share of the median, next to the
bound in BENCHMARK.json.  It exits 1 when any spread, ``setup_s`` included,
is a third of its bound or more.  ``--baseline FILE`` also runs one traced
run per workload and writes the summary, with provenance, as the results
baseline.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --baseline perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from common import ROOT, WORK_ROOT, provenance, summary

RUN = Path(__file__).with_name("run.py")


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    record = WORK_ROOT / f"record-{workload}-{seed}-{trace}.json"
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--record", str(record)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    full = json.loads(record.read_text(encoding="utf-8"))
    record.unlink()
    return {"result": result, "record": full, "elapsed_s": time.perf_counter() - start}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--baseline", type=Path, default=None, metavar="FILE")
    args = parser.parse_args(argv)
    WORK_ROOT.mkdir(exist_ok=True)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results: dict = {}
    worst_ok = True
    for workload in names:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            r = runs[-1]["result"]
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} {shown} "
                  f"({runs[-1]['elapsed_s']:.1f} s)", flush=True)
        metrics = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            s = summary(values)
            spread = (s["q3"] - s["q1"]) / s["median"]
            worst_ok &= spread < bound / 3
            metrics[name] = {**s, "spread": spread, "bound": bound,
                             "unit": runs[0]["result"]["metrics"][name]["unit"]}
            flag = ("" if spread < bound / 3 else "  <-- above a third of the bound"
                    if spread <= bound else "  <-- ABOVE THE BOUND")
            print(f"  {name:<14} median {s['median']:<12.6g} spread {spread:7.2%}  "
                  f"bound {bound:.0%}{flag}")
        entry = {
            "end_to_end": metrics,
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "sizes": runs[0]["record"]["sizes"],
            "run_elapsed_s": summary([r["elapsed_s"] for r in runs]),
        }
        entry["error_rate"] = entry["failed"] / entry["attempted"]
        if args.baseline is not None:
            traced = run_once(workload, args.seeds[0], seconds, 1)
            entry["per_layer"] = {
                name: m["median"] for name, m in traced["record"]["metrics"].items()}
            entry["traced"] = {"seed": args.seeds[0], "correct": traced["result"]["correct"],
                               "sizes": traced["record"]["sizes"],
                               "elapsed_s": traced["elapsed_s"]}
        results[workload] = entry

    if args.baseline is not None:
        doc = {
            "provenance": {**provenance(args.seeds[0]), "seeds": args.seeds},
            "run_seconds": seconds,
            "workloads": results,
        }
        args.baseline.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
