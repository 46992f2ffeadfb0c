"""Smoke tests of the benchmark harness: tiny grids, so the harness cannot rot.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == listed


def test_recorded_seed_digest_is_checked():
    done = bench("--workload", "bound_sweep", "--seed", "1", "--seconds", "1", "--smoke")
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stdout


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "strata_grid", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_grid_counts_match_the_library():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from chowkit.monads import partition_types
    from chowkit.resolutions import admissible_s

    assert workloads.partition_type_counts(6) == [len(partition_types(l)) for l in range(7)]
    assert [workloads.admissible_s_count(c2) for c2 in range(0, 60)] == \
        [len(admissible_s(c2)) for c2 in range(0, 60)]


def test_quantile_matches_statistics_quartiles():
    from common import quantile

    rng = random.Random(7)
    for n in (3, 4, 10, 11, 37):
        values = [rng.random() for _ in range(n)]
        want = statistics.quantiles(values, n=4)
        got = [quantile(values, p) for p in (0.25, 0.5, 0.75)]
        assert got == pytest.approx(want)
    assert quantile([1.0, 2.0, 3.0], 0.99) == 3.0
    assert quantile([5.0], 0.5) == 5.0


def test_tracer_records_layer_crossings_and_restores():
    sys.path.insert(0, str(ROOT / "src"))
    from chowkit import bounds, catalog
    from tracing import Tracer

    original = catalog.bound_report
    with Tracer(record_args=("bounds.bound_report",)) as tracer:
        catalog.bounds_catalog(2, -1, range(0, 3))
    assert catalog.bound_report is original and bounds.bound_report is original
    names = [tracer.names[f] for f in tracer.fn]
    assert names[0] == "catalog.bounds_catalog" and tracer.parent[0] == -1
    assert names.count("bounds.bound_report") == 3
    # calls inside the bounds layer (bound_report -> euler_bound) are not spans
    assert "bounds.euler_bound" not in names
    assert sum(tracer.args["bounds.bound_report"].values()) == 3
    layers = tracer.layer_stats()
    assert layers["catalog"]["calls"] == 1
    assert 0 < layers["catalog"]["self_s"] <= layers["catalog"]["busy_s"]
    assert tracer.root_seconds() == pytest.approx(layers["catalog"]["busy_s"])


def test_calibration_process_logs_units_and_stops(tmp_path):
    import calibrate

    assert calibrate.work() == calibrate._DIGEST
    host = calibrate.HostSpeed(tmp_path)
    try:
        start = host.units[0][0]
        while len(host._read()) < 3:
            time.sleep(0.01)
    finally:
        assert host.stop()
    assert host.proc.returncode is not None
    end = host.units[-1][1]
    assert host.unit_s(start, end) == statistics.median(u[2] for u in host.units)
    assert host.scale(end + 1.0, end + 1.1) == calibrate.REFERENCE_UNIT_S / host.units[-1][2]
