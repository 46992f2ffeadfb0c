"""The traced run: every workload replayed in-process, with spans.

The replays call ``chowkit.cli.main`` with the same arguments as the timed
CLI runs, and the bound sweep's query loop with block 0 of the seed.  The
selected workload is also replayed untraced, before and after the traced
replays; its traced replay against the faster untraced one is the tracing
overhead.

Per-layer busy time, self time and call counts come from the spans.  The
``*_us`` metrics are per-call times of one public function, measured
untraced, on a seeded sample of the arguments that the replays passed to it
across a layer boundary: each function is timed on the workloads' own
inputs.
"""

from __future__ import annotations

import importlib
import io
import random
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median

import sweep
from common import ROOT
from tracing import LAYERS, Tracer
from workloads import Grids, Outcome, diff_problem, startup, write_problem

REPLAYS = ("strata_grid", "families_grid", "catalog_diff", "bound_sweep")

# functions whose arguments are kept, for the repeat counts and the probes
RECORDED = (
    "monads.partition_types",
    "splitting.enumerate_splitting_types",
    "monads.monad_shape",
    "resolutions.verify_resolution_chern",
    "resolutions.presentation_report",
    "bounds.bound_report",
    "bounds.p3_bounds",
    "bounds.enumerate_admissible_c3",
    "chow.chern_to_character",
    "chow.twist",
    "chow.euler_characteristic",
)

PROBES = {
    "monads.monad_shape_us": "monads.monad_shape",
    "resolutions.verify_resolution_chern_us": "resolutions.verify_resolution_chern",
    "resolutions.presentation_report_us": "resolutions.presentation_report",
    "bounds.bound_report_us": "bounds.bound_report",
    "bounds.p3_bounds_us": "bounds.p3_bounds",
    "bounds.enumerate_admissible_c3_us": "bounds.enumerate_admissible_c3",
    "chow.chern_to_character_us": "chow.chern_to_character",
    "chow.twist_us": "chow.twist",
    "chow.euler_characteristic_us": "chow.euler_characteristic",
}

# every metric the traced run reports, with its unit
PER_LAYER_UNITS = {
    "cli.startup_s": "s",
    "cli.build_parser_ms": "ms",
    "catalog.generate_s.strata": "s",
    "catalog.generate_s.resolutions": "s",
    "catalog.generate_s.monads": "s",
    "catalog.generate_s.bounds": "s",
    "catalog.serialize_s": "s",
    "catalog.serialize_us_per_entry": "us",
    "catalog.tracemalloc_peak_bytes": "bytes",
    "catalog.output_bytes": "bytes",
    "catalog.entries": "count",
    "catalog.parse_s": "s",
    "catalog.parse_us_per_entry": "us",
    "catalog.diff_s": "s",
    "monads.partition_types_s": "s",
    "monads.partition_types_calls": "count",
    "monads.partition_types_distinct": "count",
    "splitting.enumerate_s": "s",
    "splitting.enumerate_calls": "count",
    "splitting.enumerate_distinct": "count",
    "splitting.types_emitted": "count",
    "splitting.gap_keep_ratio": "ratio",
    "bounds.p3_bounds_calls": "count",
    **{name: "us" for name in PROBES},
    **{f"{layer}.{stat}": unit for layer in LAYERS
       for stat, unit in (("busy_s", "s"), ("self_s", "s"), ("calls", "count"))},
    **{f"replay_s.{name}": "s" for name in REPLAYS},
    "trace.unattributed_s": "s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


class Replayer:
    """In-process replays of the four workloads, with their output checks."""

    def __init__(self, grids: Grids, size: sweep.SweepSize, seed: int,
                 workdir: Path, out: Outcome) -> None:
        self.grids = grids
        self.size = size
        self.seed = seed
        self.workdir = workdir
        self.out = out
        self.written: dict[str, tuple[int, int]] = {}
        self.answers: list = []
        self.paths = {name: workdir / f"replay-{name}.json" for name in ("a", "b")}
        self.queries = sweep.make_queries(seed, 0, size)

    def cli(self, args: list[str], tag: str) -> tuple[int, bytes]:
        from chowkit import cli

        stdout_path = self.workdir / f"replay-{tag}.stdout"
        with open(stdout_path, "w", encoding="utf-8") as handle, \
                redirect_stdout(handle), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(args)
            except Exception as exc:  # a crash of the program is a failed check
                code = f"{type(exc).__name__}: {exc}"
        return code, stdout_path.read_bytes()

    def write(self, cat, tag: str, path: Path | None = None) -> None:
        path = path or self.workdir / f"replay-{tag}.json"
        code, stdout = self.cli([*cat.args, "--output", str(path)], tag)
        self.out.tally(write_problem(code, stdout, path, cat))
        self.written[tag] = (cat.entries, path.stat().st_size if path.is_file() else 0)

    def setup_diff(self) -> None:
        self.write(self.grids.diff_a, "a", self.paths["a"])
        self.write(self.grids.diff_b, "b", self.paths["b"])

    def strata_grid(self) -> None:
        self.write(self.grids.strata, "strata")

    def families_grid(self) -> None:
        for cat in self.grids.families:
            self.write(cat, cat.args[1])

    def catalog_diff(self) -> None:
        code, stdout = self.cli(
            ["catalog", "diff", str(self.paths["a"]), str(self.paths["b"])], "diff")
        self.out.tally(diff_problem(code, stdout, self.grids.diff))

    def bound_sweep(self) -> None:
        self.answers, _ = sweep.run_block(self.queries)

    def check_sweep(self) -> None:
        table: dict = {}
        for q, a in zip(self.queries, self.answers):
            self.out.tally(sweep.check_answer(q, a, table))
        if self.seed == sweep.RECORDED_SEED:
            recorded = sweep.RECORDED_BLOCK0[self.size]
            got = sweep.digest(self.queries, self.answers)
            self.out.tally(None if got == recorded else f"bound_sweep digest {got[:12]}")


def per_call_us(fn, inputs: list, repeats: int) -> float:
    """Median over repeats of the mean time per call across ``inputs``."""
    means = []
    for _ in range(repeats):
        start = time.perf_counter()
        for args, kwargs in inputs:
            fn(*args, **kwargs)
        means.append((time.perf_counter() - start) / len(inputs) * 1e6)
    return median(means)


def _function(qualified: str):
    layer, name = qualified.split(".")
    return getattr(importlib.import_module(f"chowkit.{layer}"), name)


def traced_run(workload: str, seed: int, grids: Grids, size: sweep.SweepSize,
               workdir: Path, spans_path: Path, smoke: bool) -> tuple[dict, Outcome]:
    out = Outcome()
    rp = Replayer(grids, size, seed, workdir, out)
    rp.setup_diff()

    def untraced_replay() -> float:
        start = time.perf_counter()
        getattr(rp, workload)()
        return time.perf_counter() - start

    untraced = [untraced_replay()]
    tracers: dict[str, Tracer] = {}
    walls: dict[str, float] = {}
    for name in REPLAYS:
        tracer = Tracer(record_args=RECORDED)
        with tracer:
            start = time.perf_counter()
            getattr(rp, name)()
            walls[name] = time.perf_counter() - start
        tracers[name] = tracer
    untraced.append(untraced_replay())
    rp.check_sweep()

    for i, name in enumerate(REPLAYS):
        tracers[name].write(spans_path, name, "wt" if i == 0 else "at")

    m: dict[str, float] = {}
    fstats = {name: t.function_stats() for name, t in tracers.items()}

    def busy(replay: str, fn: str) -> float:
        return fstats[replay].get(fn, (0.0, 0))[0]

    def calls(replay: str, fn: str) -> int:
        return fstats[replay].get(fn, (0.0, 0))[1]

    for kind in ("strata", "resolutions", "monads", "bounds"):
        replay = "strata_grid" if kind == "strata" else "families_grid"
        m[f"catalog.generate_s.{kind}"] = busy(replay, f"catalog.{kind}_catalog")
    m["catalog.serialize_s"] = busy("strata_grid", "catalog.serialize_catalog")
    m["catalog.serialize_us_per_entry"] = m["catalog.serialize_s"] / grids.strata.entries * 1e6
    m["catalog.output_bytes"] = sum(
        size for tag, (_, size) in rp.written.items() if tag not in ("a", "b"))
    m["catalog.entries"] = sum(
        entries for tag, (entries, _) in rp.written.items() if tag not in ("a", "b"))
    m["catalog.parse_s"] = busy("catalog_diff", "catalog.parse_catalog")
    m["catalog.parse_us_per_entry"] = m["catalog.parse_s"] / (
        grids.diff_a.entries + grids.diff_b.entries) * 1e6
    m["catalog.diff_s"] = busy("catalog_diff", "catalog.diff_catalogs")

    m["monads.partition_types_s"] = busy("strata_grid", "monads.partition_types")
    m["monads.partition_types_calls"] = calls("strata_grid", "monads.partition_types")
    m["monads.partition_types_distinct"] = len(
        tracers["strata_grid"].args["monads.partition_types"])

    enum_args = tracers["bound_sweep"].args["splitting.enumerate_splitting_types"]
    m["splitting.enumerate_s"] = busy("bound_sweep", "splitting.enumerate_splitting_types")
    m["splitting.enumerate_calls"] = calls("bound_sweep", "splitting.enumerate_splitting_types")
    m["splitting.enumerate_distinct"] = len(enum_args)
    m["splitting.types_emitted"] = sum(len(a.types) for a in rp.answers)
    boxed = sum(sum(1 for _ in sweep.box_types(*args)) * n
                for (args, _), n in enum_args.items())
    m["splitting.gap_keep_ratio"] = m["splitting.types_emitted"] / boxed
    m["bounds.p3_bounds_calls"] = calls("bound_sweep", "bounds.p3_bounds")

    layer_totals = {layer: {"busy_s": 0.0, "self_s": 0.0, "calls": 0} for layer in LAYERS}
    for tracer in tracers.values():
        for layer, stats in tracer.layer_stats().items():
            for key, value in stats.items():
                layer_totals[layer][key] += value
    for layer, stats in layer_totals.items():
        for key, value in stats.items():
            m[f"{layer}.{key}"] = value
    for name in REPLAYS:
        m[f"replay_s.{name}"] = walls[name]
    m["trace.unattributed_s"] = sum(walls[n] - tracers[n].root_seconds() for n in REPLAYS)
    m["trace.overhead_pct"] = (walls[workload] / min(untraced) - 1.0) * 100.0
    m["trace.spans"] = sum(len(t) for t in tracers.values())

    # per-call probes on the recorded arguments, untraced
    rng = random.Random(f"probes:{seed}")
    sample, repeats = (20, 1) if smoke else (600, 3)
    for metric, fn_name in PROBES.items():
        pooled: dict = {}
        for tracer in tracers.values():
            pooled.update(dict.fromkeys(tracer.args[fn_name]))
        inputs = [(args, dict(kw)) for args, kw in pooled]
        inputs = rng.sample(inputs, min(sample, len(inputs)))
        m[metric] = per_call_us(_function(fn_name), inputs, repeats)

    from chowkit import catalog, cli

    builds = []
    for _ in range(3 if smoke else 20):
        start = time.perf_counter()
        cli.build_parser()
        builds.append((time.perf_counter() - start) * 1e3)
    m["cli.build_parser_ms"] = median(builds)

    starts = 1 if smoke else 5
    for _ in range(starts):
        startup(workdir, out, "todd")
    m["cli.startup_s"] = median(wall for _, wall, _ in out.setups[-starts:])

    entries = catalog.parse_catalog(rp.paths["a"].read_text(encoding="utf-8"))
    tracemalloc.start()
    catalog.serialize_catalog(entries)
    m["catalog.tracemalloc_peak_bytes"] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    out.info.update({
        "traced_workload": workload,
        "untraced_replay_s": untraced,
        "spans_file": spans_path.relative_to(ROOT).as_posix(),
        "tracemalloc_catalog": list(grids.diff_a.args),
        "repeat_share": {
            "strata_grid": {
                "input": "l over partition_types calls",
                "distinct": m["monads.partition_types_distinct"],
                "calls": m["monads.partition_types_calls"],
            },
            "bound_sweep": {
                "input": "(r, c1) over queries",
                "distinct": m["splitting.enumerate_distinct"],
                "calls": m["splitting.enumerate_calls"],
            },
        },
    })
    return {name: m[name] for name in PER_LAYER_UNITS}, out
