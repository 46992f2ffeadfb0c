"""The catalog workloads: grids, expected outputs and the timed CLI runs.

Each catalog the benchmark writes is described by a :class:`Catalog`: the
CLI arguments, the entry count from an independent count of the grid, and
the size and sha256 recorded from the program at the baseline commit.  The
grids do not depend on the seed, so the recorded digests hold for every
seed; ``families_grid`` draws the order of its three commands from it.

A catalog format change that is meant to happen (a new ``schema_version``)
changes these digests, and the recorded values here change with it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from common import ChildRun, cli_argv, run_child, sha256_file


# ---------------------------------------------------------------------------
# independent counts of the grids


def admissible_s_count(c2: int) -> int:
    """Number of s >= 1 with (2s + 1)^2 <= 4 c2 - 7, for c2 > 4."""
    if c2 <= 4:
        return 0
    s = 0
    while (2 * s + 3) ** 2 <= 4 * c2 - 7:
        s += 1
    return s


def partition_type_counts(n_max: int) -> list[int]:
    """Multisets of partitions of total n: the Euler transform of p(n)."""
    p = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        for n in range(k, n_max + 1):
            p[n] += p[n - k]
    counts = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        for _ in range(p[k]):
            for n in range(k, n_max + 1):
                counts[n] += counts[n - k]
    return counts


def monad_entries(rank_max: int, charge_hi: int) -> int:
    return sum(
        1
        for r in range(1, rank_max + 1)
        for d in range(-r + 1, 1)
        for c in range(0, charge_hi + 1)
        if d + c >= 0
    )


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class Catalog:
    """One catalog command and the output it must write."""

    args: tuple[str, ...]
    entries: int
    size: int
    sha256: str
    # (calls, distinct l) of partition_types while generating a strata grid
    partition_calls: tuple[int, int] = (0, 0)


@dataclass(frozen=True)
class DiffPayload:
    """What ``catalog diff A B`` must print: it exits 1 with these sets."""

    only_in_a: int
    only_in_b: int
    c2_a: int
    c2_b: int
    size: int
    sha256: str


@dataclass(frozen=True)
class Grids:
    strata: Catalog
    families: tuple[Catalog, ...]
    diff_a: Catalog
    diff_b: Catalog
    diff: DiffPayload


def _strata(c2_lo, c2_hi, l_hi, size, sha) -> Catalog:
    args = ("catalog", "strata", "--c2", f"{c2_lo}..{c2_hi}", "--l", f"0..{l_hi}")
    pairs = sum(admissible_s_count(c2) for c2 in range(c2_lo, c2_hi + 1))
    return Catalog(args, pairs * sum(partition_type_counts(l_hi)), size, sha,
                   partition_calls=(pairs * (l_hi + 1), l_hi + 1))


def _resolutions(c2_hi, size, sha) -> Catalog:
    entries = sum(admissible_s_count(c2) for c2 in range(5, c2_hi + 1))
    return Catalog(("catalog", "resolutions", "--c2", f"5..{c2_hi}"), entries, size, sha)


def _monads(rank_max, charge_hi, size, sha) -> Catalog:
    args = ("catalog", "monads", "--rank-max", str(rank_max), "--charge", f"0..{charge_hi}")
    return Catalog(args, monad_entries(rank_max, charge_hi), size, sha)


def _bounds(c2_hi, size, sha) -> Catalog:
    return Catalog(("catalog", "bounds", "--c2", f"0..{c2_hi}"), c2_hi + 1, size, sha)


def _diff(c2_lo, c2_hi, l_hi, size, sha) -> DiffPayload:
    per_pair = sum(partition_type_counts(l_hi))
    return DiffPayload(
        only_in_a=admissible_s_count(c2_lo) * per_pair,
        only_in_b=admissible_s_count(c2_hi + 1) * per_pair,
        c2_a=c2_lo,
        c2_b=c2_hi + 1,
        size=size,
        sha256=sha,
    )


FULL = Grids(
    strata=_strata(5, 20, 8, 5483229,
                   "3766d701f9183e5b1713c1de0c9dc2b8037b4c188ebb74d11c10f1165d455a3b"),
    families=(
        _resolutions(200, 629130,
                     "d38dfdb2701a68766c5d8c056e8c95728978d676fadf9b130604a79f98dc4dfb"),
        _monads(8, 40, 349113,
                "0a1000eee58cb41d3479d3fda5f79f248025925be19377cc42e004988fa441f7"),
        _bounds(1000, 342254,
                "b5c0da4a4e67d18f314e87ccbd3ddd90d8af04dd510e43c549b056539d88dd22"),
    ),
    diff_a=_strata(5, 40, 6, 4685679,
                   "ef7ef614a1512a2f2b7cbef9e22d7689751dc9cdab21f281036a530e79808a80"),
    diff_b=_strata(6, 41, 6, 4839873,
                   "70a3b2ecc53a08c85ee2269a05f0fde9e2ee558eb03fdf1c2b35819b76c1d9c4"),
    diff=_diff(5, 40, 6, 227233,
               "48aac1d43147cdc770751e42013cbf0ecc7cd080167f5f9335752d0c7895fa3c"),
)

SMOKE = Grids(
    strata=_strata(5, 12, 3, 47552,
                   "9ffcc89ec3e4e4dae382f4ec3529d9f548b3d222fd68a64f7ac3e4d8bf83f623"),
    families=(
        _resolutions(30, 27207,
                     "aaa4ed536c3dad465b5a4b70303f0fb978a286a021afc0c491635e683ef9f9d6"),
        _monads(3, 5, 7925,
                "73c60d93194a0ae7cd90470ee4b5d3acf221aab87a6c39542b6474d66386549a"),
        _bounds(30, 10208,
                "6651e4c57801ad4129fcd47c8e05a2de99a844c1225c25c612b7ad0a469f63a2"),
    ),
    diff_a=_strata(5, 10, 2, 14907,
                   "8f2141834ba73de8131d1e9f79015ef726a682701191820368a391f15c7eb7cd"),
    diff_b=_strata(6, 11, 2, 16600,
                   "85a1767bfb87256e45cec43fa3568f1cd4dbcf7ce7d04c8559725ccaf39d88d3"),
    diff=_diff(5, 10, 2, 5016,
               "c0ee79e13aa7dae4d18ed36639d7b92587c480764d0cafc39c359c80aa7dc598"),
)


# ---------------------------------------------------------------------------
# output checks


def catalog_problem(path: Path, cat: Catalog) -> str | None:
    """Size and sha256 of a written catalog against the recorded values."""
    if not path.is_file():
        return f"{path.name}: not written"
    size = path.stat().st_size
    if size != cat.size:
        return f"{path.name}: {size} bytes, recorded {cat.size}"
    digest = sha256_file(path)
    if digest != cat.sha256:
        return f"{path.name}: sha256 {digest[:12]}, recorded {cat.sha256[:12]}"
    return None


def round_trip_problem(path: Path, cat: Catalog) -> str | None:
    """Parsing and re-serializing must give the same bytes and entry count."""
    from chowkit import catalog

    try:
        text = path.read_text(encoding="utf-8")
        entries = catalog.parse_catalog(text)
        again = catalog.serialize_catalog(entries)
    except Exception as exc:  # any failure of the program is a failed check
        return f"{path.name}: round trip raised {type(exc).__name__}: {exc}"
    if len(entries) != cat.entries:
        return f"{path.name}: parsed {len(entries)} entries, expected {cat.entries}"
    if again != text:
        return f"{path.name}: re-serialized bytes differ"
    return None


def write_problem(code: int, stdout: bytes, path: Path, cat: Catalog) -> str | None:
    """Check one ``catalog ... --output`` run: exit code, summary and file."""
    command = " ".join(cat.args)
    if code != 0:
        return f"{command}: exit {code}"
    try:
        reported = json.loads(stdout)["entries"]
    except (ValueError, KeyError, TypeError):
        return f"{command}: unreadable summary on stdout"
    if reported != cat.entries:
        return f"{command}: reported {reported} entries, expected {cat.entries}"
    return catalog_problem(path, cat)


def diff_problem(code: int, stdout: bytes, want: DiffPayload) -> str | None:
    """``catalog diff`` exiting 1 with ``identical: false`` is the success case."""
    if code != 1:
        return f"catalog diff: exit {code}"
    try:
        doc = json.loads(stdout)
        only_a, only_b = doc["only_in_a"], doc["only_in_b"]
        c2_a = {e["inputs"]["c2"] for e in only_a}
        c2_b = {e["inputs"]["c2"] for e in only_b}
    except (ValueError, KeyError, TypeError):
        return "catalog diff: unreadable payload"
    if doc.get("identical") is not False:
        return "catalog diff: identical is not false"
    if (len(only_a), len(only_b)) != (want.only_in_a, want.only_in_b):
        return f"catalog diff: {len(only_a)}/{len(only_b)} entries only in A/B"
    if c2_a != {want.c2_a} or c2_b != {want.c2_b}:
        return f"catalog diff: c2 {sorted(c2_a)}/{sorted(c2_b)} only in A/B"
    if len(stdout) != want.size:
        return f"catalog diff: {len(stdout)} bytes, recorded {want.size}"
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != want.sha256:
        return f"catalog diff: sha256 {digest[:12]}, recorded {want.sha256[:12]}"
    return None


def child_problem(run: ChildRun, problem: str | None) -> str | None:
    if run.traceback:
        return f"{' '.join(run.argv[3:])}: traceback on stderr"
    return problem


# ---------------------------------------------------------------------------
# timed runs


@dataclass
class Op:
    """One timed operation: one or more CLI children run back to back.

    On the catalog workloads the op is one request as a user makes it (one
    catalog, the three family catalogs, one diff), and ``query_ms`` holds
    its CPU time, which is its latency when it has the CPU to itself; the
    three family commands are not separate queries, since their latencies
    differ by kind and their percentiles would jump between kinds.  ``start``
    and ``wall_s`` place the op in time, for the calibration units beside it.
    """

    start: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    items: int
    query_ms: list[float]


@dataclass
class Outcome:
    """Samples of one timed run plus its check tally."""

    ops: list[Op] = field(default_factory=list)
    # (start, wall, cpu) of each set-up
    setups: list[tuple[float, float, float]] = field(default_factory=list)
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    info: dict = field(default_factory=dict)

    def tally(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)


def timed_loop(op, seconds: float, min_ops: int, setup, setups: int) -> None:
    """Run op() until another one would take the measured time past ``seconds``.

    The ``setups`` calls of setup() are spread over the run: before an op,
    setup() runs until one call has been made per ``seconds / setups`` of
    measured time, and the calls not reached run after the last op.
    """
    measured = 0.0
    count = 0
    done = 0
    while True:
        while done < setups and measured >= done * seconds / setups:
            setup()
            done += 1
        wall = op()
        measured += wall
        count += 1
        if count >= min_ops and measured + wall > seconds:
            break
    for _ in range(done, setups):
        setup()


TODD_OUTPUT = {"components": ["1", "2", "11/6", "1"], "dim": 3}


def startup(workdir: Path, out: Outcome, tag: str) -> None:
    """Set-up: a fresh ``todd --dim 3``, interpreter start, package import, one call."""
    run = run_child(cli_argv("todd", "--dim", "3"), workdir, tag)
    try:
        ok = run.returncode == 0 and json.loads(run.stdout) == TODD_OUTPUT
    except ValueError:
        ok = False
    out.tally(child_problem(run, None if ok else f"todd --dim 3: exit {run.returncode}"))
    out.setups.append((run.start, run.wall_s, run.cpu_s))


def write_catalog(cat: Catalog, workdir: Path, tag: str, out: Outcome) -> tuple[ChildRun, Path]:
    path = workdir / f"{tag}.json"
    run = run_child(cli_argv(*cat.args, "--output", path.name), workdir, tag)
    out.tally(child_problem(run, write_problem(run.returncode, run.stdout, path, cat)))
    return run, path


def run_writes(cats, workdir: Path, seconds: float, min_ops: int,
               setups: int, out: Outcome, order_seed: int | None = None) -> None:
    """Timed catalog writes; one op writes every catalog in ``cats``."""
    rng = random.Random(f"families:{order_seed}")
    written: dict[Catalog, Path] = {}

    def op() -> float:
        order = list(cats)
        if order_seed is not None:
            rng.shuffle(order)
        runs = []
        for cat in order:
            run, path = write_catalog(cat, workdir, cat.args[1], out)
            runs.append(run)
            written[cat] = path
        wall = sum(r.wall_s for r in runs)
        out.ops.append(Op(
            start=runs[0].start,
            wall_s=runs[-1].start + runs[-1].wall_s - runs[0].start,
            cpu_s=sum(r.cpu_s for r in runs),
            peak_rss_mb=max(r.maxrss_mb for r in runs),
            items=sum(c.entries for c in cats),
            query_ms=[sum(r.cpu_s for r in runs) * 1e3],
        ))
        return wall

    def setup() -> None:
        startup(workdir, out, "todd")

    timed_loop(op, seconds, min_ops, setup, setups)
    for cat, path in written.items():
        out.tally(round_trip_problem(path, cat))
    out.info["catalogs"] = [
        {"args": list(c.args), "entries": c.entries, "bytes": c.size} for c in cats
    ]


def run_strata(grids: Grids, workdir: Path, seconds: float, min_ops: int,
               setups: int, seed: int) -> Outcome:
    out = Outcome()
    run_writes((grids.strata,), workdir, seconds, min_ops, setups, out)
    calls, distinct = grids.strata.partition_calls
    out.info["repeat_share"] = {
        "input": "l over partition_types calls",
        "distinct": distinct,
        "calls": calls,
    }
    return out


def run_families(grids: Grids, workdir: Path, seconds: float, min_ops: int,
                 setups: int, seed: int) -> Outcome:
    out = Outcome()
    run_writes(grids.families, workdir, seconds, min_ops, setups, out, order_seed=seed)
    out.info["repeat_share"] = {
        "input": "per-entry arguments of verify_resolution_chern, monad_shape, bound_report",
        "distinct": sum(c.entries for c in grids.families),
        "calls": sum(c.entries for c in grids.families),
    }
    return out


def run_diff(grids: Grids, workdir: Path, seconds: float, min_ops: int,
             setups: int, seed: int) -> Outcome:
    out = Outcome()
    compared = grids.diff_a.entries + grids.diff_b.entries

    def setup() -> None:
        """Write both inputs; each set-up replaces them with the same bytes."""
        runs = [write_catalog(cat, workdir, name, out)[0]
                for name, cat in (("a", grids.diff_a), ("b", grids.diff_b))]
        out.setups.append((runs[0].start, runs[1].start + runs[1].wall_s - runs[0].start,
                           runs[0].cpu_s + runs[1].cpu_s))

    def op() -> float:
        run = run_child(cli_argv("catalog", "diff", "a.json", "b.json"), workdir, "diff")
        out.tally(child_problem(run, diff_problem(run.returncode, run.stdout, grids.diff)))
        out.ops.append(Op(run.start, run.wall_s, run.cpu_s, run.maxrss_mb, compared,
                          [run.cpu_s * 1e3]))
        return run.wall_s

    timed_loop(op, seconds, min_ops, setup, setups)
    shared = grids.diff_a.entries - grids.diff.only_in_a
    out.info["catalogs"] = [
        {"args": list(c.args), "entries": c.entries, "bytes": c.size}
        for c in (grids.diff_a, grids.diff_b)
    ]
    out.info["repeat_share"] = {
        "input": "entries present in both catalogs",
        "distinct": compared - shared,
        "calls": compared,
    }
    return out
