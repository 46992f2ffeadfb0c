"""The bound_sweep workload: a closed loop of bound queries in one process.

One client issues a query, waits for it to finish, then issues the next.
A query is an invariant (r, c1, c2, c3) with r in a rank range, c1
normalized (-r + 1 <= c1 <= 0), c2 in 0..c2_max and c3 drawn from the
admissible interval; it calls

* ``splitting.enumerate_splitting_types(r, c1)``,
* ``bounds.enumerate_admissible_c3(r, c1, c2)``,
* ``chow.chern_to_character(ChernClasses(r, c1, c2, c3), 3)``, and
* ``bounds.p3_bounds(b, ch)`` for every splitting type b.

Queries come in blocks; block k of seed s is drawn from its own generator,
so a block's queries do not depend on how many blocks a run reaches.  The
library is reached through module attributes at call time, so the traced
run's wrappers see every call.

Run as a script this is the workload's child process::

    python3 perfbench/sweep.py --seed 1 --seconds 15

It prints ``ready`` and its CPU time so far once set up, then one JSON
object with the per-block timings, the per-query latencies and the output
checks.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import resource
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, floor

from common import MissingSources, require_sources


@dataclass(frozen=True)
class SweepSize:
    block: int
    rank_lo: int
    rank_hi: int
    c2_max: int
    min_blocks: int


FULL = SweepSize(block=300, rank_lo=2, rank_hi=6, c2_max=400, min_blocks=4)
SMOKE = SweepSize(block=12, rank_lo=2, rank_hi=4, c2_max=40, min_blocks=1)

# digest() of block 0 at RECORDED_SEED, recorded from the baseline sources
RECORDED_SEED = 1
RECORDED_BLOCK0 = {
    FULL: "d0cdc5ec25a22bea02f64d4452b1989399a680811cf3c4b123ab4b05a42073db",
    SMOKE: "33acd3d6b2eb3ed91106d557fb02228a918035e0feb6dc7eea6b098803a63866",
}


@dataclass(frozen=True)
class Query:
    r: int
    c1: int
    c2: int
    c3: int


def make_queries(seed: int, block: int, size: SweepSize) -> list[Query]:
    """Block ``block`` of the seed: the same number of queries per rank.

    Within a rank c1 cycles through its normalized values, so every block
    holds the same (r, c1) mix and only c2, c3 and the order are drawn.
    """
    from chowkit import bounds

    rng = random.Random(f"bound_sweep:{seed}:{block}")
    ranks = range(size.rank_lo, size.rank_hi + 1)
    pairs = [(r, -(i % r)) for r in ranks for i in range(size.block // len(ranks))]
    rng.shuffle(pairs)
    queries = []
    for r, c1 in pairs:
        c2 = rng.randint(0, size.c2_max)
        c3_min, c3_max = bounds.enumerate_admissible_c3(r, c1, c2)
        queries.append(Query(r, c1, c2, rng.randint(c3_min, c3_max)))
    return queries


@dataclass
class Answer:
    """What one query returned: the splitting types, interval and reports."""

    types: list
    interval: tuple[int, int]
    character: object
    reports: list


def run_block(queries: list[Query]) -> tuple[list[Answer], list[float]]:
    """Answer every query in order; returns the answers and latencies in ms.

    A query's latency is the CPU time of this thread while answering it, so
    the calibration process that shares the CPU does not count in it.
    """
    from chowkit import bounds, chow, splitting

    answers = []
    latencies = []
    clock = time.thread_time
    for q in queries:
        start = clock()
        types = splitting.enumerate_splitting_types(q.r, q.c1)
        interval = bounds.enumerate_admissible_c3(q.r, q.c1, q.c2)
        ch = chow.chern_to_character(chow.ChernClasses(q.r, q.c1, q.c2, q.c3), 3)
        reports = [bounds.p3_bounds(b, ch) for b in types]
        latencies.append((clock() - start) * 1e3)
        answers.append(Answer(types, interval, ch, reports))
    return answers, latencies


def digest(queries: list[Query], answers: list[Answer]) -> str:
    """sha256 over a harness-side text rendering of every answer."""
    h = hashlib.sha256()
    for q, a in zip(queries, answers):
        h.update(f"{q.r},{q.c1},{q.c2},{q.c3}|{a.interval}|".encode())
        for rep in a.reports:
            hb = ",".join(str(x) for x in rep.h_bounds)
            h.update(
                f"{rep.splitting_type.entries}:{rep.q}:{rep.q_int}:{hb}:"
                f"{rep.euler_bound}:{rep.ch3_bound};".encode()
            )
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# oracle: the documented closed forms, written out independently


def _h0(k: int) -> int:
    return comb(k + 3, 3) if k >= 0 else 0


def _worst_case(r: int, c1: int, ch2: Fraction) -> tuple[Fraction, Fraction]:
    t = Fraction(abs(c1), r) + r
    half = r * t * t / 2
    q = max(t + 4 - ch2 + half, Fraction(0))
    inv = max(-ch2 + half, Fraction(0))
    euler = 2 * q * inv + Fraction(r, 6) * (t + 3) ** 3
    return euler, euler + 2 * abs(ch2) + Fraction(11, 6) * abs(c1) + r


def box_types(r: int, c1: int):
    """Every non-increasing r-tuple summing to c1 inside the magnitude box."""
    hi = floor(Fraction(abs(c1), r) + r)
    for b in itertools.combinations_with_replacement(range(hi, -hi - 1, -1), r):
        if sum(b) == c1:
            yield b


def oracle_types(r: int, c1: int) -> list[tuple[int, ...]]:
    return [b for b in box_types(r, c1) if all(b[i] - b[i + 1] <= 2 for i in range(r - 1))]


def check_answer(q: Query, a: Answer, types_table: dict) -> str | None:
    """Compare one answer with the closed forms; returns a problem or None."""
    key = (q.r, q.c1)
    if key not in types_table:
        types_table[key] = oracle_types(q.r, q.c1)
    if [b.entries for b in a.types] != types_table[key]:
        return f"splitting types of {key}"
    ch2 = Fraction(q.c1 * q.c1 - 2 * q.c2, 2)
    ch3 = Fraction(q.c1 ** 3 - 3 * q.c1 * q.c2 + 3 * q.c3, 6)
    if tuple(a.character.components) != (q.r, q.c1, ch2, ch3):
        return f"character of {q}"
    euler, ch3_bound = _worst_case(q.r, q.c1, ch2)
    base = Fraction(q.c1 ** 3 - 3 * q.c1 * q.c2, 6)
    interval = (floor(-2 * (base + ch3_bound)) + 1, ceil(2 * (ch3_bound - base)) - 1)
    if tuple(a.interval) != interval:
        return f"c3 interval of {q}"
    for b, rep in zip(a.types, a.reports):
        squares = Fraction(sum(x * x for x in b.entries), 2)
        q_value = Fraction(abs(q.c1), q.r) + q.r + 4 - ch2 + squares
        middle = max(q_value, Fraction(0)) * max(-ch2 + squares, Fraction(0))
        expected = (
            q_value,
            ceil(q_value),
            (
                sum(_h0(x) for x in b.entries),
                middle,
                middle,
                sum(_h0(-x - 4) for x in b.entries),
            ),
            euler,
            ch3_bound,
        )
        got = (rep.q, rep.q_int, tuple(rep.h_bounds), rep.euler_bound, rep.ch3_bound)
        if got != expected:
            return f"p3_bounds{b.entries} for {q}"
    return None


# ---------------------------------------------------------------------------
# child process


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    size = SMOKE if args.smoke else FULL
    try:
        require_sources()
    except MissingSources as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2

    queries = make_queries(args.seed, 0, size)
    # set-up ends here; its CPU time includes the interpreter's start
    print(f"ready {time.process_time()!r}", flush=True)
    if args.setup_only:
        return 0

    blocks = []
    latencies: list[float] = []
    digests = []
    problems = []
    failed = 0
    distinct = set()
    types_table: dict = {}
    measured = 0.0
    while True:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        answers, lat = run_block(queries)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        measured += wall
        blocks.append({"start": t0, "wall_s": wall, "cpu_s": cpu, "queries": len(queries),
                       "p3_calls": sum(len(a.reports) for a in answers)})
        latencies.extend(lat)
        # checks run between blocks, outside the measured time
        for q, a in zip(queries, answers):
            problem = check_answer(q, a, types_table)
            if problem is not None:
                failed += 1
                problems.append(problem)
        digests.append(digest(queries, answers))
        distinct.update((q.r, q.c1) for q in queries)
        del answers
        if len(blocks) >= size.min_blocks and measured + wall > args.seconds:
            break
        queries = make_queries(args.seed, len(blocks), size)
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    recorded = RECORDED_BLOCK0[size]
    if args.seed == RECORDED_SEED and digests[0] != recorded:
        failed += blocks[0]["queries"]
        problems.append(f"block 0 digest {digests[0]} != recorded {recorded}")
    print(json.dumps({
        "blocks": blocks,
        "latencies_ms": latencies,
        "maxrss_mb": maxrss_mb,
        "digests": digests,
        "attempted": len(latencies),
        "failed": failed,
        "problems": problems[:20],
        "distinct_rc1": len(distinct),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
