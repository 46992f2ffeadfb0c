"""Check the bytes of the catalogs that ``chowkit`` writes.

Usage:

    python tools/check_catalog_bytes.py

The commands run as ``python -m chowkit`` with this checkout's ``src`` on
``PYTHONPATH``, as the benchmark runs them.
CHECKS is one table of 36 rows, each (argv, output, size, sha256, exit code,
stdin).  The output is a file name, written with ``--output`` in a fresh
temporary directory, or "-" for stdout.  Every command runs in that
directory, so ``catalog diff a.json b.json`` reads the two catalogs written
before it.
A row's stdin, when given, names a file written before it, whose bytes the
command reads through a pipe (``catalog diff /dev/stdin ...``): a pipe is
read whole, so those rows pin the whole-file reader at the size of the
block reader's rows.
The rows are the benchmark's full-size catalogs and their diff, its family
grids as CSV, family and strata grids past the benchmark's and their diffs,
a strata grid and a resolutions grid on stdout across c2 99..100, where
the order of the numbers and of their texts differ, and a bounds grid on
stdout whose c2 are negative, each as JSON and as CSV, and a long monads
charge grid as CSV.  The sizes and sha256s of the
benchmark's full-size grids are read from ``perfbench/workloads.py``; those
of the other rows are in the table.
The script prints one line per catalog and exits 1, naming each catalog
whose bytes or exit code differ from the recorded ones.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

sys.dont_write_bytecode = True  # leave perfbench/ free of __pycache__
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from common import child_env, cli_argv  # noqa: E402
from workloads import FULL  # noqa: E402


class Check(NamedTuple):
    argv: tuple[str, ...]
    output: str
    size: int
    sha256: str
    exit_code: int = 0
    stdin: str | None = None


# the benchmark's family grids as CSV on stdout, in the order of FULL.families
_FAMILIES_CSV = (
    (164981, "14cefb6258929e0e4f5c9f5689b77b125dd3875b9d295d0f77f9ec16a3ef57ae"),
    (40146, "35ad9900909b2e7f7969b06f162c703849612bb42560f8c7443e58e442311747"),
    (66075, "93cc25cc57e52d1c33e6bc806f1dd317886f23e7dbeb6ab242695e85f6faa0e4"),
)
_LARGE_STRATA = ("catalog", "strata", "--c2", "5..40", "--l", "0..8")
_LARGE_STRATA_JSON = (19085233, "62634c9c63113f45ead2ea5bfc286e178af39b1d432ab86b3ba6de890aed6673")
_LARGE_DIFF_JSON = (13602069, "a0e78f4d281a26bad40a80ba8eaaa0f71a0fb6db3363693c3412bfc2712401f3", 1)
_LARGE_DIFF_CSV = (15617670, "18b41de1e7bd63b0e1702bf18c44485a67da2ad143bca364b4908d700978f703", 1)

CHECKS = [
    # the benchmark's catalogs and their diff, which exits 1
    *(Check(c.args, f"{c.args[1]}.json", c.size, c.sha256) for c in (FULL.strata, *FULL.families)),
    Check(FULL.diff_a.args, "a.json", FULL.diff_a.size, FULL.diff_a.sha256),
    Check(FULL.diff_b.args, "b.json", FULL.diff_b.size, FULL.diff_b.sha256),
    Check(("catalog", "diff", "a.json", "b.json"), "-", FULL.diff.size, FULL.diff.sha256, 1),
    # the same family grids as CSV rows, which hold Fraction values (monads,
    # bounds) and bool values (resolutions)
    *(Check(("--format", "csv", *c.args), "-", size, sha256)
      for c, (size, sha256) in zip(FULL.families, _FAMILIES_CSV)),
    # family grids past the benchmark's, where the tier-1 tests do not reach
    Check(("catalog", "resolutions", "--c2", "5..2000"), "resolutions-large.json", 22538928,
          "b8a4f9415d930fea7e45cfc92075be299ee705fa3962eb93bed63d719c3847b5"),
    Check(("catalog", "monads", "--rank-max", "8", "--charge", "0..400"), "monads-large.json", 3667409,
          "a0454a340329d05b3330af3623cea8e1d535286cc9c599d767e44810293bc319"),
    # the large resolutions grid less its last c2, and the diff of the two
    # read a block at a time: catalogs whose strings never repeat
    Check(("catalog", "resolutions", "--c2", "5..1999"), "resolutions-1999.json", 22521534,
          "b9205b8cd59da1d324dab13c590f7122728f6571593f19e025db1c58d011303f"),
    Check(("catalog", "diff", "resolutions-large.json", "resolutions-1999.json"), "-", 17459,
          "ea205b5ebd0246ab18ec5e21ab0ee5bb1bebf8113352b6dfae4bb9eaeeebcda0", 1),
    # a strata grid of 8,425 entries whose 5 (c2, s) pairs share 1,685
    # partition labels: the writer's widest inputs memo
    Check(("catalog", "strata", "--c2", "5..8", "--l", "0..10"), "strata-wide.json", 2884065,
          "71dc853ceb766bfb4e961fc66d791c86a96c8714b163afb2884d88acb59d54b6"),
    # a strata grid across c2 99..100, where the order of the numbers and of
    # their texts differ, reaching s = 10 (70 entries) from c2 112 on: the
    # writer's runs of one c2 and its order of s within a run
    Check(("catalog", "strata", "--c2", "95..125", "--l", "0..2"), "-", 508874,
          "61eeb7638648d058e77a4076c41fcf0a8f764cda030268f15e41b23474613eb9"),
    # a family grid on stdout across c2 99..100, and a bounds grid whose c2
    # are negative ("c2":-1, before "c2":-10,): the writer's runs of one
    # leading value, in the order of their text
    Check(("catalog", "resolutions", "--c2", "5..300"), "-", 1190870,
          "f873afd785cabbccb3d1964977e3e01909a38b19622c46d4299ed1c36e506da5"),
    Check(("catalog", "bounds", "--rank", "3", "--c1", "-2", "--c2", "-12..12"), "-", 8278,
          "919e95e75eeb66b3ced7eb12b95500336234a926877b3b84714f3742fb42d6ae"),
    # the same grids as CSV, whose rows come in the grid's order, not the
    # order of the texts, and a monads grid as CSV, whose rows come in the
    # order of (rank, degree, charge)
    Check(("--format", "csv", "catalog", "strata", "--c2", "95..125", "--l", "0..2"), "-", 95844,
          "caf0e9e32fa3a0b6aab3d5b84e68361c3b501e63105e30ad8f9a962a9257a842"),
    Check(("--format", "csv", "catalog", "resolutions", "--c2", "5..300"), "-", 318146,
          "16600ff697c60a6d7c9501ed548f7027af041af3faa894cfbf32da184c87f308"),
    Check(("--format", "csv", "catalog", "bounds", "--rank", "3", "--c1", "-2", "--c2", "-12..12"),
          "-", 1475, "49d5f45b1e1b96346c8515b2b2808c857dc1b4af72f776327fb5838d224b49a9"),
    Check(("--format", "csv", "catalog", "monads", "--rank-max", "8", "--charge", "0..400"), "-",
          481322, "4de560c200ae39dbda968aa30478b97fe65aa27404bddaf32af5dfd975a0960b"),
    # a strata grid of 55,056 entries through the file writer, the chunked
    # stdout writer and the row-by-row CSV writer
    Check(_LARGE_STRATA, "strata-large.json", *_LARGE_STRATA_JSON),
    Check(_LARGE_STRATA, "-", *_LARGE_STRATA_JSON),
    Check(("--format", "csv", *_LARGE_STRATA), "-", 3559541,
          "43e7b19a8042815ede8e3148815c0d45c27f8ec147b6910392eb6303764c9819"),
    # a diff payload 60 times the benchmark's, as JSON and as CSV, from two
    # files read a block at a time, and again with A on a pipe, read whole
    Check(("catalog", "diff", "strata.json", "strata-large.json"), "-", *_LARGE_DIFF_JSON),
    Check(("--format", "csv", "catalog", "diff", "strata.json", "strata-large.json"), "-",
          *_LARGE_DIFF_CSV),
    Check(("catalog", "diff", "/dev/stdin", "strata-large.json"), "-", *_LARGE_DIFF_JSON,
          stdin="strata.json"),
    Check(("--format", "csv", "catalog", "diff", "/dev/stdin", "strata-large.json"), "-",
          *_LARGE_DIFF_CSV, stdin="strata.json"),
    # the large grid against itself: every entry block is found in both files
    Check(("catalog", "diff", "strata-large.json", "strata-large.json"), "-", 62,
          "4b4f05c2775127608b7ff11316331aa23a0061075ad0fbe2cdaa557708e96454"),
    # the strata grid past the benchmark's c2, and its diff against the
    # benchmark's strata catalog: no entry is found in both files
    Check(("catalog", "strata", "--c2", "21..40", "--l", "0..8"), "strata-high.json", 13602049,
          "ff500fec76dccc5eebf4bb9031e7c680a8846868fb89c484f4966532fdd42a35"),
    Check(("catalog", "diff", "strata.json", "strata-high.json"), "-", 19085255,
          "6e0743b074f5ef1de5c8349edd1dbc2dd71962bd8fa6b1f5ffbf60903e09a123", 1),
    # grids shifted by one charge or c2, and their diffs against the grids
    # above: rational values read a block at a time, in monads items that
    # repeat and in bounds items that seldom do
    Check(("catalog", "monads", "--rank-max", "8", "--charge", "1..401"), "monads-401.json", 3674697,
          "7ddb2ea01f2a5532554a06a6762762b30318e3785b742d68b38501292d37b0ac"),
    Check(("catalog", "diff", "monads-large.json", "monads-401.json"), "-", 11259,
          "f2e137b3d46fedc75054edf0ade2ebe01e1d8151a06bc78a73e48cc280b89de5", 1),
    Check(("catalog", "bounds", "--c2", "1..1001"), "bounds-1001.json", 342279,
          "85d596002ae2bce55c4860d738393b6243d3369ff47bb36a20be8901c0c39b13"),
    Check(("catalog", "diff", "bounds.json", "bounds-1001.json"), "-", 736,
          "45f12a1bcd4bc34846c6a169fae326e726231eabd943acaa9802b88b6b76affb", 1),
]


def run(check: Check, directory: Path) -> str | None:
    """Run one command; a problem naming its catalog, or None."""
    argv = list(check.argv)
    if check.output != "-":
        argv += ["--output", check.output]
    data_in = None if check.stdin is None else (directory / check.stdin).read_bytes()
    done = subprocess.run(cli_argv(*argv), cwd=directory, env=child_env(), input=data_in,
                          stdout=subprocess.PIPE)
    path = directory / check.output
    data = done.stdout if check.output == "-" else path.read_bytes() if path.is_file() else b""
    digest = hashlib.sha256(data).hexdigest()
    what = " ".join(argv) + ("" if check.stdin is None else f" < {check.stdin}")
    print(f"{what}: {len(data)} bytes, sha256 {digest[:12]}, exit {done.returncode}")
    if (len(data), digest, done.returncode) != (check.size, check.sha256, check.exit_code):
        return (f"{what}: recorded {check.size} bytes, sha256 {check.sha256[:12]}, "
                f"exit {check.exit_code}")
    return None


def main() -> int:
    with tempfile.TemporaryDirectory() as directory:
        problems = [p for check in CHECKS if (p := run(check, Path(directory)))]
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
