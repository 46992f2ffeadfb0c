"""Command line front end for the chowkit library.

Results go to standard output as JSON (default) or RFC-4180-style CSV
(``--format csv``).  Nothing is logged; only usage errors go to standard
error.  Exit codes: 0 on success, 2 on usage errors (unknown subcommand,
malformed numbers, missing flags), 1 on domain errors, which are reported
as a machine-readable ``{"error": {...}}`` object.  ``catalog diff`` follows
classic diff: 0 when the catalogs are identical, 1 when they differ, and 2
when a catalog file cannot be read or is not a catalog document, including
one whose document or entry ``schema_version`` is unknown (reported as the
same ``{"error": {...}}`` object, naming the file).  ``catalog.diff_files``
decides how the two files are read, and reads them; this module reads no
catalog.  Every output, error objects too, leaves through one writer,
``_write``, in chunks of ``io.DEFAULT_BUFFER_SIZE``; when the reader closes
standard output early (``chowkit ... | head -1``), the ``chowkit`` command
exits 141, as a writer killed by SIGPIPE would, with nothing on standard
error.

All rationals are printed as reduced "p/q" strings; no floating point is
ever emitted, so byte-identical output for identical invocations is
guaranteed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from types import MappingProxyType, SimpleNamespace

from . import catalog as cat
from .bounds import (
    BoundReport,
    _c3_interval,
    _ch2_of_classes,
    bound_report,
    ch3_bound,
)
from .chow import (
    ChernCharacter,
    ChernClasses,
    character_to_chern,
    chern_to_character,
    euler_characteristic,
    parse_rational,
    pushforward_from_hyperplane,
    rational_str,
    restrict_to_hyperplane,
    todd,
)
from .errors import DomainError
from .monads import monad_shape, partition_types
from .resolutions import format_term, presentation_report, verify_resolution_chern
from .splitting import SplittingType, enumerate_splitting_types, splitting_radius

EXIT_OK = 0
EXIT_DOMAIN_ERROR = 1
EXIT_USAGE_ERROR = 2
# catalog diff: 1 means "the catalogs differ", so trouble exits 2
EXIT_DIFFERENT = 1
EXIT_DIFF_TROUBLE = 2
# stdout closed early by its reader: what a shell reports for SIGPIPE
EXIT_BROKEN_PIPE = 141


class UsageError(Exception):
    """Bad invocation detected after argparse (e.g. missing range)."""


# Tokens like "-9/2" or "-1,0,-2" are values, not flags; none of our options
# use a single dash, so widening argparse's negative-number heuristic is safe.
_NEGATIVE_VALUE = re.compile(r"^-\d+([/,.]?[-\d,./]*)?$")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads ``_NEGATIVE_VALUE`` tokens as values.

    ``add_subparsers`` makes its subparsers of the parser's own class.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE


# ---------------------------------------------------------------------------
# argument conversion


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"not a comma-separated integer list: {text!r}")


def _components(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(part) for part in text.split(","))


def _int_range(text: str) -> range:
    """Parse "a..b" (inclusive) or a single "a" into a range."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    else:
        lo = hi = int(text)
    if hi < lo:
        raise ValueError(f"empty range: {text!r}")
    return range(lo, hi + 1)


def _character(components: tuple[Fraction, ...]) -> ChernCharacter:
    if len(components) not in (3, 4):
        raise UsageError(
            f"--character needs 3 (P^2) or 4 (P^3) components, got {len(components)}"
        )
    return ChernCharacter(len(components) - 1, components)


# ---------------------------------------------------------------------------
# payload encoding


def _rational_default(value) -> str:
    """The JSON encoder's hook: a Fraction is written as its "p/q" string."""
    if isinstance(value, Fraction):
        return rational_str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


# the containers of a payload, told apart by exact type (an entry's map is a
# MappingProxyType), and the CSV text of the scalar types whose str() is not it
_CONTAINERS = {dict, MappingProxyType, list, tuple}
_SCALAR_TEXT = {Fraction: rational_str, bool: json.dumps, type(None): lambda v: ""}


def _flat_rows(value, prefix: str = "") -> Iterator[tuple[str, str]]:
    """(key, text) of each scalar in a map or list, in the order of the keys.

    A key joins the map keys and list indices on the scalar's path with ".".
    Each level is sorted by its keys as strings, which sorts the joined keys,
    because no payload key holds a character below ".".
    """
    if type(value) in (list, tuple):
        items = sorted((str(i), v) for i, v in enumerate(value))
    else:  # a dict, or an entry's read-only map
        items = sorted(value.items())
    for k, v in items:
        key = f"{prefix}.{k}" if prefix else str(k)
        if type(v) in _CONTAINERS:
            yield from _flat_rows(v, key)
        else:
            yield key, _SCALAR_TEXT.get(type(v), str)(v)


# writerow returns what its file's write returns: here, the CSV line itself
_csv_line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow


def _csv_table(rows: Iterable[tuple[str, str]]) -> Iterator[str]:
    """The CSV lines of a flattened payload: a key,value header, then ``rows``."""
    yield _csv_line(("key", "value"))
    yield from map(_csv_line, rows)


_JSON = json.JSONEncoder(sort_keys=True, indent=2, default=_rational_default)


def _payload_pieces(payload: dict, fmt: str) -> Iterator[str]:
    """The text of ``payload`` in pieces: indented JSON, or its flattened CSV rows."""
    if fmt == "csv":
        yield from _csv_table(_flat_rows(payload))
    else:
        yield from _JSON.iterencode(payload)
        yield "\n"


def _report_payload(report: BoundReport) -> dict:
    payload = report._asdict()
    if report.splitting_type is not None:
        payload["splitting_type"] = list(report.splitting_type.entries)
    return payload


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (exit_code, payload or None)


def _cmd_todd(args) -> tuple[int, dict]:
    cls = todd(args.dim)
    return EXIT_OK, {"dim": args.dim, "components": list(cls.components)}


def _cmd_chern(args) -> tuple[int, dict]:
    if args.classes is not None:
        if len(args.classes) not in (3, 4):
            raise UsageError(
                "--classes needs rank,c1,c2 on P^2 or rank,c1,c2,c3 on P^3"
            )
        classes = ChernClasses(*args.classes)
        character = chern_to_character(classes, args.dim)
        return EXIT_OK, {
            "dim": args.dim,
            "classes": _classes_payload(classes),
            "character": list(character.components),
        }
    character = _character(args.character)
    if character.ambient_dim != args.dim:
        raise UsageError(
            f"--character has {character.ambient_dim + 1} components "
            f"but --dim is {args.dim}"
        )
    classes = character_to_chern(character)
    return EXIT_OK, {
        "dim": args.dim,
        "character": list(character.components),
        "classes": _classes_payload(classes),
    }


def _classes_payload(classes: ChernClasses) -> dict:
    payload = {"rank": classes.rank, "c1": classes.c1, "c2": classes.c2}
    if classes.c3 is not None:
        payload["c3"] = classes.c3
    return payload


def _cmd_euler(args) -> tuple[int, dict]:
    character = _character(args.character)
    return EXIT_OK, {
        "dim": character.ambient_dim,
        "character": list(character.components),
        "euler": euler_characteristic(character),
    }


def _cmd_restrict(args) -> tuple[int, dict]:
    character = _character(args.character)
    restricted = restrict_to_hyperplane(character)
    pushed = pushforward_from_hyperplane(character)
    return EXIT_OK, {
        "character": list(character.components),
        "restricted": list(restricted.components),
        "pushforward": list(pushed.components),
    }


def _cmd_bound(args) -> tuple[int, dict]:
    b = None if args.b is None else SplittingType(args.b)
    report = bound_report(args.rank, args.c1, args.ch2, b=b, literal_mode=args.literal)
    return EXIT_OK, _report_payload(report)


def _cmd_enumerate_c3(args) -> tuple[int, dict]:
    ch2 = _ch2_of_classes(args.c1, args.c2)
    bound = ch3_bound(args.rank, args.c1, ch2)
    c3_min, c3_max = _c3_interval(args.c1, args.c2, bound)
    return EXIT_OK, {
        "rank": args.rank,
        "c1": args.c1,
        "c2": args.c2,
        "ch2": ch2,
        "ch3_bound": bound,
        "c3_min": c3_min,
        "c3_max": c3_max,
        "count": c3_max - c3_min + 1,
    }


def _cmd_splitting_types(args) -> tuple[int, dict]:
    types = enumerate_splitting_types(args.rank, args.c1, args.reflexive_gap)
    return EXIT_OK, {
        "rank": args.rank,
        "c1": args.c1,
        "reflexive_gap": args.reflexive_gap,
        "radius": splitting_radius(args.rank, args.c1),
        "count": len(types),
        "types": [list(t.entries) for t in types],
    }


def _cmd_resolution(args) -> tuple[int, dict]:
    report = presentation_report(args.c2, args.s)
    display = f"0 -> {format_term(report.r_minus1)} -> {format_term(report.r0)} -> F -> 0"
    payload = {**report._asdict(), "display": display}
    if args.verify:
        payload["chern_consistent"] = verify_resolution_chern(report)
    return EXIT_OK, payload


def _cmd_monad(args) -> tuple[int, dict]:
    shape = monad_shape(args.rank, args.degree, args.ch2)
    return EXIT_OK, {
        "rank": args.rank,
        "degree": args.degree,
        "ch2": args.ch2,
        "charge": shape.u,
        "left": shape.left,
        "middle": shape.middle,
        "right": shape.right,
        "exponents": {"v": shape.v, "w": shape.w, "u": shape.u},
        "display": str(shape),
    }


def _cmd_partitions(args) -> tuple[int, dict]:
    types = partition_types(args.total)
    return EXIT_OK, {
        "total": args.total,
        "count": len(types),
        "types": [str(t) for t in types],
    }


# each catalog parameter type: how a flag or config value is read, and its metavar
_READERS = {int: (int, None), range: (_int_range, "A..B")}


def _cmd_catalog(args) -> tuple[int, dict | None]:
    """The catalog of kind ``args.catalog_command``, on stdout or to ``--output``."""
    kind = cat.CATALOG_KINDS[args.catalog_command]
    values = []
    for key, type_, default in kind.params:  # the flag, else the config, else the default
        value = getattr(args, key.replace("-", "_"))
        if value is None and key in args.presets:
            try:
                value = _READERS[type_][0](args.presets[key])
            except ValueError as exc:
                raise UsageError(f"bad config value for {key}: {exc}")
        if value is None and default is None:
            raise UsageError(f"--{key} is required (flag or config file)")
        values.append(default if value is None else value)
    entries = kind.generate(*values)
    if args.output is None and args.format == "csv":
        _write(_csv_lines(entries))
        return EXIT_OK, None
    # every entry is generated, encoded and sorted before any output is
    # opened, so a failed run leaves an existing file untouched and creates none
    count, pieces = cat.document_pieces(entries)
    if args.output is None:
        _write(pieces)
        return EXIT_OK, None
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
    except OSError as exc:
        raise DomainError(f"cannot write catalog to {args.output!r}: {exc}")
    return EXIT_OK, {"path": args.output, "entries": count}


def _csv_lines(entries: Iterable[cat.CatalogEntry]) -> Iterator[str]:
    """A catalog's CSV lines in generation order.  A row is an entry's flattened
    fields; all entries of one catalog have the same, so the first gives the header."""
    header = None
    for entry in entries:
        columns, row = zip(*_flat_rows(vars(entry)))
        if header is None:
            header = columns
            yield _csv_line(columns)
        yield _csv_line(row)
    if header is None:  # an empty catalog: the header of an empty payload
        yield from _csv_table(())


def _write(pieces: Iterable[str]) -> None:
    """Write ``pieces`` to stdout in chunks of ``io.DEFAULT_BUFFER_SIZE``.

    A reader that closes early makes a buffer flush raise BrokenPipeError,
    where one large write can end short without an error; and on an
    unbuffered stdout each small piece would be a system call of its own.
    """
    size = io.DEFAULT_BUFFER_SIZE
    batch, length = [], 0
    for piece in pieces:
        batch.append(piece)
        length += len(piece)
        if length >= size:
            text = "".join(batch)
            end = len(text) - len(text) % size
            for start in range(0, end, size):
                sys.stdout.write(text[start:start + size])
            batch, length = [text[end:]], len(text) - end
    sys.stdout.write("".join(batch))


def _cmd_diff(args) -> tuple[int, dict | None]:
    try:
        delta = cat.diff_files(args.catalog_a, args.catalog_b)
    except DomainError as exc:  # a file that cannot be read or is not a catalog
        return EXIT_DIFF_TROUBLE, _error_payload(exc)
    _write(cat.diff_pieces(delta) if args.format == "json" else _csv_table(_diff_rows(delta)))
    return (EXIT_DIFFERENT if delta["only_in_a"] or delta["only_in_b"] else EXIT_OK), None


def _diff_rows(delta: dict[str, list[str]]) -> Iterator[tuple[str, str]]:
    """The flattened rows of the ``catalog diff`` payload, decoding one line at a time."""
    a, b = delta["only_in_a"], delta["only_in_b"]
    yield "identical", "false" if a or b else "true"
    for side, lines in (("only_in_a", a), ("only_in_b", b)):
        for i in sorted(range(len(lines)), key=str):  # the order of _flat_rows
            yield from _flat_rows(json.loads(lines[i]), f"{side}.{i}")


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chowkit",
        description="Exact Chern-character calculator and enumeration toolkit "
        "for sheaf invariants on P^2 and P^3.",
    )
    parser.add_argument(
        "--format", choices=("json", "csv"), default=None,
        help="output format on stdout (default json)",
    )
    parser.add_argument(
        "--config", default=None, metavar="FILE",
        help="key=value file presetting grid ranges; flags override it",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="SUBCOMMAND").add_parser

    p = sub("todd", help="Todd class of P^2 or P^3")
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(handler=_cmd_todd)

    p = sub("chern", help="convert between Chern classes and characters")
    p.add_argument("--dim", type=int, required=True)
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--classes", type=_int_list, metavar="R,C1,C2[,C3]")
    given.add_argument("--character", type=_components, metavar="CH0,CH1,...")
    p.set_defaults(handler=_cmd_chern)

    p = sub("euler", help="Riemann-Roch Euler characteristic")
    p.add_argument("--character", type=_components, required=True,
                   metavar="CH0,CH1,...")
    p.set_defaults(handler=_cmd_euler)

    p = sub("restrict", help="restrict a P^3 character to a hyperplane")
    p.add_argument("--character", type=_components, required=True,
                   metavar="CH0,CH1,CH2,CH3")
    p.set_defaults(handler=_cmd_restrict)

    p = sub("bound", help="cohomology / Euler / ch_3 bound report")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--c1", type=int, required=True)
    p.add_argument("--ch2", type=parse_rational, required=True)
    p.add_argument("--b", type=_int_list, default=None, metavar="B1,B2,...",
                   help="splitting type; omitted = worst case")
    p.add_argument("--literal", action="store_true",
                   help="reproduce raw formulas without clamping at 0")
    p.set_defaults(handler=_cmd_bound)

    p = sub("enumerate-c3", help="admissible c_3 interval under the ch_3 bound")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--c1", type=int, required=True)
    p.add_argument("--c2", type=int, required=True)
    p.set_defaults(handler=_cmd_enumerate_c3)

    p = sub("splitting-types", help="enumerate splitting types in the magnitude box")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--c1", type=int, required=True)
    p.add_argument("--reflexive-gap", action=argparse.BooleanOptionalAction,
                   default=True, help="apply the gap <= 2 filter")
    p.set_defaults(handler=_cmd_splitting_types)

    p = sub("resolution", help="two-term resolution shapes for (c2, s)")
    p.add_argument("--c2", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--verify", action="store_true",
                   help="also check the Chern-character identity")
    p.set_defaults(handler=_cmd_resolution)

    p = sub("monad", help="linear monad shape for (rank, degree, ch2)")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--ch2", type=parse_rational, required=True)
    p.set_defaults(handler=_cmd_monad)

    p = sub("partitions", help="partition types of a given total length")
    p.add_argument("--total", type=int, required=True)
    p.set_defaults(handler=_cmd_partitions)

    p = sub("catalog", help="batch generation and comparison of catalogs")
    catalog_sub = p.add_subparsers(dest="catalog_command", required=True,
                                   metavar="KIND")

    for name, kind in cat.CATALOG_KINDS.items():
        c = catalog_sub.add_parser(name, help=kind.help)
        for key, type_, _ in kind.params:
            read, metavar = _READERS[type_]
            c.add_argument("--" + key, type=read, metavar=metavar)
        c.add_argument("--output", metavar="FILE")
        c.set_defaults(handler=_cmd_catalog)

    c = catalog_sub.add_parser("diff", help="compare two catalog files")
    c.add_argument("catalog_a")
    c.add_argument("catalog_b")
    c.set_defaults(handler=_cmd_diff)

    return parser


# the format and every catalog kind's parameters, so one file serves every kind
_CONFIG_KEYS = {"format", *(key for kind in cat.CATALOG_KINDS.values() for key, _, _ in kind.params)}


def _read_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}")
    config = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"malformed config line: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r} in {path!r}")
        config[key] = value
    return config


def _apply_config(args: argparse.Namespace) -> None:
    """Read the config file into ``args.presets``; fill an unset format from it."""
    args.presets = {} if args.config is None else _read_config(args.config)
    if args.format is None:
        fmt = args.presets.get("format", "json")
        if fmt not in ("json", "csv"):
            raise UsageError(f"bad config format {fmt!r}")
        args.format = fmt


def _error_payload(exc: DomainError) -> dict:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already reported to stderr
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE_ERROR
    try:
        _apply_config(args)
        code, payload = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE_ERROR
    except DomainError as exc:
        code, payload = EXIT_DOMAIN_ERROR, _error_payload(exc)
    if payload is not None:
        _write(_payload_pieces(payload, args.format))
    return code


def entry_point() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; the flush at exit must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    raise SystemExit(code)


if __name__ == "__main__":
    entry_point()
