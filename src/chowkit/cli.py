"""Command line front end for the chowkit library.

Results go to standard output as JSON (default) or RFC-4180-style CSV
(``--format csv``).  Nothing is logged; only usage errors go to standard
error.  Exit codes: 0 on success, 2 on usage errors (unknown subcommand,
malformed numbers, missing flags), 1 on domain errors, which are reported
as a machine-readable ``{"error": {...}}`` object.  ``catalog diff`` follows
classic diff: 0 when the catalogs are identical, 1 when they differ, and 2
when a catalog file cannot be read or is not a catalog document, including
one whose document or entry ``schema_version`` is unknown (reported as the
same ``{"error": {...}}`` object, naming the file).  ``catalog_read.diff_files``
decides how the two files are read, and reads them; this module reads no
catalog.  Every output, error objects too, leaves through one writer,
``_write``, in chunks of ``io.DEFAULT_BUFFER_SIZE``; when the reader closes
standard output early (``chowkit ... | head -1``), the ``chowkit`` command
exits 141, as a writer killed by SIGPIPE would, with nothing on standard
error.

All rationals are printed as reduced "p/q" strings; no floating point is
ever emitted, so byte-identical output for identical invocations is
guaranteed.

A start imports and builds only what its subcommand needs.  This module
imports the standard library, ``chow`` and ``errors``; each handler imports
the family module it calls, and argparse adds a subcommand's arguments only
once it has chosen that subcommand (``_Subcommands``).  So ``chowkit todd``
loads ``cli``, ``chow`` and ``errors``, and ``chowkit bound`` adds ``bounds``
and ``splitting``.  A ``catalog`` command adds ``catalog`` and the modules
of its kind: ``catalog strata`` and ``catalog monads`` add ``monads`` and
``resolutions``, ``catalog resolutions`` adds ``resolutions``, ``catalog
bounds`` adds ``bounds`` and ``splitting``, and ``catalog diff`` adds only
the reader, ``catalog_read``.  Only CSV output imports ``csv``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import cache, partial
from types import MappingProxyType, SimpleNamespace

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


class _Subcommands(argparse._SubParsersAction):
    """Subparsers that get their arguments once argparse chooses them.

    ``add_parser(name, build=f)`` registers the name and its help at once;
    ``f(subparser)`` adds the subparser's arguments the first time ``name``
    is chosen, just before the subparser reads the rest of the command line.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._builds = {}

    def add_parser(self, name, *, build, **kwargs):
        self._builds[name] = build
        return super().add_parser(name, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        build = self._builds.pop(values[0], None)
        if build is not None:
            build(self._name_parser_map[values[0]])
        super().__call__(parser, namespace, values, option_string)


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads ``_NEGATIVE_VALUE`` tokens as values,
    and whose subparsers are ``_Subcommands``.

    ``add_subparsers`` makes its subparsers of the parser's own class.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE
        self.register("action", "parsers", _Subcommands)


# ---------------------------------------------------------------------------
# argument conversion


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


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


@cache
def _csv_line_writer():
    """A function from a row to its CSV line, made once per process, and only
    when CSV output is asked for: a writer keeps a 128 KiB record buffer."""
    import csv

    # writerow returns what its file's write returns: here, the CSV line itself
    return csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow


def _csv_table(rows: Iterable[tuple[str, str]]) -> Iterator[str]:
    """The CSV lines of a flattened payload: a key,value header, then ``rows``."""
    csv_line = _csv_line_writer()
    yield csv_line(("key", "value"))
    yield from map(csv_line, rows)


_JSON = json.JSONEncoder(sort_keys=True, indent=2, default=_rational_default)


def _payload_pieces(payload: dict, fmt: str) -> Iterator[str]:
    """The text of ``payload`` in pieces: indented JSON, or its flattened CSV rows."""
    if fmt == "csv":
        yield from _csv_table(_flat_rows(payload))
    else:
        yield from _JSON.iterencode(payload)
        yield "\n"


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (exit_code, payload or None) and
# imports the family module it calls


def _cmd_todd(args) -> tuple[int, dict]:
    cls = todd(args.dim)
    return EXIT_OK, {"dim": args.dim, "components": list(cls.components)}


def _cmd_chern(args) -> tuple[int, dict]:
    if args.classes is not None:
        if len(args.classes) not in (3, 4):
            raise UsageError("--classes needs rank,c1,c2 on P^2 or rank,c1,c2,c3 on P^3")
        classes = ChernClasses(*args.classes)
        character = chern_to_character(classes, args.dim)
    else:
        character = _character(args.character)
        if character.ambient_dim != args.dim:
            raise UsageError(f"--character has {character.ambient_dim + 1} components "
                             f"but --dim is {args.dim}")
        classes = character_to_chern(character)
    named = {"rank": classes.rank, "c1": classes.c1, "c2": classes.c2, "c3": classes.c3}
    return EXIT_OK, {
        "dim": args.dim,
        "classes": {k: v for k, v in named.items() if v is not None},
        "character": list(character.components),
    }


def _cmd_euler(args) -> tuple[int, dict]:
    character = _character(args.character)
    return EXIT_OK, {"dim": character.ambient_dim, "character": list(character.components),
                     "euler": euler_characteristic(character)}


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
    from .bounds import bound_report
    from .splitting import SplittingType

    b = None if args.b is None else SplittingType(args.b)
    report = bound_report(args.rank, args.c1, args.ch2, b=b, literal_mode=args.literal)
    payload = report._asdict()
    if report.splitting_type is not None:
        payload["splitting_type"] = list(report.splitting_type.entries)
    return EXIT_OK, payload


def _cmd_enumerate_c3(args) -> tuple[int, dict]:
    from .bounds import _c3_interval, _ch2_of_classes, ch3_bound

    ch2 = _ch2_of_classes(args.c1, args.c2)
    bound = ch3_bound(args.rank, args.c1, ch2)
    c3_min, c3_max = _c3_interval(args.c1, args.c2, bound)
    return EXIT_OK, {"rank": args.rank, "c1": args.c1, "c2": args.c2, "ch2": ch2,
                     "ch3_bound": bound, "c3_min": c3_min, "c3_max": c3_max,
                     "count": c3_max - c3_min + 1}


def _cmd_splitting_types(args) -> tuple[int, dict]:
    from .splitting import enumerate_splitting_types, splitting_radius

    types = enumerate_splitting_types(args.rank, args.c1, args.reflexive_gap)
    return EXIT_OK, {"rank": args.rank, "c1": args.c1, "reflexive_gap": args.reflexive_gap,
                     "radius": splitting_radius(args.rank, args.c1), "count": len(types),
                     "types": [list(t.entries) for t in types]}


def _cmd_resolution(args) -> tuple[int, dict]:
    from .resolutions import format_term, presentation_report, verify_resolution_chern

    report = presentation_report(args.c2, args.s)
    display = f"0 -> {format_term(report.r_minus1)} -> {format_term(report.r0)} -> F -> 0"
    payload = {**report._asdict(), "display": display}
    if args.verify:
        payload["chern_consistent"] = verify_resolution_chern(report)
    return EXIT_OK, payload


def _cmd_monad(args) -> tuple[int, dict]:
    from .monads import monad_shape

    shape = monad_shape(args.rank, args.degree, args.ch2)
    return EXIT_OK, {"rank": args.rank, "degree": args.degree, "ch2": args.ch2,
                     "charge": shape.u, "left": shape.left, "middle": shape.middle,
                     "right": shape.right, "exponents": {"v": shape.v, "w": shape.w, "u": shape.u},
                     "display": str(shape)}


def _cmd_partitions(args) -> tuple[int, dict]:
    from .monads import partition_types

    types = partition_types(args.total)
    return EXIT_OK, {"total": args.total, "count": len(types), "types": list(map(str, types))}


# each catalog parameter type: how a flag or config value is read, and its metavar
_READERS = {int: (int, None), range: (_int_range, "A..B")}


def _cmd_catalog(args) -> tuple[int, dict | None]:
    """The catalog of kind ``args.catalog_command``, on stdout or to ``--output``."""
    from .catalog import CATALOG_KINDS

    kind = CATALOG_KINDS[args.catalog_command]
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
    # CSV rows come from the kind's generator, the one way to a catalog's
    # entries.  JSON comes from the kind's document writer: for strata the
    # product of its factors, whose peak follows the factors, and for the
    # families their runs, sorted one leading value at a time.  The writer
    # computes and checks the first run (for strata, everything) before any
    # output is opened, so a run that fails there leaves an existing file
    # untouched and creates none.  An error in a later run leaves the blocks
    # of the runs before it written.  The count is known once it is written.
    if args.output is None and args.format == "csv":
        _write(_csv_lines(kind.generate(*values)))
        return EXIT_OK, None
    document = kind.document(*values)
    if args.output is None:
        _write(document.pieces)
        return EXIT_OK, None
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.writelines(document.pieces)
    except OSError as exc:
        raise DomainError(f"cannot write catalog to {args.output!r}: {exc}")
    return EXIT_OK, {"path": args.output, "entries": document.count}


def _csv_lines(entries: Iterable) -> Iterator[str]:
    """The CSV lines of catalog entries in generation order.  A row is an entry's flattened
    fields; all entries of one catalog have the same, so the first gives the header."""
    csv_line, header = _csv_line_writer(), None
    for entry in entries:
        columns, row = zip(*_flat_rows({"kind": entry.kind, "inputs": entry.inputs,
                                        "outputs": entry.outputs,
                                        "schema_version": entry.schema_version}))
        if header is None:
            header = columns
            yield csv_line(columns)
        yield csv_line(row)
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
    from .catalog_read import diff_files, diff_pieces

    try:
        delta = diff_files(args.catalog_a, args.catalog_b)
    except DomainError as exc:  # a file that cannot be read or is not a catalog
        return EXIT_DIFF_TROUBLE, _error_payload(exc)
    _write(diff_pieces(delta) if args.format == "json" else _csv_table(_diff_rows(delta)))
    return (EXIT_DIFFERENT if delta["only_in_a"] or delta["only_in_b"] else EXIT_OK), None


def _diff_rows(delta: dict[str, list[str]]) -> Iterator[tuple[str, str]]:
    """The flattened rows of the ``catalog diff`` payload, decoding one line at a time."""
    a, b = delta["only_in_a"], delta["only_in_b"]
    yield "identical", "false" if a or b else "true"
    for side, lines in (("only_in_a", a), ("only_in_b", b)):
        for i in sorted(range(len(lines)), key=str):  # the order of _flat_rows
            yield from _flat_rows(json.loads(lines[i]), f"{side}.{i}")


# ---------------------------------------------------------------------------
# parser assembly; an argument builder adds a subcommand's arguments to ``p``


def _required(p, **types) -> None:
    """A required ``--name`` option of each given type, in order."""
    for name, type_ in types.items():
        p.add_argument("--" + name, type=type_, required=True)


def _chern_args(p) -> None:
    _required(p, dim=int)
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--classes", type=_int_list, metavar="R,C1,C2[,C3]")
    given.add_argument("--character", type=_components, metavar="CH0,CH1,...")


def _character_args(metavar: str):
    return lambda p: p.add_argument("--character", type=_components, required=True,
                                    metavar=metavar)


def _bound_args(p) -> None:
    _required(p, rank=int, c1=int, ch2=parse_rational)
    p.add_argument("--b", type=_int_list, default=None, metavar="B1,B2,...",
                   help="splitting type; omitted = worst case")
    p.add_argument("--literal", action="store_true",
                   help="reproduce raw formulas without clamping at 0")


def _splitting_types_args(p) -> None:
    _required(p, rank=int, c1=int)
    p.add_argument("--reflexive-gap", action=argparse.BooleanOptionalAction,
                   default=True, help="apply the gap <= 2 filter")


def _resolution_args(p) -> None:
    _required(p, c2=int, s=int)
    p.add_argument("--verify", action="store_true",
                   help="also check the Chern-character identity")


def _catalog_args(p) -> None:
    """The ``KIND`` level: each catalog kind with its parameters, and ``diff``."""
    from .catalog import CATALOG_KINDS

    kinds = {name: (kind.help, partial(_kind_args, params=kind.params), _cmd_catalog)
             for name, kind in CATALOG_KINDS.items()}
    kinds["diff"] = ("compare two catalog files", _diff_args, _cmd_diff)
    _add_subcommands(p, "catalog_command", "KIND", kinds)


def _kind_args(p, params) -> None:
    for key, type_, _ in params:
        read, metavar = _READERS[type_]
        p.add_argument("--" + key, type=read, metavar=metavar)
    p.add_argument("--output", metavar="FILE")


def _diff_args(p) -> None:
    p.add_argument("catalog_a")
    p.add_argument("catalog_b")


# each subcommand: its help, its argument builder, and its handler (a catalog
# command's handler is set on the KIND level)
_SUBCOMMANDS = {
    "todd": ("Todd class of P^2 or P^3", lambda p: _required(p, dim=int), _cmd_todd),
    "chern": ("convert between Chern classes and characters", _chern_args, _cmd_chern),
    "euler": ("Riemann-Roch Euler characteristic", _character_args("CH0,CH1,..."), _cmd_euler),
    "restrict": ("restrict a P^3 character to a hyperplane",
                 _character_args("CH0,CH1,CH2,CH3"), _cmd_restrict),
    "bound": ("cohomology / Euler / ch_3 bound report", _bound_args, _cmd_bound),
    "enumerate-c3": ("admissible c_3 interval under the ch_3 bound",
                     lambda p: _required(p, rank=int, c1=int, c2=int), _cmd_enumerate_c3),
    "splitting-types": ("enumerate splitting types in the magnitude box",
                        _splitting_types_args, _cmd_splitting_types),
    "resolution": ("two-term resolution shapes for (c2, s)", _resolution_args, _cmd_resolution),
    "monad": ("linear monad shape for (rank, degree, ch2)",
              lambda p: _required(p, rank=int, degree=int, ch2=parse_rational), _cmd_monad),
    "partitions": ("partition types of a given total length",
                   lambda p: _required(p, total=int), _cmd_partitions),
    "catalog": ("batch generation and comparison of catalogs", _catalog_args, None),
}


def _add_subcommands(parser: argparse.ArgumentParser, dest: str, metavar: str,
                     table: dict) -> None:
    """A required subcommand level: each name in ``table`` with its help and
    handler, and the function that adds its arguments once it is chosen."""
    sub = parser.add_subparsers(dest=dest, required=True, metavar=metavar)
    for name, (help_text, build, handler) in table.items():
        sub.add_parser(name, help=help_text, build=build).set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chowkit", description="Exact Chern-character calculator and "
                     "enumeration toolkit for sheaf invariants on P^2 and P^3.")
    parser.add_argument("--format", choices=("json", "csv"), default=None,
                        help="output format on stdout (default json)")
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="key=value file presetting grid ranges; flags override it")
    _add_subcommands(parser, "command", "SUBCOMMAND", _SUBCOMMANDS)
    return parser


def _read_config(path: str) -> dict[str, str]:
    from .catalog import CATALOG_KINDS

    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}")
    # the format and every catalog kind's parameters, so one file serves every kind
    keys = {"format", *(key for kind in CATALOG_KINDS.values() for key, _, _ in kind.params)}
    config = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"malformed config line: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
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
