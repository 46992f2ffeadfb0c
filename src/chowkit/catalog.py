"""Catalog entries: canonical serialization and batch generation.

A catalog is a deterministic list of entries, each recording the inputs
and outputs of one library computation.  Serialization is canonical --
keys sorted, rationals in reduced "p/q" string form, fixed separators --
so re-serializing a parsed entry is byte-identical and re-running a
generation with the same parameters yields a byte-identical file.

Value encoding inside the ``inputs``/``outputs`` maps:

* int  <-> JSON number (floats are rejected on parse);
* Fraction <-> JSON string "p/q" (or "p"), reduced;
* bool <-> JSON true/false;
* any other string stays a string, provided it cannot be mistaken for a
  rational (the serializer enforces this).

The codec's unit is one map item, ``(key, value)``, and its caches of items,
over every document a process writes or reads, are built on the one value
encoder :func:`_encode_value`: the writer's :func:`_item_texts` maps an item
to its compact and indented JSON texts, and the readers' caches in
:mod:`chowkit.catalog_read` map a raw JSON item, or an item's line in a
document, to the same texts.  Each keeps at most ``_ITEM_CACHE_SIZE`` items,
so a document whose items never repeat costs its encoding, never memory.

Generation: :data:`CATALOG_KINDS` is the table of the kinds ``chowkit
catalog <kind>`` builds.  Each kind has a row source, from which its
document, its CSV rows and its entries (for library callers) all come, the
last two in generation order (:meth:`CatalogKind.generation_rows`).  A
catalog is a product: its labels, and its runs of rows, one run per value of
its grid, the first input of the entries that varies.  A strata catalog's
labels are its (l, partition type) pairs and its rows the (c2, s) pairs of
each c2; each other kind has one empty label.

Writing streams, through one writer, :func:`_document`: it encodes each
label, run head and row once, sorts one run's rows at a time, and yields the
document in canonical order, the runs in the order of their grid values'
texts (c2 10 before 5), each run as a few pieces: the blocks of at most
``_LABELS_PER_PIECE`` labels by all of the run's rows in one piece.  So its
peak memory follows the labels and the largest run (one piece of it, and
the run's rows), never the document; its entry count is known only at the
end, and an error in a run after the first is raised mid-document.
Inputs items go through the writer's cache; outputs, which seldom repeat,
are encoded afresh.  :func:`serialize_catalog` writes the entries a library
caller builds from their sorted canonical lines, through the line writer of
``catalog diff``: row sources are written by :func:`_document`, and
canonical lines by that one line writer.

Reading and ``catalog diff`` live in :mod:`chowkit.catalog_read`, and each
row source imports its kind's family modules when it runs: a start with no
cached bytecode compiles every module it imports, so a ``catalog <kind>``
write compiles no reader and no other kind's modules.  ``bound_report`` and
the reader's public names are still served here, each imported on first use.
"""

from __future__ import annotations

import importlib
import json
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice
from types import MappingProxyType, ModuleType
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple

from .chow import _RATIONAL_RE, ChernClasses, chern_to_character
from .errors import DomainError, InadmissibleParameterError, Value, check_integer

SCHEMA_VERSION = 1

# map items kept by each item cache, over every document written or read.
# The writer caches inputs items, which the CLI's grids repeat: 472 distinct
# for strata c2 5..20 by l 0..8, 1,702 for 5..8 by 0..10 and 2,040 for
# resolutions 5..2000.  The readers cache every item, the whole-document
# reader by its raw JSON and the block reader by its line's text: 841 on the
# benchmark's diff pair (56,697 of the block reader's 57,538 lookups hit),
# 1,150 in strata 5..40 by 0..8 and 2,828 in monads r8 0..400, each
# repeating, and one per value, few repeating, in bounds 0..1000 (7,009) and
# resolutions 5..2000 (347,611, and 33% of the block reader's lookups hit in
# the diff against 5..1999).  Past this size an item costs its decoding,
# never memory.
_ITEM_CACHE_SIZE = 4096


def _check_version(schema_version: Any, where: str) -> None:
    """Only the int SCHEMA_VERSION is known; True == 1 is not a version."""
    if type(schema_version) is not int or schema_version != SCHEMA_VERSION:
        raise InadmissibleParameterError(
            f"{where} schema_version must be {SCHEMA_VERSION}, got {schema_version!r}"
        )


def _check_tags(kind: Any, schema_version: Any) -> None:
    if not isinstance(kind, str) or kind not in _KIND_TEXT:  # a JSON list is unhashable
        raise InadmissibleParameterError(f"kind must be one of {tuple(_KIND_TEXT)}, got {kind!r}")
    _check_version(schema_version, "entry")


class CatalogEntry(Value):
    """One computed record: a kind tag plus input and output maps.

    The maps are read-only ``types.MappingProxyType`` views.  Any other
    mapping is copied into a new one, so changing the caller's dict later
    changes no entry; a ``MappingProxyType`` is kept as it is, so entries
    built from one share it rather than copy it, which saves memory only (the
    strata generator gives all the entries of one (c2, s) one outputs map).
    """

    __slots__ = ("kind", "inputs", "outputs", "schema_version")

    def __init__(self, kind: str, inputs: Mapping[str, Any], outputs: Mapping[str, Any],
                 schema_version: int = SCHEMA_VERSION) -> None:
        _check_tags(kind, schema_version)
        self._store(kind, _read_only(inputs), _read_only(outputs), schema_version)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CatalogEntry):
            return NotImplemented
        # Fraction(3) == 3 would blur the int/rational distinction; compare
        # the serialized forms so equality matches byte-level identity.
        return serialize_entry(self) == serialize_entry(other)

    def __hash__(self) -> int:
        # a hash of the fields would hash the read-only maps, which have none
        return hash(serialize_entry(self))


def _read_only(mapping: Mapping[str, Any]) -> MappingProxyType:
    if type(mapping) is MappingProxyType:
        return mapping
    return MappingProxyType(dict(mapping))


# ---------------------------------------------------------------------------
# encoding: each item of a map is encoded into the JSON texts of its key and
# its value, which the compact canonical line joins as ``"k":v`` and the
# indented document block as ``"k": v``.  The output is byte-identical to
# ``json.dumps(..., sort_keys=True)`` with ``separators=(",", ":")`` (one
# entry) or ``indent=2`` (the document).

_json_str = json.encoder.encode_basestring_ascii


def _encode_value(value: Any) -> str:
    """JSON text of one ``inputs``/``outputs`` value."""
    if type(value) is int:
        return int.__repr__(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):  # before Fraction, whose isinstance check is an ABC's
        if _RATIONAL_RE.match(value.strip()):
            raise DomainError(
                f"string value {value!r} would be parsed back as a rational"
            )
        return _json_str(value)
    if isinstance(value, Fraction):  # rational_str's text, read off the reduced Fraction
        if value.denominator == 1:
            return f'"{value.numerator}"'
        return f'"{value.numerator}/{value.denominator}"'
    raise DomainError(f"unsupported catalog value {value!r}")


@lru_cache(maxsize=_ITEM_CACHE_SIZE, typed=True)
def _item_texts(key: Any, value: Any) -> tuple[str, str]:
    """The compact text ``"k":v`` and the indented text ``"k": v`` of one map item."""
    key, value = _json_str(key), _encode_value(value)
    return f"{key}:{value}", f"{key}: {value}"


def _encode_map(mapping: Mapping[str, Any],
                item_texts: Callable[[Any, Any], tuple[str, str]] = _item_texts) -> list:
    """``item_texts(key, value)`` of each item of one map, sorted by key.

    A map the cache cannot take (a value that cannot be hashed) is encoded
    again without it, so every error is the encoder's, in the map's order.
    """
    try:
        try:
            return [item_texts(k, v) for k, v in sorted(mapping.items())]
        except TypeError:  # an unhashable value, or a key that is not a string
            return [_item_texts.__wrapped__(k, v) for k, v in sorted(mapping.items())]
    except TypeError as exc:  # a key that is not a string
        raise DomainError(f"catalog keys must be strings: {exc}") from exc


def _compact_map(items: Iterable[str]) -> str:
    """A map's compact text, from its items' compact texts."""
    return "{" + ",".join(items) + "}"


def _compact_line(inputs: str, kind: str, outputs: str, version: str) -> str:
    """One entry's canonical line, from its fields' compact JSON texts."""
    return f'{{"inputs":{inputs},"kind":{kind},"outputs":{outputs},"schema_version":{version}}}'


# The layout of an entry block, two levels deep in the document: the text
# before each field's value, the text that ends the block, and the text of a
# map around and between its items, one per line.  The writer joins these
# and the reader cuts at them, so the two share one layout.
_BLOCK_HEAD = '    {\n      "inputs": '
_KIND_FIELD = ',\n      "kind": '
_OUTPUTS_FIELD = ',\n      "outputs": '
_VERSION_FIELD = ',\n      "schema_version": '
_BLOCK_END = "\n    }"
_MAP_HEAD = "{\n        "
_ITEM_SEPARATOR = ",\n        "
_MAP_TAIL = "\n      }"


def _indented_map(items: Iterable[str]) -> str:
    """A map's text in the document, from its items' indented texts."""
    text = _ITEM_SEPARATOR.join(items)
    return _MAP_HEAD + text + _MAP_TAIL if text else "{}"


def _indented_block(inputs: str, kind: str, outputs: str, version: str) -> str:
    """One entry as it appears, two levels deep, in the catalog document."""
    return (_BLOCK_HEAD + inputs + _KIND_FIELD + kind + _OUTPUTS_FIELD + outputs
            + _VERSION_FIELD + version + _BLOCK_END)


# the document's text around its list of entry blocks
_DOCUMENT_HEAD = '{\n  "entries": '
_VERSION = int.__repr__(SCHEMA_VERSION)
_DOCUMENT_TAIL = ',\n  "schema_version": ' + _VERSION + "\n}\n"


_BLOCK_SEPARATOR = ",\n"  # between two entry blocks in a list


def _block_list(blocks: Iterable[str]) -> Iterator[str]:
    """A JSON list of entry blocks, one level deep in a document, in pieces:
    ``[]`` when empty, else ``[``, the blocks one per line and separated by
    commas, and ``]`` on a line of its own.  Each item of ``blocks`` is one
    block, or several already joined by ``_BLOCK_SEPARATOR``."""
    separator = "[\n"
    for block in blocks:
        yield separator + block
        separator = _BLOCK_SEPARATOR
    yield "[]" if separator == "[\n" else "\n  ]"


class _Document:
    """A catalog document: its ``pieces``, to be taken once, and ``count``,
    the entries in the pieces taken so far, which is the document's entry
    count once they are exhausted."""

    __slots__ = ("count", "pieces")

    def __init__(self) -> None:
        self.count, self.pieces = 0, None


def _outputs_text(items: Iterable[tuple[str, Any]]) -> str:
    """The indented text of an outputs map, from its items in the order of
    their keys.  Outputs seldom repeat, so their items bypass the cache."""
    return _indented_map([f"{_json_str(k)}: {_encode_value(v)}" for k, v in items])


def _leading_texts(items: Iterable[tuple[str, Any]]) -> tuple[str, str]:
    """The compact and indented texts of inputs items that more items follow,
    each item's text ended by its separator."""
    texts = [_item_texts(k, v) for k, v in items]
    return "".join(c + "," for c, _ in texts), "".join(i + _ITEM_SEPARATOR for _, i in texts)


def _increasing(texts: list) -> bool:
    """Whether the first items of ``texts`` strictly increase."""
    return all(a[0] < b[0] for a, b in zip(texts, texts[1:]))


_OUT_OF_ORDER = "catalog entries out of order: a key repeats or a run is out of place"

# the labels whose blocks the writer joins into one piece with all of one
# run's rows: strata c2 5..20 by l 0..8 (at most 3 rows a run) then has 115
# pieces of at most 67 KB, not 15,984 blocks.  On that grid, 32 and 128
# labels a piece wrote more slowly, and larger pieces slower still.
_LABELS_PER_PIECE = 64


def _document(entry_kind: str, labels: list, runs: Iterable[tuple]) -> _Document:
    """The catalog document of a row source's ``labels`` and ``runs``.

    Each run is (head items, rows), each row (rest items, outputs items);
    an entry's sorted inputs are a run's head, a label and a row's rest, and
    each of the four is encoded once.  Each head and label item ends in a
    comma and a row's rest, never empty, in the map's closing brace, so the
    canonical order is the runs in the order given, then the labels and
    within a label the rows, each in the order of their text (``"s":10}``
    before ``"s":1}``).  The labels, the heads and each run's rows, sorted a
    run at a time, must strictly increase, else this raises DomainError: for
    the labels and the first run before this returns, for a later run when
    the pieces reach it, after the blocks of the runs before.  Each piece
    holds the blocks of up to ``_LABELS_PER_PIECE`` labels by every row of
    one run, and a run with no rows adds no piece.  So memory holds the
    labels, one run's rows and one piece, whose size the cap and the run's
    rows bound, however many labels there are.
    """
    label_texts = sorted(_leading_texts(label) for label in labels)
    if not _increasing(label_texts):
        raise DomainError(_OUT_OF_ORDER)
    fields = _MAP_TAIL + _KIND_FIELD + _json_str(entry_kind) + _OUTPUTS_FIELD
    end = _VERSION_FIELD + _VERSION + _BLOCK_END
    runs, document, last = iter(runs), _Document(), None

    def run_texts(run: tuple) -> tuple[str, list]:
        """A run's head text and its rows' (compact rest text, block text
        after the label) pairs, sorted."""
        nonlocal last
        head, rows = run
        compact, indented = _leading_texts(head)
        tails = []
        for rest, outputs in rows:
            rest_compact, rest_indented = zip(*[_item_texts(k, v) for k, v in rest])
            tails.append((",".join(rest_compact) + "}", _ITEM_SEPARATOR.join(rest_indented)
                          + fields + _outputs_text(outputs) + end))
        tails.sort()
        if not ((last is None or last < compact) and _increasing(tails)):
            raise DomainError(_OUT_OF_ORDER)
        last = compact
        document.count += len(label_texts) * len(tails)
        return _BLOCK_HEAD + _MAP_HEAD + indented, tails

    def blocks(first: list) -> Iterator[str]:
        """Each run's blocks, ``_LABELS_PER_PIECE`` labels a piece; a label's
        blocks are its prefix (head and label) before each of the tails."""
        for head, tails in chain(first, map(run_texts, runs)):
            if not tails:
                continue
            tails, between = [tail for _, tail in tails], _BLOCK_SEPARATOR + head
            for start in range(0, len(label_texts), _LABELS_PER_PIECE):
                yield _BLOCK_SEPARATOR.join([
                    head + label + (between + label).join(tails)
                    for _, label in label_texts[start:start + _LABELS_PER_PIECE]])

    first = [run_texts(run) for run in islice(runs, 1)]
    document.pieces = chain([_DOCUMENT_HEAD], _block_list(blocks(first)), [_DOCUMENT_TAIL])
    return document


def serialize_entry(entry: CatalogEntry) -> str:
    """Canonical single-line JSON for one entry.

    The inputs items go through the writer's item cache, and the outputs,
    which seldom repeat, are encoded afresh.
    """
    inputs = _encode_map(entry.inputs)
    outputs = _encode_map(entry.outputs, _item_texts.__wrapped__)
    return _compact_line(_compact_map([compact for compact, _ in inputs]), _json_str(entry.kind),
                         _compact_map([compact for compact, _ in outputs]),
                         int.__repr__(entry.schema_version))


def serialize_catalog(entries: Iterable[CatalogEntry]) -> str:
    """Canonical catalog document: entries sorted by their canonical line.

    The layout is ``json.dumps(doc, sort_keys=True, indent=2)`` plus a
    trailing newline, where ``doc`` holds the entries and the schema version.
    Every line (:func:`serialize_entry`) is made before any block; each then
    becomes its block through the line writer of ``catalog diff`` and is
    dropped as it does, so the lines and the blocks are never all held.
    """
    from .catalog_read import _line_blocks
    lines = sorted(map(serialize_entry, entries), reverse=True)  # popped in order
    blocks = _line_blocks(lines.pop() for _ in range(len(lines)))
    return "".join(chain([_DOCUMENT_HEAD], _block_list(blocks), [_DOCUMENT_TAIL]))


def bounds_catalog(r: int, c1: int, c2_range: range) -> list[CatalogEntry]:
    """The entries of ``CATALOG_KINDS["bounds"].generate``, as a list.

    The other kinds have no such list; this one stays because
    ``perfbench/test_smoke.py`` traces a call of it.
    """
    return list(CATALOG_KINDS["bounds"].generate(r, c1, c2_range))


# The row sources of the kinds.  Each takes the kind's parameters and returns
# (labels, runs) for :func:`_document`, the runs a generator of one run per
# value of the grid, in the order given, and each map's items in the order of
# their keys.  A source reads its modules' functions as attributes at each
# call, so a function replaced on the module (a tracer's wrapper) is called.


def _bounds_source(r: int, c1: int, c2_values: Iterable[int]) -> tuple[list, list]:
    """One "bound" entry per c2: the ch_3 bound and the admissible c3 interval."""
    check_integer("rank", r)
    check_integer("c_1", c1)  # before its first use, in ch_2
    from . import bounds

    def rows(c2: int) -> Iterator[tuple]:
        check_integer("c_2", c2)
        ch2 = bounds._ch2_of_classes(c1, c2)
        report = bounds.bound_report(r, c1, ch2)
        # the interval of enumerate_admissible_c3, from the same ch_3 bound
        c3_min, c3_max = bounds._c3_interval(c1, c2, report.ch3_bound)
        yield ((("rank", r),),
               (("c3_max", c3_max), ("c3_min", c3_min), ("ch2", ch2),
                ("ch3_bound", report.ch3_bound), ("euler_bound", report.euler_bound),
                ("q", report.q)))

    return [()], (((("c1", c1), ("c2", c2)), rows(c2)) for c2 in c2_values)


def _resolutions_source(c2_values: Iterable[int]) -> tuple[list, list]:
    """One "resolution" entry per admissible (c2, s)."""
    from . import resolutions

    def rows(c2: int) -> Iterator[tuple]:
        for s in resolutions.admissible_s(c2):
            report = resolutions.presentation_report(c2, s)
            yield ((("s", s),), (
                ("c3", report.c3),
                ("chern_consistent", resolutions.verify_resolution_chern(report)),
                ("dim_g", report.dim_g), ("dim_hom", report.dim_hom), ("dim_pv", report.dim_pv),
                ("r0", resolutions.format_term(report.r0)),
                ("r_minus1", resolutions.format_term(report.r_minus1))))

    return [()], (((("c2", c2),), rows(c2)) for c2 in c2_values)


def _monad_outputs(monads: ModuleType, r: int, d: int, c: int) -> tuple:
    """The outputs items of the "monad" entry of (r, d) and charge c."""
    ch2 = Fraction(-2 * c - d, 2)
    shape = monads.monad_shape(r, d, ch2)
    return ("ch2", ch2), ("u", shape.u), ("v", shape.v), ("w", shape.w)


def _monads_source(r_max: int, charges: Iterable[int]) -> tuple[list, list]:
    """One "monad" entry per normalized (r, d) and integer charge c, d + c >= 0."""
    check_integer("rank-max", r_max)
    from . import monads

    def rows(c: int) -> Iterator[tuple]:
        check_integer("charge", c)
        for r in range(1, r_max + 1):  # a negative c leaves every range of d empty
            for d in range(max(1 - r, -c), 1):
                yield (("degree", d), ("rank", r)), _monad_outputs(monads, r, d, c)

    return [()], (((("charge", c),), rows(c)) for c in charges)


def _monads_by_shape(r_max: int, charges: Iterable[int]) -> tuple[list, list]:
    """The rows of :func:`_monads_source` in the order of (r, d, charge):
    one run per (r, d), whose head is empty.  Every run reads ``charges``,
    so they are read into a tuple first."""
    check_integer("rank-max", r_max)
    from . import monads
    charges = tuple(charges)
    for c in charges:
        check_integer("charge", c)

    def rows(r: int, d: int) -> Iterator[tuple]:
        for c in charges:
            if c >= 0 and d + c >= 0:
                yield (("charge", c), ("degree", d), ("rank", r)), _monad_outputs(monads, r, d, c)

    return [()], (((), rows(r, d)) for r in range(1, r_max + 1) for d in range(1 - r, 1))


def _strata_source(c2_values: Iterable[int], l_values: Iterable[int]) -> tuple[list, list]:
    """One "stratum" entry per (c2, s, c3, partition type of length l).

    A strata catalog is a product: its labels are the length-l partition
    types of the zero-dimensional quotient, and each run's rows are the
    admissible P^3 Chern data (c2, s), with ch_3 of the reflexive part and
    the ambient presentation dimensions.  ``partition_types`` rejects l < 0.
    """
    from . import monads, resolutions
    labels = [(("l", l), ("partition", str(ptype)))
              for l in l_values for ptype in monads.partition_types(l)]

    def rows(c2: int) -> Iterator[tuple]:
        for s in resolutions.admissible_s(c2):
            report = resolutions.presentation_report(c2, s)
            character = chern_to_character(ChernClasses(2, -1, c2, report.c3), 3)
            yield ((("s", s),),
                   (("c3", report.c3), ("ch2", character.ch2), ("ch3", character.ch3),
                    ("dim_g", report.dim_g), ("dim_hom", report.dim_hom),
                    ("dim_pv", report.dim_pv)))

    return labels, (((("c2", c2),), rows(c2)) for c2 in c2_values)


class CatalogKind(NamedTuple):
    """One ``catalog <kind>``.  ``entry_kind`` is the ``kind`` tag of its
    entries.  ``params`` are the arguments of its row sources and methods in
    order, each (name, type, default): the flag and config key, ``int`` or
    ``range`` (an "a..b" grid), and the default, None when the value must be
    given; the first ``range`` is the grid that leads the runs.  The document
    comes from the row source ``source`` (:func:`_document`), the CSV rows and
    the entries from :meth:`generation_rows`: ``ordered``, a row source of the
    same shape in another order, when the kind has one, else ``source``."""

    entry_kind: str
    help: str
    params: tuple[tuple[str, type, Any], ...]
    source: Callable[..., tuple[list, list]]
    ordered: Callable[..., tuple[list, list]] | None = None

    def generation_rows(self, *values: Any) -> tuple[list, list]:
        """The (labels, runs) of the catalog in generation order."""
        return (self.ordered or self.source)(*values)

    def generate(self, *values: Any) -> Iterator[CatalogEntry]:
        """The entries of :meth:`generation_rows`, in its runs' order, each
        row's entries label by label, sharing one read-only outputs map: the
        one way to a catalog's entries for library callers."""
        labels, runs = self.generation_rows(*values)
        for head, rows in runs:
            for rest, outputs in rows:
                outputs = MappingProxyType(dict(outputs))
                for label in labels:
                    yield CatalogEntry(self.entry_kind, dict(head + label + rest), outputs)

    def document(self, *values: Any) -> _Document:
        """The streaming writer of the kind's catalog: the document that
        ``serialize_catalog(generate(...))`` returns, in pieces, with the
        runs in the order of the grid's values' texts (c2 10 before 5, -1
        before -10; each value is an int), whose ``count`` is complete once
        its pieces are exhausted."""
        values = list(values)
        lead = [type_ for _, type_, _ in self.params].index(range)
        grid = values[lead] = sorted(values[lead], key=str)
        if any(str(a) == str(b) for a, b in zip(grid, grid[1:])):
            raise DomainError(_OUT_OF_ORDER)  # a repeated value, before any run is made
        return _document(self.entry_kind, *self.source(*values))


# keyed by subcommand name, in the order ``catalog --help`` lists them
_C2_GRID = ("c2", range, None)
CATALOG_KINDS = {
    "strata": CatalogKind("stratum", "stratum labels over a (c2, l) grid",
                          (_C2_GRID, ("l", range, None)), _strata_source),
    "bounds": CatalogKind("bound", "ch_3 bounds and c3 intervals over a c2 grid",
                          (("rank", int, 2), ("c1", int, -1), _C2_GRID), _bounds_source),
    "resolutions": CatalogKind("resolution", "resolution shapes over a c2 grid", (_C2_GRID,),
                               _resolutions_source),
    "monads": CatalogKind("monad", "monad shapes over normalized data",
                          (("rank-max", int, None), ("charge", range, None)), _monads_source,
                          _monads_by_shape),
}

# the entry kinds, each with its JSON text
_KIND_TEXT = {k.entry_kind: _json_str(k.entry_kind) for k in CATALOG_KINDS.values()}


# public names that outside code reads from this module, under the module
# that defines them; each is imported on first use (PEP 562)
_MOVED = {
    "bound_report": "bounds",
    **dict.fromkeys(("canonical_lines", "diff_files", "diff_pieces", "diff_sorted",
                     "parse_catalog", "stream_canonical_lines"), "catalog_read"),
}


def __getattr__(name: str) -> Any:
    """Import a moved public name's module on first use and keep the name here."""
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__package__}.{_MOVED[name]}"), name)
    globals()[name] = value
    return value
