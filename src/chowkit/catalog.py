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
to its compact and indented JSON texts, the reader's :func:`_decoded_item`
maps a raw JSON item to its key, its value and the same two texts, and the
block reader's :func:`_item_line` maps an item's line in a document to its
key and compact text.  Each keeps at most ``_ITEM_CACHE_SIZE`` items, so a
document whose items never repeat costs its encoding, never memory.

Writing streams: the run writer encodes each entry once into a sort row,
sorts the rows of one run at a time and yields the document piece by piece
in canonical order, so its peak memory is one run's rows, never a copy of
the whole document.  Inputs items go through the writer's cache; outputs
maps, which seldom repeat, are encoded afresh.  :func:`document_pieces` is
that writer over one run of any entries, so its peak is the sort rows
(about the size of the document); :func:`serialize_catalog` joins the same
pieces into one string.

Generation: :data:`CATALOG_KINDS` is the table of the kinds ``chowkit
catalog <kind>`` builds, each with the kind tag of its entries, the
generator that yields them (the one way to a catalog's entries, for CSV
and library callers) and the writer of its document.  A strata catalog is
the product of two factors, its labels and its (c2, s) pairs, and its
document writer writes it as that product: each factor is encoded once and
the document expanded one c2 run at a time, so its peak memory follows the
factors, not the document.  Each other kind has a row source that yields
the (inputs, outputs) items of its entries in runs, one per value of its
grid, the first input of the entries that varies.  Its document is the run
writer's, over the runs in the order of those values' texts (c2 10 before
5), so its peak follows the largest run; its entry count is known only at
the end, and an error in a run after the first is raised mid-document.

Reading a whole document parses it as JSON and decodes each raw map item
through the reader's cache.  :func:`parse_catalog` builds entries from the
values; :func:`canonical_lines` joins the texts into each entry's canonical
line without building the entry.  A file in the layout chowkit writes can
also be read a chunk at a time: :func:`stream_canonical_lines` cuts each
chunk into entry blocks and reads each block alone, keeping the lines of the
last ``_BLOCK_CACHE_SIZE`` blocks read.  A block that is the writer's own
text for its entry is read as text, cut where the writer joins its fields
and items (the layout constants both share), each item line through the
block reader's item cache; every other block is parsed as JSON and decoded
like a whole document, with the same checks and errors.  A diff reads its
two files in step, so a block found in both is read once.
:func:`diff_files` picks the reader for ``catalog diff``: two regular files
in that layout are streamed, and any other input (hand-edited, entries out
of order, a pipe) is read whole with :func:`canonical_lines` and its
distinct lines sorted.  Either way one merge, :func:`diff_sorted`, keeps
only the differing lines, so a diff of two streamed files holds the
difference, not the two files, for every catalog kind (resolutions over c2
5..2000 against 5..1999, 115,190 strings that never repeat: about 18 MB).
The differing lines are written with the same encoder (:func:`diff_pieces`).
The document and the diff payload write their lists of entry blocks
through one list writer, so they share one layout.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import chain, groupby
from operator import itemgetter
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, TextIO

from .bounds import _c3_interval, _ch2_of_classes, bound_report
from .chow import _RATIONAL_RE, ChernClasses, chern_to_character, parse_rational, rational_str
from .errors import DomainError, InadmissibleParameterError, Value, check_integer
from .monads import monad_shape, partition_types
from .resolutions import admissible_s, format_term, presentation_report, verify_resolution_chern

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

# entry blocks whose canonical lines are kept, over every file read.  A diff
# reads its two files in step, so a block of one file is looked up right after
# the other file's copy was read, or after a run of the entries that only one
# file holds.  From 2 blocks up, every shared entry hits but the first after
# each such run longer than the memo: 13,529 of the 13,530 of the benchmark's
# diff pair, all 15,983 of the large strata diff (strata 5..20 against 5..40,
# l 0..8) and all 55,056 of the larger grid against itself.
_BLOCK_CACHE_SIZE = 16


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
    built from one share it rather than copy it (the strata generator gives
    all the entries of one (c2, s) the same outputs map).
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
    if isinstance(value, Fraction):
        return _json_str(rational_str(value))
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


def _map_texts(mapping: Mapping[str, Any],
               item_texts: Callable[[Any, Any], tuple[str, str]] = _item_texts) -> tuple[str, str]:
    """A map's compact text and its indented text in the document."""
    items = _encode_map(mapping, item_texts)
    compact, indented = zip(*items) if items else ((), ())
    return _compact_map(compact), _indented_map(indented)


# the document's text around its list of entry blocks
_DOCUMENT_HEAD = '{\n  "entries": '
_VERSION = int.__repr__(SCHEMA_VERSION)
_DOCUMENT_TAIL = ',\n  "schema_version": ' + _VERSION + "\n}\n"


def _block_list(blocks: Iterable[str]) -> Iterator[str]:
    """A JSON list of entry blocks, one level deep in a document, in pieces:
    ``[]`` when empty, else ``[``, the blocks one per line and separated by
    commas, and ``]`` on a line of its own."""
    separator = "[\n"
    for block in blocks:
        yield separator + block
        separator = ",\n"
    yield "[]" if separator == "[\n" else "\n  ]"


class _Document:
    """A catalog document: its ``pieces``, to be taken once, and ``count``,
    the entries in the pieces taken so far, which is the document's entry
    count once they are exhausted."""

    __slots__ = ("count", "pieces")

    def __init__(self, count: int, pieces: Iterator[str] | None = None) -> None:
        self.count, self.pieces = count, pieces


def _document(runs: Iterable[list]) -> _Document:
    """The catalog document of ``runs``, lists of sort rows: each run's blocks
    in the order of its rows, the runs in the order given.

    A row is a tuple that sorts as its entry's canonical line, whose second
    item is the kind's JSON text and whose last two are the indented texts
    of the inputs and outputs.  Each run's first row must be above the last
    row of the run before, else this raises :class:`DomainError`.  The first
    run is taken, sorted and checked before this returns, each other one as
    the pieces reach it, so memory holds one run's rows, and an error in a
    later run is raised while the pieces are taken, after those before it.
    """
    runs, document, last = iter(runs), _Document(0), None

    def ordered(run: list) -> list:
        nonlocal last
        run.sort(reverse=True)  # descending, so that popping takes the rows in order
        if run:
            if last is not None and run[-1] <= last:
                raise DomainError("catalog entries out of order: a leading value repeats "
                                  "or its run is out of place")
            last = run[0]
            document.count += len(run)
        return run

    def blocks(first: list) -> Iterator[str]:
        for run in chain([first], map(ordered, runs)):
            while run:
                row = run.pop()
                yield _indented_block(row[-2], row[1], row[-1], _VERSION)

    document.pieces = chain([_DOCUMENT_HEAD], _block_list(blocks(ordered(next(runs, [])))),
                            [_DOCUMENT_TAIL])
    return document


def document_pieces(entries: Iterable[CatalogEntry]) -> tuple[int, Iterator[str]]:
    """The entry count and the canonical catalog document of ``entries``, in pieces.

    The entries are one run of the run writer of every kind but strata
    (:data:`CATALOG_KINDS`): each entry is encoded once, into a sort row of
    the compact texts its canonical line is joined from (inputs, kind,
    outputs, in the line's order) and the indented texts of its inputs and
    outputs.  Inputs items go through the writer's item cache, so an item
    that repeats is encoded and checked once while it stays among the last
    ``_ITEM_CACHE_SIZE`` items used (the CLI's grids repeat theirs: 472
    distinct items of 63,936 for strata c2 5..20 by l 0..8), and a document
    whose inputs never repeat keeps no more than that.
    Consecutive entries that share one outputs map (the same object, as
    the strata generator builds them) share its texts: the texts of the last
    outputs map, encoded without the cache, are reused while the next
    entry's map ``is`` it, so a map must not change while its entries are
    being encoded.

    This returns only once every entry is encoded and the rows are sorted,
    so an error in generating or encoding any entry is raised before any
    piece exists, the count is known, and a caller can open its output only
    then.  No copy of the document is built: peak memory is the sort rows,
    about the document's size, and each row is dropped once its block is
    made.  ``entries`` may be a generator, whose entries are then freed as
    they are encoded.  This stays the oracle of the strata and family
    writers' bytes, and writes any entries a library caller builds.
    """

    def rows() -> Iterator[tuple]:
        last = None  # the last outputs map; its compact and indented texts follow
        for entry in entries:
            inputs, inputs_indented = _map_texts(entry.inputs)
            if entry.outputs is not last:
                last = entry.outputs
                compact, indented = _map_texts(last, _item_texts.__wrapped__)
            # No JSON object or string text is a proper prefix of another, and
            # the version is one constant, so the rows sort as their lines do.
            yield inputs, _KIND_TEXT[entry.kind], compact, inputs_indented, indented

    document = _document([list(rows())])
    return document.count, document.pieces


# ---------------------------------------------------------------------------
# decoding: each raw JSON map item is decoded into its value and the writer's
# texts of it; the checks on each raw entry are made in one place.


def _decoded_value(raw: Any) -> Any:
    """The catalog value of one raw JSON value: a rational's string is read as a Fraction."""
    if isinstance(raw, float):
        raise DomainError(f"floating point value {raw!r} is not allowed in catalogs")
    return parse_rational(raw) if isinstance(raw, str) and _RATIONAL_RE.match(raw.strip()) else raw


@lru_cache(maxsize=_ITEM_CACHE_SIZE, typed=True)
def _decoded_item(key: str, raw: Any) -> tuple:
    """(key, value, compact ``"k":v``, indented ``"k": v``) of one raw JSON map item."""
    value = _decoded_value(raw)
    return (key, value, *_item_texts.__wrapped__(key, value))


def _decoded_map(raw: dict) -> list:
    """The decoded items of one raw JSON object, in the file's order.

    An object the cache cannot take (a value that cannot be hashed) is
    decoded again without it, so every error is the decoder's, in order.
    """
    try:
        return [_decoded_item(k, v) for k, v in raw.items()]
    except TypeError:  # an unhashable value
        return [_decoded_item.__wrapped__(k, v) for k, v in raw.items()]


def _decode_entry(data: Mapping[str, Any]) -> tuple:
    """Check one raw entry: (kind, inputs, outputs, schema_version).

    The maps are lists of decoded items, in the file's order.  The checks
    run in the order that building a :class:`CatalogEntry` from ``data``
    runs them, so a malformed entry raises the same error through every
    reader.
    """
    inputs, outputs = data["inputs"], data["outputs"]
    if not isinstance(inputs, dict) or not isinstance(outputs, dict):
        raise DomainError("entry inputs and outputs must be JSON objects")
    kind = data["kind"]
    inputs, outputs = _decoded_map(inputs), _decoded_map(outputs)
    version = data["schema_version"]
    _check_tags(kind, version)
    return kind, inputs, outputs, version


def _decoded_entry(data: Mapping[str, Any]) -> CatalogEntry:
    kind, inputs, outputs, version = _decode_entry(data)
    return CatalogEntry(kind, {k: v for k, v, _, _ in inputs},
                        {k: v for k, v, _, _ in outputs}, version)


def _decoded_line(data: Mapping[str, Any]) -> str:
    # the keys of a JSON object are distinct, so sorting compares keys alone
    kind, inputs, outputs, version = _decode_entry(data)
    return _compact_line(_compact_map([item[2] for item in sorted(inputs)]), _json_str(kind),
                         _compact_map([item[2] for item in sorted(outputs)]),
                         int.__repr__(version))


@contextmanager
def _reading() -> Iterator[None]:
    """Raise what decoding a malformed document raises as a :class:`DomainError`."""
    try:
        yield
    except DomainError:
        raise
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise DomainError(f"not a catalog document: {type(exc).__name__}: {exc}") from exc


def _read_document(text: str, read_entry: Callable) -> list:
    """``read_entry(raw)`` of each entry of a catalog document."""
    with _reading():
        document = json.loads(text)
        entries = document["entries"]
        _check_version(document["schema_version"], "document")
        return [read_entry(e) for e in entries]


# The layout document_pieces writes: the head, then either "[]" and the tail,
# or "[" and the entry blocks of _indented_block, each on lines of its own
# and followed by "," or, after the last, by "]" and the tail.  No JSON
# string holds a newline, so the text between blocks occurs nowhere else.
_FIRST_BLOCK = _DOCUMENT_HEAD + "[\n"
_EMPTY_DOCUMENT = _DOCUMENT_HEAD + "[]" + _DOCUMENT_TAIL
_NEXT_BLOCK = _BLOCK_END + ",\n"
_LAST_BLOCK = _BLOCK_END + "\n  ]" + _DOCUMENT_TAIL
_CHUNK = io.DEFAULT_BUFFER_SIZE  # characters read at a time
_NOT_THE_LAYOUT = "not a catalog in the layout chowkit writes"


def _blocks(handle: TextIO) -> Iterator[str]:
    """The entry blocks of a document in chowkit's layout, each as
    :func:`_indented_block` writes it, read a chunk at a time."""
    text = handle.read(_CHUNK)  # a longer file would give a longer text
    if text == _EMPTY_DOCUMENT:
        return
    if not text.startswith(_FIRST_BLOCK):
        raise DomainError(_NOT_THE_LAYOUT)
    rest = ""
    for chunk in chain([text[len(_FIRST_BLOCK):]], iter(lambda: handle.read(_CHUNK), "")):
        text, start = rest + chunk, 0
        # the first separator; the rest kept from the chunks before holds none
        cut = text.find(_NEXT_BLOCK, max(len(rest) - len(_NEXT_BLOCK) + 1, 0))
        while cut >= 0:
            yield text[start:cut + len(_BLOCK_END)]
            start = cut + len(_NEXT_BLOCK)
            cut = text.find(_NEXT_BLOCK, start)
        rest = text[start:]
    if not rest.endswith(_LAST_BLOCK):
        raise DomainError(_NOT_THE_LAYOUT)
    yield rest[:len(_BLOCK_END) - len(_LAST_BLOCK)]


_scan_key = json.decoder.scanstring
_scan_value = json.JSONDecoder().scan_once
_BLOCK_TAIL = _VERSION_FIELD + int.__repr__(SCHEMA_VERSION) + _BLOCK_END


@lru_cache(maxsize=_ITEM_CACHE_SIZE)
def _item_line(text: str) -> tuple[str, str] | None:
    """(key, compact ``"k":v``) of one item line ``"k": v`` of a map in a
    block, or None unless the line is the text the writer gives that item.

    The key and the value are scanned by the C scanner and the value decoded
    as :func:`_decoded_item` decodes it, then both must be written back as
    they stand: an item the line spells otherwise (``"2/4"``, ``"007"``, an
    escaped key) is left to the whole-block parse.  This never raises.
    """
    try:
        key, end = _scan_key(text, 1)  # text[0] is checked with the key's text
        if text[end:end + 2] != ": ":
            return None
        # where the scan stopped needs no check: a value text that is the
        # writer's is one JSON value, which the scan reads to its end
        raw, _ = _scan_value(text, end + 2)
        key_text, value_text = text[:end], text[end + 2:]
        if key_text != _json_str(key) or value_text != _encode_value(_decoded_value(raw)):
            return None
    except (ValueError, StopIteration, RecursionError, DomainError):
        return None
    return key, key_text + ":" + value_text


@lru_cache(maxsize=_BLOCK_CACHE_SIZE)
def _map_line(text: str) -> str | None:
    """The compact text of one map of a block, or None unless the map is the
    text the writer gives it: its items as :func:`_item_line` takes them, in
    strictly increasing order of their keys.

    Consecutive blocks often share an outputs map (the strata entries of one
    (c2, s)), so the last few read are kept.  Inputs maps are read through
    ``__wrapped__``: no two entries of one kind share one, so keeping them
    would only cost.
    """
    if text == "{}":
        return text
    if not (text.startswith(_MAP_HEAD) and text.endswith(_MAP_TAIL)):
        return None
    items, previous = [], None
    for item in text[len(_MAP_HEAD):-len(_MAP_TAIL)].split(_ITEM_SEPARATOR):
        line = _item_line(item)
        if line is None or (previous is not None and line[0] <= previous):
            return None
        previous = line[0]
        items.append(line[1])
    return _compact_map(items)


def _block_text_line(block: str) -> str | None:
    """The canonical line of one entry block read as text, or None unless
    the block is the text :func:`_indented_block` writes for its entry."""
    kind_at = block.find(_KIND_FIELD)
    outputs_at = block.find(_OUTPUTS_FIELD, kind_at)
    if (kind_at < 0 or outputs_at < 0
            or not (block.startswith(_BLOCK_HEAD) and block.endswith(_BLOCK_TAIL))):
        return None
    kind = block[kind_at + len(_KIND_FIELD):outputs_at]
    if kind not in _KIND_TEXTS:
        return None
    inputs = _map_line.__wrapped__(block[len(_BLOCK_HEAD):kind_at])
    outputs = _map_line(block[outputs_at + len(_OUTPUTS_FIELD):-len(_BLOCK_TAIL)])
    if inputs is None or outputs is None:
        return None
    return _compact_line(inputs, kind, outputs, int.__repr__(SCHEMA_VERSION))


@lru_cache(maxsize=_BLOCK_CACHE_SIZE)
def _block_line(block: str) -> str:
    """The canonical line of one entry block: read as text when it is the
    writer's text for its entry, else parsed alone."""
    line = _block_text_line(block)
    return _decoded_line(json.loads(block)) if line is None else line


def stream_canonical_lines(handle: TextIO) -> Iterator[str]:
    """The canonical line of each entry of a catalog file, read a chunk at a time.

    The file must have the exact head and tail that :func:`document_pieces`
    writes, and its entries must come in strictly increasing order.  The
    entries are cut apart where that writer separates them, so memory holds
    a chunk and its entries, never the document.  Anything else, such as a
    valid catalog edited by hand, or text that is not UTF-8, raises
    :class:`DomainError`; :func:`canonical_lines` reads such a file whole.
    Otherwise the lines are those of :func:`canonical_lines`, from the same
    decoder, and an entry it rejects raises the same error here.  For every
    catalog kind, memory holds a chunk, its entries and the decoders' bounds.

    Each block is read alone, and its line is kept in a memo of the last
    ``_BLOCK_CACHE_SIZE`` blocks read, over every file a process reads.
    :func:`diff_sorted` reads its two streams in step, so a block found in
    both files is read once.  A block that is the text the writer gives its
    entry is read as text, without a JSON parse: each item line is looked up
    in the block reader's item cache, and the last ``_BLOCK_CACHE_SIZE``
    outputs maps read are kept, so a strata outputs map shared by a run of
    entries is read once.  The text path takes only ``schema_version`` 1
    blocks whose kind is an entry kind of :data:`CATALOG_KINDS`.  Any other
    block (a value spelled otherwise, keys out of order, a value of the
    wrong type, another version or kind) is parsed as JSON and decoded as
    :func:`canonical_lines` decodes an entry, so its line or its error is
    the same: correct, but slower.
    """
    previous = ""
    with _reading():
        for block in _blocks(handle):
            # Each block must parse alone as one JSON value.  Then the blocks
            # are the items of the document's list, so a cut inside an entry
            # fails the read, and a block's whole text keys the memo.
            line = _block_line(block)
            if line <= previous:
                raise DomainError("catalog entries are not in strictly increasing order")
            yield line
            previous = line


def serialize_entry(entry: CatalogEntry) -> str:
    """Canonical single-line JSON for one entry.

    As in :func:`document_pieces`, the inputs items go through the writer's
    item cache and the outputs, which seldom repeat, are encoded afresh.
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
    The text is joined from the pieces of :func:`document_pieces`; a large
    catalog is better written from those, piece by piece.
    """
    return "".join(document_pieces(entries)[1])


def parse_catalog(text: str) -> list[CatalogEntry]:
    """The entries of a catalog document.

    Raises :class:`DomainError` when ``text`` is not a catalog document, or
    when the document or an entry has a ``schema_version`` other than
    :data:`SCHEMA_VERSION`.
    """
    return _read_document(text, _decoded_entry)


def canonical_lines(text: str) -> list[str]:
    """The canonical line of each entry of a catalog document, in order.

    Equal to ``[serialize_entry(e) for e in parse_catalog(text)]``, with
    the same checks and errors, but no entry is built: each line is joined
    from the decoder's JSON texts.
    """
    return _read_document(text, _decoded_line)


def diff_sorted(a: Iterable[str], b: Iterable[str]) -> dict[str, list[str]]:
    """The lines only in ``a`` and only in ``b``, of two strictly increasing
    streams of lines, by a merge.

    Only the differing lines are kept, and both streams are read to the end,
    so a stream that checks its input as it goes checks all of it.
    """
    a, b = iter(a), iter(b)
    only_a, only_b = [], []
    x, y = next(a, None), next(b, None)
    while x is not None and y is not None:
        if x < y:
            only_a.append(x)
            x = next(a, None)
        elif y < x:
            only_b.append(y)
            y = next(b, None)
        else:
            x, y = next(a, None), next(b, None)
    for line, rest, only in ((x, a, only_a), (y, b, only_b)):
        if line is not None:
            only.append(line)
            only.extend(rest)
    return {"only_in_a": only_a, "only_in_b": only_b}


def diff_files(path_a: str, path_b: str) -> dict[str, list[str]]:
    """:func:`diff_sorted` of the canonical lines of two catalog files.

    Two regular files are read a chunk at a time (:func:`stream_canonical_lines`),
    so for every catalog kind the peak memory follows the differing lines,
    not the files.  If either is not a regular file (a pipe can be read only
    once), or if that read raises :class:`OSError` or :class:`DomainError`
    (another layout, or a bad file), both files are read whole, A first, and
    each file's distinct canonical lines are sorted and merged the same way,
    so an entry repeated in one file counts once.  A file that cannot be read
    or is not a catalog document then raises :class:`DomainError` naming it.
    """
    if all(map(os.path.isfile, (path_a, path_b))):
        try:
            with open(path_a, encoding="utf-8") as a, open(path_b, encoding="utf-8") as b:
                return diff_sorted(stream_canonical_lines(a), stream_canonical_lines(b))
        except (OSError, DomainError):
            pass  # another layout, or a bad catalog: the whole-file read takes it, or names it
    return diff_sorted(*map(_whole_file_lines, (path_a, path_b)))


def _whole_file_lines(path: str) -> list[str]:
    """The distinct canonical lines of a catalog file read whole, sorted."""
    try:
        with open(path, encoding="utf-8") as handle:
            return sorted(set(canonical_lines(handle.read())))
    except OSError as exc:
        raise DomainError(f"cannot read catalog {path!r}: {exc}") from exc
    except (UnicodeDecodeError, DomainError) as exc:
        raise DomainError(f"malformed catalog {path!r}: {exc}") from exc


def diff_pieces(delta: Mapping[str, list[str]]) -> Iterator[str]:
    """The JSON text ``catalog diff`` prints for a :func:`diff_files` result, in pieces.

    ``json.dumps(payload, sort_keys=True, indent=2)`` plus a newline, where
    the payload holds ``identical`` and the entries of ``only_in_a`` and
    ``only_in_b``.  Each entry is written from its canonical line's texts,
    in the block layout of a catalog document, one piece per entry.
    """

    def blocks(lines: list[str]) -> Iterator[str]:
        for line in lines:  # a canonical line's keys are sorted
            kind, inputs, outputs, version = _decode_entry(json.loads(line))
            yield _indented_block(_indented_map([item[3] for item in inputs]), _json_str(kind),
                                  _indented_map([item[3] for item in outputs]),
                                  int.__repr__(version))

    a, b = delta["only_in_a"], delta["only_in_b"]
    yield '{\n  "identical": ' + ("false" if a or b else "true") + ',\n  "only_in_a": '
    yield from _block_list(blocks(a))
    yield ',\n  "only_in_b": '
    yield from _block_list(blocks(b))
    yield "\n}\n"


def bounds_catalog(r: int, c1: int, c2_range: range) -> list[CatalogEntry]:
    """The entries of ``CATALOG_KINDS["bounds"].generate``, as a list.

    The other kinds have no such list; this one stays because
    ``perfbench/test_smoke.py`` traces a call of it.
    """
    return list(CATALOG_KINDS["bounds"].generate(r, c1, c2_range))


# The row sources of the family kinds.  Each yields one run per value of the
# kind's grid, in the order given: the (inputs items, outputs items) of the
# value's entries, each map's items in the order of their keys.


def _bounds_runs(r: int, c1: int, c2_values: Iterable[int]) -> Iterator[list]:
    """One "bound" entry per c2: the ch_3 bound and the admissible c3 interval."""
    check_integer("rank", r)
    check_integer("c_1", c1)  # before its first use, in ch_2
    for c2 in c2_values:
        ch2 = _ch2_of_classes(c1, c2)
        report = bound_report(r, c1, ch2)
        # the interval of enumerate_admissible_c3, from the same ch_3 bound
        c3_min, c3_max = _c3_interval(c1, c2, report.ch3_bound)
        yield [((("c1", c1), ("c2", c2), ("rank", r)),
                (("c3_max", c3_max), ("c3_min", c3_min), ("ch2", ch2),
                 ("ch3_bound", report.ch3_bound), ("euler_bound", report.euler_bound),
                 ("q", report.q)))]


def _resolutions_runs(c2_values: Iterable[int]) -> Iterator[list]:
    """One "resolution" entry per admissible (c2, s)."""
    for c2 in c2_values:
        run = []
        for s in admissible_s(c2):
            report = presentation_report(c2, s)
            run.append(((("c2", c2), ("s", s)), (
                ("c3", report.c3), ("chern_consistent", verify_resolution_chern(report)),
                ("dim_g", report.dim_g), ("dim_hom", report.dim_hom), ("dim_pv", report.dim_pv),
                ("r0", format_term(report.r0)), ("r_minus1", format_term(report.r_minus1)))))
        yield run


def _monad_pair(r: int, d: int, c: int) -> tuple:
    """The (inputs items, outputs items) of the "monad" entry of (r, d) and charge c."""
    ch2 = Fraction(-2 * c - d, 2)
    shape = monad_shape(r, d, ch2)
    return ((("charge", c), ("degree", d), ("rank", r)),
            (("ch2", ch2), ("u", shape.u), ("v", shape.v), ("w", shape.w)))


def _monads_runs(r_max: int, charges: Iterable[int]) -> Iterator[list]:
    """One "monad" entry per normalized (r, d) and integer charge c, d + c >= 0."""
    check_integer("rank-max", r_max)
    for c in charges:  # a negative c leaves every range of d empty
        yield [_monad_pair(r, d, c) for r in range(1, r_max + 1) for d in range(max(1 - r, -c), 1)]


def _monads_entries(r_max: int, charge_range: range) -> Iterator[CatalogEntry]:
    """The entries of :func:`_monads_runs`, in the order of (r, d, charge)."""
    check_integer("rank-max", r_max)
    for r in range(1, r_max + 1):
        for d in range(-r + 1, 1):
            for c in charge_range:
                if c >= 0 and d + c >= 0:
                    inputs, outputs = _monad_pair(r, d, c)
                    yield CatalogEntry("monad", dict(inputs), dict(outputs))


# A strata catalog is the product of two factors: the labels (l, partition
# type) of the zero-dimensional quotient, which depend on l alone, and the
# admissible P^3 Chern data (c2, s) with their outputs.  Both consumers below
# take the factors from these two functions.


def _strata_labels(l_range: range) -> list[tuple[int, str]]:
    """(l, partition type text) of each length-l partition type, l in ``l_range``.

    ``partition_types`` also rejects l < 0.
    """
    return [(l, str(ptype)) for l in l_range for ptype in partition_types(l)]


def _strata_pairs(c2_range: range) -> Iterator[tuple[int, int, MappingProxyType]]:
    """(c2, s, outputs) of each admissible (c2, s): ch_3 of the reflexive
    part and the ambient presentation dimensions, in one read-only map that
    all the pair's entries share."""
    for c2 in c2_range:
        for s in admissible_s(c2):
            report = presentation_report(c2, s)
            character = chern_to_character(ChernClasses(2, -1, c2, report.c3), 3)
            yield c2, s, MappingProxyType({
                "c3": report.c3,
                "ch2": character.ch2,
                "ch3": character.ch3,
                "dim_hom": report.dim_hom,
                "dim_pv": report.dim_pv,
                "dim_g": report.dim_g,
            })


def _strata_entries(c2_range: range, l_range: range) -> Iterator[CatalogEntry]:
    """One "stratum" entry per (c2, s, c3, partition type of length l).

    The stratum labels combine the admissible P^3 Chern data with the
    length-l partition types of the zero-dimensional quotient; ch_3 of the
    reflexive part and the ambient presentation dimensions are recorded.
    """
    labels = _strata_labels(l_range)
    for c2, s, outputs in _strata_pairs(c2_range):
        for l, partition in labels:
            yield CatalogEntry(
                kind="stratum",
                inputs={"c2": c2, "s": s, "l": l, "partition": partition},
                outputs=outputs,
            )


def _strata_document(c2_range: range, l_range: range) -> _Document:
    """``document_pieces(_strata_entries(c2_range, l_range))``, written as
    the product of the two factors, one c2 run at a time.

    An entry's sorted inputs are c2, then its label (l and partition), then
    s, and each of the three compact texts ``"c2":C,``, ``"l":L,"partition":"P"``
    and ``"s":S}`` is a proper prefix of no other of its kind (a number is
    followed by a non-digit, a JSON string ends at its closing quote).  So the
    canonical order is the runs of one c2 in the order of ``"c2":C,`` (10..19
    before 5), within a run the labels in the order of their text, and within
    a label the pairs' s in the order of ``"s":S}`` (10 before 1).

    Each label item, c2 and s item and outputs map is encoded once, as
    :func:`document_pieces` encodes it.  Every factor is computed and
    encoded, and the order checked, before this returns, so every error is
    raised before any piece exists.  The pieces are joined one block at a
    time from the factors' texts: no run or sort row is kept.
    """
    kind, version = _KIND_TEXT["stratum"], _VERSION
    labels = []  # each label's compact and indented texts, its items joined
    for l, partition in _strata_labels(l_range):
        (l_compact, l_indented), (p_compact, p_indented) = (
            _item_texts("l", l), _item_texts("partition", partition))
        labels.append((l_compact + "," + p_compact, l_indented + _ITEM_SEPARATOR + p_indented))
    labels.sort()
    runs, pairs = [], 0
    for c2, run in groupby(_strata_pairs(c2_range), key=itemgetter(0)):
        c2_compact, c2_indented = _item_texts("c2", c2)
        tails = []  # each pair's block after its label, by the text of s
        for _, s, outputs in run:
            s_compact, s_indented = _item_texts("s", s)
            outputs_indented = _map_texts(outputs, _item_texts.__wrapped__)[1]
            tails.append((s_compact + "}", _ITEM_SEPARATOR + s_indented + _MAP_TAIL + _KIND_FIELD
                          + kind + _OUTPUTS_FIELD + outputs_indented + _VERSION_FIELD + version
                          + _BLOCK_END))
        tails.sort()
        pairs += len(tails)
        runs.append((c2_compact + ",", _BLOCK_HEAD + _MAP_HEAD + c2_indented + _ITEM_SEPARATOR,
                     tails))
    runs.sort()

    def increasing(rows: list) -> bool:
        return all(a[0] < b[0] for a, b in zip(rows, rows[1:]))

    # The order holds only if no key repeats, which ranges never do: the
    # labels and each run's s must strictly increase, and each run's first
    # line (its inputs text, less the opening brace) be above the last line
    # of the run before.
    ends = [(c2_key + labels[0][0] + "," + tails[0][0], c2_key + labels[-1][0] + "," + tails[-1][0])
            for c2_key, _, tails in runs] if labels else []
    if not (increasing(labels) and all(increasing(tails) for _, _, tails in runs)
            and all(last < first for (_, last), (first, _) in zip(ends, ends[1:]))):
        raise DomainError("strata entries out of order: a c2, l or s repeats")

    def blocks() -> Iterator[str]:
        for _, head, tails in runs:
            for _, label in labels:
                for _, tail in tails:
                    yield head + label + tail

    return _Document(len(labels) * pairs,
                     chain([_DOCUMENT_HEAD], _block_list(blocks()), [_DOCUMENT_TAIL]))


class CatalogKind(NamedTuple):
    """One ``catalog <kind>``.  ``entry_kind`` is the ``kind`` tag of the
    entries it generates.  ``params`` are ``generate``'s arguments in order,
    each (name, type, default): the flag and config key, ``int`` or ``range``
    (an "a..b" grid), and the default, None when the value must be given.
    ``document`` takes the same arguments and returns the document that
    ``document_pieces(generate(...))`` writes, with its ``count`` known only
    once its pieces are exhausted."""

    entry_kind: str
    help: str
    params: tuple[tuple[str, type, Any], ...]
    generate: Callable[..., Iterator[CatalogEntry]]
    document: Callable[..., _Document]


def _family(entry_kind: str, help: str, params: tuple, runs: Callable[..., Iterator[list]],
            generate: Callable[..., Iterator[CatalogEntry]] | None = None) -> CatalogKind:
    """The kind whose row source is ``runs``: its one ``range`` parameter is
    the grid, whose value leads every entry's sorted inputs among those that
    vary, so each run is one contiguous part of the document.

    ``generate`` defaults to the entries of the runs in the grid's order.
    The document takes the runs in the order of the values' texts (c2 10
    before 5, -1 before -10), which is the order of their entries' lines,
    and sorts and encodes one run at a time (:func:`_document`).
    """
    lead = [type_ for _, type_, _ in params].index(range)
    kind = _json_str(entry_kind)

    def entries(*values: Any) -> Iterator[CatalogEntry]:
        for run in runs(*values):
            for inputs, outputs in run:
                yield CatalogEntry(entry_kind, dict(inputs), dict(outputs))

    def rows(run: list) -> list:
        rows = []
        for inputs, outputs in run:
            compact, indented = zip(*[_item_texts(k, v) for k, v in inputs])
            outputs = [f"{_json_str(k)}: {_encode_value(v)}" for k, v in outputs]
            rows.append((_compact_map(compact), kind, _indented_map(indented),
                         _indented_map(outputs)))
        return rows

    def document(*values: Any) -> _Document:
        values = list(values)
        values[lead] = sorted(values[lead], key=_encode_value)
        return _document(map(rows, runs(*values)))

    return CatalogKind(entry_kind, help, params, generate or entries, document)


# keyed by subcommand name, in the order ``catalog --help`` lists them
_C2_GRID = ("c2", range, None)
CATALOG_KINDS = {
    "strata": CatalogKind("stratum", "stratum labels over a (c2, l) grid",
                          (_C2_GRID, ("l", range, None)), _strata_entries, _strata_document),
    "bounds": _family("bound", "ch_3 bounds and c3 intervals over a c2 grid",
                      (("rank", int, 2), ("c1", int, -1), _C2_GRID), _bounds_runs),
    "resolutions": _family("resolution", "resolution shapes over a c2 grid", (_C2_GRID,),
                           _resolutions_runs),
    "monads": _family("monad", "monad shapes over normalized data",
                      (("rank-max", int, None), ("charge", range, None)), _monads_runs,
                      _monads_entries),
}

# the entry kinds, each with its JSON text, shared by every sort row of that kind
_KIND_TEXT = {k.entry_kind: _json_str(k.entry_kind) for k in CATALOG_KINDS.values()}
_KIND_TEXTS = frozenset(_KIND_TEXT.values())  # what the block reader takes as a kind
