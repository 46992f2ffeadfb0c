"""Catalog reading: the decoder, the block reader and ``catalog diff``.

The read half of the codec of :mod:`chowkit.catalog`, whose encoder and
layout constants it imports; a module of its own, so that a ``catalog
<kind>`` start, which only writes, does not compile it.

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
from functools import lru_cache
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Mapping, TextIO

from .catalog import (
    _BLOCK_END, _BLOCK_HEAD, _DOCUMENT_HEAD, _DOCUMENT_TAIL, _ITEM_CACHE_SIZE, _ITEM_SEPARATOR,
    _KIND_FIELD, _KIND_TEXT, _MAP_HEAD, _MAP_TAIL, _OUTPUTS_FIELD, _VERSION, _VERSION_FIELD,
    CatalogEntry, _block_list, _check_tags, _check_version, _compact_line, _compact_map,
    _indented_block, _indented_map, _item_texts, _json_str,
)
from .chow import _RATIONAL_RE, parse_rational
from .errors import DomainError

# entry blocks whose canonical lines are kept, over every file read.  A diff
# reads its two files in step, so a block of one file is looked up right after
# the other file's copy was read, or after a run of the entries that only one
# file holds.  From 2 blocks up, every shared entry hits but the first after
# each such run longer than the memo: 13,529 of the 13,530 of the benchmark's
# diff pair, all 15,983 of the large strata diff (strata 5..20 against 5..40,
# l 0..8) and all 55,056 of the larger grid against itself.
_BLOCK_CACHE_SIZE = 16


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
_BLOCK_TAIL = _VERSION_FIELD + _VERSION + _BLOCK_END
_KIND_TEXTS = frozenset(_KIND_TEXT.values())  # what the block reader takes as a kind


@lru_cache(maxsize=_ITEM_CACHE_SIZE)
def _item_line(text: str) -> tuple[str, str] | None:
    """(key, compact ``"k":v``) of one item line ``"k": v`` of a map in a
    block, or None unless the line is the text the writer gives that item.

    The key and the value are scanned by the C scanner and decoded by
    :func:`_decoded_item`, past its cache (this function's own keeps the
    line).  The line must be that item's indented text as it stands, so an
    item it spells otherwise (``"2/4"``, ``"007"``, an escaped key) is left
    to the whole-block parse.  This never raises.
    """
    try:
        # text[0], the separator and where the scans stopped need no check of
        # their own: the whole line is compared with the writer's text
        key, end = _scan_key(text, 1)
        _, _, compact, indented = _decoded_item.__wrapped__(key, _scan_value(text, end + 2)[0])
    except (ValueError, StopIteration, RecursionError, DomainError):
        return None
    return (key, compact) if indented == text else None


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
    return _compact_line(inputs, kind, outputs, _VERSION)


@lru_cache(maxsize=_BLOCK_CACHE_SIZE)
def _block_line(block: str) -> str:
    """The canonical line of one entry block: read as text when it is the
    writer's text for its entry, else parsed alone."""
    line = _block_text_line(block)
    return _decoded_line(json.loads(block)) if line is None else line


def stream_canonical_lines(handle: TextIO) -> Iterator[str]:
    """The canonical line of each entry of a catalog file, read a chunk at a time.

    The file must have the exact head and tail that
    :func:`~chowkit.catalog.document_pieces` writes, and its entries must
    come in strictly increasing order.  The entries are cut apart where that
    writer separates them, so memory holds a chunk and its entries, never
    the document.  Anything else, such as a valid catalog edited by hand, or
    text that is not UTF-8, raises :class:`DomainError`;
    :func:`canonical_lines` reads such a file whole.  Otherwise the lines
    are those of :func:`canonical_lines`, from the same decoder, and an
    entry it rejects raises the same error here.  For every catalog kind,
    memory holds a chunk, its entries and the decoders' bounds.

    Each block is read alone, and its line is kept in a memo of the last
    ``_BLOCK_CACHE_SIZE`` blocks read, over every file a process reads.
    :func:`diff_sorted` reads its two streams in step, so a block found in
    both files is read once.  A block that is the text the writer gives its
    entry is read as text, without a JSON parse: each item line is looked up
    in the block reader's item cache, and the last ``_BLOCK_CACHE_SIZE``
    outputs maps read are kept, so a strata outputs map shared by a run of
    entries is read once.  The text path takes only ``schema_version`` 1
    blocks whose kind is an entry kind of
    :data:`~chowkit.catalog.CATALOG_KINDS`.  Any other block (a value
    spelled otherwise, keys out of order, a value of the wrong type, another
    version or kind) is parsed as JSON and decoded as
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


def parse_catalog(text: str) -> list[CatalogEntry]:
    """The entries of a catalog document.

    Raises :class:`DomainError` when ``text`` is not a catalog document, or
    when the document or an entry has a ``schema_version`` other than
    :data:`~chowkit.catalog.SCHEMA_VERSION`.
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
