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
from itertools import chain, groupby
from operator import itemgetter
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


def bounds_catalog(r: int, c1: int, c2_range: range) -> list[CatalogEntry]:
    """The entries of ``CATALOG_KINDS["bounds"].generate``, as a list.

    The other kinds have no such list; this one stays because
    ``perfbench/test_smoke.py`` traces a call of it.
    """
    return list(CATALOG_KINDS["bounds"].generate(r, c1, c2_range))


# The row sources of the family kinds.  Each yields one run per value of the
# kind's grid, in the order given: the (inputs items, outputs items) of the
# value's entries, each map's items in the order of their keys.  Each reads
# its module's functions as attributes at each call, so a function replaced
# on the module (a tracer's wrapper) is the one called.


def _bounds_runs(r: int, c1: int, c2_values: Iterable[int]) -> Iterator[list]:
    """One "bound" entry per c2: the ch_3 bound and the admissible c3 interval."""
    check_integer("rank", r)
    check_integer("c_1", c1)  # before its first use, in ch_2
    from . import bounds
    for c2 in c2_values:
        ch2 = bounds._ch2_of_classes(c1, c2)
        report = bounds.bound_report(r, c1, ch2)
        # the interval of enumerate_admissible_c3, from the same ch_3 bound
        c3_min, c3_max = bounds._c3_interval(c1, c2, report.ch3_bound)
        yield [((("c1", c1), ("c2", c2), ("rank", r)),
                (("c3_max", c3_max), ("c3_min", c3_min), ("ch2", ch2),
                 ("ch3_bound", report.ch3_bound), ("euler_bound", report.euler_bound),
                 ("q", report.q)))]


def _resolutions_runs(c2_values: Iterable[int]) -> Iterator[list]:
    """One "resolution" entry per admissible (c2, s)."""
    from . import resolutions
    for c2 in c2_values:
        run = []
        for s in resolutions.admissible_s(c2):
            report = resolutions.presentation_report(c2, s)
            run.append(((("c2", c2), ("s", s)), (
                ("c3", report.c3),
                ("chern_consistent", resolutions.verify_resolution_chern(report)),
                ("dim_g", report.dim_g), ("dim_hom", report.dim_hom), ("dim_pv", report.dim_pv),
                ("r0", resolutions.format_term(report.r0)),
                ("r_minus1", resolutions.format_term(report.r_minus1)))))
        yield run


def _monad_pair(monads: ModuleType, r: int, d: int, c: int) -> tuple:
    """The (inputs items, outputs items) of the "monad" entry of (r, d) and charge c."""
    ch2 = Fraction(-2 * c - d, 2)
    shape = monads.monad_shape(r, d, ch2)
    return ((("charge", c), ("degree", d), ("rank", r)),
            (("ch2", ch2), ("u", shape.u), ("v", shape.v), ("w", shape.w)))


def _monads_runs(r_max: int, charges: Iterable[int]) -> Iterator[list]:
    """One "monad" entry per normalized (r, d) and integer charge c, d + c >= 0."""
    check_integer("rank-max", r_max)
    from . import monads
    for c in charges:  # a negative c leaves every range of d empty
        yield [_monad_pair(monads, r, d, c)
               for r in range(1, r_max + 1) for d in range(max(1 - r, -c), 1)]


def _monads_entries(r_max: int, charge_range: range) -> Iterator[CatalogEntry]:
    """The entries of :func:`_monads_runs`, in the order of (r, d, charge)."""
    check_integer("rank-max", r_max)
    from . import monads
    for r in range(1, r_max + 1):
        for d in range(-r + 1, 1):
            for c in charge_range:
                if c >= 0 and d + c >= 0:
                    inputs, outputs = _monad_pair(monads, r, d, c)
                    yield CatalogEntry("monad", dict(inputs), dict(outputs))


# A strata catalog is the product of two factors: the labels (l, partition
# type) of the zero-dimensional quotient, which depend on l alone, and the
# admissible P^3 Chern data (c2, s) with their outputs.  Both consumers below
# take the factors from these two functions.


def _strata_labels(l_range: range) -> list[tuple[int, str]]:
    """(l, partition type text) of each length-l partition type, l in ``l_range``.

    ``partition_types`` also rejects l < 0.
    """
    from . import monads
    return [(l, str(ptype)) for l in l_range for ptype in monads.partition_types(l)]


def _strata_pairs(c2_range: range) -> Iterator[tuple[int, int, MappingProxyType]]:
    """(c2, s, outputs) of each admissible (c2, s): ch_3 of the reflexive
    part and the ambient presentation dimensions, in one read-only map that
    all the pair's entries share."""
    from . import resolutions
    for c2 in c2_range:
        for s in resolutions.admissible_s(c2):
            report = resolutions.presentation_report(c2, s)
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
