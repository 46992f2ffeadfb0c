"""The catalog file format: golden digests and a reference emitter.

The golden digests pin the bytes of four small catalogs (the benchmark's
smoke grids) and of the empty catalog.  The property tests compare the
emitter with the plain ``json.dumps`` layout it is documented to write,
and the canonical-line reader with ``parse_catalog`` on raw documents; the
block reader must read what the emitter writes, and on raw documents either
refuse them or agree with the canonical-line reader.
"""

import hashlib
import io
import json
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import chain
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings, strategies as st

from chowkit.catalog import (
    CATALOG_KINDS,
    SCHEMA_VERSION,
    CatalogEntry,
    CatalogKind,
    canonical_lines,
    diff_files,
    diff_pieces,
    diff_sorted,
    parse_catalog,
    serialize_catalog,
    serialize_entry,
    stream_canonical_lines,
)
from chowkit import catalog as catalog_module, catalog_read
from chowkit.cli import main
from chowkit.errors import DomainError, InadmissibleParameterError

from conftest import set_diff

ENTRY_KINDS = tuple(kind.entry_kind for kind in CATALOG_KINDS.values())

# ---------------------------------------------------------------------------
# golden digests: (entries, bytes, sha256) of each grid's catalog document

GOLDEN = {
    "strata --c2 5..12 --l 0..3": (
        lambda: list(CATALOG_KINDS["strata"].generate(range(5, 13), range(0, 4))),
        47552,
        "9ffcc89ec3e4e4dae382f4ec3529d9f548b3d222fd68a64f7ac3e4d8bf83f623",
    ),
    "resolutions --c2 5..30": (
        lambda: list(CATALOG_KINDS["resolutions"].generate(range(5, 31))),
        27207,
        "aaa4ed536c3dad465b5a4b70303f0fb978a286a021afc0c491635e683ef9f9d6",
    ),
    "monads --rank-max 3 --charge 0..5": (
        lambda: list(CATALOG_KINDS["monads"].generate(3, range(0, 6))),
        7925,
        "73c60d93194a0ae7cd90470ee4b5d3acf221aab87a6c39542b6474d66386549a",
    ),
    "bounds --c2 0..30": (
        lambda: list(CATALOG_KINDS["bounds"].generate(2, -1, range(0, 31))),
        10208,
        "6651e4c57801ad4129fcd47c8e05a2de99a844c1225c25c612b7ad0a469f63a2",
    ),
}


@pytest.mark.parametrize("grid", sorted(GOLDEN))
def test_golden_catalog_bytes(grid):
    generate, size, sha256 = GOLDEN[grid]
    document = serialize_catalog(generate()).encode("utf-8")
    assert len(document) == size
    assert hashlib.sha256(document).hexdigest() == sha256


def test_golden_empty_catalog():
    assert serialize_catalog([]) == '{\n  "entries": [],\n  "schema_version": 1\n}\n'
    assert parse_catalog(serialize_catalog([])) == []


# ---------------------------------------------------------------------------
# reference emitter: the json.dumps layout the catalog format is defined by


def _reference_value(value):
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return value


def _reference_jsonable(entry):
    return {
        "kind": entry.kind,
        "inputs": {k: _reference_value(v) for k, v in entry.inputs.items()},
        "outputs": {k: _reference_value(v) for k, v in entry.outputs.items()},
        "schema_version": entry.schema_version,
    }


def reference_entry(entry):
    return json.dumps(_reference_jsonable(entry), sort_keys=True, separators=(",", ":"))


def reference_catalog(entries):
    doc = {
        "entries": [_reference_jsonable(e) for e in sorted(entries, key=reference_entry)],
        "schema_version": 1,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


_RATIONAL = re.compile(r"^-?\d+(?:/\d+)?$")

# Labels mix arbitrary text with the characters JSON must escape or that
# ASCII escaping rewrites; rational-looking strings are not labels.  Small
# key and value pools make entries that share a prefix, where the compact
# and indented layouts would sort differently.
_TRICKY = st.sampled_from(['"', "\\", "/", "\n", "\t", "\x00", "é", "ß", "€", "漢", "\U0001f600"])
labels = st.text(st.characters() | _TRICKY, max_size=12).filter(
    lambda s: not _RATIONAL.match(s.strip())
)
values = st.one_of(
    st.integers(-20, 20),
    st.integers(),
    st.booleans(),
    st.fractions(),
    labels,
)
keys = st.sampled_from(("c2", "l", "s")) | st.text(st.characters() | _TRICKY, max_size=8)
maps = st.dictionaries(keys, values, max_size=5)
entries = st.builds(
    CatalogEntry,
    kind=st.sampled_from(ENTRY_KINDS),
    inputs=maps,
    outputs=maps,
    schema_version=st.just(SCHEMA_VERSION),
)


# a run of entries sharing one read-only outputs map, as the strata generator
# builds them
shared_runs = st.builds(
    lambda kind, outputs, inputs: [CatalogEntry(kind, i, outputs) for i in inputs],
    st.sampled_from(ENTRY_KINDS),
    maps.map(MappingProxyType),
    st.lists(maps, min_size=1, max_size=3),
)


@st.composite
def catalogs(draw):
    """Lists of entries, possibly empty, in which entries may repeat and
    runs of consecutive entries may share one outputs map."""
    distinct = draw(st.lists(entries, max_size=4))
    pieces = draw(st.lists(shared_runs, max_size=2))
    if distinct:
        pieces += [[e] for e in draw(st.lists(st.sampled_from(distinct), max_size=8))]
    return [e for piece in draw(st.permutations(pieces)) for e in piece]


def reference_diff(only_in_a, only_in_b):
    """The ``catalog diff`` payload as ``json.dumps`` writes it."""
    payload = {
        "identical": not only_in_a and not only_in_b,
        "only_in_a": [json.loads(line) for line in only_in_a],
        "only_in_b": [json.loads(line) for line in only_in_b],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@settings(max_examples=80, deadline=None)
@given(catalogs())
@example([CatalogEntry("bound", {"c2": 12}, {}), CatalogEntry("bound", {"c2": 1}, {})])
# neighbours whose outputs are equal (1 == True == Fraction(1)) but encode
# differently: reusing a text for an equal map, not the same map, fails here
@example([
    CatalogEntry("bound", {"c2": 1}, {"x": 1}),
    CatalogEntry("bound", {"c2": 2}, {"x": True}),
    CatalogEntry("bound", {"c2": 3}, {"x": Fraction(1)}),
])
@example([
    CatalogEntry("monad", {"c2": c2}, MappingProxyType(outputs))
    for c2, outputs in ((1, {"x": 1}), (2, {"x": True}), (3, {"x": Fraction(1)}))
])
# the halves diff to an empty delta, to only_in_b alone and to only_in_a alone
@example([])
@example([CatalogEntry("stratum", {"l": 0}, {})])
@example([CatalogEntry("bound", {"c2": c2}, {}) for c2 in (1, 2, 1, 1)])
def test_emitters_match_reference_and_round_trip(catalog):
    for entry in catalog:
        assert serialize_entry(entry) == reference_entry(entry)
    document = serialize_catalog(catalog)
    assert document == reference_catalog(catalog)
    assert serialize_catalog(iter(catalog)) == document  # from a one-pass iterator too
    parsed = parse_catalog(document)
    assert parsed == sorted(catalog, key=reference_entry)
    assert serialize_catalog(parsed) == document
    lines = [reference_entry(e) for e in catalog]
    half = len(lines) // 2
    delta = set_diff(lines[:half], lines[half:])
    a, b = delta["only_in_a"], delta["only_in_b"]
    pieces = list(diff_pieces(delta))
    assert "".join(pieces) == reference_diff(a, b)
    # streamed: the head, each list's blocks and its close, the key between, the tail
    assert len(pieces) == len(a) + len(b) + 5
    assert diff_sorted(sorted(set(lines[:half])), sorted(set(lines[half:]))) == delta
    # the block reader reads the document back, unless an entry repeats
    document_lines = canonical_lines(document)
    if len(set(document_lines)) == len(document_lines):
        assert list(stream_canonical_lines(io.StringIO(document))) == document_lines
    else:
        with pytest.raises(DomainError, match="strictly increasing"):
            list(stream_canonical_lines(io.StringIO(document)))


def test_block_reader_across_chunk_boundaries(monkeypatch):
    """Every split of the text between two reads, a block separator's included,
    gives the lines that the whole-document reader gives."""
    document = serialize_catalog(CATALOG_KINDS["bounds"].generate(2, -1, range(0, 4)))
    lines = canonical_lines(document)
    separator = document.index("\n    },\n")
    for size in range(len('{\n  "entries": []'), separator + 9):
        monkeypatch.setattr(catalog_read, "_CHUNK", size)
        assert list(stream_canonical_lines(io.StringIO(document))) == lines, size
    with pytest.raises(AttributeError):  # the writer's module has no reader constant
        catalog_module._CHUNK


# ---------------------------------------------------------------------------
# the item caches: one bounded cache of map items for the readers, and one for
# the writer


def _read_every_way(text):
    """What each reader makes of one document, the entries' value types included."""
    lines = canonical_lines(text)

    def typed(mapping):
        return [(k, type(v), v) for k, v in sorted(mapping.items())]

    return (
        lines,
        list(stream_canonical_lines(io.StringIO(text))),
        [(e.kind, typed(e.inputs), typed(e.outputs)) for e in parse_catalog(text)],
        "".join(diff_pieces({"only_in_a": lines, "only_in_b": lines[:1]})),
    )


# the readers' caches: the whole-document reader's items, and the block
# reader's item lines, outputs maps and blocks
READER_CACHES = ("_decoded_item", "_item_line", "_map_line", "_block_line")


def test_readers_do_not_depend_on_the_decoder_cache():
    """The same results with the readers' caches cleared, warm, and emptied
    of the document's map items by more distinct items than they hold."""
    text = serialize_catalog(chain(
        CATALOG_KINDS["strata"].generate(range(5, 7), range(0, 4)),  # repeated strings
        CATALOG_KINDS["bounds"].generate(2, -1, range(0, 6)),  # rationals
        CATALOG_KINDS["resolutions"].generate(range(5, 8)),  # terms and bools
    ))
    caches = [getattr(catalog_read, name) for name in READER_CACHES]
    items = caches[:2]  # the two item caches
    for cache in caches:
        cache.cache_clear()
    cold = _read_every_way(text)
    first = [cache.cache_info() for cache in caches]
    assert all(info.hits > 0 for info in first[:3])  # one read of each block
    assert all(0 < info.currsize < info.maxsize for info in first[:2])
    warm = _read_every_way(text)
    assert [cache.cache_info().misses for cache in items] == [info.misses for info in first[:2]]
    size = first[0].maxsize
    assert first[1].maxsize == size == catalog_module._ITEM_CACHE_SIZE
    filler = serialize_catalog(CatalogEntry("bound", {"filler": i}, {"label": f"filler {i}"})
                               for i in range(size + 1))
    canonical_lines(filler)
    list(stream_canonical_lines(io.StringIO(filler)))
    filled = [cache.cache_info() for cache in caches]
    # items that never repeat keep each cache at its size
    assert [info.currsize for info in filled] == [info.maxsize for info in filled]
    evicted = _read_every_way(text)
    # every item of the document was decoded afresh, by each reader
    assert ([cache.cache_info().misses - info.misses for cache, info in zip(items, filled)]
            == [info.misses for info in first[:2]])
    assert cold == warm == evicted


def test_writer_does_not_depend_on_the_item_cache():
    """The same bytes with the writer's cache cleared, warm, and emptied of
    the catalog's inputs items by more distinct items than it holds."""
    catalog = list(chain(
        CATALOG_KINDS["strata"].generate(range(5, 7), range(0, 4)),  # repeated inputs
        CATALOG_KINDS["bounds"].generate(2, -1, range(0, 6)),  # rationals
        CATALOG_KINDS["resolutions"].generate(range(5, 8)),  # terms and bools
        [CatalogEntry("bound", {"c2": 1, "v": v}, {"v": v}) for v in (1, True, Fraction(1))],
    ))

    def write_every_way():
        return (serialize_catalog(catalog), [serialize_entry(e) for e in catalog])

    cache = catalog_module._item_texts
    cache.cache_clear()
    cold = write_every_way()
    first = cache.cache_info()
    assert first.hits > 0 and 0 < first.currsize < first.maxsize
    warm = write_every_way()
    assert cache.cache_info().misses == first.misses
    serialize_catalog(CatalogEntry("bound", {"filler": i}, {}) for i in range(first.maxsize + 1))
    filled = cache.cache_info()
    assert filled.currsize == first.maxsize
    evicted = write_every_way()
    # every item of the catalog was encoded afresh
    assert cache.cache_info().misses - filled.misses == first.misses
    assert cold == warm == evicted
    assert cold[0] == reference_catalog(catalog)


def test_writer_cache_stays_bounded_on_inputs_that_do_not_repeat():
    """A document whose inputs never repeat keeps at most the cache's size
    of items, and is written as the reference writes it."""
    cache = catalog_module._item_texts
    size = cache.cache_info().maxsize
    catalog = [CatalogEntry("bound", {"c2": i, "label": f"x{i}", "q": Fraction(i, 7)}, {"n": 1})
               for i in range(size)]  # 3 x size distinct inputs items
    document = serialize_catalog(iter(catalog))
    assert cache.cache_info().currsize <= size
    assert document == reference_catalog(catalog)


def test_serialize_catalog_drops_each_line_as_its_block_is_made():
    """On strata c2 5..12 by l 0..5 (676 entries) the writer peaks at about
    2.2 times the document: its blocks and the joined text.  Holding every
    sorted line beside every block would peak at about 2.9 times."""
    entries = list(CATALOG_KINDS["strata"].generate(range(5, 13), range(0, 6)))
    document = serialize_catalog(entries)  # warms the item caches
    assert (len(entries), len(document)) == (676, 226_765)
    tracemalloc.start()
    try:
        assert serialize_catalog(entries) == document
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(document)


# ---------------------------------------------------------------------------
# the block memo: the two files of a diff share the lines of their last blocks


def _write_catalogs(directory, **grids):
    """Each (name, entries) written as a catalog file; the paths, in order."""
    paths = []
    for name, entries in grids.items():
        path = directory / f"{name}.json"
        path.write_text(serialize_catalog(entries), encoding="utf-8")
        paths.append(str(path))
    return paths


def test_diff_decodes_a_shared_block_once(tmp_path):
    """A block found in both files is decoded once: the memo misses once per
    distinct block and hits once per shared entry."""
    strata = CATALOG_KINDS["strata"].generate
    a, b = _write_catalogs(tmp_path, a=strata(range(5, 8), range(0, 5)),
                           b=strata(range(5, 9), range(0, 5)))
    lines_a, lines_b = (set(canonical_lines(Path(p).read_text(encoding="utf-8"))) for p in (a, b))
    memo = catalog_read._block_line
    memo.cache_clear()
    delta = diff_files(a, b)
    info = memo.cache_info()
    assert len(lines_a & lines_b) > info.maxsize  # more than the memo holds at once
    assert (info.misses, info.hits) == (len(lines_a | lines_b), len(lines_a & lines_b))
    assert delta == set_diff(lines_a, lines_b)


def test_diff_does_not_depend_on_the_block_memo(tmp_path):
    """The same diff with the memo cleared, warm, and emptied of the files'
    blocks by more distinct blocks than it holds; and an error is not kept."""
    bounds = CATALOG_KINDS["bounds"].generate
    memo, maps = catalog_read._block_line, catalog_read._map_line
    size = memo.cache_info().maxsize
    assert maps.cache_info().maxsize == size
    a, b, filler = _write_catalogs(tmp_path, a=bounds(2, -1, range(0, 6)),
                                   b=bounds(2, -1, range(2, 9)),
                                   filler=bounds(2, -1, range(100, 101 + size)))
    for cache in (memo, maps, catalog_read._item_line):
        cache.cache_clear()
    cold = diff_files(a, b)
    first, first_maps = memo.cache_info(), maps.cache_info()
    assert first.hits > 0 and first.currsize < size  # the files' blocks all fit
    # each block read is read as text, and its outputs map once
    assert first_maps.misses == first.misses
    warm = diff_files(a, b)
    assert (memo.cache_info().misses, maps.cache_info().misses) == (first.misses, first_maps.misses)
    diff_files(filler, filler)
    filled, filled_maps = memo.cache_info(), maps.cache_info()
    assert filled.currsize == filled_maps.currsize == size
    evicted = diff_files(a, b)
    # every block of the two files, and its outputs map, was read afresh
    assert memo.cache_info().misses - filled.misses == first.misses
    assert maps.cache_info().misses - filled_maps.misses == first_maps.misses
    assert cold == warm == evicted
    assert cold["only_in_a"] and cold["only_in_b"]
    # a block that raises is decoded again in the next file that holds it
    text = Path(a).read_text(encoding="utf-8").replace('"q": "', '"q": 1.5, "r": "', 1)
    before = memo.cache_info()
    for _ in ("a", "b"):
        with pytest.raises(DomainError, match="^floating point value 1.5 "):
            list(stream_canonical_lines(io.StringIO(text)))
    after = memo.cache_info()
    assert (after.misses - before.misses, after.hits, after.currsize) == (2, before.hits, before.currsize)


# ---------------------------------------------------------------------------
# the block reader reads the writer's text as text, and parses the rest


def _layout_document(entries, edit=None):
    """A document in chowkit's layout, with one edit to its text."""
    text = json.dumps({"entries": entries, "schema_version": 1}, sort_keys=True, indent=2) + "\n"
    return edit(text) if edit else text


def _entry(inputs=None, outputs=None, kind="bound"):
    return {"inputs": {"c1": -1, "c2": 5, "rank": 2, **(inputs or {})}, "kind": kind,
            "outputs": {"ch2": "-9/2", "one": 1, "q": 3, "x": "1/2", **(outputs or {})},
            "schema_version": 1}


def _nested(depth):
    return lambda text: text.replace('"x": "1/2"', '"x": ' + "[" * depth + "]" * depth, 1)


# each edit keeps the layout but leaves the canonical form of one entry
NOT_CANONICAL = {
    "unreduced": ({"x": "2/4"}, None),
    "padded": ({"x": " 1/2"}, None),
    "minus zero": ({"x": "-0"}, None),
    "zero-led": ({"x": "007"}, None),
    "escaped key": (None, lambda t: t.replace('"c2": 5', '"c\\u0032": 5', 1)),
    "keys out of order": (None, lambda t: t.replace('"one": 1,\n        "q": 3',
                                                    '"q": 3,\n        "one": 1', 1)),
    "duplicate key": (None, lambda t: t.replace('"q": 3', '"q": 4,\n        "q": 3', 1)),
    "float": ({"x": 1.5}, None),
    "null": ({"x": None}, None),
    "list": ({"x": [5]}, None),
    "object": ({"x": {"a": 1}}, None),
    "true for 1": ({"one": True}, None),
    "deeply nested list": (None, _nested(100_000)),
    "bogus kind": ("bogus", None),
}


@pytest.mark.parametrize("case", sorted(NOT_CANONICAL))
def test_block_reader_reads_what_canonical_lines_reads(case):
    """Each block gives the line, or raises the error, that the
    whole-document reader gives."""
    change, edit = NOT_CANONICAL[case]
    first = _entry(kind=change) if isinstance(change, str) else _entry(outputs=change)
    text = _layout_document([first, _entry({"c2": 6})], edit)
    streamed = _outcome(lambda t: list(stream_canonical_lines(io.StringIO(t))), text)
    assert streamed == _outcome(canonical_lines, text)
    if case != "true for 1":  # true is a catalog value, written as it stands
        block = next(catalog_read._blocks(io.StringIO(text)))
        assert catalog_read._block_text_line(block) is None


def test_diff_of_written_catalogs_parses_no_json(tmp_path, monkeypatch):
    """Blocks in the writer's text are read without a JSON parse; a block
    that spells a value otherwise costs one."""
    loads, parse = [], json.loads

    def counting_loads(*args, **kwargs):
        loads.append(args)
        return parse(*args, **kwargs)

    strata, bounds = CATALOG_KINDS["strata"].generate, CATALOG_KINDS["bounds"].generate
    halves = [CatalogEntry("bound", {"c2": c2}, {"x": Fraction(1, 2)}) for c2 in range(4)]
    grids = {
        "a": chain(strata(range(5, 8), range(0, 4)), bounds(2, -1, range(0, 6)), halves),
        "b": chain(strata(range(6, 9), range(0, 4)), bounds(2, -1, range(3, 9)), halves[1:]),
    }
    paths = []
    for name, entries in grids.items():
        paths.append(tmp_path / f"{name}.json")
        with open(paths[-1], "w", encoding="utf-8") as handle:
            handle.write(serialize_catalog(entries))
    for cache in READER_CACHES:
        getattr(catalog_read, cache).cache_clear()
    monkeypatch.setattr(catalog_read.json, "loads", counting_loads)
    delta = diff_files(*paths)
    assert loads == [] and delta["only_in_a"] and delta["only_in_b"]
    text = paths[0].read_text(encoding="utf-8")
    assert text.count('"x": "1/2"') == 4
    edited = tmp_path / "edited.json"
    edited.write_text(text.replace('"x": "1/2"', '"x": "2/4"', 1), encoding="utf-8")
    assert diff_files(edited, paths[1]) == delta
    assert len(loads) == 1


# each rejected value, and the message every reader gives for it
REJECTED_VALUES = {
    "float": (1.5, "floating point value 1.5 is not allowed in catalogs"),
    "nan": (float("nan"), "floating point value nan is not allowed in catalogs"),
    "null": (None, "unsupported catalog value None"),
    "list": ([5], "unsupported catalog value [5]"),
    "object": ({"a": 1}, "unsupported catalog value {'a': 1}"),
}


@pytest.mark.parametrize("field", ["inputs", "outputs"])
@pytest.mark.parametrize("case", sorted(REJECTED_VALUES))
def test_readers_reject_values_with_one_message(case, field):
    value, message = REJECTED_VALUES[case]
    entry = {"inputs": {"c2": 5}, "kind": "bound", "outputs": {"ch2": "-9/2"}, "schema_version": 1}
    entry[field]["x"] = value
    # the layout chowkit writes, so that the block reader reads it too
    text = json.dumps({"entries": [entry], "schema_version": 1}, sort_keys=True, indent=2) + "\n"
    for read in (parse_catalog, canonical_lines,
                 lambda t: list(stream_canonical_lines(io.StringIO(t)))):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            read(text)


# each key or value the writer rejects, as one map, and the start of its message
WRITER_ERRORS = {
    "int key": ({1: 5}, "catalog keys must be strings: "),
    "mixed keys": ({"c2": 5, 1: 5}, "catalog keys must be strings: "),
    "rational look-alike": ({"x": "1/2"}, "string value '1/2' would be parsed back as a rational"),
    "unhashable": ({"x": [5]}, "unsupported catalog value [5]"),
}


@pytest.mark.parametrize("field", ["inputs", "outputs"])
@pytest.mark.parametrize("case", sorted(WRITER_ERRORS))
def test_writer_rejects_keys_and_values_with_one_message(case, field):
    """The writer raises the same error whether the bad map comes first or
    after entries whose keys and values repeat."""
    bad, message = WRITER_ERRORS[case]
    good = [CatalogEntry("bound", {"c2": 5, "x": v}, {"c2": 5, "x": v}) for v in (5, "a", 5, "a")]
    bad_entry = CatalogEntry("bound", **{"inputs": {}, "outputs": {}, field: bad})
    for run in ([bad_entry, *good], [*good, bad_entry]):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
            serialize_catalog(run)


def test_writer_keeps_equal_values_of_other_types_apart():
    """1, True and Fraction(1) are equal and hash alike, but each is written
    as its own type, in inputs and in outputs, first seen or repeated."""
    values = (1, True, Fraction(1), Fraction(1, 2), "x")
    catalog = [CatalogEntry("bound", {"c2": c2, "v": v}, {"v": v}) for c2 in (1, 2) for v in values]
    assert serialize_catalog(catalog) == reference_catalog(catalog)


# ---------------------------------------------------------------------------
# entries: read-only maps, shared when given as one


def test_entry_maps_are_read_only_copies():
    inputs, outputs = {"c2": 5}, {"c3": 19}
    entry = CatalogEntry("stratum", inputs, outputs)
    with pytest.raises(TypeError):
        entry.inputs["c2"] = 0
    with pytest.raises(TypeError):
        entry.outputs["c3"] = 0
    inputs["c2"], outputs["c3"] = 0, 0
    inputs["s"] = 1
    assert dict(entry.inputs) == {"c2": 5}
    assert dict(entry.outputs) == {"c3": 19}
    shared = MappingProxyType({"c3": 19})
    pair = [CatalogEntry("stratum", {"l": l}, shared) for l in range(2)]
    assert pair[0].outputs is pair[1].outputs is shared


def test_equal_entries_hash_equal():
    (half,), (respelled,) = (
        parse_catalog(json.dumps({"entries": [{"inputs": {"c2": 5}, "kind": "bound",
                                               "outputs": {"ch2": q}, "schema_version": 1}],
                                  "schema_version": 1}))
        for q in ("1/2", "2/4")
    )
    assert half == respelled and hash(half) == hash(respelled)
    assert len({half, respelled, CatalogEntry("bound", {"c2": 5}, {"ch2": Fraction(1, 2)})}) == 1
    entries = list(CATALOG_KINDS["strata"].generate(range(5, 7), range(0, 3)))
    assert set(parse_catalog(serialize_catalog(entries + entries))) == set(entries)
    # equal as numbers, apart as catalog values
    as_int = CatalogEntry("bound", {"c2": 3}, {})
    assert len({as_int, CatalogEntry("bound", {"c2": Fraction(3)}, {})}) == 2


def test_strata_outputs_are_encoded_once_per_pair(monkeypatch):
    """The kinds' writer of the product of the factors encodes the outputs
    map of each (c2, s) once, through its outputs encoder, and each distinct
    inputs item (key, type, value) of the document once, from a cleared item
    cache."""
    maps, values = [], []
    encode_map, encode_value = catalog_module._outputs_text, catalog_module._encode_value

    def counting_map(items):
        maps.append(items)
        return encode_map(items)

    def counting_value(value):
        values.append((type(value), value))
        return encode_value(value)

    entries = list(CATALOG_KINDS["strata"].generate(range(5, 13), range(0, 4)))
    monkeypatch.setattr(catalog_module, "_outputs_text", counting_map)
    monkeypatch.setattr(catalog_module, "_encode_value", counting_value)
    catalog_module._item_texts.cache_clear()
    "".join(CATALOG_KINDS["strata"].document(range(5, 13), range(0, 4)).pieces)
    pairs = sorted({(e.inputs["c2"], e.inputs["s"]) for e in entries})
    assert (len(entries), len(pairs)) == (143, 13)
    outputs = [m for m in maps if "c3" in dict(m)]
    assert len(outputs) == len({id(m) for m in outputs}) == len(pairs)
    items = {(k, type(v), v) for e in entries for k, v in e.inputs.items()}
    expected = Counter((type(v), v) for m in outputs for v in dict(m).values())
    expected.update((t, v) for _, t, v in items)
    assert Counter(values) == expected
    assert len(values) == 6 * len(pairs) + len(items)


# the strata grids of the writer: runs of one c2 that sort as texts (10..19 before
# 5, 100.. before 95), s = 10 before s = 1 within a label (c2 >= 112), two s
# under each of 1,685 labels, no admissible (c2, s), and no label
PRODUCT_GRIDS = [
    (range(5, 13), range(0, 4)),
    (range(95, 126), range(0, 3)),
    (range(12, 13), range(0, 11)),
    (range(1, 5), range(0, 4)),
    (range(5, 13), range(0)),
]


@pytest.mark.parametrize("c2_range, l_range", PRODUCT_GRIDS, ids=str)
def test_strata_product_writer_matches_the_sorted_entries(c2_range, l_range):
    """The strata document written as the product of its factors is the
    document of its sorted entries, count and bytes."""
    kind = CATALOG_KINDS["strata"]
    document = kind.document(c2_range, l_range)
    entries = list(kind.generate(c2_range, l_range))
    text = "".join(document.pieces)
    assert (document.count, text) == (len(entries), reference_catalog(entries))
    if not document.count:
        assert text == serialize_catalog([])


@pytest.mark.parametrize("c2_range, l_range", [
    ([6, 5, 6], range(0, 2)),  # one c2 in two runs
    ([5, 5], range(0, 2)),  # one c2 twice in one run
    ([5, 5], range(0, 1)),  # one entry a run
    (range(5, 7), [1, 1]),  # one l twice
])
def test_strata_product_writer_refuses_repeated_keys(c2_range, l_range):
    """Grids that are not ranges can repeat a c2 or an l, and then the
    product is not in canonical order: the writer raises before any piece."""
    with pytest.raises(DomainError, match="out of order"):
        CATALOG_KINDS["strata"].document(c2_range, l_range)


# the family grids of the writer: runs that sort as texts (c2 10..12 before 5,
# 100..125 before 95, charge 10..12 before 2, c2 -1 before -10 before -2),
# s = 10 before s = 1 within a run (c2 >= 112), and grids with no entry
FAMILY_GRIDS = [
    ("resolutions", (range(5, 13),)),
    ("resolutions", (range(95, 126),)),
    ("monads", (4, range(0, 13))),
    ("bounds", (3, -2, range(-12, 13))),
    ("resolutions", (range(0),)),
    ("resolutions", (range(-3, 5),)),
    ("monads", (0, range(0, 13))),
    ("monads", (3, range(-5, 0))),
    ("bounds", (2, -1, range(0))),
]


@pytest.mark.parametrize("name, values", FAMILY_GRIDS, ids=str)
def test_family_run_writer_matches_the_sorted_entries(name, values):
    """A family document written one run at a time is the document of its
    sorted entries, count and bytes; the count is complete once the pieces
    are."""
    kind = CATALOG_KINDS[name]
    document = kind.document(*values)
    entries = list(kind.generate(*values))
    assert document.count <= len(entries)
    text = "".join(document.pieces)
    assert (document.count, text) == (len(entries), reference_catalog(entries))
    if not entries:
        assert text == serialize_catalog([]) == '{\n  "entries": [],\n  "schema_version": 1\n}\n'


def _numeric_order_source(c2_values):
    """The resolutions row source, its runs in the order of the numbers,
    whatever the order given."""
    return catalog_module._resolutions_source(sorted(c2_values))


@pytest.mark.parametrize("name, values", [
    ("resolutions", ([6, 5, 6],)),  # one c2 in two runs
    ("resolutions", ([5, 5],)),
    ("monads", (2, [3, 0, 3])),
    ("bounds", (2, -1, [0, 0])),  # one entry a run
    ("numeric order", (range(5, 13),)),  # c2 10 after 9
])
def test_family_run_writer_refuses_runs_out_of_order(name, values):
    """A grid that repeats a leading value, or a row source whose runs do not
    come in the order of their texts, is not in canonical order: the writer
    raises, at the latest when it reaches the run."""
    kind = (CatalogKind("resolution", "", (("c2", range, None),), _numeric_order_source)
            if name == "numeric order" else CATALOG_KINDS[name])
    with pytest.raises(DomainError, match="out of order"):
        "".join(kind.document(*values).pieces)


# ---------------------------------------------------------------------------
# the canonical-line reader against parse_catalog, on raw documents


@st.composite
def rational_spellings(draw):
    """A rational as a file may spell it: padded, unreduced, zero-led, "-0"."""
    num, den = draw(st.integers(-40, 40)), draw(st.integers(1, 9))
    scale = draw(st.integers(1, 3))
    sign = "-" if num < 0 or (num == 0 and draw(st.booleans())) else ""
    text = sign + "0" * draw(st.integers(0, 2)) + str(abs(num) * scale)
    if den * scale != 1 or draw(st.booleans()):
        text += "/" + "0" * draw(st.integers(0, 2)) + str(den * scale)
    pad = st.sampled_from(("", " ", "\t", " \n"))
    return draw(pad) + text + draw(pad)


raw_values = st.one_of(st.integers(), st.booleans(), rational_spellings(), labels)
# values a catalog must reject, each placed once into an otherwise valid document
bad_values = st.sampled_from(
    (1.5, -0.0, float("nan"), float("inf"), None, [], [1], {}, "1/0", " 3/00")
)
# keys that look like rationals are written as they are, never canonicalised
raw_keys = st.sampled_from(("c2", "s", "ch2", "2/4", " 3 ", "-0", "é"))
FIELDS = ("inputs", "kind", "outputs", "schema_version")


@st.composite
def raw_documents(draw):
    """JSON text of a catalog document, valid or with one defect.

    Entries draw their values from one small pool of raw spellings, so the
    same raw string recurs across entries; field and key order vary.
    """
    pool = draw(st.lists(raw_values, min_size=1, max_size=5))
    maps = st.dictionaries(raw_keys, st.sampled_from(pool), max_size=4)
    entries = []
    for _ in range(draw(st.integers(0, 5))):
        fields = {
            "inputs": draw(maps),
            "kind": draw(st.sampled_from(ENTRY_KINDS)),
            "outputs": draw(maps),
            "schema_version": 1,
        }
        order = draw(st.permutations(FIELDS))
        entries.append({name: fields[name] for name in order})
    doc = {"entries": entries, "schema_version": 1}
    defect = draw(st.sampled_from((None, None, "value", "kind", "version", "field", "entry", "document")))
    if defect == "document":
        doc = draw(st.sampled_from((
            {"schema_version": 1}, [], {"entries": {"a": 1}}, {"entries": None},
            {"entries": entries}, {"entries": entries, "schema_version": 2},
            {"entries": entries, "schema_version": True},
        )))
    elif defect == "entry":
        entries.insert(draw(st.integers(0, len(entries))), draw(st.sampled_from((1, "x", None, []))))
    elif entries and defect is not None:
        entry = draw(st.sampled_from(entries))
        if defect == "value":
            entry[draw(st.sampled_from(("inputs", "outputs")))][draw(raw_keys)] = draw(bad_values)
        elif defect == "kind":
            entry["kind"] = draw(st.sampled_from(("sheaf", "", 1, None)))
        elif defect == "version":
            entry["schema_version"] = draw(st.sampled_from((True, "1", 1.0, None, 0, 2)))
        else:
            entry[draw(st.sampled_from(("inputs", "outputs")))] = draw(st.sampled_from(([], "x", 3)))
            if draw(st.booleans()):
                del entry[draw(st.sampled_from(FIELDS))]
    if draw(st.booleans()):  # the layout chowkit writes, which the block reader reads
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return json.dumps(doc)


def _outcome(read, text):
    try:
        return read(text)
    except DomainError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(raw_documents())
@example(json.dumps({"entries": [
    {"inputs": {"c2": 5, "2/4": " 2/4"}, "kind": "stratum", "outputs": {"ch2": "-0", "ch3": "007"},
     "schema_version": 1},
    {"schema_version": 1, "outputs": {"ch3": " 2/4", "ch2": "-0"}, "kind": "bound",
     "inputs": {"c2": "007"}},
], "schema_version": 1}))
@example(json.dumps({"entries": [
    {"inputs": {"s": " 1/2"}, "kind": "bound", "outputs": {}, "schema_version": 1},
    {"inputs": {"s": " 1/2", "c2": "1/0"}, "kind": "bound", "outputs": {}, "schema_version": 1},
], "schema_version": 1}))
def test_canonical_lines_match_parse_catalog(text):
    lines = _outcome(canonical_lines, text)
    assert lines == _outcome(lambda t: [serialize_entry(e) for e in parse_catalog(t)], text)
    if isinstance(lines, list):
        # each line is the compact json.dumps of the entry parse_catalog read
        assert lines == [reference_entry(e) for e in parse_catalog(text)]
    # the block reader refuses what it cannot read, and reads the rest as they do
    streamed = _outcome(lambda t: list(stream_canonical_lines(io.StringIO(t))), text)
    if isinstance(streamed, list):
        assert streamed == lines


@cache
def _written(name):
    """A small catalog of kind ``name``, as chowkit writes it."""
    args = {"strata": (range(5, 7), range(0, 3)), "bounds": (2, -1, range(0, 4)),
            "resolutions": (range(5, 8),), "monads": (2, range(0, 3))}[name]
    return serialize_catalog(CATALOG_KINDS[name].generate(*args))


# characters that make or break JSON and the writer's layout, and any other
edit_chars = st.one_of(st.sampled_from('{}[]",:\\ \n0123456789-/.efnrstu'), st.characters())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(CATALOG_KINDS)),
       st.lists(st.tuples(st.integers(0, 1 << 16), st.sampled_from("rid"), edit_chars),
                min_size=1, max_size=3))
def test_readers_agree_on_edited_catalogs(name, edits):
    """One to three characters of a written catalog replaced, inserted or
    deleted: whenever the block reader accepts the text, its lines are those
    of the whole-document reader, and neither raises but DomainError."""
    text = _written(name)
    for position, edit, char in edits:
        at = position % (len(text) + 1)
        text = text[:at] + ("" if edit == "d" else char) + text[at + (edit != "i"):]
    whole = _outcome(canonical_lines, text)
    streamed = _outcome(lambda t: list(stream_canonical_lines(io.StringIO(t))), text)
    if isinstance(streamed, list):
        assert streamed == whole


@pytest.mark.parametrize("write", ["generate", "document"])
def test_negative_length_raises(write):
    write = getattr(CATALOG_KINDS["strata"], write)
    with pytest.raises(InadmissibleParameterError):
        list(write(range(5, 6), range(-1, 1)))
    # no (c2, s) in the grid: the length range is still checked
    with pytest.raises(InadmissibleParameterError):
        list(write(range(0, 1), range(-2, 0)))


def test_cli_negative_length_is_a_domain_error(capsys):
    code = main(["catalog", "strata", "--c2", "5..5", "--l", "-1..0"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["error"]["type"] == "InadmissibleParameterError"
