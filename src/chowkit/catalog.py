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

Reading goes through one value decoder, which maps each raw JSON value to
its value and its canonical JSON text.  :func:`parse_catalog` builds
entries from the values; :func:`canonical_lines` joins the texts into each
entry's canonical line without building the entry, and ``catalog diff``
compares those lines and prints the differing ones with the same encoder
(:func:`diff_document`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping

from .bounds import _c3_interval, _ch2_of_classes, bound_report
from .chow import _RATIONAL_RE, ChernClasses, chern_to_character, parse_rational, rational_str
from .errors import DomainError, InadmissibleParameterError
from .monads import monad_shape, partition_types
from .resolutions import admissible_s, presentation_report, verify_resolution_chern

SCHEMA_VERSION = 1

KINDS = ("bound", "resolution", "monad", "stratum")


def _check_version(schema_version: Any, where: str) -> None:
    """Only the int SCHEMA_VERSION is known; True == 1 is not a version."""
    if type(schema_version) is not int or schema_version != SCHEMA_VERSION:
        raise InadmissibleParameterError(
            f"{where} schema_version must be {SCHEMA_VERSION}, got {schema_version!r}"
        )


def _check_tags(kind: Any, schema_version: Any) -> None:
    if kind not in KINDS:
        raise InadmissibleParameterError(f"kind must be one of {KINDS}, got {kind!r}")
    _check_version(schema_version, "entry")


@dataclass(frozen=True)
class CatalogEntry:
    """One computed record: a kind tag plus input and output maps.

    The maps are read-only ``types.MappingProxyType`` views.  Any other
    mapping is copied into a new one, so changing the caller's dict later
    changes no entry; a ``MappingProxyType`` is kept as it is, so entries
    built from one share it rather than copy it (``strata_catalog`` gives
    all the entries of one (c2, s) the same outputs map).
    """

    kind: str
    inputs: Mapping[str, Any]
    outputs: Mapping[str, Any]
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_tags(self.kind, self.schema_version)
        object.__setattr__(self, "inputs", _read_only(self.inputs))
        object.__setattr__(self, "outputs", _read_only(self.outputs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CatalogEntry):
            return NotImplemented
        # Fraction(3) == 3 would blur the int/rational distinction; compare
        # the serialized forms so equality matches byte-level identity.
        return serialize_entry(self) == serialize_entry(other)

    def __reduce__(self):
        # a mappingproxy neither pickles nor deep-copies; plain dicts do
        args = (self.kind, dict(self.inputs), dict(self.outputs), self.schema_version)
        return CatalogEntry, args


def _read_only(mapping: Mapping[str, Any]) -> MappingProxyType:
    if type(mapping) is MappingProxyType:
        return mapping
    return MappingProxyType(dict(mapping))


# ---------------------------------------------------------------------------
# encoding: each map is encoded once, into (key, value) JSON text pairs that
# both the compact canonical line and the indented document block are joined
# from.  The output is byte-identical to ``json.dumps(..., sort_keys=True)``
# with ``separators=(",", ":")`` (one entry) or ``indent=2`` (the document).

_json_str = json.encoder.encode_basestring_ascii


def _encode_value(value: Any) -> str:
    """JSON text of one ``inputs``/``outputs`` value."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, Fraction):
        return _json_str(rational_str(value))
    if isinstance(value, str):
        if _RATIONAL_RE.match(value.strip()):
            raise DomainError(
                f"string value {value!r} would be parsed back as a rational"
            )
        return _json_str(value)
    raise DomainError(f"unsupported catalog value {value!r}")


def _encode_map(mapping: Mapping[str, Any]) -> list[tuple[str, str]]:
    """(key, value) JSON text pairs of one map, sorted by key."""
    try:
        return [(_json_str(k), _encode_value(v)) for k, v in sorted(mapping.items())]
    except TypeError as exc:  # a key that is not a string
        raise DomainError(f"catalog keys must be strings: {exc}") from exc


def _compact_map(pairs: list[tuple[str, str]]) -> str:
    return "{" + ",".join([k + ":" + v for k, v in pairs]) + "}"


def _compact_line(inputs: str, kind: str, outputs: str, version: str) -> str:
    """One entry's canonical line, from its fields' compact JSON texts."""
    return (
        '{"inputs":' + inputs + ',"kind":' + kind + ',"outputs":' + outputs
        + ',"schema_version":' + version + "}"
    )


def _indented_map(pairs: list[tuple[str, str]]) -> str:
    if not pairs:
        return "{}"
    items = ",\n        ".join([k + ": " + v for k, v in pairs])
    return "{\n        " + items + "\n      }"


def _indented_block(inputs: str, kind: str, outputs: str, version: str) -> str:
    """One entry as it appears, two levels deep, in the catalog document."""
    return (
        '    {\n      "inputs": ' + inputs
        + ',\n      "kind": ' + kind
        + ',\n      "outputs": ' + outputs
        + ',\n      "schema_version": ' + version + "\n    }"
    )


def _indented_list(head: str, blocks: list[str], tail: str) -> str:
    """``head``, a list of entry blocks one level deep in a document, ``tail``.

    The text is joined in one pass, with no second copy of the (large)
    list; ``blocks`` is used up: its first and last items are replaced.
    """
    if not blocks:
        return head + "[]" + tail
    blocks[0] = head + "[\n" + blocks[0]
    blocks[-1] += "\n  ]" + tail
    return ",\n".join(blocks)


# ---------------------------------------------------------------------------
# decoding: one value decoder turns each raw JSON value into its value and
# its canonical JSON text; the checks on each raw entry are made in one place.


def _value_decoder() -> Callable[[Any], tuple[Any, str]]:
    """A fresh decoder: raw JSON value -> (catalog value, canonical JSON text).

    Raw strings repeat across a catalog's entries (ch2 and ch3 over every
    partition label, the labels over every (c2, s)), so the decoder keeps
    each distinct string's result; make one per document.
    """
    memo: dict[str, tuple[Any, str]] = {}

    def decode(raw: Any) -> tuple[Any, str]:
        if type(raw) is int:
            return raw, int.__repr__(raw)
        if isinstance(raw, str):
            known = memo.get(raw)
            if known is None:
                if _RATIONAL_RE.match(raw.strip()):
                    value = parse_rational(raw)
                    known = (value, _json_str(rational_str(value)))
                else:
                    known = (raw, _json_str(raw))
                memo[raw] = known
            return known
        if isinstance(raw, int):  # bool, or an int subclass
            return raw, _encode_value(raw)
        if isinstance(raw, float):
            raise DomainError(f"floating point value {raw!r} is not allowed in catalogs")
        raise DomainError(f"unsupported catalog value {raw!r}")

    return decode


def _decode_entry(data: Mapping[str, Any], decode: Callable) -> tuple:
    """Check one raw entry: (kind, inputs, outputs, schema_version).

    The maps hold the decoder's (value, text) pairs.  The checks run in the
    order that building a :class:`CatalogEntry` from ``data`` runs them, so
    a malformed entry raises the same error through every reader.
    """
    inputs, outputs = data["inputs"], data["outputs"]
    if not isinstance(inputs, dict) or not isinstance(outputs, dict):
        raise DomainError("entry inputs and outputs must be JSON objects")
    kind = data["kind"]
    inputs = {k: decode(v) for k, v in inputs.items()}
    outputs = {k: decode(v) for k, v in outputs.items()}
    version = data["schema_version"]
    _check_tags(kind, version)
    return kind, inputs, outputs, version


def _decoded_entry(data: Mapping[str, Any], decode: Callable) -> CatalogEntry:
    kind, inputs, outputs, version = _decode_entry(data, decode)
    return CatalogEntry(
        kind,
        {k: value for k, (value, _) in inputs.items()},
        {k: value for k, (value, _) in outputs.items()},
        version,
    )


def _decoded_pieces(data: Mapping[str, Any], decode: Callable) -> tuple:
    """Of one raw entry: the JSON text pairs of inputs, kind, outputs, version."""
    kind, inputs, outputs, version = _decode_entry(data, decode)
    return (
        [(_json_str(k), inputs[k][1]) for k in sorted(inputs)],
        _json_str(kind),
        [(_json_str(k), outputs[k][1]) for k in sorted(outputs)],
        int.__repr__(version),
    )


def _decoded_line(data: Mapping[str, Any], decode: Callable) -> str:
    inputs, kind, outputs, version = _decoded_pieces(data, decode)
    return _compact_line(_compact_map(inputs), kind, _compact_map(outputs), version)


def _read_document(text: str, read_entry: Callable) -> list:
    """``read_entry(raw, decode)`` of each entry of a catalog document."""
    decode = _value_decoder()
    try:
        document = json.loads(text)
        entries = document["entries"]
        _check_version(document["schema_version"], "document")
        return [read_entry(e, decode) for e in entries]
    except DomainError:
        raise
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise DomainError(f"not a catalog document: {type(exc).__name__}: {exc}") from exc


def serialize_entry(entry: CatalogEntry) -> str:
    """Canonical single-line JSON for one entry."""
    return _compact_line(
        _compact_map(_encode_map(entry.inputs)),
        _json_str(entry.kind),
        _compact_map(_encode_map(entry.outputs)),
        int.__repr__(entry.schema_version),
    )


def serialize_catalog(entries: Iterable[CatalogEntry]) -> str:
    """Canonical catalog document: entries sorted by their canonical line.

    The layout is ``json.dumps(doc, sort_keys=True, indent=2)`` plus a
    trailing newline, where ``doc`` holds the entries and the schema version.

    Consecutive entries that share one outputs map (the same object, as
    ``strata_catalog`` builds them) encode it once: the texts of the last
    outputs map are kept and reused while the next entry's map ``is`` it.
    Nothing else is remembered, so a map must not change while its
    entries are being serialized.
    """
    pairs = []
    last = None  # the last outputs map; its compact and indented texts follow
    for entry in entries:
        inputs = _encode_map(entry.inputs)
        if entry.outputs is not last:
            encoded = _encode_map(entry.outputs)
            last, compact, indented = entry.outputs, _compact_map(encoded), _indented_map(encoded)
        kind, version = _json_str(entry.kind), int.__repr__(entry.schema_version)
        pairs.append((
            _compact_line(_compact_map(inputs), kind, compact, version),
            _indented_block(_indented_map(inputs), kind, indented, version),
        ))
    pairs.sort()
    tail = ',\n  "schema_version": ' + int.__repr__(SCHEMA_VERSION) + "\n}\n"
    return _indented_list('{\n  "entries": ', [block for _, block in pairs], tail)


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


def diff_lines(a: Iterable[str], b: Iterable[str]) -> dict[str, list[str]]:
    """Set difference of two collections of canonical lines, each sorted."""
    a, b = set(a), set(b)
    return {"only_in_a": sorted(a - b), "only_in_b": sorted(b - a)}


def diff_document(delta: Mapping[str, list[str]]) -> str:
    """The JSON text ``catalog diff`` prints for a :func:`diff_lines` result.

    ``json.dumps(payload, sort_keys=True, indent=2)`` plus a newline, where
    the payload holds ``identical`` and the entries of ``only_in_a`` and
    ``only_in_b``.  Each entry is written from its canonical line's texts,
    in the block layout of a catalog document.
    """
    decode = _value_decoder()

    def blocks(lines: list[str]) -> list[str]:
        pieces = [_decoded_pieces(json.loads(line), decode) for line in lines]
        return [
            _indented_block(_indented_map(inputs), kind, _indented_map(outputs), version)
            for inputs, kind, outputs, version in pieces
        ]

    a, b = delta["only_in_a"], delta["only_in_b"]
    head = '{\n  "identical": ' + ("false" if a or b else "true") + ',\n  "only_in_a": '
    return (
        _indented_list(head, blocks(a), ',\n  "only_in_b": ')
        + _indented_list("", blocks(b), "\n}\n")
    )


def bounds_catalog(r: int, c1: int, c2_range: range) -> list[CatalogEntry]:
    """One "bound" entry per c2: the ch_3 bound and the admissible c3 interval."""
    entries = []
    for c2 in c2_range:
        ch2 = _ch2_of_classes(c1, c2)
        report = bound_report(r, c1, ch2)
        # the interval of enumerate_admissible_c3, from the same ch_3 bound
        c3_min, c3_max = _c3_interval(c1, c2, report.ch3_bound)
        entries.append(
            CatalogEntry(
                kind="bound",
                inputs={"rank": r, "c1": c1, "c2": c2},
                outputs={
                    "ch2": ch2,
                    "ch3_bound": report.ch3_bound,
                    "euler_bound": report.euler_bound,
                    "q": report.q,
                    "c3_min": c3_min,
                    "c3_max": c3_max,
                },
            )
        )
    return entries


def resolutions_catalog(c2_range: range) -> list[CatalogEntry]:
    """One "resolution" entry per admissible (c2, s)."""
    entries = []
    for c2 in c2_range:
        for s in admissible_s(c2):
            report = presentation_report(c2, s)
            entries.append(
                CatalogEntry(
                    kind="resolution",
                    inputs={"c2": c2, "s": s},
                    outputs={
                        "c3": report.c3,
                        "r_minus1": str(report.r_minus1),
                        "r0": str(report.r0),
                        "chern_consistent": verify_resolution_chern(report),
                        "dim_hom": report.dim_hom,
                        "dim_pv": report.dim_pv,
                        "dim_g": report.dim_g,
                    },
                )
            )
    return entries


def monads_catalog(r_max: int, charge_range: range) -> list[CatalogEntry]:
    """One "monad" entry per normalized (r, d) and integer charge."""
    entries = []
    for r in range(1, r_max + 1):
        for d in range(-r + 1, 1):
            for c in charge_range:
                if c < 0 or d + c < 0:
                    continue
                ch2 = Fraction(-2 * c - d, 2)
                shape = monad_shape(r, d, ch2)
                entries.append(
                    CatalogEntry(
                        kind="monad",
                        inputs={"rank": r, "degree": d, "charge": c},
                        outputs={
                            "ch2": ch2,
                            "v": shape.v,
                            "w": shape.w,
                            "u": shape.u,
                        },
                    )
                )
    return entries


def strata_catalog(c2_range: range, l_range: range) -> list[CatalogEntry]:
    """One "stratum" entry per (c2, s, c3, partition type of length l).

    The stratum labels combine the admissible P^3 Chern data with the
    length-l partition types of the zero-dimensional quotient; ch_3 of the
    reflexive part and the ambient presentation dimensions are recorded.
    """
    # The labels depend on l alone; partition_types also rejects l < 0.
    labels = [(l, [str(ptype) for ptype in partition_types(l)]) for l in l_range]
    entries = []
    for c2 in c2_range:
        for s in admissible_s(c2):
            report = presentation_report(c2, s)
            character = chern_to_character(ChernClasses(2, -1, c2, report.c3), 3)
            # one read-only map per (c2, s), shared by all its entries, so
            # serialize_catalog encodes it once per (c2, s)
            outputs = MappingProxyType({
                "c3": report.c3,
                "ch2": character.ch2,
                "ch3": character.ch3,
                "dim_hom": report.dim_hom,
                "dim_pv": report.dim_pv,
                "dim_g": report.dim_g,
            })
            for l, partitions in labels:
                for partition in partitions:
                    entries.append(
                        CatalogEntry(
                            kind="stratum",
                            inputs={
                                "c2": c2,
                                "s": s,
                                "l": l,
                                "partition": partition,
                            },
                            outputs=outputs,
                        )
                    )
    return entries
