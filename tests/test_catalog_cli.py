"""Tests for catalog serialization and the command line interface."""

import contextlib
import copy
import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chowkit import catalog, cli, resolutions
from chowkit.bounds import ch3_bound, enumerate_admissible_c3, euler_bound
from chowkit.catalog import (
    CATALOG_KINDS,
    CatalogEntry,
    canonical_lines,
    diff_pieces,
    diff_sorted,
    parse_catalog,
    serialize_catalog,
    serialize_entry,
)
from chowkit.cli import main
from chowkit.errors import DomainError, InadmissibleParameterError
from chowkit.monads import partition_types
from chowkit.resolutions import admissible_s

from conftest import set_diff

F = Fraction
ENTRY_KINDS = tuple(kind.entry_kind for kind in CATALOG_KINDS.values())

KEY_POOL = ("c1", "c2", "c3", "ch2", "ch3", "rank", "s", "l", "q", "t", "dim")


def random_entry(rng):
    def value():
        if rng.random() < 0.5:
            return rng.randint(-10**6, 10**6)
        return F(rng.randint(-999, 999), rng.randint(1, 99))

    def mapping():
        keys = rng.sample(KEY_POOL, rng.randint(1, 5))
        return {k: value() for k in keys}

    return CatalogEntry(kind=rng.choice(ENTRY_KINDS), inputs=mapping(), outputs=mapping())


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# entry serialization


def test_entry_round_trip_is_lossless():
    rng = random.Random(51)
    for _ in range(200):
        entry = random_entry(rng)
        text = serialize_entry(entry)
        (parsed,) = parse_catalog(serialize_catalog([entry]))
        assert parsed == entry
        assert serialize_entry(parsed) == text


def test_entry_distinguishes_int_from_rational():
    as_int = CatalogEntry("bound", {"c2": 3}, {})
    as_fraction = CatalogEntry("bound", {"c2": F(3)}, {})
    assert serialize_entry(as_int) != serialize_entry(as_fraction)
    assert parse_catalog(serialize_catalog([as_int])) == [as_int]
    assert parse_catalog(serialize_catalog([as_fraction])) == [as_fraction]
    assert as_int != as_fraction


def test_entry_rejects_bad_values():
    with pytest.raises(InadmissibleParameterError):
        CatalogEntry("sheaf", {}, {})
    with pytest.raises(DomainError):
        serialize_entry(CatalogEntry("bound", {"x": "3/2"}, {}))
    with pytest.raises(DomainError):
        serialize_entry(CatalogEntry("bound", {"x": 1.5}, {}))
    with pytest.raises(DomainError):
        parse_catalog(_one_entry(inputs=b'{"x": 1.5}').decode())
    with pytest.raises(DomainError):
        serialize_entry(CatalogEntry("bound", {1: 2}, {}))


def test_entry_kinds_are_the_kind_table_rows():
    # each catalog <kind> generates entries of its row's entry kind
    small = {"strata": (range(5, 6), range(0, 2)), "bounds": (2, -1, range(0, 2)),
             "resolutions": (range(5, 7),), "monads": (2, range(0, 2))}
    for name, kind in CATALOG_KINDS.items():
        assert {e.kind for e in kind.generate(*small[name])} == {kind.entry_kind}
    assert sorted(ENTRY_KINDS) == ["bound", "monad", "resolution", "stratum"]
    # an unknown kind, an unhashable one included, names every kind
    for bad in ("sheaf", "", 1, None, ["bound"]):
        with pytest.raises(InadmissibleParameterError, match="kind must be one of") as caught:
            CatalogEntry(bad, {}, {})
        assert all(repr(k) in str(caught.value) for k in ENTRY_KINDS)
    for read in (parse_catalog, canonical_lines):
        with pytest.raises(InadmissibleParameterError, match="kind must be one of"):
            read(_one_entry(kind=b'["bound"]').decode())


def test_entry_rejects_unknown_schema_version():
    assert CatalogEntry("bound", {}, {}, 1).schema_version == 1
    for version in (0, 2, 7, True, "1"):
        with pytest.raises(InadmissibleParameterError, match="schema_version must be 1"):
            CatalogEntry("bound", {}, {}, version)


@pytest.mark.parametrize("read", [parse_catalog, canonical_lines])
def test_readers_reject_unknown_schema_versions(read):
    entry_7 = _one_entry(outputs=b'{"q": "1/2"}', version=b"7").decode()
    with pytest.raises(DomainError, match="entry schema_version must be 1, got 7"):
        read(entry_7)
    doc_99 = _one_entry(outputs=b'{"q": "1/2"}', document_version=b"99").decode()
    with pytest.raises(DomainError, match="document schema_version must be 1, got 99"):
        read(doc_99)
    with pytest.raises(DomainError, match="document schema_version must be 1, got True"):
        read('{"entries": [], "schema_version": true}')
    with pytest.raises(DomainError, match="KeyError: 'schema_version'"):
        read('{"entries": []}')
    assert read('{"entries": [], "schema_version": 1}') == []


def test_catalog_document_round_trip_and_sorting():
    rng = random.Random(52)
    entries = [random_entry(rng) for _ in range(25)]
    document = serialize_catalog(entries)
    parsed = parse_catalog(document)
    assert sorted(map(serialize_entry, parsed)) == sorted(
        map(serialize_entry, entries)
    )
    # serialization is canonical: order of the input list does not matter
    rng.shuffle(entries)
    assert serialize_catalog(entries) == document


def test_diff_catalogs():
    rng = random.Random(53)
    lines = [serialize_entry(random_entry(rng)) for _ in range(10)]
    extra = serialize_entry(random_entry(rng))

    def diff(a, b):  # as catalog.diff_files merges two files read whole
        delta = diff_sorted(sorted(set(a)), sorted(set(b)))
        assert delta == set_diff(a, b)
        return delta

    assert diff(lines, lines) == {"only_in_a": [], "only_in_b": []}
    assert diff(lines + [extra], lines) == {"only_in_a": [extra], "only_in_b": []}
    # an entry repeated in one file counts once
    assert diff(lines + lines + [extra], [extra, extra]) == {"only_in_a": sorted(lines), "only_in_b": []}


# ---------------------------------------------------------------------------
# catalog generators


def test_strata_catalog_shape():
    entries = list(CATALOG_KINDS["strata"].generate(range(5, 7), range(0, 2)))
    # c2 = 5, 6 each admit s = 1 only; lengths 0 and 1 each have one type
    assert len(entries) == 4
    assert all(e.kind == "stratum" for e in entries)
    first = entries[0]
    assert first.inputs["c2"] == 5
    assert first.outputs["c3"] == 19
    assert first.outputs["ch3"] == F(71, 6)


def test_strata_catalog_empty_below_threshold():
    assert list(CATALOG_KINDS["strata"].generate(range(4, 5), range(0, 3))) == []


def test_bounds_catalog_entries():
    entries = list(CATALOG_KINDS["bounds"].generate(2, -1, range(5, 6)))
    assert len(entries) == 1
    outputs = entries[0].outputs
    assert outputs["ch3_bound"] == F(2635, 6)
    assert outputs["c3_min"] == -882
    assert outputs["c3_max"] == 873


def test_bounds_catalog_matches_the_standalone_functions():
    for r, c1 in [(1, 0), (2, -1), (3, 2), (5, -4)]:
        for entry in CATALOG_KINDS["bounds"].generate(r, c1, range(-3, 40)):
            c2 = entry.inputs["c2"]
            ch2 = F(c1 * c1 - 2 * c2, 2)
            out = entry.outputs
            assert (out["c3_min"], out["c3_max"]) == enumerate_admissible_c3(r, c1, c2)
            assert out["ch3_bound"] == ch3_bound(r, c1, ch2)
            assert out["euler_bound"] == euler_bound(r, c1, ch2)


def test_resolutions_catalog_entries():
    entries = list(CATALOG_KINDS["resolutions"].generate(range(5, 11)))
    pairs = [(e.inputs["c2"], e.inputs["s"]) for e in entries]
    assert pairs == [(5, 1), (6, 1), (7, 1), (8, 1), (8, 2), (9, 1), (9, 2), (10, 1), (10, 2)]
    assert all(e.outputs["chern_consistent"] is True for e in entries)


@pytest.fixture
def shape_builds(monkeypatch):
    """The (c2, s) of every resolution_shapes call, through any module's name."""
    calls = []
    build = resolutions.resolution_shapes

    def counting(c2, s):
        calls.append((c2, s))
        return build(c2, s)

    for module in (resolutions, catalog, cli):
        if getattr(module, "resolution_shapes", None) is build:
            monkeypatch.setattr(module, "resolution_shapes", counting)
    return calls


def test_each_resolution_is_built_once(shape_builds, capsys):
    entries = list(CATALOG_KINDS["resolutions"].generate(range(5, 41)))
    assert shape_builds == [(e.inputs["c2"], e.inputs["s"]) for e in entries]

    shape_builds.clear()
    list(CATALOG_KINDS["strata"].generate(range(5, 21), range(0, 3)))
    assert shape_builds == [(c2, s) for c2 in range(5, 21) for s in admissible_s(c2)]

    shape_builds.clear()
    code, _, _ = run_cli(["resolution", "--c2", "9", "--s", "2", "--verify"], capsys)
    assert code == 0
    assert shape_builds == [(9, 2)]


def test_monads_catalog_entries():
    entries = list(CATALOG_KINDS["monads"].generate(2, range(0, 3)))
    # (r, d) in {(1,0), (2,-1), (2,0)}; d = -1 drops charge 0 (d + c < 0)
    assert len(entries) == 8
    shapes = [(e.inputs["rank"], e.inputs["degree"], e.inputs["charge"]) for e in entries]
    assert shapes == sorted(shapes)  # the order of the CSV rows
    for entry in entries:
        r, d, c = (
            entry.inputs["rank"],
            entry.inputs["degree"],
            entry.inputs["charge"],
        )
        assert entry.outputs["w"] == r + d + 2 * c


def test_monads_catalog_reads_a_one_shot_charge_iterator():
    """Every (r, d) run of the monads' generation order reads every charge,
    so a one-shot iterator of charges gives the catalog of its range."""
    kind = CATALOG_KINDS["monads"]
    want = list(kind.generate(2, range(0, 3)))
    assert len(want) == 8
    assert list(kind.generate(2, iter(range(0, 3)))) == want
    rows = [row for _, run in kind.generation_rows(2, range(0, 3))[1] for row in run]
    once = [row for _, run in kind.generation_rows(2, iter(range(0, 3)))[1] for row in run]
    assert once == rows and len(rows) == 8
    document = kind.document(2, iter(range(0, 3)))
    assert "".join(document.pieces) == serialize_catalog(want)
    assert document.count == 8


# ---------------------------------------------------------------------------
# CLI behaviour


def test_cli_todd_payload(capsys):
    code, out, _ = run_cli(["todd", "--dim", "3"], capsys)
    assert code == 0
    assert json.loads(out) == {
        "dim": 3,
        "components": ["1", "2", "11/6", "1"],
    }


def test_cli_todd_domain_error(capsys):
    code, out, _ = run_cli(["todd", "--dim", "4"], capsys)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "UnsupportedDimensionError"


def test_cli_usage_errors(capsys):
    code, _, _ = run_cli(["no-such-command"], capsys)
    assert code == 2
    # chern takes exactly one of --classes and --character
    code, out, err = run_cli(["chern", "--dim", "2"], capsys)
    assert (code, out) == (2, "")
    assert "one of the arguments --classes --character is required" in err
    code, out, err = run_cli(
        ["chern", "--dim", "2", "--classes", "2,0,5", "--character", "2,0,-5"], capsys
    )
    assert (code, out) == (2, "")
    assert "not allowed with argument" in err
    code, out, err = run_cli(["chern", "--dim", "2", "--classes", "2,0"], capsys)
    assert (code, out) == (2, "")
    assert "--classes needs rank,c1,c2" in err
    code, out, err = run_cli(["chern", "--dim", "2", "--character", "2,-1,-9/2,71/6"], capsys)
    assert (code, out) == (2, "")
    assert "--character has 4 components but --dim is 2" in err
    code, _, _ = run_cli(["bound", "--rank", "2", "--c1", "-1", "--ch2", "x"], capsys)
    assert code == 2
    code, _, _ = run_cli([], capsys)
    assert code == 2


def test_cli_bound_report(capsys):
    code, out, _ = run_cli(
        ["bound", "--rank", "2", "--c1", "-1", "--ch2", "-9/2"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ch3_bound"] == "2635/6"
    assert payload["q"] == "69/4"
    code, out, _ = run_cli(
        ["bound", "--rank", "2", "--c1", "-1", "--ch2", "-9/2", "--b", "0,-1"],
        capsys,
    )
    payload = json.loads(out)
    assert payload["q"] == "23/2"
    assert payload["h_bounds"] == ["1", "115/2", "115/2", "0"]
    # literal mode reproduces the raw (possibly negative) factors
    code, out, _ = run_cli(
        ["bound", "--rank", "2", "--c1", "0", "--ch2", "10", "--b", "0,0",
         "--literal"],
        capsys,
    )
    payload = json.loads(out)
    assert payload["q"] == "-4"
    assert payload["h_bounds"][1] == "40"
    assert payload["literal_mode"] is True


@pytest.mark.parametrize(
    "b, problem",
    [
        ("5,-7", "is not a splitting type"),
        ("5,5", "is not a splitting type"),
        ("3,-3", "above the splitting radius"),
    ],
)
def test_cli_bound_rejects_bad_splitting_type(b, problem, capsys):
    code, out, err = run_cli(
        ["bound", "--rank", "2", "--c1", "0", "--ch2", "0", "--b", b], capsys
    )
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "InadmissibleParameterError"
    assert problem in error["message"]
    assert err == ""


def test_cli_bound_rejects_a_splitting_type_of_another_rank(capsys):
    code, out, err = run_cli(
        ["bound", "--rank", "2", "--c1", "0", "--ch2", "0", "--b", "1,0,-1"], capsys
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "RankMismatchError"
    assert err == ""


def test_cli_bound_rejects_a_splitting_type_that_is_not_integers(capsys):
    code, out, err = run_cli(
        ["bound", "--rank", "2", "--c1", "0", "--ch2", "0", "--b", "1,x"], capsys
    )
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "chowkit bound: error: argument --b: invalid _int_list value: '1,x'"


def test_cli_euler_and_restrict(capsys):
    # chi = 71/6 + 2(-9/2) + (11/6)(-1) + 2 = 3
    code, out, _ = run_cli(["euler", "--character", "2,-1,-9/2,71/6"], capsys)
    assert code == 0
    assert json.loads(out)["euler"] == "3"
    code, out, _ = run_cli(["restrict", "--character", "2,-1,-9/2,71/6"], capsys)
    payload = json.loads(out)
    assert payload["restricted"] == ["2", "-1", "-9/2"]
    assert payload["pushforward"] == ["0", "2", "-2", "-11/3"]


def test_cli_chern_both_directions(capsys):
    code, out, _ = run_cli(
        ["chern", "--dim", "3", "--classes", "2,-1,5,19"], capsys
    )
    assert code == 0
    assert json.loads(out)["character"] == ["2", "-1", "-9/2", "71/6"]
    code, out, _ = run_cli(
        ["chern", "--dim", "3", "--character", "2,-1,-9/2,71/6"], capsys
    )
    assert json.loads(out)["classes"] == {"rank": 2, "c1": -1, "c2": 5, "c3": 19}
    code, out, _ = run_cli(
        ["chern", "--dim", "2", "--character", "2,0,1/3"], capsys
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "IntegralityError"
    code, out, _ = run_cli(["chern", "--dim", "2", "--classes", "2,0,5"], capsys)
    assert code == 0
    assert json.loads(out)["character"] == ["2", "0", "-5"]


def test_cli_resolution_verify(capsys):
    code, out, _ = run_cli(
        ["resolution", "--c2", "5", "--s", "1", "--verify"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["chern_consistent"] is True
    assert payload["c3"] == 19
    code, out, _ = run_cli(["resolution", "--c2", "4", "--s", "1"], capsys)
    assert code == 1


def test_cli_monad_and_partitions(capsys):
    code, out, _ = run_cli(
        ["monad", "--rank", "2", "--degree", "-1", "--ch2", "-9/2"], capsys
    )
    assert code == 0
    assert json.loads(out)["exponents"] == {"v": 4, "w": 11, "u": 5}
    code, out, _ = run_cli(["partitions", "--total", "2"], capsys)
    assert json.loads(out)["count"] == 3


def test_cli_splitting_types(capsys):
    code, out, _ = run_cli(["splitting-types", "--rank", "2", "--c1", "0"], capsys)
    assert json.loads(out)["types"] == [[1, -1], [0, 0]]
    code, out, _ = run_cli(
        ["splitting-types", "--rank", "2", "--c1", "0", "--no-reflexive-gap"],
        capsys,
    )
    assert json.loads(out)["types"] == [[2, -2], [1, -1], [0, 0]]


def test_cli_enumerate_c3(capsys):
    code, out, _ = run_cli(
        ["enumerate-c3", "--rank", "2", "--c1", "-1", "--c2", "5"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["c3_min"], payload["c3_max"]) == (-882, 873)


def test_cli_catalog_stdout_is_deterministic(capsys):
    args = ["catalog", "strata", "--c2", "5..8", "--l", "0..2"]
    code_a, out_a, _ = run_cli(args, capsys)
    code_b, out_b, _ = run_cli(args, capsys)
    assert code_a == code_b == 0
    assert out_a == out_b
    parsed = parse_catalog(out_a)
    assert all(e.kind == "stratum" for e in parsed)


def test_cli_catalog_empty_below_threshold(capsys):
    code, out, _ = run_cli(["catalog", "strata", "--c2", "4..4", "--l", "0..3"], capsys)
    assert code == 0
    assert parse_catalog(out) == []


def test_cli_catalog_files_and_diff(tmp_path, capsys):
    path_a = str(tmp_path / "a.json")
    path_b = str(tmp_path / "b.json")
    for path in (path_a, path_b):
        code, out, _ = run_cli(
            ["catalog", "strata", "--c2", "5..7", "--l", "0..1", "--output", path],
            capsys,
        )
        assert code == 0
    assert Path(path_a).read_bytes() == Path(path_b).read_bytes()

    code, out, _ = run_cli(["catalog", "diff", path_a, path_b], capsys)
    assert code == 0
    assert json.loads(out)["identical"] is True

    path_c = str(tmp_path / "c.json")
    code, _, _ = run_cli(
        ["catalog", "bounds", "--c2", "5..6", "--output", path_c], capsys
    )
    assert code == 0
    code, out, _ = run_cli(["catalog", "diff", path_a, path_c], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["identical"] is False
    assert payload["only_in_a"] and payload["only_in_b"]
    # the top-level alias is gone: "diff" is an unknown subcommand
    code, out, err = run_cli(["diff", path_a, path_c], capsys)
    assert code == 2
    assert out == ""
    assert "invalid choice: 'diff'" in err


def _one_entry(inputs=b"{}", kind=b'"bound"', outputs=b"{}", version=b"1", document_version=b"1"):
    """A catalog document of one entry, with the given raw JSON fields."""
    return (
        b'{"entries": [{"inputs": ' + inputs + b', "kind": ' + kind
        + b', "outputs": ' + outputs + b', "schema_version": ' + version
        + b'}], "schema_version": ' + document_version + b'}'
    )


MALFORMED_CATALOGS = {
    "entry-not-object": b'{"entries": [1], "schema_version": 1}',
    "document-not-object": b"[]",
    "schema-version-not-int": _one_entry(version=b'"one"'),
    "not-utf8": b'{"entries": ["\xff\xfe"]}',
    "float-value": _one_entry(outputs=b'{"ch2": 1.5}'),
    "nan-value": _one_entry(outputs=b'{"ch2": NaN}'),
    "null-value": _one_entry(inputs=b'{"c2": null}'),
    "list-value": _one_entry(inputs=b'{"c2": [5]}'),
    "unknown-kind": _one_entry(kind=b'"sheaf"'),
    "zero-denominator": _one_entry(outputs=b'{"ch2": "1/0"}'),
    "schema-version-bool": _one_entry(version=b"true"),
    "no-entries": b'{"schema_version": 1}',
    "entry-version-unknown": _one_entry(version=b"7"),
    "document-version-unknown": _one_entry(document_version=b"99"),
    "document-version-missing": b'{"entries": []}',
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CATALOGS))
def test_cli_diff_malformed_catalog(case, tmp_path, capsys):
    good = str(tmp_path / "good.json")
    bad = str(tmp_path / f"{case}.json")
    run_cli(["catalog", "strata", "--c2", "5..5", "--l", "0..0", "--output", good], capsys)
    with open(bad, "wb") as handle:
        handle.write(MALFORMED_CATALOGS[case])
    code, out, err = run_cli(["catalog", "diff", good, bad], capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "DomainError"
    assert bad in error["message"]
    assert err == ""


def test_cli_diff_golden_payload(tmp_path, capsys):
    """The payload's exact bytes for two overlapping strata grids."""
    paths = []
    for c2 in ("5..10", "6..11"):
        paths.append(str(tmp_path / f"strata-{c2}.json"))
        run_cli(["catalog", "strata", "--c2", c2, "--l", "0..2", "--output", paths[-1]], capsys)
    code, out, err = run_cli(["catalog", "diff", *paths], capsys)
    assert code == 1
    assert err == ""
    payload = out.encode("utf-8")
    assert len(payload) == 5016
    assert hashlib.sha256(payload).hexdigest() == (
        "c0ee79e13aa7dae4d18ed36639d7b92587c480764d0cafc39c359c80aa7dc598"
    )


def _diff_documents(tmp_path, capsys, doc_a, doc_b):
    paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    for path, doc in zip(paths, (doc_a, doc_b)):
        with open(path, "wb") as handle:
            handle.write(doc)
    code, out, _ = run_cli(["catalog", "diff", *paths], capsys)
    return code, json.loads(out)


def test_cli_diff_compares_canonical_spellings(tmp_path, capsys):
    canonical = _one_entry(
        inputs=b'{"c2": 5, "label": "x"}', outputs=b'{"ch2": "1/2", "ch3": "7"}'
    )
    respelled = (
        b'{"schema_version": 1, "entries": [{"schema_version": 1,'
        b' "outputs": {"ch3": " 007 ", "ch2": "2/4"}, "kind": "bound",'
        b' "inputs": {"label": "x", "c2": 5}}]}'
    )
    code, payload = _diff_documents(tmp_path, capsys, canonical, respelled)
    assert code == 0
    assert payload == {"identical": True, "only_in_a": [], "only_in_b": []}


def test_cli_diff_keeps_int_and_rational_apart(tmp_path, capsys):
    as_int = _one_entry(outputs=b'{"c3": 3}')
    as_rational = _one_entry(outputs=b'{"c3": "3"}')
    code, payload = _diff_documents(tmp_path, capsys, as_int, as_rational)
    assert code == 1
    assert payload["only_in_a"][0]["outputs"] == {"c3": 3}
    assert payload["only_in_b"][0]["outputs"] == {"c3": "3"}


# the names of _hand_edited's variants
HAND_EDITS = (
    "indent-4", "one-line", "crlf", "shuffled", "duplicated", "version-key-first", "extra-key",
    "half-as-2/4", "empty", "empty-twice", "entries-key-renamed", "truncated", "float-first",
    "float-last", "version-2-last", "document-version-2", "brace-after-block",
    "comma-before-block", "not-utf8-last", "separator-inside-entry",
)


def _hand_edited(text: str) -> dict[str, bytes]:
    """Valid and invalid edits of a catalog document in chowkit's layout."""
    doc = json.loads(text)
    entries = doc["entries"]

    def layout(document):
        return (json.dumps(document, sort_keys=True, indent=2) + "\n").encode()

    def edited(index, field, key, value):
        changed = copy.deepcopy(doc)
        entry = changed["entries"][index]
        if key is None:
            entry[field] = value
        else:
            entry[field][key] = value
        return layout(changed)

    assert layout(doc) == text.encode()
    last_kind = text.rindex('"kind": "bound"') + len('"kind": "bo')
    inside = text.replace('\n      },\n      "kind"', '\n    },\n      "kind"', 1)
    assert inside != text and json.loads(inside) == doc
    return {
        "indent-4": (json.dumps(doc, sort_keys=True, indent=4) + "\n").encode(),
        "one-line": json.dumps(doc, sort_keys=True).encode(),
        "crlf": text.replace("\n", "\r\n").encode(),
        "shuffled": layout({**doc, "entries": entries[::-1]}),
        "duplicated": layout({**doc, "entries": entries[:2] + entries[1:]}),
        "version-key-first": (json.dumps({"schema_version": 1, "entries": entries}, indent=2)
                              + "\n").encode(),
        "extra-key": layout({**doc, "note": "edited by hand"}),
        "half-as-2/4": text.replace('"1/2"', '"2/4"').encode(),
        "empty": layout({"entries": [], "schema_version": 1}),
        "empty-twice": layout({"entries": [], "schema_version": 1}) * 2,
        "entries-key-renamed": text.replace('"entries"', '"entrees"').encode(),
        "truncated": text[: len(text) // 2].encode(),
        "float-first": edited(0, "outputs", "q", 1.5),
        "float-last": edited(-1, "outputs", "q", 1.5),
        "version-2-last": edited(-1, "schema_version", None, 2),
        "document-version-2": layout({**doc, "schema_version": 2}),
        # invalid JSON that keeps every block separator in place
        "brace-after-block": text.replace("\n    },\n", "\n    }\n    },\n", 1).encode(),
        "comma-before-block": text.replace(",\n    {", ",\n   ,{", 1).encode(),
        "not-utf8-last": text[:last_kind].encode() + b"\xff" + text[last_kind:].encode(),
        # the same catalog, with a block separator inside the first entry: its
        # inputs map closes at the indent of an entry block
        "separator-inside-entry": inside.encode(),
    }


def _whole_file_diff(fmt, path_a, path_b):
    """What ``catalog diff`` prints when it reads both files whole."""
    line_sets = []
    for path in (path_a, path_b):
        try:
            line_sets.append(canonical_lines(Path(path).read_text(encoding="utf-8")))
        except (UnicodeDecodeError, DomainError) as exc:
            problem = DomainError(f"malformed catalog {path!r}: {exc}")
            return 2, "".join(cli._payload_pieces(cli._error_payload(problem), fmt))
    delta = set_diff(*line_sets)
    pieces = diff_pieces(delta) if fmt == "json" else cli._csv_table(cli._diff_rows(delta))
    return (1 if delta["only_in_a"] or delta["only_in_b"] else 0), "".join(pieces)


@pytest.fixture(scope="module")
def hand_edited(tmp_path_factory):
    """A small catalog in chowkit's layout, holding "1/2", and its hand-edited variants."""
    directory = tmp_path_factory.mktemp("hand-edited")
    original = directory / "original"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["catalog", "bounds", "--c2", "0..4", "--output", str(original)]) == 0
    text = original.read_text(encoding="utf-8")
    assert '"1/2"' in text
    edits = _hand_edited(text)
    assert sorted(edits) == sorted(HAND_EDITS)
    for name, data in edits.items():
        (directory / name.replace("/", "-")).write_bytes(data)
    return directory


@pytest.mark.parametrize("a, b", [
    *(("original", name) for name in HAND_EDITS),
    ("shuffled", "original"), ("empty", "original"), ("float-last", "original"),
    # the separator inside an entry cuts it apart: a block memo keyed by the
    # pieces would map a piece to another entry's line
    ("separator-inside-entry", "original"), ("separator-inside-entry", "separator-inside-entry"),
    # A is read to its last block after B fails on its first: A is still named
    ("float-last", "float-first"),
])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_diff_streamed_and_whole_file_paths_agree(fmt, a, b, hand_edited, capsys):
    """A catalog in chowkit's layout is read a chunk at a time; an edited one is
    read whole.  Either way ``catalog diff`` prints what the whole-file path does."""
    path_a, path_b = (str(hand_edited / name.replace("/", "-")) for name in (a, b))
    code, out, err = run_cli(["--format", fmt, "catalog", "diff", path_a, path_b], capsys)
    assert (code, out) == _whole_file_diff(fmt, path_a, path_b)
    assert err == ""
    if code == 2:  # the first malformed file is named: A, when both are
        assert repr(path_a if a != "original" else path_b) in out


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_cli_diff_reads_a_pipe_once(hand_edited, capsys):
    """A pipe is read whole, once: the block reader would leave nothing to read
    again when the other file sends the diff to the whole-file path."""
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, (hand_edited / "original").read_bytes())  # below the pipe buffer
        os.close(write_end)
        argv = ["catalog", "diff", f"/dev/fd/{read_end}", str(hand_edited / "shuffled")]
        code, out, _ = run_cli(argv, capsys)
    finally:
        os.close(read_end)
    assert (code, json.loads(out)) == (0, {"identical": True, "only_in_a": [], "only_in_b": []})


def test_cli_diff_peaks_below_the_smaller_file(tmp_path, capsys):
    """Two catalogs in chowkit's layout are merged a chunk at a time: the diff holds
    the differing entries, not the two files' sets of canonical lines."""
    a, b, tiny = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "tiny.json"
    for path, c2, l in ((a, "6..26", "0..4"), (b, "5..26", "0..4"), (tiny, "5..5", "0..0")):
        assert main(["catalog", "strata", "--c2", c2, "--l", l, "--output", str(path)]) == 0
    # a first diff, so that one-time costs (lazy imports) are not counted
    assert main(["catalog", "diff", str(tiny), str(tiny)]) == 0
    with open(tmp_path / "out.txt", "w", encoding="utf-8") as stdout, \
            contextlib.redirect_stdout(stdout):
        tracemalloc.start()
        try:
            code = main(["catalog", "diff", str(a), str(b)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert code == 1
    assert peak < 0.75 * a.stat().st_size


def test_cli_diff_of_unique_strings_peaks_at_a_bound(tmp_path, capsys):
    """The decoder keeps a bounded number of strings, over both files: a diff of
    catalogs whose strings never repeat peaks the same at twice the size."""

    def write(path, first, last, tag):
        # 32 strings an entry, so that few entries hold more distinct strings
        # than the decoder keeps (4,096)
        entries = (CatalogEntry("bound", {"c2": i}, {f"s{j}": f"{tag} {i} {j}" for j in range(32)})
                   for i in range(first, last))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(serialize_catalog(entries))

    def peak(entries, tag):
        a, b = tmp_path / f"{tag}-a.json", tmp_path / f"{tag}-b.json"
        write(a, 1, entries, tag)
        write(b, 0, entries, tag)
        with open(tmp_path / "out.txt", "w", encoding="utf-8") as stdout, \
                contextlib.redirect_stdout(stdout):
            tracemalloc.start()
            try:
                assert main(["catalog", "diff", str(a), str(b)]) == 1
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    # a first diff, so that one-time costs (lazy imports) are not counted
    write(tmp_path / "tiny.json", 0, 1, "tiny")
    assert main(["catalog", "diff", str(tmp_path / "tiny.json"), str(tmp_path / "tiny.json")]) == 0
    small, large = peak(150, "small"), peak(300, "large")  # 4,800 and 9,600 distinct strings
    capsys.readouterr()
    assert large < 1.25 * small


@pytest.mark.parametrize("a, b", [
    ("missing", "good"), ("good", "missing"), ("directory", "good"), ("good", "directory"),
    # both bad: A is read whole first, so it alone is named
    ("malformed", "missing"), ("missing", "malformed"),
])
def test_cli_diff_unreadable_catalog_exits_2(a, b, tmp_path, capsys):
    paths = {name: str(tmp_path / name) for name in ("good", "missing", "directory", "malformed")}
    run_cli(["catalog", "strata", "--c2", "5..5", "--l", "0..0", "--output", paths["good"]], capsys)
    os.mkdir(paths["directory"])
    Path(paths["malformed"]).write_text('{"entries": []}', encoding="utf-8")
    code, out, err = run_cli(["catalog", "diff", paths[a], paths[b]], capsys)
    assert (code, err) == (2, "")
    error = json.loads(out)["error"]
    assert error["type"] == "DomainError"
    bad = a if a != "good" else b
    problem = "malformed catalog" if bad == "malformed" else "cannot read catalog"
    assert error["message"].startswith(f"{problem} {paths[bad]!r}: ")
    assert [name for name in (a, b) if repr(paths[name]) in error["message"]] == [bad]


def test_cli_catalog_unwritable_output(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "catalog",
            "strata",
            "--c2",
            "5..5",
            "--l",
            "0..0",
            "--output",
            str(tmp_path / "missing" / "cat.json"),
        ],
        capsys,
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


@pytest.mark.parametrize("argv, message", [
    (["strata", "--c2", "5..5", "--l", "-1..0"], "length must be >= 0, got -1"),
    (["bounds", "--rank", "0", "--c2", "5..12"], "rank must be >= 1, got 0"),
], ids=["strata", "bounds"])
def test_cli_failed_catalog_leaves_no_output_file(argv, message, tmp_path, capsys):
    """A parameter error is raised before the output is opened, by the strata
    writer and by a family writer's first run."""
    argv = ["catalog", *argv, "--output"]
    error = {"error": {"message": message, "type": "InadmissibleParameterError"}}
    existing = tmp_path / "existing.json"
    existing.write_bytes(b"not replaced\n")
    code, out, _ = run_cli([*argv, str(existing)], capsys)
    assert (code, json.loads(out)) == (1, error)
    assert existing.read_bytes() == b"not replaced\n"
    absent = tmp_path / "absent.json"
    code, out, _ = run_cli([*argv, str(absent)], capsys)
    assert (code, json.loads(out)) == (1, error)
    assert not absent.exists()


@pytest.mark.parametrize("name, flags, rest", [
    ("resolutions", [], ()),
    ("strata", ["--l", "0..2"], (range(0, 3),)),
])
def test_cli_error_in_a_later_run_leaves_the_runs_before(name, flags, rest, tmp_path, capsys,
                                                         monkeypatch):
    """A document is written one run at a time, so an error in a run after
    the first is raised while the file is written: the command exits 1 with
    the error's payload, and the file holds the document up to that run, cut
    off after the last block of the run before, which is not a catalog.  On
    stdout that prefix comes before the payload."""
    kind = CATALOG_KINDS[name]

    def failing(rows, c2):
        if c2 == 7:
            raise DomainError("no run for c2 = 7")
        yield from rows

    def source(*values):
        labels, runs = kind.source(*values)
        return labels, [(head, failing(rows, dict(head)["c2"])) for head, rows in runs]

    monkeypatch.setitem(CATALOG_KINDS, name, kind._replace(source=source))
    path = tmp_path / "cat.json"
    path.write_bytes(b"replaced\n")
    code, out, _ = run_cli(["catalog", name, "--c2", "5..12", *flags, "--output", str(path)],
                           capsys)
    assert (code, json.loads(out)) == (1, {"error": {"message": "no run for c2 = 7",
                                                     "type": "DomainError"}})
    # the runs in the order of their texts: 10, 11, 12, 5 and 6 come before 7
    before = serialize_catalog(kind.generate([5, 6, 10, 11, 12], *rest))
    text = path.read_text(encoding="utf-8")
    assert text == before[:-len('\n  ],\n  "schema_version": 1\n}\n')]
    assert text == serialize_catalog(kind.generate(range(5, 13), *rest))[:len(text)]
    code, out, _ = run_cli(["catalog", name, "--c2", "5..12", *flags], capsys)
    payload = {"error": {"message": "no run for c2 = 7", "type": "DomainError"}}
    assert (code, out) == (1, text + json.dumps(payload, sort_keys=True, indent=2) + "\n")


# commands whose runs in text order begin with runs of no rows (c2 3 and 4,
# c2 1 to 4, charges -1 and -2), and one with no entry at all
EMPTY_RUN_COMMANDS = [
    ("strata", ["--c2", "3..6", "--l", "0..2"], (range(3, 7), range(0, 3))),
    ("resolutions", ["--c2", "1..7"], (range(1, 8),)),
    ("monads", ["--rank-max", "2", "--charge", "-2..1"], (2, range(-2, 2))),
    ("resolutions", ["--c2", "1..4"], (range(1, 5),)),
]


@pytest.mark.parametrize("name, flags, values", EMPTY_RUN_COMMANDS,
                         ids=[" ".join([name, *flags]) for name, flags, _ in EMPTY_RUN_COMMANDS])
def test_cli_document_with_empty_runs_is_the_oracle(name, flags, values, tmp_path, capsys):
    """A run with no rows adds no piece and no separator: the document on
    stdout and in ``--output`` is the ``serialize_catalog`` oracle's."""
    entries = list(CATALOG_KINDS[name].generate(*values))
    count, want = len(entries), serialize_catalog(entries)
    code, out, _ = run_cli(["catalog", name, *flags], capsys)
    assert (code, out) == (0, want)
    path = tmp_path / "cat.json"
    code, out, _ = run_cli(["catalog", name, *flags, "--output", str(path)], capsys)
    assert (code, json.loads(out)["entries"]) == (0, count)
    assert path.read_text(encoding="utf-8") == want
    if not count:
        assert want == '{\n  "entries": [],\n  "schema_version": 1\n}\n'


@pytest.mark.parametrize("name, values", [
    ("strata", ([10, 3, 5], range(0, 3))),  # c2 3 between two runs
    ("strata", ([30, 5, 4], range(0, 3))),  # c2 4 last
    ("resolutions", ([10, 2, 7, 30, 4],)),  # c2 2 in the middle and 4 last
], ids=str)
def test_document_with_empty_runs_in_the_middle_and_last_is_the_oracle(name, values):
    kind = CATALOG_KINDS[name]
    document = kind.document(*values)
    entries = list(kind.generate(*values))
    assert "".join(document.pieces) == serialize_catalog(entries)
    assert document.count == len(entries)


def test_strata_pieces_hold_a_bounded_number_of_labels():
    """Each piece of a strata document holds the blocks of at most
    ``_LABELS_PER_PIECE`` labels of one run, so the largest piece is bounded
    by the cap and the run's rows, however many labels there are."""
    c2_range, l_range = range(5, 9), range(0, 11)
    kind = CATALOG_KINDS["strata"]
    labels = sum(len(partition_types(l)) for l in l_range)
    rows = max(len(admissible_s(c2)) for c2 in c2_range)
    assert labels > 10 * catalog._LABELS_PER_PIECE
    document = kind.document(c2_range, l_range)
    pieces = list(document.pieces)
    blocks = [piece.count(catalog._BLOCK_HEAD) for piece in pieces]
    assert sum(blocks) == document.count == labels * sum(len(admissible_s(c2)) for c2 in c2_range)
    assert max(blocks) <= catalog._LABELS_PER_PIECE * rows
    assert len(pieces) < document.count / catalog._LABELS_PER_PIECE


# the CSV is about a seventh of the JSON, so its grid is larger, to keep the
# fixed costs of a run (the parsers, the partition labels) small beside it
@pytest.mark.parametrize("fmt, to_file, c2", [("json", True, "5..12"), ("csv", False, "5..30")],
                         ids=["json-output-file", "csv-stdout"])
def test_cli_catalog_write_peaks_below_twice_the_document(fmt, to_file, c2, tmp_path, capsys):
    """The catalog streams to its file or stdout: no whole-document copy is built."""
    path = tmp_path / "strata.txt"

    def run(c2, l):
        argv = ["--format", fmt, "catalog", "strata", "--c2", c2, "--l", l]
        if to_file:
            return main([*argv, "--output", str(path)])
        # stdout goes to the file, so the captured text is not counted
        with open(path, "w", encoding="utf-8") as stdout, contextlib.redirect_stdout(stdout):
            return main(argv)

    # a first, one-entry run, so that one-time costs (lazy imports, the
    # caches of the library's enumerators) are not counted
    assert run("5..5", "0..0") == 0
    tracemalloc.start()
    try:
        code = run(c2, "0..6")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    capsys.readouterr()
    assert peak < 2 * path.stat().st_size


def test_cli_strata_write_peaks_below_a_quarter_of_the_document(tmp_path, capsys):
    """A strata catalog is written as the product of its factors, one c2 run
    at a time: its peak follows the factors, not the document."""
    path = tmp_path / "strata.json"

    def run(c2, l):
        return main(["catalog", "strata", "--c2", c2, "--l", l, "--output", str(path)])

    # a first, one-entry run, so that one-time costs are not counted
    assert run("5..5", "0..0") == 0
    tracemalloc.start()
    try:
        code = run("5..40", "0..6")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    capsys.readouterr()
    assert peak < path.stat().st_size / 4


def test_cli_family_write_peaks_below_a_quarter_of_the_document(tmp_path, capsys):
    """A family catalog is written one run of its leading value at a time:
    its peak follows the largest run, not the document."""
    path = tmp_path / "resolutions.json"

    def run():
        return main(["catalog", "resolutions", "--c2", "5..200", "--output", str(path)])

    # a first run of the same grid, so that one-time costs are not counted:
    # the item cache's c2 items and the library's caches (the peak of the
    # first run is about half the document, the second's a sixth).  Under
    # tracemalloc, c2 5..400 would take about 1.1 s.
    assert run() == 0
    tracemalloc.start()
    try:
        code = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    capsys.readouterr()
    assert peak < path.stat().st_size / 4


def test_cli_csv_diff_peaks_with_the_json_diff(tmp_path, capsys):
    """Both diff formats stream their payload, so the CSV diff peaks with the
    JSON diff: it decodes one differing line at a time."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path, c2 in ((a, "5..6"), (b, "5..10")):
        assert main(["catalog", "strata", "--c2", c2, "--l", "0..4", "--output", str(path)]) == 0

    def peak(fmt):
        with open(tmp_path / "out.txt", "w", encoding="utf-8") as stdout, \
                contextlib.redirect_stdout(stdout):
            tracemalloc.start()
            try:
                code = main(["--format", fmt, "catalog", "diff", str(a), str(b)])
                return code, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    # a first run of each format, so that one-time costs are not counted: CSV
    # output imports csv and makes its writer, with a 128 KiB buffer, once
    peak("json"), peak("csv")
    (json_code, json_peak), (csv_code, csv_peak) = peak("json"), peak("csv")
    capsys.readouterr()
    assert json_code == csv_code == 1
    assert csv_peak < 1.1 * json_peak


def test_cli_config_presets_ranges(tmp_path, capsys):
    config = tmp_path / "grid.cfg"
    config.write_text("# preset grid\nc2=5..6\nl=0..1\n", encoding="utf-8")
    code, out_config, _ = run_cli(
        ["--config", str(config), "catalog", "strata"], capsys
    )
    assert code == 0
    code, out_flags, _ = run_cli(
        ["catalog", "strata", "--c2", "5..6", "--l", "0..1"], capsys
    )
    assert out_config == out_flags
    # flags override the config file
    code, out_override, _ = run_cli(
        ["--config", str(config), "catalog", "strata", "--l", "0..0"], capsys
    )
    assert out_override != out_config
    # missing range without config is a usage error
    code, _, err = run_cli(["catalog", "strata", "--c2", "5..6"], capsys)
    assert code == 2
    assert "usage error" in err


def test_cli_config_sets_bounds_rank_and_c1(tmp_path, capsys):
    """A config file's rank and c1 apply to catalog bounds, as the flags do."""
    config = tmp_path / "bounds.cfg"
    config.write_text("rank=3\nc1=0\nc2=5..5\n", encoding="utf-8")
    code, out_config, _ = run_cli(["--config", str(config), "catalog", "bounds"], capsys)
    assert code == 0
    code, out_flags, _ = run_cli(
        ["catalog", "bounds", "--rank", "3", "--c1", "0", "--c2", "5..5"], capsys
    )
    assert out_config == out_flags
    assert parse_catalog(out_config)[0].inputs == {"rank": 3, "c1": 0, "c2": 5}


def test_cli_config_unknown_key_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "typo.cfg"
    config.write_text("c22=5..6\n", encoding="utf-8")
    for argv in (["catalog", "strata", "--c2", "5..5", "--l", "0..0"], ["todd", "--dim", "2"]):
        code, out, err = run_cli(["--config", str(config), *argv], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: ")
        assert "'c22'" in err and repr(str(config)) in err
    # a key of another catalog kind is allowed: one file serves every kind
    shared = tmp_path / "shared.cfg"
    shared.write_text("c2=5..6\nl=0..1\n", encoding="utf-8")
    code, out, _ = run_cli(["--config", str(shared), "catalog", "resolutions"], capsys)
    assert code == 0
    assert out == run_cli(["catalog", "resolutions", "--c2", "5..6"], capsys)[1]


@pytest.mark.parametrize("text, code", [("c2=5..10\n", 0), ("foo=1\n", 2)],
                         ids=["catalog-key", "unknown-key"])
def test_cli_config_keys_before_a_character_command(text, code, tmp_path, capsys):
    """The config keys are every catalog kind's, also ahead of a command that is no catalog."""
    config = tmp_path / "todd.cfg"
    config.write_text(text, encoding="utf-8")
    got = run_cli(["--config", str(config), "todd", "--dim", "3"], capsys)
    assert got[0] == code
    if code == 0:
        assert got == run_cli(["todd", "--dim", "3"], capsys)
    else:
        assert got[1:] == ("", f"usage error: unknown config key 'foo' in {str(config)!r}\n")


@pytest.mark.parametrize(
    "text, problem",
    [("c2 5..6\n", "malformed config line: 'c2 5..6'"), ("format=xml\n", "bad config format 'xml'")],
    ids=["malformed-line", "bad-format"],
)
def test_cli_config_content_is_a_usage_error(text, problem, tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text(text, encoding="utf-8")
    code, out, err = run_cli(["--config", str(config), "todd", "--dim", "2"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ")
    assert problem in err


def test_cli_config_not_utf8_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"c2=5..6\n\xff\n")
    code, out, err = run_cli(["--config", str(config), "catalog", "resolutions"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ")
    assert repr(str(config)) in err


def test_cli_csv_output(capsys):
    code, out, _ = run_cli(
        ["--format", "csv", "todd", "--dim", "2"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "key,value"
    assert "components.1,3/2" in lines

    code, out, _ = run_cli(
        ["--format", "csv", "catalog", "resolutions", "--c2", "5..6"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("inputs.c2,")
    assert len(lines) == 3  # header plus one row per admissible (c2, s)


def _csv_lines(entries):
    """The CSV lines of catalog entries in generation order, each row an entry's
    flattened fields, sorted as one payload, under the first entry's columns:
    the byte oracle of the CSV catalog writer."""
    csv_line, header = cli._csv_line_writer(), None
    for entry in entries:
        columns, row = zip(*cli._flat_rows({"kind": entry.kind, "inputs": dict(entry.inputs),
                                            "outputs": dict(entry.outputs),
                                            "schema_version": entry.schema_version}))
        if header is None:
            header = columns
            yield csv_line(columns)
        yield csv_line(row)
    if header is None:  # an empty catalog: the header of an empty payload
        yield from cli._csv_table(())


# (kind, flags, values): grids whose numbers and texts sort apart (c2 across
# 99..100, s = 10 from c2 112 on, negative c2 and charges), and grids with no entry
CSV_GRIDS = [
    ("strata", "--c2 98..113 --l 0..2", (range(98, 114), range(0, 3))),
    ("strata", "--c2 1..4 --l 0..2", (range(1, 5), range(0, 3))),
    ("resolutions", "--c2 95..113", (range(95, 114),)),
    ("bounds", "--rank 3 --c1 -2 --c2 -12..12", (3, -2, range(-12, 13))),
    ("monads", "--rank-max 3 --charge -2..5", (3, range(-2, 6))),
    ("monads", "--rank-max 0 --charge 0..3", (0, range(0, 4))),
]


@pytest.mark.parametrize("name, flags, values", CSV_GRIDS,
                         ids=[f"{name} {flags}" for name, flags, _ in CSV_GRIDS])
def test_cli_csv_catalog_is_the_entry_oracle(name, flags, values, capsys):
    """A CSV catalog, written from its kind's row source, has the bytes of its
    entries flattened one by one, in generation order."""
    code, out, _ = run_cli(["--format", "csv", "catalog", name, *flags.split()], capsys)
    assert code == 0
    assert out == "".join(_csv_lines(CATALOG_KINDS[name].generate(*values)))


def test_no_catalog_command_builds_an_entry(tmp_path, monkeypatch, capsys):
    """Every ``catalog`` command writes from row sources and reads texts: with
    ``CatalogEntry`` unbuildable, each exits and writes as it did before."""
    monkeypatch.chdir(tmp_path)
    commands = [("catalog", "strata", "--c2", "6..9", "--l", "0..2", "--output", "b.json")]
    for name, flags in (("strata", "--c2 5..8 --l 0..2"), ("bounds", "--c2 -3..3"),
                        ("resolutions", "--c2 5..12"), ("monads", "--rank-max 2 --charge -1..3")):
        argv = ("catalog", name, *flags.split())
        commands += [argv, (*argv, "--output", f"{name}.json"), ("--format", "csv", *argv)]
    for fmt in ("json", "csv"):  # a diff read a block at a time, and one read whole
        commands += [("--format", fmt, "catalog", "diff", a, "b.json")
                     for a in ("strata.json", "edited.json")]

    def run_all():
        results = []
        for argv in commands:
            if "edited.json" in argv:  # strata.json, no longer in chowkit's layout
                text = json.loads(Path("strata.json").read_text(encoding="utf-8"))
                Path("edited.json").write_text(json.dumps(text, indent=1), encoding="utf-8")
            code, out, err = run_cli(list(argv), capsys)
            written = Path(argv[-1]).read_bytes() if "--output" in argv else None
            results.append((code, out, err, written))
        return results

    want = run_all()

    def refuse(*args, **kwargs):
        raise AssertionError("a catalog command built a CatalogEntry")

    monkeypatch.setattr(CatalogEntry, "__init__", refuse)
    assert run_all() == want
    assert [code for code, *_ in want] == [0] * 13 + [1] * 4


def test_cli_format_from_config(tmp_path, capsys):
    config = tmp_path / "fmt.cfg"
    config.write_text("format=csv\n", encoding="utf-8")
    code, out, _ = run_cli(["--config", str(config), "todd", "--dim", "2"], capsys)
    assert code == 0
    assert out.startswith("key,value")


def test_cli_catalog_monads_with_config(tmp_path, capsys):
    config = tmp_path / "monads.cfg"
    config.write_text("rank-max=2\ncharge=0..2\n", encoding="utf-8")
    code, out_config, _ = run_cli(
        ["--config", str(config), "catalog", "monads"], capsys
    )
    assert code == 0
    code, out_flags, _ = run_cli(
        ["catalog", "monads", "--rank-max", "2", "--charge", "0..2"], capsys
    )
    assert out_config == out_flags
    assert len(parse_catalog(out_flags)) == 8

    bad = tmp_path / "bad.cfg"
    bad.write_text("rank-max=two\n", encoding="utf-8")
    code, _, err = run_cli(["--config", str(bad), "catalog", "monads"], capsys)
    assert code == 2
    assert "rank-max" in err


def test_cli_subprocess_entry_point_is_deterministic(tmp_path):
    argv = [
        sys.executable, "-m", "chowkit",
        "catalog", "strata", "--c2", "5..8", "--l", "0..2",
    ]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout  # non-empty catalog

    bad = subprocess.run(
        [sys.executable, "-m", "chowkit", "todd", "--dim", "4"],
        capture_output=True,
    )
    assert bad.returncode == 1


# each output well above 1 MiB, the largest pipe buffer an unprivileged
# process can ask Linux for by default: 1.7 MB of CSV, 2.8 MB of JSON
@pytest.mark.parametrize("fmt, c2, first_line", [
    ("csv", "5..60", b"inputs.c2,"),
    ("json", "5..30", b"{\n"),
], ids=["csv", "json"])
def test_cli_closed_stdout_exits_141_quietly(fmt, c2, first_line):
    """A reader that stops early (``| head -1``) gets no traceback."""
    argv = [sys.executable, "-m", "chowkit", "--format", fmt,
            "catalog", "strata", "--c2", c2, "--l", "0..6"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(first_line)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == b""


@pytest.fixture(scope="module")
def large_diff(tmp_path_factory):
    """Strata catalogs whose diff is 2.8 MB of JSON and 3.2 MB of CSV."""
    directory = tmp_path_factory.mktemp("large-diff")
    for name, c2, l in (("a.json", "5..8", "0..2"), ("b.json", "5..30", "0..6")):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["catalog", "strata", "--c2", c2, "--l", l,
                         "--output", str(directory / name)])
        assert code == 0
    return directory / "a.json", directory / "b.json"


@pytest.mark.parametrize("fmt, first_line", [("csv", b"key,value"), ("json", b"{\n")],
                         ids=["csv", "json"])
def test_cli_diff_closed_stdout_exits_141_quietly(fmt, first_line, large_diff):
    """``catalog diff | head -1`` exits as a catalog does: 141, no traceback."""
    argv = [sys.executable, "-m", "chowkit", "--format", fmt, "catalog", "diff",
            *map(str, large_diff)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(first_line)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == b""


class _RecordingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def _partitions_output(total, fmt):
    """The stdout of ``partitions --total total``, built without the CLI's encoders."""
    types = [str(t) for t in partition_types(total)]
    payload = {"total": total, "count": len(types), "types": types}
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    rows = [("count", str(len(types))), ("total", str(total)),
            *((f"types.{i}", t) for i, t in enumerate(types))]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([("key", "value"), *sorted(rows)])
    return out.getvalue()


@pytest.mark.parametrize("case", ["diff-json", "partitions-json", "partitions-csv"])
def test_cli_diff_payload_reaches_stdout_in_chunks(case, large_diff, monkeypatch):
    """Every payload is streamed: the diff, and a subcommand's payload (84,301
    characters as JSON, 94,649 as CSV), reach stdout in writes of
    ``io.DEFAULT_BUFFER_SIZE`` characters, the last one shorter."""
    if case == "diff-json":
        path_a, path_b = large_diff
        argv = ["catalog", "diff", str(path_a), str(path_b)]
        delta = set_diff(canonical_lines(path_a.read_text()), canonical_lines(path_b.read_text()))
        expected = 1, json.dumps({
            "identical": False,
            "only_in_a": [json.loads(line) for line in delta["only_in_a"]],
            "only_in_b": [json.loads(line) for line in delta["only_in_b"]],
        }, sort_keys=True, indent=2) + "\n"
    else:
        fmt = case.split("-")[1]
        argv = ["--format", fmt, "partitions", "--total", "12"]
        expected = 0, _partitions_output(12, fmt)
    stdout = _RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(argv)
    text = stdout.getvalue()
    assert (code, text) == expected
    assert len(stdout.sizes) > len(text) // io.DEFAULT_BUFFER_SIZE
    assert set(stdout.sizes[:-1]) == {io.DEFAULT_BUFFER_SIZE}
    assert stdout.sizes[-1] < io.DEFAULT_BUFFER_SIZE


# ---------------------------------------------------------------------------
# golden stdout of every subcommand


# (format, argv, exit code, stdout bytes, stdout sha256); run in a directory
# holding the strata catalogs a.json (c2 5..8) and b.json (c2 6..9), l 0..2
GOLDEN_STDOUT = [
    ("json", "todd --dim 2", 0, 66, "7229b43574856617487d95aff35a66079a44ca7ef37220ec62108d7dba76d26a"),
    ("csv", "todd --dim 2", 0, 63, "634d1f52154642a5c1bbea2c32f9839dccd219a72bbeb1c14f625e6c3a397e87"),
    ("json", "todd --dim 3", 0, 76, "71621bafa7d39839b78228c202ed9e1f6520730b464f92f904123e02d15e12ff"),
    ("csv", "todd --dim 3", 0, 79, "1d7218ab895b38c1751ec2d95947a0450bd5f211b887b26b86c35de552dfddce"),
    ("json", "chern --dim 3 --classes 2,-1,5,19", 0, 154, "e948343e8ae7b9e87ae52c3cb15157dacc50a6f775c6bc9c89733879faf60366"),
    ("csv", "chern --dim 3 --classes 2,-1,5,19", 0, 135, "30b843aadab38def46d6b848d99cc15d43aa9af480e5a34fe663fd9b1071ea9d"),
    ("json", "chern --dim 3 --character 2,-1,-9/2,71/6", 0, 154, "e948343e8ae7b9e87ae52c3cb15157dacc50a6f775c6bc9c89733879faf60366"),
    ("csv", "chern --dim 3 --character 2,-1,-9/2,71/6", 0, 135, "30b843aadab38def46d6b848d99cc15d43aa9af480e5a34fe663fd9b1071ea9d"),
    ("json", "chern --dim 2 --classes 2,0,5", 0, 124, "0e9e3824c2405a8e1bb965704b45d08f8fe6356ba8e1a84e8ce8ddc9955d7993"),
    ("csv", "chern --dim 2 --classes 2,0,5", 0, 100, "cff4b0151084d05fe77f25b4a965e5db90f058e4b7077d73d00213d653e35196"),
    ("json", "euler --character 2,-1,-9/2,71/6", 0, 95, "1d8e9e4f4c1818c832eff46cf57884b0cdf14cff669503fb8321b55075697938"),
    ("csv", "euler --character 2,-1,-9/2,71/6", 0, 87, "9e9acad2097f48a0154d2a3ac8202249a29d167016cf8c94cd5caab4b13dd5f1"),
    ("json", "restrict --character 2,-1,-9/2,71/6", 0, 184, "98b6dddf7e68c02732d94d13b463a363b687ff8ebe320594230090a9efad490b"),
    ("csv", "restrict --character 2,-1,-9/2,71/6", 0, 191, "7f9de22ec46c492e4b1150ee8d33918c4720e16e1a7f950406a7ed77a8801b47"),
    ("json", "bound --rank 2 --c1 -1 --ch2 -9/2", 0, 287, "5d71d4085a901224ceff66b9912ced28afbd726e5bd4ea6ee10a4c392fb47ce7"),
    ("csv", "bound --rank 2 --c1 -1 --ch2 -9/2", 0, 216, "4d927635d433046ad63b5eea9b055f56c267f383b30fd558b9e039c47136475e"),
    ("json", "bound --rank 2 --c1 -1 --ch2 -9/2 --b 0,-1", 0, 286, "886101a18d07c480a241895f7e6f5b2672656ae871811055a952e747686497c2"),
    ("csv", "bound --rank 2 --c1 -1 --ch2 -9/2 --b 0,-1", 0, 223, "7bba32f9f174e07f7544936ad4af5f1b4b1bacddf1585fb645b79888fa064308"),
    ("json", "bound --rank 2 --c1 0 --ch2 10 --b 0,0 --literal", 0, 269, "ea0c6003373b66b5a5c38fe065f162e33a8b0c7c39f3c2c68963ce84df422c87"),
    ("csv", "bound --rank 2 --c1 0 --ch2 10 --b 0,0 --literal", 0, 206, "87dec564189a677779535a04737923872f20dfcdd50ab464148ce054ea545971"),
    ("json", "bound --rank 3 --c1 2 --ch2 -7/2 --literal", 0, 288, "341a77c7414851d8e759c46b02b62043b77f838ee891c033d0c692abe9f79677"),
    ("csv", "bound --rank 3 --c1 2 --ch2 -7/2 --literal", 0, 217, "97d0910acecb85942b08e5b0a5297ebe373c0b9a074a0880cfdd1163fc69d4e7"),
    # the three --b rejections: a sum other than c1, an entry above the radius,
    # a length other than the rank
    ("json", "bound --rank 2 --c1 -1 --ch2 -9/2 --b 5,-7", 1, 135, "4b7bbf9d0bcae4c5b391958d68ccc3d963577fd143bf5a7164199c2bd639a30c"),
    ("csv", "bound --rank 2 --c1 -1 --ch2 -9/2 --b 5,-7", 1, 119, "e5d3e99ad960a1f82173bb29ab9252a66c99e02578cf9e599ff9c8a1b262b3f6"),
    ("json", "bound --rank 2 --c1 0 --ch2 -9/2 --b 3,-3", 1, 146, "315ca0b472b7df5a8618b57b402fdc28af27e7905e0501abea135f7a93a1814a"),
    ("csv", "bound --rank 2 --c1 0 --ch2 -9/2 --b 3,-3", 1, 130, "2f1321e22b5a19d8b8ac0a4617f7d597fba9197673aa16bae74e204db028df17"),
    ("json", "bound --rank 3 --c1 -1 --ch2 -9/2 --b 0,-1", 1, 105, "0b36c0051dd34ea50dc9f1c5cc68c4aa036a187142888bbd84a25e2903a639ae"),
    ("csv", "bound --rank 3 --c1 -1 --ch2 -9/2 --b 0,-1", 1, 87, "2a32fe6edb1c38159bff16b678eaa534b56a22d66597519923cb3ad8156206c1"),
    ("json", "enumerate-c3 --rank 2 --c1 -1 --c2 5", 0, 133, "aa95c8d7f5cd84878d5e4d2cce097b04260e2adf1f4e96296cfd71940a9583e3"),
    ("csv", "enumerate-c3 --rank 2 --c1 -1 --c2 5", 0, 88, "10165bde6d7c67206ff5405ac3f50d81c9f6e9235d19e3d524e9c364f6eddbbd"),
    ("json", "enumerate-c3 --rank 0 --c1 -1 --c2 5", 1, 105, "4e8bd169174cd5cc9a0c0436539cdd3f67e63b450124d38bc1003a454a1584c7"),
    ("csv", "enumerate-c3 --rank 0 --c1 -1 --c2 5", 1, 89, "3fbbdeb7663cf18ae72a69ba056f9c17f3fcec91ef977836aa70c5f964ff1b0a"),
    ("json", "splitting-types --rank 3 --c1 -1", 0, 225, "64ee7eaae24a3f6353feb298dbae5f4c2e526a3f0f8c1190da5f54611f03b08b"),
    ("csv", "splitting-types --rank 3 --c1 -1", 0, 174, "11c367d108af2f45fd581f1cc6363b3dee552cb3407600baacf92ae8c16b70c2"),
    ("json", "splitting-types --rank 2 --c1 0 --no-reflexive-gap", 0, 193, "3941d60ed1a3d96e241c64f63197cab0f141840f31677992b0a7763d5511e409"),
    ("csv", "splitting-types --rank 2 --c1 0 --no-reflexive-gap", 0, 133, "4d95976dcc5a7c94830ce8b4469b79028b453166007238b04d550a8dec3d08cc"),
    ("json", "resolution --c2 9 --s 2 --verify", 0, 413, "482aabf1090394e21afd5d0996d170dce0f71075d93471543c19d32c900c6e4a"),
    ("csv", "resolution --c2 9 --s 2 --verify", 0, 288, "5b387fdb3525cb13eca8846b06e844ec4324c544819fa13d6f5ae7852695b914"),
    # s = 1: the only merged summand, O(-2)^2 in R^0
    ("json", "resolution --c2 5 --s 1 --verify", 0, 373, "3939b794709e99a526249c3d4709d28a9c247059a97f8b946847137c8c23a768"),
    ("csv", "resolution --c2 5 --s 1 --verify", 0, 260, "d9779d6eac10d8694f5676973e130544ea3e20362b651a88e98c77aa9131859f"),
    ("json", "monad --rank 2 --degree -1 --ch2 -9/2", 0, 307, "4ded3a94a6cc3baa176ac8ee9c36aa9561a879b26934d1e7df7a6242361952de"),
    ("csv", "monad --rank 2 --degree -1 --ch2 -9/2", 0, 196, "b62177279ed656c204146ce5619117562a06dc505c5f615e906369beb9bca9c7"),
    # empty terms: v = 0 gives "left": [] and the display 0 -> O^4 -> O(1)
    ("json", "monad --rank 3 --degree -1 --ch2 -1/2", 0, 263, "5abebac2574bc9651fa49998c79a3bcd6239eef45416b2477a412e4197bf6a8a"),
    ("csv", "monad --rank 3 --degree -1 --ch2 -1/2", 0, 162, "9cf60c40b65411c90159667ed1bb0fe58b4ca6bb7e0c4e34c6f6959342791d82"),
    ("json", "monad --rank 2 --degree 0 --ch2 0", 0, 224, "8080777d545b29ef0f383c1073bc3d94d0c26a39a89be4056b04d67f27e5d5e3"),
    ("csv", "monad --rank 2 --degree 0 --ch2 0", 0, 131, "011d03d1d48659fd5a595809f7b8831035b56f274a51f46e3999f2e47810c49f"),
    ("json", "partitions --total 4", 0, 283, "44a5f4b14dee87bdc594896127a07f3d06044d45a540b99d163d7e1c0975238b"),
    ("csv", "partitions --total 4", 0, 279, "8cb5af3d3b8f3136334f9420cd123bff34d2864c135930392d622a298f171b26"),
    ("json", "catalog strata --c2 5..8 --l 0..2", 0, 8285, "5f117e4e4a866a5c04ef5fde0f97168074f839a9d4c99fdd79a77bf8319c178c"),
    ("csv", "catalog strata --c2 5..8 --l 0..2", 0, 1335, "408ff40b0222e7b9503b6597b7f7ec62c39d5899c37e2e1d875236dcabdd7ab5"),
    ("json", "catalog strata --c2 4..4 --l 0..3", 0, 43, "caa20f07e81adb8a91aa9251be68569637c902602c30c34c57f5ef39501df43b"),
    ("csv", "catalog strata --c2 4..4 --l 0..3", 0, 10, "b91532ba6180d42d5956206981482f1fdda916541d7e53a32e341b06ce13a868"),
    ("json", "catalog bounds --c2 5..9", 0, 1676, "64ac33c7f8b3d21d01111a40d8888b3791ac4c3d7985513254fc6a0cf4114e5a"),
    ("csv", "catalog bounds --c2 5..9", 0, 393, "2389f2ddc5d6eb4e8f218b060051ae0b4f77e6ef26ccc8e6bf21c27f748d9c31"),
    ("json", "catalog resolutions --c2 5..12", 0, 4665, "8434729621eb7ce8032bc033f11d7d13ce87ab054beee08f1f20e69c68fa3288"),
    ("csv", "catalog resolutions --c2 5..12", 0, 1167, "79c990487000fb4cebe340cbc55d3576f080c47c7e53a4e38b2396f5a0322166"),
    ("json", "catalog monads --rank-max 2 --charge 0..3", 0, 2747, "ef46df3c978371f5ae7e843cdb141ade314e6f6b10b7b4aeb3f324f4169e4a31"),
    ("csv", "catalog monads --rank-max 2 --charge 0..3", 0, 362, "be75452f77f9203898b6a13831a99e917f49280b69a1c3194e8051e7f9038cdb"),
    ("json", "catalog strata --c2 5..8 --l 0..2 --output out.json", 0, 42, "81a457a03e4146ab002e2207cfbade53c60bd6f705e3bfb1c2b433eee6c48e90"),
    ("csv", "catalog strata --c2 5..8 --l 0..2 --output out.json", 0, 35, "cd4578ce5cc78fddea70f08ffacc9b56fe470a33c559436aa12c17c8392abeb7"),
    ("json", "catalog bounds --c2 5..9 --output out.json", 0, 41, "c70f824d2a26bc962b2a65d218fdd68d13820879eaf7a414659d2330919d3261"),
    ("csv", "catalog bounds --c2 5..9 --output out.json", 0, 34, "ad3ab87f77db06f3cb4ed50c2e2456f7e5fbac9bc3807d81cd42ca19f7368da4"),
    ("json", "catalog resolutions --c2 5..12 --output out.json", 0, 42, "e9fcc6bbb60db99e064ad0cf94e932362bfa80e6eda651ee188804a774199866"),
    ("csv", "catalog resolutions --c2 5..12 --output out.json", 0, 35, "c19975f2b71e52844cd0ce17ef4860e3857b86644b56d3b3ed8567e92939b17c"),
    ("json", "catalog monads --rank-max 2 --charge 0..3 --output out.json", 0, 42, "f9fad9046233c8aadb35980ed78f69940a8dde2233d1f9937b58f1cbe15cf759"),
    ("csv", "catalog monads --rank-max 2 --charge 0..3 --output out.json", 0, 35, "bb9d850de08ac231a0177a273893cb36545d782cca30bef66533a67bc7af1678"),
    ("json", "catalog diff a.json b.json", 1, 5001, "19ec0278d46d98cdfbb372302e0b5281e29d9856c2213ea61c414afb05881477"),
    ("csv", "catalog diff a.json b.json", 1, 5065, "bdce499822bf3f0ceefb0df6624c810b95312c981dfd12166ec74467cfa71e26"),
    ("json", "catalog diff a.json a.json", 0, 62, "4b4f05c2775127608b7ff11316331aa23a0061075ad0fbe2cdaa557708e96454"),
    ("csv", "catalog diff a.json a.json", 0, 25, "50a54dadb1d03e98cfa91e5df9a8d41e56e159e4291f8e30561da6144d29fa20"),
    ("json", "catalog diff missing.json a.json", 2, 153, "120870fce0e631b81923bbda1462ac40609d71c380531ee090e3d877ee6b4f6d"),
    ("csv", "catalog diff missing.json a.json", 2, 135, "d1c2355295bd4ec2354da6658c94e05b852994cb35b58ffe191bcaafb75a0848"),
    ("json", "todd --dim 4", 1, 119, "ffc52c13df8b5528bb1040d2e2c4a63435d5ae006f39cdd719a26b87f9f234f2"),
    ("csv", "todd --dim 4", 1, 103, "612dabcf22ebc593141dec829de0ed422455a0e984a06f8592a0582e50eda7a6"),
]


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    for name, c2 in (("a.json", "5..8"), ("b.json", "6..9")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["catalog", "strata", "--c2", c2, "--l", "0..2",
                         "--output", str(directory / name)])
        assert code == 0
    return directory


@pytest.mark.parametrize(
    "fmt, argv, code, size, sha256", GOLDEN_STDOUT,
    ids=[f"{fmt}:{argv}" for fmt, argv, *_ in GOLDEN_STDOUT],
)
def test_cli_golden_stdout(fmt, argv, code, size, sha256, golden_dir, monkeypatch):
    monkeypatch.chdir(golden_dir)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--format", fmt, *argv.split()]) == code
    payload = out.getvalue().encode("utf-8")
    assert (len(payload), hashlib.sha256(payload).hexdigest()) == (size, sha256)


# (argv, stdout bytes, stdout sha256) of the help texts that the catalog
# kind table builds, at 80 columns, recorded from the code before that table;
# splitting-types is left out: on Python 3.10 its BooleanOptionalAction help
# ends in "(default: True)"
GOLDEN_HELP = [
    ("--help", 1129, "d7ce58c5a8b78edcad4be33fc3364043baa976da9f4ab96afce6f926955dcc08"),
    ("catalog --help", 387, "12306b7b729b3a51f3e5381684fd3036a5b74d74f9f4802c4e1a3c942964cf5b"),
    ("catalog strata --help", 172, "6e61385e8292cce3cdfafcbd448890fe7e120956b693ae15ca0dbbee7636786a"),
    ("catalog bounds --help", 228, "5c7bf57929d29ea090f7b95c1d97943c5aa32f2be0f02db6b4d750729e4db273"),
    ("catalog resolutions --help", 155, "9dc8d2217af111a25a2bdf5192c6bbd416f8c3d8ab42374c99e383ac02aab285"),
    ("catalog monads --help", 238, "04bf6ef82b6d7f333eeaae2c397eefd65ddafe7370ed0266c02eb98f76830f61"),
    ("catalog diff --help", 156, "26883c302566e88bf4751f3132779ce35cdec5b060bcc169615abf85e0765ec7"),
    # the other subcommands, recorded before their arguments were added lazily
    ("todd --help", 103, "5a43ccc0e3c877e8f467220f73447e5af2bfb11fabec611379fd5e014cdc553d"),
    ("chern --help", 237, "4ba125c36040649917412df696769dd9d4a5a9ec9b5146c566c43ad6fe065cef"),
    ("euler --help", 142, "aa6ec468272455cc5c11aaa76b7eafd4a968006cff3128c19ba51de1b394d48a"),
    ("restrict --help", 153, "69a4068a588ac9e8dc43a4d64663c5f55045da51a20f5b9b9e9bb4736127ea2b"),
    ("bound --help", 316, "e28ac06625f0d046dc907ebbc7f25b34a829fbcd5f027df5d2814a2385741a97"),
    ("enumerate-c3 --help", 152, "1a4af6172e4bf2d5e64981a550e73fb64990e2a4e2129ac9911615082cf5c8a0"),
    ("resolution --help", 184, "b014387e110062a17a11bb1237ad74c1910e70811c43085eeb8539d0568ff649"),
    ("monad --help", 169, "4c4dd260435ba3eaf3d59dc353e18ba18fcb7bc6a172c5b2176e4184554f2b58"),
    ("partitions --help", 120, "e6a8b29d7bb249b69e5252f2b4908026365da06cc0e26ddb86b140703a726fc0"),
]


@pytest.mark.parametrize("argv, size, sha256", GOLDEN_HELP,
                         ids=[argv for argv, *_ in GOLDEN_HELP])
def test_cli_golden_help(argv, size, sha256, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv.split()) == 0
    text = out.getvalue().encode("utf-8")
    assert (len(text), hashlib.sha256(text).hexdigest()) == (size, sha256)


# one argv of each subcommand and catalog kind, and its handler
PARSED = [
    ("todd --dim 3", cli._cmd_todd),
    ("chern --dim 2 --classes 2,0,5", cli._cmd_chern),
    ("euler --character 1,0,0", cli._cmd_euler),
    ("restrict --character 2,-1,-9/2,71/6", cli._cmd_restrict),
    ("bound --rank 2 --c1 -1 --ch2 -9/2 --b 0,-1", cli._cmd_bound),
    ("enumerate-c3 --rank 2 --c1 -1 --c2 5", cli._cmd_enumerate_c3),
    ("splitting-types --rank 3 --c1 -1 --no-reflexive-gap", cli._cmd_splitting_types),
    ("resolution --c2 5 --s 1 --verify", cli._cmd_resolution),
    ("monad --rank 2 --degree -1 --ch2 -9/2", cli._cmd_monad),
    ("partitions --total 4", cli._cmd_partitions),
    ("catalog strata --c2 5..8 --l 0..2", cli._cmd_catalog),
    ("catalog bounds --rank 3 --c2 5", cli._cmd_catalog),
    ("catalog resolutions --c2 5..12 --output out.json", cli._cmd_catalog),
    ("catalog monads --rank-max 2 --charge 0..3", cli._cmd_catalog),
    ("catalog diff a.json b.json", cli._cmd_diff),
]


def test_build_parser_parses_every_subcommand():
    """Each subcommand's argv is read by a fresh parser from ``build_parser()``,
    which makes that subcommand's parser as it chooses it, and by one parser
    twice, the second time by the parsers made the first."""
    for argv, handler in PARSED:
        args = cli.build_parser().parse_args(argv.split())
        assert (args.command, args.handler) == (argv.split()[0], handler)
    parser = cli.build_parser()
    for _ in range(2):
        for argv, handler in PARSED:
            args = parser.parse_args(argv.split())
            assert (args.command, args.handler) == (argv.split()[0], handler)
    args = parser.parse_args(PARSED[4][0].split())
    assert (args.rank, args.c1, args.ch2, args.b, args.literal) == (2, -1, F(-9, 2), (0, -1), False)
    args = parser.parse_args(PARSED[11][0].split())
    assert (args.catalog_command, args.rank, args.c2, args.output) == ("bounds", 3, range(5, 6), None)


@pytest.mark.parametrize("argv, parsers", [
    ("todd --dim 3", 2), ("catalog strata --c2 5..8 --l 0..2", 3), ("catalog diff a b", 3),
])
def test_a_start_makes_only_its_chosen_parsers(argv, parsers, monkeypatch):
    """``build_parser()`` makes the top-level parser only; reading an argv
    makes one parser for each subcommand level that it chooses."""
    made = []
    init = cli._Parser.__init__
    monkeypatch.setattr(cli._Parser, "__init__",
                        lambda self, *a, **k: made.append(k.get("prog")) or init(self, *a, **k))
    parser = cli.build_parser()
    assert made == ["chowkit"]
    parser.parse_args(argv.split())
    assert len(made) == parsers
    assert made[1:] == [" ".join(["chowkit", *argv.split()[:i]]) for i in range(1, parsers)]


# ---------------------------------------------------------------------------
# argv fuzz of the subcommands


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


# junk is never an integer, so it cannot lift the rank cap, and has no "h",
# so it cannot spell or abbreviate --help; range junk has no "..", so it
# cannot lift the range caps either
JUNK = st.text(alphabet="0123456789-/,.xe ", max_size=6).filter(_not_an_int)
RANGE_JUNK = JUNK.filter(lambda text: ".." not in text)
RANK = st.integers(-3, 6).map(str)
INT = st.one_of(st.integers(-40, 40), st.integers(-10**9, 10**9)).map(str)
SMALL_INT = st.integers(-40, 40).map(str)
RATIONAL = st.fractions(min_value=-10**4, max_value=10**4, max_denominator=50).map(str)
INT_LIST = st.lists(st.integers(-12, 12), min_size=1, max_size=7).map(
    lambda b: ",".join(map(str, b))
)
DIM = st.integers(1, 4).map(str)
CLASSES = st.lists(st.integers(-30, 30), min_size=1, max_size=5).map(
    lambda c: ",".join(map(str, c))
)
SMALL_RATIONAL = st.fractions(min_value=-30, max_value=30, max_denominator=12).map(str)
CHARACTER = st.lists(SMALL_RATIONAL, min_size=1, max_size=5).map(",".join)


def _range(lo, hi):
    """A range value "a..b" or "a", with a and b in [lo, hi]; b < a is a usage error."""
    pair = st.tuples(st.integers(lo, hi), st.integers(lo, hi)).map(lambda ab: "%d..%d" % ab)
    return st.one_of(pair, st.integers(lo, hi).map(str))


C2_RANGE = _range(-30, 30)
COMMANDS = {
    "bound": {"--rank": RANK, "--c1": INT, "--ch2": RATIONAL, "--b": INT_LIST,
              "--literal": None},
    # |c1| stays small: without the gap constraint the box grows like |c1|^(rank-1)
    "splitting-types": {"--rank": RANK, "--c1": SMALL_INT, "--reflexive-gap": None,
                        "--no-reflexive-gap": None},
    "enumerate-c3": {"--rank": RANK, "--c1": INT, "--c2": INT},
    "todd": {"--dim": DIM},
    "chern": {"--dim": DIM, "--classes": CLASSES, "--character": CHARACTER},
    "euler": {"--character": CHARACTER},
    "restrict": {"--character": CHARACTER},
    "resolution": {"--c2": SMALL_INT, "--s": SMALL_INT, "--verify": None},
    "monad": {"--rank": RANK, "--degree": SMALL_INT, "--ch2": SMALL_RATIONAL},
    # the number of partition types grows like exp(sqrt(total))
    "partitions": {"--total": st.integers(-3, 8).map(str)},
    # --output is left out, so no case writes a file
    "catalog strata": {"--c2": C2_RANGE, "--l": _range(-3, 4)},
    "catalog bounds": {"--rank": RANK, "--c1": SMALL_INT, "--c2": C2_RANGE},
    "catalog resolutions": {"--c2": C2_RANGE},
    "catalog monads": {"--rank-max": st.integers(-1, 4).map(str), "--charge": C2_RANGE},
    # two positional paths, drawn from DIFF_FILES
    "catalog diff": {},
}
RANGE_FLAGS = {"--c2", "--l", "--charge"}
DIFF_FILES = ("good-a.json", "good-b.json", "malformed.json", "missing.json", "directory")


@pytest.fixture(scope="module")
def diff_files(tmp_path_factory):
    """Two good catalogs, one holding the other, a malformed one and a directory."""
    directory = tmp_path_factory.mktemp("diff-fuzz")
    for name, c2 in (("good-a.json", "5..6"), ("good-b.json", "5..7")):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["catalog", "strata", "--c2", c2, "--l", "0..1",
                         "--output", str(directory / name)])
        assert code == 0
    (directory / "malformed.json").write_bytes(MALFORMED_CATALOGS["document-version-unknown"])
    (directory / "directory").mkdir()
    return directory


@st.composite
def command_argv(draw, command, directory):
    """The command with its flags (and paths) each left out, junk or valid."""
    argv = command.split()
    for flag, values in COMMANDS[command].items():
        kind = draw(st.sampled_from(("omit", "junk") + ("valid",) * 8))
        if kind == "omit":
            continue
        argv.append(flag)
        if kind == "junk":
            catalog_range = argv[0] == "catalog" and flag in RANGE_FLAGS
            argv.append(draw(RANGE_JUNK if catalog_range else JUNK))
        elif values is not None:
            argv.append(draw(values))
    if command == "catalog diff":
        for _ in range(2):
            kind = draw(st.sampled_from(("omit", "junk") + ("valid",) * 8))
            if kind == "junk":
                argv.append(draw(JUNK))
            elif kind == "valid":
                argv.append(str(directory / draw(st.sampled_from(DIFF_FILES))))
    if draw(st.integers(0, 19)) == 0:
        argv.append(draw(JUNK))
    return argv


# each command gets an even share of 600 cases
@pytest.mark.parametrize("command", sorted(COMMANDS), ids=lambda c: c.replace(" ", "-"))
@settings(max_examples=600 // len(COMMANDS), deadline=None)
@given(data=st.data())
def test_cli_bound_commands_fuzz(command, diff_files, data):
    argv = data.draw(command_argv(command, diff_files), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if command == "catalog diff":
        # classic diff: 1 means "different"; trouble exits 2 with an error
        # object, or with nothing on stdout when argparse rejects the argv
        if code == 2:
            assert out.getvalue() == "" or list(json.loads(out.getvalue())) == ["error"], argv
        else:
            assert json.loads(out.getvalue())["identical"] is (code == 0), argv
    elif code in (0, 1):
        payload = json.loads(out.getvalue())
        assert ("error" in payload) == (code == 1), argv
