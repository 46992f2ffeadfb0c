"""Tests for catalog serialization and the command line interface."""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chowkit.bounds import ch3_bound, enumerate_admissible_c3, euler_bound
from chowkit.catalog import (
    KINDS,
    CatalogEntry,
    bounds_catalog,
    diff_catalogs,
    monads_catalog,
    parse_catalog,
    parse_entry,
    resolutions_catalog,
    serialize_catalog,
    serialize_entry,
    strata_catalog,
)
from chowkit.cli import main
from chowkit.errors import DomainError, InadmissibleParameterError

F = Fraction

KEY_POOL = ("c1", "c2", "c3", "ch2", "ch3", "rank", "s", "l", "q", "t", "dim")


def random_entry(rng):
    def value():
        if rng.random() < 0.5:
            return rng.randint(-10**6, 10**6)
        return F(rng.randint(-999, 999), rng.randint(1, 99))

    def mapping():
        keys = rng.sample(KEY_POOL, rng.randint(1, 5))
        return {k: value() for k in keys}

    return CatalogEntry(kind=rng.choice(KINDS), inputs=mapping(), outputs=mapping())


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
        parsed = parse_entry(text)
        assert parsed == entry
        assert serialize_entry(parsed) == text


def test_entry_distinguishes_int_from_rational():
    as_int = CatalogEntry("bound", {"c2": 3}, {})
    as_fraction = CatalogEntry("bound", {"c2": F(3)}, {})
    assert serialize_entry(as_int) != serialize_entry(as_fraction)
    assert parse_entry(serialize_entry(as_int)) == as_int
    assert parse_entry(serialize_entry(as_fraction)) == as_fraction
    assert as_int != as_fraction


def test_entry_rejects_bad_values():
    with pytest.raises(InadmissibleParameterError):
        CatalogEntry("sheaf", {}, {})
    with pytest.raises(DomainError):
        serialize_entry(CatalogEntry("bound", {"x": "3/2"}, {}))
    with pytest.raises(DomainError):
        serialize_entry(CatalogEntry("bound", {"x": 1.5}, {}))
    with pytest.raises(DomainError):
        parse_entry('{"kind": "bound", "inputs": {"x": 1.5}, "outputs": {}, "schema_version": 1}')
    with pytest.raises(DomainError):
        serialize_entry(CatalogEntry("bound", {1: 2}, {}))


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
    entries = [random_entry(rng) for _ in range(10)]
    delta = diff_catalogs(entries, entries)
    assert delta == {"only_in_a": [], "only_in_b": []}
    extra = random_entry(rng)
    delta = diff_catalogs(entries + [extra], entries)
    assert delta["only_in_a"] == [extra]
    assert delta["only_in_b"] == []


# ---------------------------------------------------------------------------
# catalog generators


def test_strata_catalog_shape():
    entries = strata_catalog(range(5, 7), range(0, 2))
    # c2 = 5, 6 each admit s = 1 only; lengths 0 and 1 each have one type
    assert len(entries) == 4
    assert all(e.kind == "stratum" for e in entries)
    first = entries[0]
    assert first.inputs["c2"] == 5
    assert first.outputs["c3"] == 19
    assert first.outputs["ch3"] == F(71, 6)


def test_strata_catalog_empty_below_threshold():
    assert strata_catalog(range(4, 5), range(0, 3)) == []


def test_bounds_catalog_entries():
    entries = bounds_catalog(2, -1, range(5, 6))
    assert len(entries) == 1
    outputs = entries[0].outputs
    assert outputs["ch3_bound"] == F(2635, 6)
    assert outputs["c3_min"] == -882
    assert outputs["c3_max"] == 873


def test_bounds_catalog_matches_the_standalone_functions():
    for r, c1 in [(1, 0), (2, -1), (3, 2), (5, -4)]:
        for entry in bounds_catalog(r, c1, range(-3, 40)):
            c2 = entry.inputs["c2"]
            ch2 = F(c1 * c1 - 2 * c2, 2)
            out = entry.outputs
            assert (out["c3_min"], out["c3_max"]) == enumerate_admissible_c3(r, c1, c2)
            assert out["ch3_bound"] == ch3_bound(r, c1, ch2)
            assert out["euler_bound"] == euler_bound(r, c1, ch2)


def test_resolutions_catalog_entries():
    entries = resolutions_catalog(range(5, 11))
    pairs = [(e.inputs["c2"], e.inputs["s"]) for e in entries]
    assert pairs == [(5, 1), (6, 1), (7, 1), (8, 1), (8, 2), (9, 1), (9, 2), (10, 1), (10, 2)]
    assert all(e.outputs["chern_consistent"] is True for e in entries)


def test_monads_catalog_entries():
    entries = monads_catalog(2, range(0, 3))
    # (r, d) in {(1,0), (2,-1), (2,0)}; d = -1 drops charge 0 (d + c < 0)
    assert len(entries) == 8
    for entry in entries:
        r, d, c = (
            entry.inputs["rank"],
            entry.inputs["degree"],
            entry.inputs["charge"],
        )
        assert entry.outputs["w"] == r + d + 2 * c


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
    [("5,-7", "is not a splitting type"), ("3,-3", "above the splitting radius")],
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
    assert open(path_a, "rb").read() == open(path_b, "rb").read()

    code, out, _ = run_cli(["catalog", "diff", path_a, path_b], capsys)
    assert code == 0
    assert json.loads(out)["identical"] is True

    path_c = str(tmp_path / "c.json")
    code, _, _ = run_cli(
        ["catalog", "bounds", "--c2", "5..6", "--output", path_c], capsys
    )
    assert code == 0
    code, out, _ = run_cli(["diff", path_a, path_c], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["identical"] is False
    assert payload["only_in_a"] and payload["only_in_b"]


def _one_entry(inputs=b"{}", kind=b'"bound"', outputs=b"{}", version=b"1"):
    """A catalog document of one entry, with the given raw JSON fields."""
    return (
        b'{"entries": [{"inputs": ' + inputs + b', "kind": ' + kind
        + b', "outputs": ' + outputs + b', "schema_version": ' + version
        + b'}], "schema_version": 1}'
    )


MALFORMED_CATALOGS = {
    "entry-not-object": b'{"entries": [1]}',
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


def test_cli_diff_unreadable_catalog_exits_2(tmp_path, capsys):
    good = str(tmp_path / "good.json")
    missing = str(tmp_path / "missing.json")
    run_cli(["catalog", "strata", "--c2", "5..5", "--l", "0..0", "--output", good], capsys)
    for command in (["catalog", "diff"], ["diff"]):
        code, out, err = run_cli([*command, missing, good], capsys)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "DomainError"
        assert missing in error["message"]
        assert err == ""


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
    import subprocess
    import sys

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


# ---------------------------------------------------------------------------
# argv fuzz of the bound commands


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


# junk is never an integer, so it cannot lift the rank cap, and has no "h",
# so it cannot spell or abbreviate --help
JUNK = st.text(alphabet="0123456789-/,.xe ", max_size=6).filter(_not_an_int)
RANK = st.integers(-3, 6).map(str)
INT = st.one_of(st.integers(-40, 40), st.integers(-10**9, 10**9)).map(str)
SMALL_INT = st.integers(-40, 40).map(str)
RATIONAL = st.fractions(min_value=-10**4, max_value=10**4, max_denominator=50).map(str)
INT_LIST = st.lists(st.integers(-12, 12), min_size=1, max_size=7).map(
    lambda b: ",".join(map(str, b))
)
COMMANDS = {
    "bound": {"--rank": RANK, "--c1": INT, "--ch2": RATIONAL, "--b": INT_LIST,
              "--literal": None},
    # |c1| stays small: without the gap constraint the box grows like |c1|^(rank-1)
    "splitting-types": {"--rank": RANK, "--c1": SMALL_INT, "--reflexive-gap": None,
                        "--no-reflexive-gap": None},
    "enumerate-c3": {"--rank": RANK, "--c1": INT, "--c2": INT},
}


@st.composite
def bound_argv(draw):
    """A bound command whose flags are each left out, junk or a valid value."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    for flag, values in COMMANDS[command].items():
        kind = draw(st.sampled_from(("omit", "junk") + ("valid",) * 8))
        if kind == "omit":
            continue
        argv.append(flag)
        if kind == "junk":
            argv.append(draw(JUNK))
        elif values is not None:
            argv.append(draw(values))
    if draw(st.integers(0, 19)) == 0:
        argv.append(draw(JUNK))
    return argv


@settings(max_examples=300, deadline=None)
@given(bound_argv())
def test_cli_bound_commands_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        payload = json.loads(out.getvalue())
        assert ("error" in payload) == (code == 1), argv
