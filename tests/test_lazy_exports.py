"""The package imports its public names lazily: a name loads only the modules it needs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import chowkit
from chowkit.cli import main

SRC = str(Path(chowkit.__file__).resolve().parent.parent)

# run in a fresh interpreter; prints the chowkit submodules loaded after each step
STEPS = f"""
import json, sys, types
sys.path.insert(0, {SRC!r})

def loaded():
    return sorted(m for m in sys.modules if m.startswith("chowkit."))

import chowkit
after_import = loaded()
from chowkit import p3_bounds
after_name = loaded()
from chowkit import catalog
print(json.dumps([after_import, after_name, "p3_bounds" in vars(chowkit),
                  isinstance(catalog, types.ModuleType)]))
"""


def test_names_import_their_modules_on_first_use():
    done = subprocess.run([sys.executable, "-c", STEPS], capture_output=True, text=True, check=True)
    after_import, after_name, kept, submodule = json.loads(done.stdout)
    assert after_import == []
    assert after_name == ["chowkit.bounds", "chowkit.chow", "chowkit.errors", "chowkit.splitting"]
    assert kept  # the name is looked up once, then found in the package namespace
    assert submodule  # a submodule is not a public name, so it is imported as before


def test_a_submodule_is_an_attribute_after_a_plain_import():
    steps = f"""
import json, sys
sys.path.insert(0, {SRC!r})
import chowkit
kinds = sorted(chowkit.catalog.CATALOG_KINDS)
print(json.dumps([kinds, sorted(m for m in sys.modules if m.startswith("chowkit."))]))
"""
    done = subprocess.run([sys.executable, "-c", steps], capture_output=True, text=True, check=True)
    kinds, modules = json.loads(done.stdout)
    assert kinds == ["bounds", "monads", "resolutions", "strata"]
    # catalog and its own imports: no family module, no reader and no CLI code
    assert modules == [f"chowkit.{m}" for m in ("catalog", "chow", "errors")]


def test_each_name_is_listed_under_one_module():
    assert len(chowkit._MODULE_OF) == sum(map(len, chowkit._EXPORTS.values()))


def test_an_unknown_name_is_an_import_error():
    with pytest.raises(ImportError, match="no_such_name"):
        from chowkit import no_such_name  # noqa: F401
    with pytest.raises(AttributeError, match="no_such_name"):
        chowkit.no_such_name


def test_a_cli_start_loads_what_its_subcommand_needs():
    """In one fresh interpreter, each command adds only the modules it calls.

    No command loads ``dataclasses`` or ``inspect``, and only CSV output
    loads ``csv``."""
    steps = f"""
import contextlib, io, json, sys
sys.path.insert(0, {SRC!r})
from chowkit import cli
loaded = []
for argv in (["todd", "--dim", "3"], ["bound", "--rank", "2", "--c1", "-1", "--ch2", "-9/2"],
             ["catalog", "resolutions", "--c2", "5..6"], ["--format", "csv", "todd", "--dim", "3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    loaded.append(sorted(m[8:] for m in sys.modules if m.startswith("chowkit."))
                  + sorted(m for m in ("csv", "dataclasses", "inspect") if m in sys.modules))
print(json.dumps(loaded))
"""
    done = subprocess.run([sys.executable, "-c", steps], capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == [
        ["chow", "cli", "errors"],
        ["bounds", "chow", "cli", "errors", "splitting"],
        ["bounds", "catalog", "chow", "cli", "errors", "resolutions", "splitting"],
        ["bounds", "catalog", "chow", "cli", "errors", "resolutions", "splitting", "csv"],
    ]


# each catalog command, and the modules a start that runs it loads
CATALOG_STARTS = {
    "strata": (["catalog", "strata", "--c2", "5..5", "--l", "0..0"],
               ["catalog", "chow", "cli", "errors", "monads", "resolutions"]),
    "bounds": (["catalog", "bounds", "--c2", "0..0"],
               ["bounds", "catalog", "chow", "cli", "errors", "splitting"]),
    "resolutions": (["catalog", "resolutions", "--c2", "5..5"],
                    ["catalog", "chow", "cli", "errors", "resolutions"]),
    "monads": (["catalog", "monads", "--rank-max", "1", "--charge", "0..0"],
               ["catalog", "chow", "cli", "errors", "monads", "resolutions"]),
    "strata-csv": (["--format", "csv", "catalog", "strata", "--c2", "5..5", "--l", "0..0"],
                   ["catalog", "chow", "cli", "errors", "monads", "resolutions", "csv"]),
    "monads-csv": (["--format", "csv", "catalog", "monads", "--rank-max", "1", "--charge", "0..0"],
                   ["catalog", "chow", "cli", "errors", "monads", "resolutions", "csv"]),
    "diff": (["catalog", "diff", "a.json", "b.json"],
             ["catalog", "catalog_read", "chow", "cli", "errors"]),
}


@pytest.mark.parametrize("command", CATALOG_STARTS)
def test_a_catalog_start_loads_only_what_its_kind_calls(command, tmp_path, monkeypatch):
    """One fresh interpreter per catalog command, so that a module one kind
    loads cannot hide a missing import of another kind."""
    monkeypatch.chdir(tmp_path)
    for name, c2 in (("a.json", "5..5"), ("b.json", "5..6")):  # the diff's inputs
        assert main(["catalog", "resolutions", "--c2", c2, "--output", name]) == 0
    argv, expected = CATALOG_STARTS[command]
    steps = f"""
import contextlib, io, json, sys
sys.path.insert(0, {SRC!r})
from chowkit import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
print(json.dumps([code, sorted(m[8:] for m in sys.modules if m.startswith("chowkit."))
                  + sorted(m for m in ("csv", "dataclasses", "inspect") if m in sys.modules)]))
"""
    done = subprocess.run([sys.executable, "-c", steps], capture_output=True, text=True,
                          check=True)
    assert json.loads(done.stdout) == [1 if command == "diff" else 0, expected]
