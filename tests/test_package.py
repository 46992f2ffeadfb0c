"""Tests of the package surface: the export list and the README quickstart."""

import contextlib
import inspect
import io
import re
from pathlib import Path

import chowkit

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_names_exist_and_are_unique():
    missing = [name for name in chowkit.__all__ if not hasattr(chowkit, name)]
    assert missing == []
    assert len(set(chowkit.__all__)) == len(chowkit.__all__)


def test_every_public_import_is_exported():
    public = {
        name
        for name, value in vars(chowkit).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public - set(chowkit.__all__) == set()


def quickstart():
    """The README's python block, and the line each ``print`` is documented to write.

    A print's expected line is its trailing ``# ...`` comment, or, when the
    print has none, the comment-only line that follows it.
    """
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                          re.DOTALL | re.MULTILINE)
    lines = block.splitlines()
    expected = []
    for i, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        match = re.search(r"\)\s+# (.*)$", line) or re.fullmatch(r"\s+# (.*)", lines[i + 1])
        assert match, line
        expected.append(match.group(1).rstrip())
    return block, expected


def test_readme_quickstart_prints_its_comments():
    block, expected = quickstart()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
