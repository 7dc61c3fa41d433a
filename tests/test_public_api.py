"""The public surface: every exported name resolves and the README runs."""

import pathlib
import re

import pytest

import qprefix

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    assert [name for name in qprefix.__all__ if not hasattr(qprefix, name)] == []
    assert len(set(qprefix.__all__)) == len(qprefix.__all__)


def test_readme_library_example_runs(capsys):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    rate, lengths = capsys.readouterr().out.split(" ", 1)
    assert float(rate) == pytest.approx(5 / 3.0, abs=1e-12)
    assert lengths.strip() == "(1, 2, 2)"
