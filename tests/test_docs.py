"""The README's library quickstart runs, its refusal examples print what it
shows, and every exported name exists."""

import re
import shlex
from pathlib import Path

import pytest

import simqp
from simqp import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_block() -> str:
    """The first ```python block under README's "Library quickstart" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README's Library quickstart has no python block"
    return match.group(1)


def test_readme_quickstart_runs():
    namespace = {}
    exec(compile(quickstart_block(), str(README), "exec"), namespace)
    report = namespace["check_theorem_conditions"](namespace["model"], namespace["psi"])
    assert report.all_pass


def test_every_exported_name_resolves():
    missing = [name for name in simqp.__all__ if not hasattr(simqp, name)]
    assert not missing
    namespace = {}
    exec("from simqp import *", namespace)
    assert set(simqp.__all__) <= set(namespace)


def refusal_examples() -> list:
    """``(argv, error line)`` of each ``$ simqp`` run in README's refusal block."""
    text = README.read_text(encoding="utf-8")
    section = text.split("A finite input that float64 cannot carry", 1)[1]
    block = re.search(r"```text\n(.*?)```", section, re.DOTALL).group(1)
    lines = block.splitlines()
    return [
        (shlex.split(line)[2:], error)
        for line, error in zip(lines, lines[1:])
        if line.startswith("$ simqp ")
    ]


@pytest.mark.parametrize("argv, error", refusal_examples(), ids=lambda v: " ".join(v)[:40])
def test_readme_refusal_examples(argv, error, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.splitlines()[-1] == error
