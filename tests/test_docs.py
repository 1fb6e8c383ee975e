"""The README's library quickstart runs, and every exported name exists."""

import re
from pathlib import Path

import simqp

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
