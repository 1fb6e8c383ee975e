"""Every pass/fail threshold lives in ``phase_space.TOLERANCES``.

The source scan fails on a module-level ``*_ATOL``/``*_RTOL``/``*_TOL``
name and on a float literal in (0, 1e-6] outside the table, so a new
threshold cannot appear beside it.  The CSV kernel's certification
constants are the listed exceptions: they choose a formatting path and
never decide pass or fail.  ``exceeds`` is pinned at its edges.
"""

import ast
import math
import re
from pathlib import Path

import pytest

from simqp.phase_space import TOLERANCES, exceeds

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "simqp").glob("*.py"))

# module-level names whose small literals are not thresholds
NOT_THRESHOLDS = {"_CSV_TIE_MARGIN", "_CSV_CERTIFIED"}

THRESHOLD_NAME = re.compile(r".*_(A|R)?TOL$")


def module_assignments(tree):
    """``(target names, value node)`` of each module-level assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            yield names, node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield [node.target.id], node.value


def is_small_float(node) -> bool:
    """Whether ``node`` is a float literal in (0, 1e-6]."""
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < node.value <= 1e-6
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_threshold_lives_outside_the_table(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exempt = set()
    for names, value in module_assignments(tree):
        assert not [name for name in names if THRESHOLD_NAME.match(name)], names
        if "TOLERANCES" in names or NOT_THRESHOLDS & set(names):
            exempt.update(id(leaf) for leaf in ast.walk(value))
    stray = [
        (leaf.lineno, leaf.value)
        for leaf in ast.walk(tree)
        if is_small_float(leaf) and id(leaf) not in exempt
    ]
    assert not stray, f"{path.name}: threshold literals outside TOLERANCES: {stray}"


def test_every_entry_is_read():
    read = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        table = set()
        for names, value in module_assignments(tree):
            if "TOLERANCES" in names:
                table.update(id(leaf) for leaf in ast.walk(value))
        read.update(
            leaf.value
            for leaf in ast.walk(tree)
            if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
            and id(leaf) not in table
        )
    assert set(TOLERANCES) <= read, set(TOLERANCES) - read


@pytest.mark.parametrize("name", sorted(TOLERANCES))
@pytest.mark.parametrize("scale", [1.0, 3.0])
def test_exceeds_fails_non_finite_and_passes_at_the_bound(name, scale):
    bound = TOLERANCES[name] * scale
    for residual in (math.nan, math.inf, -math.inf):
        assert exceeds(name, residual, scale)
    assert not exceeds(name, bound, scale)
    assert not exceeds(name, -bound, scale)
    assert exceeds(name, math.nextafter(bound, math.inf), scale)
