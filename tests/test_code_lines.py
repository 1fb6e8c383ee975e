"""The line counter behind the code-line figures of ``src/simqp``."""

import pytest

from code_lines import KINDS, SOURCES, count_lines

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps a code line

# a comment line


def f(x):
    """One-line docstring."""
    text = """a string that is not a docstring

    spans code lines"""
    return math.sqrt(x) + len(text)
'''


def test_fixture_counts():
    assert count_lines(FIXTURE) == {
        "physical": 14, "code": 5, "docstring": 3, "comment": 1, "blank": 5,
    }


@pytest.mark.parametrize("path", sorted(SOURCES.glob("*.py")), ids=lambda path: path.name)
def test_kinds_sum_to_the_physical_lines(path):
    counts = count_lines(path.read_text(encoding="utf-8"))
    assert sum(counts[kind] for kind in KINDS[1:]) == counts["physical"]
    assert counts["code"] > 0
