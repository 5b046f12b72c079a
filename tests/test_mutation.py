"""The mutation probe's mutant names (``tests/mutation.py``): stable across edits to other lines."""

import ast

import pytest

import mutation


def _source(target: str) -> str:
    return (mutation.PACKAGE / f"{target.partition('.')[0]}.py").read_text()


def _with_a_line_above_the_body(source: str, name: str) -> str:
    """``source`` with a ``pass`` line added above the first statement after the docstring of function ``name``."""
    body = mutation._function(ast.parse(source), name).body
    first = body[1] if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) else body[0]
    lines = source.splitlines(keepends=True)
    lines.insert(first.lineno - 1, " " * first.col_offset + "pass\n")
    return "".join(lines)


@pytest.mark.parametrize("key", sorted(mutation.EQUIVALENT))
def test_each_listed_equivalent_mutant_keeps_its_name_when_a_line_is_added_above_it(key):
    target = key.partition(" ")[0]
    source = _source(target)
    edited = _with_a_line_above_the_body(source, target.partition(".")[2])
    assert len(edited.splitlines()) == len(source.splitlines()) + 1
    assert key in mutation.labels(target, source)
    assert mutation.labels(target, edited) == mutation.labels(target, source)


def test_a_repeated_change_on_one_line_is_numbered():
    source = "def f(x):\n    return x == 0 or x == 0\n"
    assert mutation.labels("m.f", source) == [
        "m.f `return x == 0 or x == 0` `or` -> `and`",
        "m.f `return x == 0 or x == 0` `==` -> `!=`",
        "m.f `return x == 0 or x == 0` `==` -> `!=` #2",
        "m.f `return x == 0 or x == 0` constant 0 -> 1",
        "m.f `return x == 0 or x == 0` constant 0 -> -1",
        "m.f `return x == 0 or x == 0` constant 0 -> 1 #2",
        "m.f `return x == 0 or x == 0` constant 0 -> -1 #2",
    ]
