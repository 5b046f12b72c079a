import ast
from pathlib import Path

import ordergame


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so none may guard a check
    root = Path(ordergame.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
