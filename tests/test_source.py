import ast
import sys
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


def test_package_imports_only_the_standard_library_and_numpy():
    # the package's one runtime dependency is numpy
    root = Path(ordergame.__file__).parent
    allowed = set(sys.stdlib_module_names) | {"numpy", "ordergame"}
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.relative_to(root)}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in allowed
            ]
    assert found == []


def test_package_does_not_call_np_unique():
    # numpy's first `unique` call in a process costs about 15 ms and 1.6 MB
    # of peak RSS, which every CLI run and benchmark pass would pay
    root = Path(ordergame.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Attribute) and node.attr == "unique")
        or (isinstance(node, ast.ImportFrom) and node.module == "numpy" and any(a.name == "unique" for a in node.names))
    ]
    assert found == []


def test_package_does_not_import_dataclasses():
    # @dataclass builds each generated method with its own exec: in three
    # fresh Python 3.11.7 interpreters the 18 record types it made took
    # 12.0-15.6 ms of a 53-67 ms package import from source, and 14.6-18.5 ms
    # of 29-36 ms with cached bytecode, so the records are plain classes
    root = Path(ordergame.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Import) and any(a.name.partition(".")[0] == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.partition(".")[0] == "dataclasses")
    ]
    assert found == []


def test_package_has_no_unused_imports():
    # a name bound by an import must be read somewhere in its module or listed in __all__
    root = Path(ordergame.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [
                    f"{path.relative_to(root)}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name.partition(".")[0]) not in used
                ]
    assert found == []


def _definitions(tree: ast.Module):
    """Each top-level function, class, method and module-level assignment, with its line."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, item.lineno) for item in node.body if isinstance(item, ast.FunctionDef))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
            yield from ((name, node.lineno) for name in names)


def test_every_package_name_is_read():
    # a package name no code reads, as a name, an attribute or an import, is dead;
    # dunder names are read by the language itself
    repo = Path(__file__).resolve().parents[1]
    read = set()
    for directory in ("src", "tests", "perfbench"):
        for path in sorted((repo / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.alias):
                    read.add(node.name.rpartition(".")[2])
    package = repo / "src" / "ordergame"
    found = [
        f"{path.relative_to(package)}:{line} {name}"
        for path in sorted(package.rglob("*.py"))
        for name, line in _definitions(ast.parse(path.read_text(), filename=str(path)))
        if name not in read and not (name.startswith("__") and name.endswith("__"))
    ]
    assert found == []


def test_package_does_not_call_solve_same_constraints():
    # the ADMM loop is written for one program at a time, on a 1-D state, on
    # the assumption that every package caller solves one instance;
    # solve_same_constraints only shares the factorization and then runs that
    # loop once per objective row, so a batch through it is no faster
    root = Path(ordergame.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "solve_same_constraints"
    ]
    assert found == []
