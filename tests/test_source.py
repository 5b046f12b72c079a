import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import numpy as np

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


def test_only_game_states_the_party_sequence():
    # each order's movers are read off Perm3.parties; no other module
    # looks parties up in, or pairs values with, the string "ABC"
    root = Path(ordergame.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "game.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "index":
                subjects = [func.value]
            elif isinstance(func, ast.Name) and func.id == "zip":
                subjects = node.args
            else:
                continue
            if any(isinstance(arg, ast.Constant) and arg.value == "ABC" for arg in subjects):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
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
    """Each top-level function, class and module-level assignment as ``(name, False)``, and each method as ``(name, True)``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, True) for item in node.body if isinstance(item, ast.FunctionDef))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, False) for target in targets for t in ast.walk(target) if isinstance(t, ast.Name))


def _names_read(paths) -> tuple[set[str], set[str]]:
    """The names the files read as a name or an import, and the attributes they read.

    The package's ``__init__.py`` only re-exports, so its imports are not reads.
    """
    names, attributes = set(), set()
    for path in paths:
        if path == REPO / "src" / "ordergame" / "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names, attributes


def _package_names_not_read(paths) -> list[str]:
    """Each package definition, as ``module name``, that the files do not read.

    A method counts as read only through an attribute, so a local variable
    of the same name does not hide it; dunder names are read by the language.
    """
    names, attributes = _names_read(paths)
    return [
        f"{path.relative_to(PACKAGE)} {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name, method in _definitions(ast.parse(path.read_text(), filename=str(path)))
        if name not in attributes
        and (method or name not in names)
        and not (name.startswith("__") and name.endswith("__"))
    ]


REPO = Path(__file__).resolve().parents[1]
PACKAGE = Path(ordergame.__file__).parent


def test_every_package_name_is_read():
    # a package name no code reads is dead
    directories = ("src", "tests", "perfbench")
    paths = [path for directory in directories for path in sorted((REPO / directory).rglob("*.py"))]
    assert _package_names_not_read(paths) == []


def test_package_names_are_read_outside_the_unit_tests():
    # the package, the acceptance test or the benchmark must read each name;
    # a name that only unit tests read is test-only residue
    paths = [*sorted((REPO / "src").rglob("*.py")), REPO / "tests" / "test_acceptance.py"]
    assert _package_names_not_read(paths + sorted((REPO / "perfbench").rglob("*.py"))) == []


def test_package_does_not_call_solve_same_constraints():
    # the ADMM loop is written for one program at a time, on a 1-D state;
    # solve_same_constraints only calls solve once per objective row, so a
    # batch through it is no faster
    root = Path(ordergame.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "solve_same_constraints"
    ]
    assert found == []


def test_only_tensor_builds_exact_entries():
    # exact data is integer numerators over one denominator, turned into
    # Python ints and Fractions in tensor.py alone: no other module maps an
    # array through np.frompyfunc or makes Fractions in a comprehension
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "tensor.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if getattr(node, "attr", getattr(node, "id", None)) == "frompyfunc":
                found.append(f"{path.name}:{node.lineno} frompyfunc")
            if isinstance(node, comprehensions):
                found += [
                    f"{path.name}:{call.lineno} Fraction in a comprehension"
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call) and getattr(call.func, "id", getattr(call.func, "attr", None)) == "Fraction"
                ]
    assert found == []


def _cached_functions():
    """Each function in the package decorated with ``functools.lru_cache`` or ``functools.cache``, as ``(module, name)``."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = "ordergame." + path.relative_to(PACKAGE).with_suffix("").as_posix().replace("/", ".")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef):
                decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
                if any(getattr(d, "attr", getattr(d, "id", None)) in ("lru_cache", "cache") for d in decorators):
                    yield module, node.name


def _arrays_and_other_leaves(value):
    """The leaves of nested tuples: each array, and anything else as ``None``."""
    if isinstance(value, tuple):
        for item in value:
            yield from _arrays_and_other_leaves(item)
    else:
        yield value if isinstance(value, np.ndarray) else None


#: Arguments to call each cached function that takes any, one tuple a call.
CACHED_CALL_ARGUMENTS = {
    "_svec_map": [(2,), (16,)],
}


def test_cached_functions_return_only_read_only_arrays():
    # every caller in the process shares what a cached function returns, so
    # a writable array there is mutable shared state
    found, checked = [], []
    for module, name in _cached_functions():
        fn = getattr(importlib.import_module(module), name)
        if inspect.signature(fn).parameters:
            calls = CACHED_CALL_ARGUMENTS.get(name)
            if calls is None:
                found.append(f"{module}.{name}: add its arguments to CACHED_CALL_ARGUMENTS")
                continue
        else:
            calls = [()]
        for args in calls:
            for leaf in _arrays_and_other_leaves(fn(*args)):
                if leaf is None or leaf.flags.writeable:
                    found.append(f"{module}.{name}{args}")
        checked.append(name)
    assert found == []
    assert {"_run_table", "_pair_index_table", "_doubled_constraints", "_orbit_labels", *CACHED_CALL_ARGUMENTS} <= set(checked)


def _module_arrays():
    """Each ndarray bound at the top level of a package module, directly or as a dict value, as ``(where, array)``."""
    for info in pkgutil.iter_modules(ordergame.__path__):
        module = importlib.import_module(f"ordergame.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, np.ndarray):
                yield f"{module.__name__}.{name}", value
            elif isinstance(value, dict):
                yield from (
                    (f"{module.__name__}.{name}[{key!r}]", item) for key, item in value.items() if isinstance(item, np.ndarray)
                )


def test_module_arrays_are_read_only():
    # a module's arrays are shared by every caller in the process, so a
    # writable one is mutable shared state
    arrays = list(_module_arrays())
    assert [where for where, arr in arrays if arr.flags.writeable] == []
    assert {"ordergame.network._BITS", "ordergame.quantum._WEIGHT", "ordergame.quantum.KET['0']"} <= {where for where, _ in arrays}


def test_records_declare_their_fields_only_in_slots():
    # FrozenRecord derives the field tuple from __slots__ and stores the
    # fields through its own __init__, so a record writes neither by hand
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ClassDef) or node.name == "FrozenRecord":
                continue
            if "FrozenRecord" not in {getattr(base, "id", getattr(base, "attr", None)) for base in node.bases}:
                continue
            found += [
                f"{path.relative_to(PACKAGE)}:{item.lineno} {node.name}._values"
                for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name == "_values"
            ]
            found += [
                f"{path.relative_to(PACKAGE)}:{call.lineno} {node.name} sets a slot"
                for call in ast.walk(node)
                if isinstance(call, ast.Call) and ast.unparse(call.func) == "object.__setattr__"
            ]
    assert found == []


def test_only_packed_reads_the_int64_bound():
    # the numerator type is picked in one place, tensor._packed: every other
    # exact step works on Python ints and Fractions, or moves numerators it was given
    reads = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name == "INT64_BOUND" and isinstance(node.ctx, ast.Load):
                inside = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                reads[f"{path.name}:{node.lineno}"] = f"{path.stem}.{inside[-1] if inside else '<module>'}"
    assert reads and set(reads.values()) == {"tensor._packed"}, reads
