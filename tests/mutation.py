"""Mutation probe of the checking kernel, in plain ``ast``; pytest does not collect this file.

Usage, from the root of a source checkout:

    python tests/mutation.py network.witness_feasibility quantum.output_gram -- tests/test_network.py
    python tests/mutation.py --list network.witness_feasibility

Each target is MODULE.FUNCTION of the ``ordergame`` package; the arguments
after ``--`` are handed to pytest as they are.  A mutant makes one change in
one target: a comparison flipped (``<`` and ``<=``, ``>`` and ``>=``, ``==``
and ``!=``, ``in`` and ``not in``, ``is`` and ``is not``), an integer
constant moved by one either way, ``and`` and ``or`` swapped, or a ``not``
dropped.  Each mutant's module is written, unparsed from its tree, into a
copy of ``src`` in a temporary directory, and the tests run on that copy
(``PYTHONPATH``), stopping at the first failure; a mutant is killed when
they fail or overrun :data:`TIMEOUT_S`.  The tests first run once on the
copy with no mutant, which must pass.

A mutant is named by its target, the source text of the line it changes,
stripped, and the change; when that line makes the same change more than
once, in ``ast.walk`` order, the second and later are numbered ``#2``,
``#3`` and so on.  So an edit to another line keeps every name.
:data:`EQUIVALENT` lists the mutants that no input can tell from the
target, each with the reason; the score leaves them out.  The run prints
every mutant that survives and is not listed, every listed one that was
killed, and the score.
"""

from __future__ import annotations

import ast
import collections
import copy
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "ordergame"
#: Seconds one test run may take before it counts as failed.
TIMEOUT_S = 600

FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not", ast.And: "and", ast.Or: "or",
}

#: Mutants no input tells from the target, by name, with the reason.
EQUIVALENT = {
    "network.witness_feasibility `\"feasible\": max(doubled) == 0 and all(value > 0 for value in values),` `>` -> `>=`":
        "every value is a nonzero entry, so none equals 0",
    "network.witness_feasibility `\"feasible\": max(doubled) == 0 and all(value > 0 for value in values),` "
    "constant 0 -> -1 #2": "the values are nonzero integer numerators, so `> -1` keeps the same ones as `> 0`",
    "classical._distinct `return np.bitwise_count(np.bitwise_or.reduce(1 << codes, axis=1))` constant 1 -> 2":
        "each 4-bit code then sets bit code + 1, still one bit per code, and bit 16 fits the mask",
    "cli.check_report `elif abs(result.probability_float - float(expected)) > CHECK_SLACK:` `>` -> `>=`":
        "a float within 1e-6 of 1/3, 5/6 or 1 differs from it by a multiple of 2**-54, and 1e-6 is not one",
    "tensor._components `linked = [j for j in unseen if (a[i][j] if i < j else a[j][i])]` `<` -> `<=`":
        "an index leaves `unseen` before it is expanded, so j never equals i",
    "tensor._bareiss_psd `if any(pivot_row[k + 1 :]):` constant 1 -> 0":
        "on this branch the added entry, pivot_row[k], is the zero pivot, which `any` ignores",
    "tensor._packed `fits = den <= INT64_BOUND and (nums.itemsize < 8 or -INT64_BOUND <= nums.min() <= nums.max() <= INT64_BOUND)` "
    "constant 8 -> 7": "no integer or bool dtype has 7 bytes, so `< 7` keeps the same ones as `< 8`",
    "tensor._numerators `nums, den = integer_numerators(arr if types <= {int, Fraction} else np.frompyfunc(_exact_scalar, 1, 1)(arr))` "
    "`<=` -> `<`": "only entries of exactly the types int and Fraction take the other branch, and _exact_scalar returns those unchanged",
    "tensor._numerators `return _packed(arr, 1), 1` constant 1 -> 2 #2":
        "_packed reads the denominator only to compare it with INT64_BOUND, which 2 is within as 1 is",
    "tensor._numerators `return _packed(arr, 1), 1` constant 1 -> 0 #2":
        "_packed reads the denominator only to compare it with INT64_BOUND, which 0 is within as 1 is",
}


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise SystemExit(f"no function {name} at the top level of its module")


def _sites(func: ast.FunctionDef) -> list[tuple[ast.AST, int, str]]:
    """Every mutation of the function, in ``ast.walk`` order: ``(node, choice, change)``."""
    sites = []
    for node in ast.walk(func):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                sites.append((node, k, f"`{SYMBOLS[type(op)]}` -> `{SYMBOLS[FLIPS[type(op)]]}`"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            sites += [(node, step, f"constant {node.value} -> {node.value + step}") for step in (1, -1)]
        elif isinstance(node, ast.BoolOp):
            flipped = ast.Or if isinstance(node.op, ast.And) else ast.And
            sites.append((node, 0, f"`{SYMBOLS[type(node.op)]}` -> `{SYMBOLS[flipped]}`"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            sites.append((node, 0, "`not` dropped"))
    return sites


def _mutate(func: ast.FunctionDef, node: ast.AST, choice: int) -> None:
    """Apply one site's change to ``node``, a node of ``func``, in place."""
    if isinstance(node, ast.Compare):
        node.ops[choice] = FLIPS[type(node.ops[choice])]()
    elif isinstance(node, ast.Constant):
        node.value += choice
    elif isinstance(node, ast.BoolOp):
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    else:  # a `not`: its operand takes its place
        for parent in ast.walk(func):
            for field, value in ast.iter_fields(parent):
                if value is node:
                    setattr(parent, field, node.operand)
                elif isinstance(value, list) and any(item is node for item in value):
                    value[[item is node for item in value].index(True)] = node.operand


def labels(target: str, source: str | None = None) -> list[str]:
    """The name of each mutant of ``MODULE.FUNCTION``, in ``_sites`` order; ``source`` stands in for the module's text."""
    module, _, name = target.partition(".")
    source = (PACKAGE / f"{module}.py").read_text() if source is None else source
    lines = source.splitlines()
    seen = collections.Counter()
    names = []
    for node, _, change in _sites(_function(ast.parse(source), name)):
        label = f"{target} `{lines[node.lineno - 1].strip()}` {change}"
        seen[label] += 1
        names.append(label if seen[label] == 1 else f"{label} #{seen[label]}")
    return names


def mutants(target: str):
    """Each mutant of ``MODULE.FUNCTION``: ``(name, module file, mutated source)``."""
    module, _, name = target.partition(".")
    path = PACKAGE / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    for i, label in enumerate(labels(target)):
        mutated = copy.deepcopy(tree)
        mutated_func = _function(mutated, name)
        node, choice, _ = _sites(mutated_func)[i]
        _mutate(mutated_func, node, choice)
        yield label, path.name, ast.unparse(mutated)


def _passes(src: Path, pytest_args: list[str]) -> bool:
    """Whether the tests pass on ``src``; a run past :data:`TIMEOUT_S`, such as a mutant's endless loop, fails."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *pytest_args]
    try:
        return subprocess.run(command, cwd=REPO, env=env, capture_output=True, timeout=TIMEOUT_S).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main(argv: list[str]) -> int:
    listing = argv[:1] == ["--list"]
    argv = argv[1:] if listing else argv
    targets, pytest_args = (argv[: argv.index("--")], argv[argv.index("--") + 1 :]) if "--" in argv else (argv, [])
    if not targets or not (listing or pytest_args):
        print(__doc__)
        return 2
    every = [mutant for target in targets for mutant in mutants(target)]
    if listing:
        print("\n".join(label for label, _, _ in every))
        return 0
    with tempfile.TemporaryDirectory() as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        for module in {filename for _, filename, _ in every}:
            original = src / "ordergame" / module
            original.write_text(ast.unparse(ast.parse(original.read_text())))
        if not _passes(src, pytest_args):
            print("the tests fail on the copy with no mutant")
            return 2
        killed, survived, stale = 0, [], []
        for label, module, text in every:
            path = src / "ordergame" / module
            original = path.read_text()
            path.write_text(text)
            dead = not _passes(src, pytest_args)
            path.write_text(original)
            killed += dead
            if not dead and label not in EQUIVALENT:
                survived.append(label)
            if dead and label in EQUIVALENT:
                stale.append(label)
            print(f"{'killed' if dead else 'SURVIVED'}  {label}", flush=True)
    equivalent = sum(label in EQUIVALENT for label, _, _ in every) - len(stale)
    print(f"\n{len(every)} mutants: {killed} killed, {equivalent} listed as equivalent, {len(survived)} survived")
    for label in survived:
        print(f"survived: {label}")
    for label in stale:
        print(f"listed as equivalent but killed: {label}")
    print(f"score: {killed}/{len(every) - equivalent}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
