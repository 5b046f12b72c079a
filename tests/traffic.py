"""The package lines that the package's real traffic never runs, in plain ``sys.settrace``; pytest does not collect this file.

Usage, from the root of a source checkout:

    python tests/traffic.py

The traffic is what the package is run for: the CLI (``--scenario all
--check --dump-matrices`` with each ``--output``, at seeds 42 and 7, in a
temporary directory), the seven acceptance criteria of
``tests/test_acceptance.py``, and the ``single-solves``, ``exact-certs`` and
``probes`` pass bodies of ``perfbench/passes.py``.  Tracing starts before
the package is imported, so the lines that run at import count.  The
criteria's runtime budgets are read off a clock that stands still, since
tracing slows every line.

The script prints each line of ``src/ordergame`` that holds bytecode and
that the traffic never runs, as ``module.py:LINE``, then ``raise`` for a
line of a ``raise`` statement, then the line's text; then how many lines
ran.  It exits 1 if any of the traffic fails.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
import types
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "ordergame"
ARGUMENTS = ["--scenario", "all", "--check", "--dump-matrices"]
PASSES = ("single-solves", "exact-certs", "probes")


def _code_lines(code: types.CodeType) -> set[int]:
    """The source lines that hold bytecode of ``code`` or of any code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _raise_lines(tree: ast.Module) -> set[int]:
    return {line for node in ast.walk(tree) if isinstance(node, ast.Raise) for line in range(node.lineno, node.end_lineno + 1)}


def _traffic() -> list[str]:
    """Run the traffic; the failures, one message each."""
    failures = []
    from ordergame import cli

    with tempfile.TemporaryDirectory() as scratch:
        here = os.getcwd()
        os.chdir(scratch)
        try:
            for output in cli.OUTPUTS:
                for seed in ("42", "7"):
                    argv = [*ARGUMENTS, "--output", output, "--seed", seed]
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                        status = cli.main(argv)
                    if status != 0:
                        failures.append(f"ordergame {' '.join(argv)} exited {status}")
        finally:
            os.chdir(here)

    sys.path[:0] = [str(REPO / "tests"), str(REPO / "perfbench")]
    import passes
    import test_acceptance

    test_acceptance.time = types.SimpleNamespace(perf_counter=lambda: 0.0)
    for name in sorted(vars(test_acceptance)):
        if name.startswith("test_criterion_"):
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    getattr(test_acceptance, name)()
            except AssertionError as exc:
                failures.append(f"{name}: {exc!r}")
    for workload in PASSES:
        checks = passes.Checks()
        passes.PASSES[workload](42, passes.Tracer(False), checks)
        failures += [f"{workload}: {message}" for message in checks.failures]
    return failures


def main() -> int:
    if any(name == "ordergame" or name.startswith("ordergame.") for name in sys.modules):
        raise SystemExit("the package is already imported, so its import would not be traced")
    sys.path.insert(0, str(REPO / "src"))
    package = str(PACKAGE)
    ran = set()

    def local(frame, event, arg):
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        if not frame.f_code.co_filename.startswith(package):
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    sys.settrace(calls)
    try:
        failures = _traffic()
    finally:
        sys.settrace(None)

    total = run = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        lines = _code_lines(compile(source, str(path), "exec"))
        raises = _raise_lines(ast.parse(source))
        text = source.splitlines()
        missed = sorted(line for line in lines if (str(path), line) not in ran)
        total, run = total + len(lines), run + len(lines) - len(missed)
        for line in missed:
            where = f"{path.relative_to(PACKAGE)}:{line}"
            print(f"{where:<16} {'raise' if line in raises else '':<5}  {text[line - 1].strip()}")
    print(f"\n{run} of {total} lines with bytecode ran")
    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
