"""Command-line entry point: run scenarios, emit text/JSON/CSV reports."""

from __future__ import annotations

import argparse
import csv
import io
import json
import numbers
import operator
import sys
import time
from fractions import Fraction
from typing import Callable

from . import __version__
from .classical import search_losr, search_memoryless
from .game import ScenarioResult, TranscriptMismatch, all_orders, trit_game, two_party_game
from .network import nonsignaling_program, solve_nonsignaling
from .quantum import (
    perfect_discrimination_state,
    quantum_memoryless_optimum,
    routing_matrix,
    routing_pair_products,
    sampled_discrimination_values,
    unbiased_order_states,
    verify_perfect_discrimination,
)
from .solver import SolveSettings, SolverFailed, dump_tableau, solve_shared_state_feasibility
from .tensor import FrozenRecord, operator_jsonable, ratio_str

#: ``--check`` slack for solver scenarios; independent of ``--tolerance``.
CHECK_SLACK = 1e-6

#: The report formats of ``--output``.
OUTPUTS = ("text", "json", "csv")

#: The solver's own defaults, which ``--tolerance`` and ``--max-iters`` start from.
_SOLVE_DEFAULTS = SolveSettings()


class RunConfig:
    def __init__(
        self,
        scenario: str = "all",
        tolerance: float = _SOLVE_DEFAULTS.tolerance,
        max_iters: int = _SOLVE_DEFAULTS.max_iters,
        seed: int = 42,
        output: str = "text",
        dump_matrices: bool = False,
        check: bool = False,
    ):
        self.solver_settings = SolveSettings(tolerance, max_iters)
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
            raise ValueError(f"seed must be an integer, not {seed!r}")
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, not {seed}")
        if scenario != "all" and scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario: {scenario}")
        if output not in OUTPUTS:
            raise ValueError(f"unknown output format: {output}")
        for name, flag in (("dump_matrices", dump_matrices), ("check", check)):
            if type(flag) is not bool:
                raise ValueError(f"{name} must be a bool, not {flag!r}")
        self.scenario = scenario
        self.seed = operator.index(seed)
        self.output = output
        self.dump_matrices = dump_matrices
        self.check = check

    @property
    def tolerance(self) -> float:
        return self.solver_settings.tolerance

    @property
    def max_iters(self) -> int:
        return self.solver_settings.max_iters

    def jsonable(self) -> dict:
        return {
            "scenario": self.scenario,
            "tolerance": self.tolerance,
            "max_iters": self.max_iters,
            "seed": self.seed,
            "output": self.output,
            "dump_matrices": self.dump_matrices,
            "check": self.check,
        }


class Report:
    """The results of one run; the timings, failures and files written start as new empty containers."""

    def __init__(self, results: list[ScenarioResult], versions: str, settings: RunConfig):
        self.results = results
        self.versions = versions
        self.settings = settings
        self.wall_time_ms: dict[str, float] = {}
        self.failures: dict[str, str] = {}
        self.files_written: list[str] = []


def _quantum_memoryless(config: RunConfig) -> ScenarioResult:
    """The solver's optimum for the unbiased states; the sampled check is closed form and takes no solver flags."""
    result = quantum_memoryless_optimum(unbiased_order_states(), config.solver_settings)
    scan = sampled_discrimination_values(n_samples=100, seed=config.seed)
    result.certificate["sampled_check"] = {
        "samples": 100,
        "seed": config.seed,
        "certificate": "closed-form",
        "max_value": scan.max_value,
        "max_primal_residual": scan.max_primal_residual,
        "max_dual_violation": scan.max_dual_violation,
        "max_gap": scan.max_gap,
        "at_one_third": scan.at_one_third,
    }
    return result


def _lose_sdp(config: RunConfig) -> ScenarioResult:
    products = routing_pair_products()
    # equal pair products are one shared operator: convert each once
    floats = {op: op.to_float().data for op in dict.fromkeys(products.values())}
    pair_ops = {(pp.name, p.name): floats[op] for (pp, p), op in products.items()}
    state, solver_report = solve_shared_state_feasibility(pair_ops, config.solver_settings)
    result = verify_perfect_discrimination(state, atol=CHECK_SLACK, scenario="lose-sdp")
    result.certificate["solver"] = solver_report.jsonable()
    return result


class Scenario(FrozenRecord):
    """How to run one scenario, and what ``--check`` and the text report expect.

    ``exact`` compares the value as an exact rational, not as a solver float
    within CHECK_SLACK; ``headline`` labels it in the text report's headline
    line, or is None to leave it out.
    """

    __slots__ = ("run", "expected", "exact", "headline")

    def __init__(
        self,
        run: Callable[[RunConfig], ScenarioResult],
        expected: Fraction,
        exact: bool,
        headline: str | None = None,
    ):
        super().__init__(run, expected, exact, headline)


#: Every scenario, in headline order.
SCENARIOS: dict[str, Scenario] = {
    "two-party": Scenario(lambda _: two_party_game(), Fraction(1), True),
    "trit": Scenario(lambda _: trit_game(), Fraction(1), True),
    "classical-memoryless": Scenario(
        lambda _: search_memoryless(), Fraction(1, 3), True, "classical memoryless"
    ),
    "losr": Scenario(lambda _: search_losr(), Fraction(5, 6), True, "shared randomness"),
    "nonsignaling": Scenario(
        lambda config: solve_nonsignaling(config.solver_settings),
        Fraction(5, 6),
        False,
        "non-signaling",
    ),
    "quantum-memoryless": Scenario(
        _quantum_memoryless, Fraction(1, 3), False, "quantum memoryless"
    ),
    "lose-verify": Scenario(
        lambda _: verify_perfect_discrimination(perfect_discrimination_state()),
        Fraction(1),
        True,
        "shared entanglement",
    ),
    "lose-sdp": Scenario(_lose_sdp, Fraction(1), False),
}


def run(config: RunConfig) -> Report:
    names = list(SCENARIOS) if config.scenario == "all" else [config.scenario]
    report = Report(results=[], versions=__version__, settings=config)
    for name in sorted(names):
        start = time.perf_counter()
        try:
            report.results.append(SCENARIOS[name].run(config))
        # every typed scenario error is a ValueError, apart from these two
        except (SolverFailed, TranscriptMismatch, ValueError) as exc:
            report.failures[name] = str(exc)
        report.wall_time_ms[name] = (time.perf_counter() - start) * 1000.0
    if config.dump_matrices:
        try:
            _dump_matrices(report.files_written)
        except OSError as exc:
            report.failures["dump-matrices"] = str(exc)
    return report


def _dump_matrices(files_written: list[str]) -> None:
    """Write the dump files to the working directory, listing each one once it is written."""
    payload = {
        "shared_state": operator_jsonable(perfect_discrimination_state()),
        "routing": {
            pi.name: operator_jsonable(routing_matrix(pi).op) for pi in all_orders()
        },
    }
    for name, text in (
        ("matrices.json", json.dumps(payload)),
        ("nonsignaling.tableau", dump_tableau(nonsignaling_program())),
    ):
        with open(name, "w") as fh:
            fh.write(text)
        files_written.append(name)


def check_report(report: Report) -> list[str]:
    """Compare each result against its built-in expected value."""
    problems = list(report.failures)
    for result in report.results:
        expected = SCENARIOS[result.scenario].expected
        if SCENARIOS[result.scenario].exact:
            if result.probability != expected:
                problems.append(
                    f"{result.scenario}: got {result.probability}, expected {expected}"
                )
        elif abs(result.probability_float - float(expected)) > CHECK_SLACK:
            problems.append(
                f"{result.scenario}: got {result.probability_float}, expected "
                f"{float(expected)} within {CHECK_SLACK}"
            )
    return problems


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _result_row(result: ScenarioResult, report: Report) -> dict:
    solver = result.certificate.get("solver", {})
    return {
        "scenario": result.scenario,
        "probability": result.probability_float,
        "exact": result.probability_exact or "",
        "residual": solver.get("primal_residual", 0.0),
        "iterations": solver.get("iterations", 0),
        "wall_time_ms": report.wall_time_ms.get(result.scenario, 0.0),
    }


def emit(report: Report, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "results": [
                {
                    "scenario": r.scenario,
                    "probability": r.probability_float,
                    "exact": r.probability_exact,
                    "strategy": r.strategy,
                    "certificate": r.certificate,
                    "wall_time_ms": report.wall_time_ms.get(r.scenario, 0.0),
                }
                for r in report.results
            ],
            "failures": report.failures,
            "versions": report.versions,
            "settings": report.settings.jsonable(),
            "files_written": report.files_written,
        }
        return json.dumps(payload, indent=2, sort_keys=True, default=_exact_jsonable) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        # a failed scenario gets a row of its name and message, the other fields empty
        writer = csv.DictWriter(
            buf,
            fieldnames=[
                "scenario", "probability", "exact", "residual", "iterations", "wall_time_ms", "failure"
            ],
            restval="",
        )
        writer.writeheader()
        for result in report.results:
            writer.writerow(_result_row(result, report))
        for name, message in report.failures.items():
            writer.writerow({"scenario": name, "failure": message})
        return buf.getvalue()
    # text
    lines = [
        f"{'scenario':<22}{'probability':<16}{'exact':<8}{'residual':<12}"
        f"{'iters':<9}{'ms':<10}"
    ]
    for result in report.results:
        row = _result_row(result, report)
        lines.append(
            f"{row['scenario']:<22}{row['probability']:<16.10f}{row['exact']:<8}"
            f"{row['residual']:<12.2e}{row['iterations']:<9}{row['wall_time_ms']:<10.1f}"
        )
    for name, message in report.failures.items():
        lines.append(f"{name:<22}FAILED: {message}")
    if len(report.results) == len(SCENARIOS):
        by_name = {r.scenario: r for r in report.results}
        values = []
        for name, scenario in SCENARIOS.items():
            if scenario.headline:
                r = by_name[name]
                value = r.probability_exact or f"{r.probability_float:.6f}"
                values.append(f"{scenario.headline} {value}")
        lines.append("")
        lines.append("headline probabilities: " + ", ".join(values))
    return "\n".join(lines) + "\n"


def _exact_jsonable(obj) -> str:
    """JSON's hook for what it cannot write: a ``Fraction`` as "p/q"; anything else raises ``TypeError``."""
    if isinstance(obj, Fraction):
        return ratio_str(obj)
    raise TypeError(f"a report cannot hold the {type(obj).__name__} value {obj!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordergame",
        description="Optimal strategies for the three-party order-guessing game.",
    )
    parser.add_argument("--scenario", choices=(*SCENARIOS, "all"), default="all")
    parser.add_argument("--tolerance", type=float, default=_SOLVE_DEFAULTS.tolerance, help="solver tolerance")
    parser.add_argument("--max-iters", type=int, default=_SOLVE_DEFAULTS.max_iters, help="solver iteration cap")
    parser.add_argument("--seed", type=int, default=42, help="seed for sampled checks")
    parser.add_argument("--output", choices=OUTPUTS, default="text")
    parser.add_argument(
        "--dump-matrices",
        action="store_true",
        help="write matrices.json and nonsignaling.tableau to the working directory",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless every scenario matches its expected value "
        f"(exactly for exact scenarios, within a fixed {CHECK_SLACK:g} for solver "
        "scenarios, whatever --tolerance is)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(**vars(args))
    except ValueError as exc:
        parser.error(str(exc))
    report = run(config)
    sys.stdout.write(emit(report, config.output))
    if report.failures:
        return 2
    if config.check:
        problems = check_report(report)
        if problems:
            for problem in problems:
                sys.stderr.write(f"check failed: {problem}\n")
            return 1
        sys.stderr.write("all checks passed\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
