"""One pass of an in-process benchmark workload, in a fresh interpreter.

Usage: python3 perfbench/passes.py WORKLOAD SEED TRACE

WORKLOAD is scan-batch, single-solves, exact-certs or probes; TRACE is 0
or 1.  The pass calls the package only through public functions and
prints one JSON object: the pass time, the checks it made, the counts
that must repeat exactly for a given seed, and (when traced) its spans.
``src`` must be on PYTHONPATH; ``run.py`` starts this script.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from fractions import Fraction

import numpy as np

import ordergame.cli  # imported as by every CLI call; not used directly
from ordergame import classical, network, quantum, solver
from ordergame.game import all_orders

from benchlib import SLACK, Tracer
from refkernel import reference_kernel, to_reference_s

#: The acceptance criterion-4 scan: instances, tolerance and iteration cap.
SCAN_SAMPLES = 1000
SCAN_TOLERANCE = 1e-7
SCAN_CAP = 20_000


class Checks:
    """Counts checked values and keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(message)

    def near(self, label: str, got: float, want: float) -> None:
        self.expect(abs(got - want) <= SLACK, f"{label}: got {got!r}, expected {want!r}")

    def exact(self, label: str, got, want: Fraction) -> None:
        ok = isinstance(got, Fraction) and got == want
        self.expect(ok, f"{label}: got {got!r}, expected exactly {want}")


def scan_objectives(seed: int) -> np.ndarray:
    """Objective rows for seeded Haar triples, drawn as the package's scan draws them."""
    rng = np.random.default_rng(seed)
    ket0 = np.array([1, 0], dtype=complex)
    objectives = np.empty((SCAN_SAMPLES, 24))
    for i in range(SCAN_SAMPLES):
        us = {p: quantum.haar_qubit_unitary(rng) for p in ("A", "B", "C")}
        for k, pi in enumerate(all_orders()):
            vec = ket0
            for party in pi.order:
                vec = us[party] @ vec
            objectives[i, 4 * k : 4 * k + 4] = solver.svec(np.outer(vec, vec.conj())) / 6.0
    return objectives


def scan_batch(seed: int, tracer: Tracer, checks: Checks) -> dict:
    with tracer.span("bench.inputs"):
        objectives = scan_objectives(seed)
    settings = solver.SolveSettings(tolerance=SCAN_TOLERANCE, max_iters=SCAN_CAP)
    start = time.perf_counter()
    with tracer.span("quantum.program"):
        template = quantum.discrimination_program(quantum.unbiased_order_states())
    with tracer.span("solver.batch_solve"):
        reports = solver.solve_same_constraints(template, objectives, settings)
    pass_s = time.perf_counter() - start

    bound = 1.0 / 3.0 + SLACK
    for i, r in enumerate(reports):
        checks.expect(r.objective_value <= bound, f"instance {i}: {r.objective_value!r} > 1/3")
    iters = np.array([r.iterations for r in reports], dtype=np.int64)
    p50, p90, p99 = np.percentile(iters, [50, 90, 99])
    unconverged = sum(r.status != "optimal" for r in reports)
    return {
        "pass_s": pass_s,
        "solves": len(reports),
        "unconverged": unconverged,
        "counts": {
            "solver.batch_iters_sum": int(iters.sum()),
            "solver.batch_iters_p50": float(p50),
            "solver.batch_iters_p90": float(p90),
            "solver.batch_iters_p99": float(p99),
            "solver.batch_iters_max": int(iters.max()),
            "solver.batch_unconverged": unconverged,
            "solver.batch_iters_sha256": hashlib.sha256(iters.tobytes()).hexdigest(),
        },
    }


def single_solves(seed: int, tracer: Tracer, checks: Checks) -> dict:
    del seed  # these programs have no random data
    with tracer.span("bench.inputs"):
        pair_ops = {
            (pp.name, p.name): np.asarray(op.to_float().data)
            for (pp, p), op in quantum.routing_pair_products().items()
        }
    settings = solver.SolveSettings()
    start = time.perf_counter()
    with tracer.span("network.program_build"):
        program = network.nonsignaling_program()
    with tracer.span("solver.lp_solve"):
        lp = solver.solve(program, settings)
    with tracer.span("quantum.qm_optimum"):
        qm = quantum.quantum_memoryless_optimum(quantum.unbiased_order_states(), settings)
    with tracer.span("solver.sdp16_solve"):
        try:
            state, sdp = solver.solve_shared_state_feasibility(pair_ops, settings)
        except solver.SolverFailed as exc:
            state, sdp = None, exc.report
    pass_s = time.perf_counter() - start
    if tracer.enabled:
        # the fixed cost of a solve: build the factorization, run one iteration
        with tracer.span("solver.lp_fixed"):
            solver.solve(program, solver.SolveSettings(max_iters=1))

    checks.near("non-signaling LP", lp.objective_value, 5 / 6)
    checks.near("quantum memoryless", qm.probability_float, 1 / 3)
    trace = float("nan") if state is None else float(np.trace(state.data).real)
    checks.near("shared-state trace", trace, 1.0)
    statuses = (lp.status, qm.certificate["solver"]["status"], sdp.status)
    qm_iters = qm.certificate["solver"]["iterations"]
    return {
        "pass_s": pass_s,
        "solves": len(statuses),
        "unconverged": sum(s != "optimal" for s in statuses),
        "counts": {
            "solver.lp_iters": lp.iterations,
            "solver.qm_iters": qm_iters,
            "solver.sdp16_iters": sdp.iterations,
        },
    }


def exact_certs(seed: int, tracer: Tracer, checks: Checks) -> dict:
    """The rational paths; ``pass_s`` in reference seconds, ``wall_s`` as measured.

    This work is plain Python and slows with the reference kernel timed
    just before and after it (log-log slope 1.0, correlation 0.93 over 25
    passes); see ``refkernel``.
    """
    del seed  # the exact paths have no random data
    reference_kernel()  # warm-up
    kernel_before = reference_kernel()
    start = time.perf_counter()
    with tracer.span("classical.search_memoryless"):
        memoryless = classical.search_memoryless()
    with tracer.span("classical.search_losr"):
        losr = classical.search_losr()
    with tracer.span("network.strategy_blocks"):
        blocks = network.strategy_network_blocks()
    with tracer.span("network.witness"):
        witness = network.witness_feasibility(blocks)
    with tracer.span("quantum.exact_state"):
        state = quantum.perfect_discrimination_state()
    with tracer.span("quantum.pair_products"):
        quantum.routing_pair_products()
    with tracer.span("quantum.verify_exact"):
        verified = quantum.verify_perfect_discrimination(state)
    with tracer.span("quantum.output_gram"):
        gram = quantum.output_gram(state)
    wall_s = time.perf_counter() - start
    kernel_after = reference_kernel()

    checks.exact("classical memoryless", memoryless.probability, Fraction(1, 3))
    checks.exact("one recorded bit", losr.probability, Fraction(5, 6))
    witness_value = witness["objective"] if witness["feasible"] else None
    checks.exact("non-signaling witness", witness_value, Fraction(5, 6))
    checks.exact("shared entanglement", verified.probability, Fraction(1))
    identity = all(
        isinstance(gram[i, j], Fraction) and gram[i, j] == (1 if i == j else 0)
        for i in range(6)
        for j in range(6)
    )
    checks.expect(identity, f"output Gram matrix is not the exact identity: {gram!r}")
    return {"pass_s": to_reference_s(wall_s, kernel_before, kernel_after), "wall_s": wall_s,
            "solves": 0, "unconverged": 0, "counts": {}}


def _per_call_us(fn, calls: int, repeats: int = 7) -> float:
    """Median over ``repeats`` of the mean time of ``calls`` calls, in µs."""
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return sorted(times)[repeats // 2] * 1e6


def probes(seed: int, tracer: Tracer, checks: Checks) -> dict:
    """Batch-1 ``project_cone`` on the scan, LP and shared-state cones."""
    rng = np.random.default_rng(seed)
    cones = {
        "solver.project_psd2_us": ([solver.HermitianPSD(2)] * 6, 300),
        "solver.project_orthant_us": ([solver.NonnegOrthant(256)] * 6, 300),
        "solver.project_psd16_us": ([solver.HermitianPSD(16), solver.NonnegOrthant(1)], 100),
    }
    start = time.perf_counter()
    out = {}
    for name, (blocks, calls) in cones.items():
        x = rng.normal(size=sum(b.dim for b in blocks))
        out[name] = _per_call_us(lambda: solver.project_cone(x, blocks), calls)
    return {"pass_s": time.perf_counter() - start, "solves": 0, "unconverged": 0,
            "counts": {}, "probes": out}


PASSES = {
    "scan-batch": scan_batch,
    "single-solves": single_solves,
    "exact-certs": exact_certs,
    "probes": probes,
}


def main(argv: list[str]) -> int:
    if len(argv) != 4 or argv[1] not in PASSES or argv[3] not in ("0", "1"):
        sys.stderr.write(__doc__)
        return 2
    workload, seed, traced = argv[1], int(argv[2]), argv[3] == "1"
    tracer, checks = Tracer(traced), Checks()
    with tracer.span("bench.pass"):
        record = PASSES[workload](seed, tracer, checks)
    record.update(attempted=checks.attempted, failed=checks.failed,
                  failures=checks.failures, spans=tracer.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
