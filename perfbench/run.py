"""Benchmark runner for ordergame.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all     # every workload, then one traced run

NAME is one of the workloads below; BENCHMARK.json lists the ones whose
end-to-end metrics are gated.  An untraced run makes cycles of imports and
passes of that workload until ``--seconds`` is used up and reports the
end-to-end metrics.  A traced run records spans around every call into the
package and reports the per-layer metrics; it makes one traced pass of every
workload (more of the cheap ones), so each layer is measured whichever
workload it names.  Every pass runs in a fresh interpreter with the package
imported from ``src``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
nonzero when a correctness or determinism gate fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from benchlib import SLACK, percentile, self_time_by_name, tail_percentile, valid_metric_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench_state" / "counts.json"

#: BLAS threads for every pass; at most ``nproc`` and the same on every run.
BLAS_THREADS = 1
#: Seconds of passes in one cycle of a run (at least one pass).
CYCLE_S = 5.0
#: Fresh interpreters timed importing the package in each cycle; ``setup_s``
#: is the median over the run.
SETUP_PER_CYCLE = 3
#: Seed of the embedded 100-sample scan in certify-all (the CLI default).
CLI_SEED = 42
#: Wall-clock limit for one pass; a pass that overruns it has failed.
PASS_TIMEOUT_S = 150

WORKLOADS = ("certify-all", "scan-batch", "single-solves", "exact-certs")
#: Values each workload checks per pass; a pass that crashes fails them all.
CHECKS_PER_PASS = {"certify-all": 8, "scan-batch": 1000, "single-solves": 3,
                   "exact-certs": 5, "probes": 0}
#: Traced passes per workload in a traced run; medians are taken over them.
TRACE_PLAN = (("certify-all", 1), ("scan-batch", 1), ("single-solves", 3),
              ("exact-certs", 5), ("probes", 1))

#: The benchmark's own expected values for the CLI scenarios.
EXPECTED = {
    "two-party": Fraction(1),
    "trit": Fraction(1),
    "classical-memoryless": Fraction(1, 3),
    "losr": Fraction(5, 6),
    "nonsignaling": Fraction(5, 6),
    "quantum-memoryless": Fraction(1, 3),
    "lose-verify": Fraction(1),
    "lose-sdp": Fraction(1),
}

#: Counts measured at the ROADMAP baseline (scan-batch at seed 42, and the LP).
BASELINE = {
    "solver.batch_iters_p50": 359,
    "solver.batch_iters_p90": 1525,
    "solver.batch_iters_p99": 8912,
    "solver.batch_iters_max": 20000,
    "solver.batch_unconverged": 3,
    "solver.lp_iters": 446,
}
BASELINE_SEED = 42

CLI_ENTRY = "import sys; from ordergame.cli import main; sys.exit(main())"
SETUP_PROBE = (
    f"import sys, time; sys.path.insert(0, {str(HERE)!r}); "
    "from refkernel import reference_kernel, to_reference_s; "
    "reference_kernel(); k0 = reference_kernel(); "
    "t = time.perf_counter(); import ordergame, ordergame.cli; t = time.perf_counter() - t; "
    "k1 = reference_kernel(); import json, platform, numpy; "
    "print(json.dumps({'import_s': to_reference_s(t, k0, k1), 'wall_s': t, "
    "'python': platform.python_version(), 'numpy': numpy.__version__}))"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here, or produced no usable result."""


def pass_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env

def _python(args: list[str]) -> tuple[subprocess.CompletedProcess | None, float]:
    """Run a fresh interpreter to completion; ``None`` when it timed out."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=pass_env(),
                              capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = None
    return proc, time.perf_counter() - start


def _last_json(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def _crashed(workload: str, wall: float, proc) -> dict:
    why = "timed out" if proc is None else f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    n = CHECKS_PER_PASS[workload]
    return {"pass_s": wall, "attempted": max(n, 1), "failed": max(n, 1),
            "failures": [f"{workload} pass {why}"], "solves": 0, "unconverged": 0,
            "counts": {}, "spans": [], "crashed": True}


def certify_all_pass(traced: bool) -> dict:
    """``ordergame --scenario all --check --output json`` as a user runs it."""
    args = ["-c", CLI_ENTRY, "--scenario", "all", "--check", "--output", "json",
            "--seed", str(CLI_SEED)]
    start = time.perf_counter()
    proc, wall = _python(args)
    if proc is None or proc.returncode != 0:
        return _crashed("certify-all", wall, proc)
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return _crashed("certify-all", wall, proc)
    rec = {"pass_s": wall, "attempted": 0, "failed": 0, "failures": [], "counts": {},
           "cli_ms": {}, "spans": []}
    results = {r["scenario"]: r for r in report["results"]}
    solves = [r["certificate"]["solver"] for r in results.values() if "solver" in r["certificate"]]
    for name, want in EXPECTED.items():
        r = results.get(name)
        if r is None:
            ok, got = False, "missing"
        elif r["exact"] is not None:
            ok, got = Fraction(r["exact"]) == want, r["exact"]
        else:
            ok, got = abs(r["probability"] - float(want)) <= SLACK, r["probability"]
        rec["attempted"] += 1
        if not ok:
            rec["failed"] += 1
            rec["failures"].append(f"{name}: got {got}, expected {want}")
        if r is not None:
            rec["cli_ms"][f"cli.{name}_ms"] = r["wall_time_ms"]
            if "solver" in r["certificate"]:
                rec["counts"][f"cli.{name}_iters"] = r["certificate"]["solver"]["iterations"]
    rec["solves"] = len(solves)
    rec["unconverged"] = sum(s["status"] != "optimal" for s in solves)
    if traced:
        rec["spans"] = [{"id": 0, "parent": None, "name": "cli.all",
                         "start": start, "end": start + wall}]
    return rec


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    if workload == "certify-all":
        return certify_all_pass(traced)
    proc, wall = _python([str(HERE / "passes.py"), workload, str(seed), "1" if traced else "0"])
    rec = _last_json(proc.stdout) if proc is not None and proc.returncode == 0 else None
    return rec if rec is not None else _crashed(workload, wall, proc)


def setup_sample() -> dict:
    """Import time of the package in a fresh interpreter, with the versions it saw.

    ``import_s`` is in reference seconds (see ``refkernel``), ``wall_s`` as measured.
    """
    proc, _ = _python(["-c", SETUP_PROBE])
    out = _last_json(proc.stdout) if proc is not None and proc.returncode == 0 else None
    if out is None:
        raise BenchError("cannot import ordergame from src: "
                         + ("timed out" if proc is None else proc.stderr.strip()[-400:]))
    return out


# ---------------------------------------------------------------------------
# determinism gate
# ---------------------------------------------------------------------------


def code_digest() -> str:
    """Identifies the package and pass code plus the settings counts depend on."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + [HERE / "passes.py"]:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    h.update(f"{BLAS_THREADS} {platform.machine()} {sys.version}".encode())
    return h.hexdigest()[:16]


def check_determinism(workload: str, seed: int, records: list[dict]) -> list[str]:
    """Counts must repeat exactly across the passes of a run and across runs."""
    counts = [r["counts"] for r in records if not r.get("crashed")]
    if not counts or not counts[0]:
        return []
    errors = [f"{workload}: pass {i} counts {c} differ from pass 0 {counts[0]}"
              for i, c in enumerate(counts) if c != counts[0]]
    key = f"{workload} seed={seed} code={code_digest()}"
    stored = json.loads(STATE.read_text()) if STATE.exists() else {}
    if key in stored and stored[key] != counts[0]:
        errors.append(f"{workload}: counts {counts[0]} differ from an earlier run {stored[key]}")
    elif key not in stored:
        stored[key] = counts[0]
        STATE.parent.mkdir(exist_ok=True)
        tmp = STATE.with_suffix(".tmp")
        tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
        os.replace(tmp, STATE)
    return errors


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def untraced_run(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict], dict]:
    """Cycles until the time is used up; at least one, none started that would overrun.

    A cycle times ``SETUP_PER_CYCLE`` imports and then passes for ``CYCLE_S``
    seconds, so that the import samples, like the passes, span the whole run
    and its drift in host speed.
    """
    deadline = time.perf_counter() + seconds
    records, setups, cycles = [], [], 0
    while True:
        start = time.perf_counter()
        samples = [setup_sample() for _ in range(SETUP_PER_CYCLE)]
        records.append(run_pass(workload, seed, traced=False))
        while time.perf_counter() - start < CYCLE_S:
            records.append(run_pass(workload, seed, traced=False))
        setups += samples
        cycles += 1
        if time.perf_counter() + (time.perf_counter() - start) > deadline:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "pass_s": statistics.median(r["pass_s"] for r in records),
        "setup_s": statistics.median(s["import_s"] for s in setups),
        "peak_rss_mb": peak_kb * 1024 / 1e6,
    }
    print(f"setup_s: median {metrics['setup_s']:.4f} reference s over {len(setups)} imports "
          f"in {cycles} cycles; as measured, median "
          f"{statistics.median(s['wall_s'] for s in setups):.4f} s")
    return metrics, records, samples[-1]


def traced_run(seed: int) -> tuple[dict, dict[str, list[dict]]]:
    runs = {w: [run_pass(w, seed, traced=True) for _ in range(n)] for w, n in TRACE_PLAN}
    metrics: dict[str, float] = {}
    for workload, records in runs.items():
        ok = [r for r in records if not r.get("crashed")]
        if not ok:
            continue
        if workload in WORKLOADS:
            metrics[f"traced.{workload}_pass_s"] = statistics.median(r["pass_s"] for r in ok)
        by_name = [self_time_by_name(r["spans"]) for r in ok]
        for name in by_name[0]:
            if not name.startswith("bench."):
                metrics[f"{name}_ms"] = statistics.median(t[name] for t in by_name) * 1e3
        for key in ok[0].get("cli_ms", {}):
            metrics[key] = statistics.median(r["cli_ms"][key] for r in ok)
        metrics.update(ok[0]["counts"])
        for key in ok[0].get("probes", {}):
            metrics[key] = statistics.median(r["probes"][key] for r in ok)
    metrics.update(derived_metrics(metrics))
    return metrics, runs


def derived_metrics(m: dict) -> dict:
    out = {}
    if "solver.batch_solve_ms" in m and m.get("solver.batch_iters_max"):
        out["solver.batch_us_per_loop"] = m["solver.batch_solve_ms"] * 1e3 / m["solver.batch_iters_max"]
    if {"solver.lp_solve_ms", "solver.lp_fixed_ms"} <= m.keys() and m.get("solver.lp_iters", 0) > 1:
        loop_ms = m["solver.lp_solve_ms"] - m["solver.lp_fixed_ms"]
        out["solver.lp_us_per_iter"] = loop_ms * 1e3 / (m["solver.lp_iters"] - 1)
    return out


def print_baseline(counts: dict, seed: int) -> None:
    for name, want in BASELINE.items():
        if name not in counts or (name.startswith("solver.batch") and seed != BASELINE_SEED):
            continue
        got = counts[name]
        verdict = "match" if round(got) == want else "differs"
        print(f"baseline {name}: {got} here, {want} at the ROADMAP baseline ({verdict})")


def print_module_self_times(runs: dict[str, list[dict]]) -> None:
    """Self time per package module, summed over the first traced pass of each workload."""
    for workload, records in runs.items():
        spans = records[0]["spans"]
        modules: dict[str, float] = {}
        for name, t in self_time_by_name(spans).items():
            modules[name.split(".")[0]] = modules.get(name.split(".")[0], 0.0) + t
        parts = ", ".join(f"{m} {t * 1e3:.1f} ms" for m, t in sorted(modules.items()))
        print(f"self time {workload}: {parts}")


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not valid_metric_name(metric["name"]):
            raise BenchError(f"invalid metric name {metric['name']!r}")
    return spec


def single_run(args, spec: dict) -> int:
    if not (ROOT / "src" / "ordergame" / "__init__.py").is_file():
        raise BenchError(f"no package source under {ROOT / 'src'}")
    if args.trace:
        versions = setup_sample()
        metrics, runs = traced_run(args.seed)
        print_module_self_times(runs)
        wanted = spec["per_layer"]
    else:
        metrics, records, versions = untraced_run(args.workload, args.seed, args.seconds)
        runs = {args.workload: records}
        wanted = spec["end_to_end"]
        times = [r["pass_s"] for r in records]
        tail = tail_percentile(len(times))
        print(f"pass_s: median {metrics['pass_s']:.4f} s over {len(times)} passes; "
              + (f"p{tail} {percentile(times, tail):.4f} s" if tail
                 else "too few passes for a tail percentile"))
        if all("wall_s" in r for r in records):
            print(f"pass_s is in reference seconds; as measured, median "
                  f"{statistics.median(r['wall_s'] for r in records):.4f} s")
    print(f"env: python {versions['python']}, numpy {versions['numpy']}, nproc {os.cpu_count()}, "
          f"BLAS threads {BLAS_THREADS}, seed {args.seed}, seconds {args.seconds}")

    errors = []
    attempted = failed = solves = unconverged = 0
    for workload, records in runs.items():
        errors += check_determinism(workload, args.seed, records)
        for r in records:
            attempted += r["attempted"]
            failed += r["failed"]
            solves += r["solves"]
            unconverged += r["unconverged"]
            errors += r["failures"]
        print_baseline(records[0]["counts"], args.seed)

    for e in errors:
        print(f"error: {e}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, v in out.items():
        print(f"metric {name} = {v['value']:.6g} {v['unit']}")
    print(f"metric failed_frac = {failed / max(attempted, 1):.6g} ({failed} of {attempted} values)")
    if solves:
        print(f"metric unconverged_frac = {unconverged / solves:.6g} ({unconverged} of {solves} solves)")
    correct = not errors and failed == 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": out}))
    return 0 if correct else 1


def all_runs(args) -> int:
    """Every workload untraced, then one traced run; prints the tracing overhead."""
    status, pass_s, traced = 0, {}, {}
    for workload, trace in [(w, 0) for w in WORKLOADS] + [(WORKLOADS[0], 1)]:
        print(f"== {workload} trace={trace}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        result = _last_json(proc.stdout)
        if proc.returncode != 0 or result is None:
            status = 1
            continue
        values = {k: v["value"] for k, v in result["metrics"].items()}
        if trace:
            traced = values
        else:
            pass_s[workload] = values["pass_s"]
    for workload, untraced in pass_s.items():
        key = f"traced.{workload}_pass_s"
        if key in traced:
            print(f"tracing overhead {workload}: {traced[key] - untraced:+.4f} s "
                  f"({traced[key]:.4f} traced, {untraced:.4f} untraced)")
    print("all gates passed" if status == 0 else "a gate failed")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwinding from SIGTERM lets subprocess.run kill and reap the running pass.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.workload == "all":
            return all_runs(args)
        return single_run(args, load_spec())
    except (BenchError, FileNotFoundError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
