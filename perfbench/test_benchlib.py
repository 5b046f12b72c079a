"""Tests of the benchmark's own arithmetic: names, self times, percentiles."""

import json
from pathlib import Path

import numpy as np
import pytest

from benchlib import Tracer, percentile, self_time_by_name, self_times, tail_percentile, valid_metric_name
from refkernel import REFERENCE_KERNEL_S, reference_kernel, to_reference_s
from run import derived_metrics

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", ["pass_s", "cli.quantum-memoryless_ms", "solver.batch_iters_p99", "9x"])
def test_metric_name_accepted(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "-x", "a b", "a/b", "ms(total)", "a" * 65])
def test_metric_name_rejected(name):
    assert not valid_metric_name(name)


def test_benchmark_spec_names_are_valid_and_unique():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert all(valid_metric_name(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _span(i, parent, name, start, end):
    return {"id": i, "parent": parent, "name": name, "start": start, "end": end}


def test_self_time_subtracts_children_once():
    spans = [
        _span(0, None, "pass", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 4.0),
        _span(2, 1, "a.inner", 2.0, 3.0),
        _span(3, 0, "b", 3.5, 6.0),  # overlaps "a": the covered union is [1, 6]
        _span(4, 0, "c", 9.0, 12.0),  # runs past its parent: clipped at 10
    ]
    assert self_times(spans) == pytest.approx({0: 4.0, 1: 2.0, 2: 1.0, 3: 2.5, 4: 3.0})


def test_self_time_by_name_sums_repeated_spans():
    spans = [
        _span(0, None, "pass", 0.0, 5.0),
        _span(1, 0, "solve", 0.0, 1.0),
        _span(2, 0, "solve", 2.0, 4.0),
    ]
    assert self_time_by_name(spans) == pytest.approx({"pass": 2.0, "solve": 3.0})


def test_tracer_records_parents_and_is_silent_when_off():
    tracer = Tracer(True)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    with tracer.span("next"):
        pass
    assert [(s["name"], s["parent"]) for s in tracer.spans] == [
        ("outer", None), ("inner", 0), ("next", None)]
    assert all(s["start"] <= s["end"] for s in tracer.spans)
    off = Tracer(False)
    with off.span("outer"):
        pass
    assert off.spans == []


@pytest.mark.parametrize("n, expected", [
    (1, None), (99, None), (100, "90"), (999, "90"), (1000, "99"), (9999, "99"), (10000, "99.9"),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


@pytest.mark.parametrize("p", ["50", "90", "99", "99.9"])
def test_percentile_matches_numpy_default(p):
    values = np.random.default_rng(5).exponential(size=1001).tolist()
    assert percentile(values, p) == pytest.approx(np.percentile(values, float(p)), rel=1e-12)


def test_derived_metrics():
    m = {"solver.batch_solve_ms": 2000.0, "solver.batch_iters_max": 20000,
         "solver.lp_solve_ms": 500.0, "solver.lp_fixed_ms": 50.0, "solver.lp_iters": 451}
    assert derived_metrics(m) == pytest.approx(
        {"solver.batch_us_per_loop": 100.0, "solver.lp_us_per_iter": 1000.0})


def test_to_reference_s_divides_out_core_speed():
    # the kernel ran at half speed around the measurement: half the seconds count
    slow = 2 * REFERENCE_KERNEL_S
    assert to_reference_s(3.0, slow, slow) == pytest.approx(1.5)
    assert to_reference_s(3.0, REFERENCE_KERNEL_S, REFERENCE_KERNEL_S) == pytest.approx(3.0)
    assert reference_kernel() > 0
