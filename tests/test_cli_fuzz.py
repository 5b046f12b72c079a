"""Hypothesis fuzz of the command-line contract, driven in process.

Any argument list either returns 0, 1 or 2 from ``main`` or stops with a
usage error (``SystemExit(2)``); nothing else escapes.  A ``--check`` run
that returns 0 reports every value within ``CHECK_SLACK`` of its expected
value, whatever ``--tolerance`` is.
"""

import contextlib
import csv
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from ordergame.cli import CHECK_SLACK, SCENARIOS, main  # noqa: E402

#: log-uniform from 1e-12 to 1e3, plus values the parser or RunConfig refuses
tolerances = st.one_of(
    st.floats(-12.0, 3.0).map(lambda e: repr(10.0**e)),
    st.sampled_from(["0", "-1", "nan", "inf", "abc"]),
)


@st.composite
def argvs(draw):
    argv = ["--scenario", draw(st.sampled_from([*SCENARIOS, "all"]))]
    argv += ["--max-iters", str(draw(st.integers(-1, 300)))]
    argv += ["--tolerance", draw(tolerances)]
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(-1, 1000)))]
    argv += ["--output", draw(st.sampled_from(["json", "csv"]))]
    if draw(st.booleans()):
        argv.append("--check")
    return argv


def reported_values(text: str, fmt: str) -> dict[str, float]:
    if fmt == "json":
        return {r["scenario"]: r["probability"] for r in json.loads(text)["results"]}
    return {row["scenario"]: float(row["probability"]) for row in csv.DictReader(io.StringIO(text))}


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(argvs())
# the loose tolerance that once escaped as a traceback
@hypothesis.example(["--scenario", "nonsignaling", "--max-iters", "300", "--tolerance", "10.0",
                     "--output", "json"])
# a tolerance whose half, the shared-state solve's, underflows to 0.0
@hypothesis.example(["--scenario", "lose-sdp", "--tolerance", "5e-324", "--output", "json"])
def test_exit_codes_and_check(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            return
    assert code in (0, 1, 2)
    if code == 0 and "--check" in argv:
        values = reported_values(out.getvalue(), argv[argv.index("--output") + 1])
        assert values
        for name, value in values.items():
            assert abs(value - float(SCENARIOS[name].expected)) <= CHECK_SLACK
