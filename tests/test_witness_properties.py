"""Property tests of the non-signaling witness check: reading only the blocks'
nonzero entries must give the dense check's verdict, violation and objective,
of the same types, for every kind of block the check accepts."""

from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from ordergame.game import all_orders  # noqa: E402
from ordergame.network import strategy_network_blocks, witness_feasibility  # noqa: E402

from network_reference import object_witness_feasibility  # noqa: E402

settings = hypothesis.settings(max_examples=25, deadline=None, derandomize=True)

#: Each kind of block: its dtype and the entries drawn for it, negative ones included.
KINDS = {
    "int64": (np.int64, st.integers(-3, 3)),
    # each entry fits int64, but a row or the trace of many does not
    "2**52": (np.int64, st.integers(-2, 2).map(lambda k: 2**52 + k) | st.just(-(2**52))),
    "fraction": (object, st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 5, 12)))),
    "float": (float, st.sampled_from((0.0, 1.0, -1.0, 0.5, 0.1, 1.0 / 3.0, -2.0 / 7.0, 1e-3))),
}


@st.composite
def guess_blocks(draw, kind: str, dense: bool):
    """Six diagonal blocks of one kind: every entry drawn, or the canonical witness with a few entries set."""
    dtype, entries = KINDS[kind]
    if dense:
        values = draw(st.lists(entries, min_size=1, max_size=6))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        stacked = np.array(values, dtype=dtype)[rng.integers(len(values), size=(6, 256))]
    else:
        stacked = np.array(list(strategy_network_blocks().values())).astype(dtype)
        for _ in range(draw(st.integers(0, 4))):
            stacked[draw(st.integers(0, 5)), draw(st.integers(0, 255))] = draw(entries)
    return dict(zip(all_orders(), stacked))


def exact(blocks):
    """The blocks as object arrays of their exact values: Python ints stay ints, each float is its binary value."""
    return {pi: np.array([x if isinstance(x, (int, Fraction)) else Fraction(x) for x in diag.tolist()], dtype=object)
            for pi, diag in blocks.items()}


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
@pytest.mark.parametrize("kind", list(KINDS))
def test_support_check_matches_the_dense_check(kind, dense):
    @settings
    @hypothesis.given(guess_blocks(kind, dense))
    def check(blocks):
        got = witness_feasibility(blocks)
        want = object_witness_feasibility(exact(blocks))
        assert got == want
        assert [type(v) for v in got.values()] == [type(v) for v in want.values()] == [bool, Fraction, Fraction]

    check()
