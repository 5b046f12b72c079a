"""Property tests of the cone layer: the svec isometry, the cone projection
and the tableau round trip, on small random draws."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
hnp = pytest.importorskip("hypothesis.extra.numpy")

from ordergame.solver import (  # noqa: E402
    ConicProblem,
    HermitianPSD,
    NonnegOrthant,
    dump_tableau,
    project_cone,
    svec,
    unsvec,
)
from reference import read_tableau  # noqa: E402

entries = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
settings = hypothesis.settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def hermitian(draw, side):
    real = draw(hnp.arrays(float, (side, side), elements=entries))
    imag = draw(hnp.arrays(float, (side, side), elements=entries))
    m = real + 1j * imag
    return (m + m.conj().T) / 2


@st.composite
def hermitian_pairs(draw):
    side = draw(st.integers(1, 6))
    return draw(hermitian(side)), draw(hermitian(side))


cones = st.lists(
    st.one_of(
        st.builds(NonnegOrthant, st.integers(1, 4)),
        st.builds(HermitianPSD, st.integers(1, 4)),
    ),
    min_size=1,
    max_size=4,
)


@st.composite
def cone_points(draw):
    blocks = draw(cones)
    dim = sum(block.dim for block in blocks)
    return blocks, draw(hnp.arrays(float, dim, elements=entries))


@st.composite
def programs(draw):
    blocks = draw(cones)
    dim = sum(block.dim for block in blocks)
    n_eq = draw(st.integers(1, 4))
    return ConicProblem(
        blocks=blocks,
        objective=draw(hnp.arrays(float, dim, elements=entries)),
        a=draw(hnp.arrays(float, (n_eq, dim), elements=entries)),
        b=draw(hnp.arrays(float, n_eq, elements=entries)),
    )


@settings
@hypothesis.given(hermitian_pairs())
def test_svec_is_an_isometry(pair):
    a, b = pair
    scale = max(1.0, np.linalg.norm(a), np.linalg.norm(b))
    assert abs(np.linalg.norm(svec(a)) - np.linalg.norm(a)) <= 1e-12 * scale
    assert abs(svec(a) @ svec(b) - np.trace(a @ b).real) <= 1e-12 * scale**2
    assert np.max(np.abs(unsvec(svec(a), a.shape[0]) - a)) <= 1e-12 * scale


@settings
@hypothesis.given(cone_points())
def test_project_cone_lands_in_the_cone_and_is_a_projection(point):
    blocks, x = point
    px = project_cone(x, blocks)
    at = 0
    for block in blocks:
        part = px[at : at + block.dim]
        if isinstance(block, NonnegOrthant):
            assert np.all(part >= 0)
        else:
            assert np.linalg.eigvalsh(unsvec(part, block.side))[0] >= -1e-12
        at += block.dim
    scale = max(1.0, np.linalg.norm(x))
    assert np.max(np.abs(project_cone(px, blocks) - px)) <= 1e-12 * scale
    # Moreau: the projection and its residual are orthogonal
    assert abs(px @ (x - px)) <= 1e-12 * scale**2


@settings
@hypothesis.given(programs())
def test_tableau_round_trip(problem):
    back = read_tableau(dump_tableau(problem))
    assert back.blocks == problem.blocks
    # the dump lists only the nonzero objective and a entries, so a -0.0
    # there reads back as 0.0; every right-hand side is listed
    assert back.objective.tobytes() == (problem.objective + 0.0).tobytes()
    assert back.a.tobytes() == (problem.a + 0.0).tobytes()
    assert back.b.tobytes() == problem.b.tobytes()
