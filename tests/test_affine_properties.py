"""Property tests of the solver's affine step on small random programs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from ordergame.solver import _AffineSet, ConicProblem, NonnegOrthant  # noqa: E402

from test_solver import dense_affine_projection  # noqa: E402

small_ints = st.integers(-3, 3)


def int_matrix(draw, rows, cols, elements=small_ints):
    return np.array(
        draw(st.lists(st.lists(elements, min_size=cols, max_size=cols), min_size=rows, max_size=rows)),
        dtype=float,
    ).reshape(rows, cols)


@st.composite
def programs(draw):
    """Integer equalities with planted duplicate columns and dependent rows.

    ``b`` is either ``A x0`` for an integer ``x0`` (consistent) or drawn at
    random, which with dependent rows is generally inconsistent.  Some
    coordinates are left untouched by every equality.
    """
    n_distinct = draw(st.integers(1, 6))
    base = int_matrix(draw, draw(st.integers(1, 4)), n_distinct)
    mix = int_matrix(draw, draw(st.integers(0, 3)), base.shape[0], st.integers(-2, 2))
    rows = np.vstack([base, mix @ base])
    sizes = draw(st.lists(st.integers(1, 3), min_size=n_distinct, max_size=n_distinct))
    columns = np.repeat(rows, sizes, axis=1)
    dim = columns.shape[1] + draw(st.integers(0, 3))
    coords = np.array(draw(st.permutations(range(dim))))[: columns.shape[1]]
    if draw(st.booleans()):
        b = columns @ int_matrix(draw, columns.shape[1], 1).ravel()
    else:
        b = int_matrix(draw, 1, rows.shape[0]).ravel()
    a = np.zeros((rows.shape[0], dim))
    a[:, coords] = columns
    return ConicProblem(blocks=[NonnegOrthant(dim)], objective=np.zeros(dim), a=a, b=b)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(programs(), st.integers(0, 2**32 - 1))
def test_factor_step_matches_dense_formula_and_is_idempotent(problem, seed):
    x = np.random.default_rng(seed).normal(size=(3, problem.dim)) * 4
    # integer data: every nonzero eigenvalue of A Aᵀ is far above 1e-10 of
    # the largest, and the cut keeps rounding noise out of the reference
    want = dense_affine_projection(problem, x, rcond=1e-10)
    scale = max(1.0, np.max(np.abs(want)))
    affine = _AffineSet(problem)
    once = x.copy()
    for row in once:
        affine.project(row)
    assert np.max(np.abs(once - want)) <= 1e-10 * scale
    twice = once.copy()
    for row in twice:
        affine.project(row)
    assert np.max(np.abs(twice - once)) <= 1e-10 * scale


#: Mutually orthogonal ±1 patterns: rows built on different ones are orthogonal.
SIGNS = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float)


@st.composite
def orthogonal_group_programs(draw):
    """Equalities made of mutually orthogonal row groups over shared columns.

    Each group repeats an integer block along one row of ``SIGNS``, so rows
    of different groups cancel exactly, pairwise, on the shared columns.  A
    group may be one row or have dependent or repeated rows, an all-zero
    row may be added, ``b`` is consistent or drawn at random (then
    generally inconsistent), and there may be no rows at all.
    """
    width = draw(st.integers(1, 4))
    groups = []
    for pattern in SIGNS[: draw(st.integers(0, 4))]:
        base = int_matrix(draw, draw(st.integers(1, 3)), width)
        mix = int_matrix(draw, draw(st.integers(0, 2)), base.shape[0], st.integers(-2, 2))
        block = np.vstack([base, mix @ base])
        if draw(st.booleans()):
            block = np.vstack([block, block[:1]])
        groups.append(np.kron(pattern, block))
    rows = np.vstack(groups + [np.zeros((draw(st.integers(0, 1)), 4 * width))])
    rows = rows[np.array(draw(st.permutations(range(len(rows)))), dtype=int)]
    dim = rows.shape[1] + draw(st.integers(0, 2))
    coords = np.array(draw(st.permutations(range(dim))))[: rows.shape[1]]
    a = np.zeros((len(rows), dim))
    a[:, coords] = rows
    if draw(st.booleans()):
        b = a @ int_matrix(draw, dim, 1).ravel()
    else:
        b = int_matrix(draw, 1, len(rows)).ravel()
    return ConicProblem(blocks=[NonnegOrthant(dim)], objective=np.zeros(dim), a=a, b=b)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(orthogonal_group_programs(), st.integers(0, 2**32 - 1))
def test_factor_is_an_orthonormal_basis_of_the_row_space(problem, seed):
    a = problem.a
    x = np.random.default_rng(seed).normal(size=(3, problem.dim)) * 4
    # integer rows: nonzero singular values stay far above the 1e-10 cut
    want = x - (x @ a.T - problem.b) @ np.linalg.pinv(a, rcond=1e-10).T
    affine = _AffineSet(problem)
    got = x.copy()
    for row in got:
        affine.project(row)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    rank = affine.F.shape[1]
    assert np.max(np.abs(affine.F.T @ affine.F - np.eye(rank)), initial=0.0) <= 1e-12
    assert rank == np.linalg.matrix_rank(a)
