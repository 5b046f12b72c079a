"""Property tests of the solver on small LPs with duplicate equality columns."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
optimize = pytest.importorskip("scipy.optimize")

from ordergame.solver import ConicProblem, NonnegOrthant, SolveSettings, solve  # noqa: E402

from test_affine_properties import int_matrix, small_ints  # noqa: E402


@st.composite
def bounded_lps(draw):
    """Feasible, bounded LPs whose distinct columns are copied 1-3 times.

    A row of ones bounds the feasible set and ``b = A x0`` for an integer
    ``x0 >= 0`` makes it feasible.  Every coordinate has its own objective,
    the columns are shuffled, and the orthant is split into two blocks.
    """
    n_distinct = draw(st.integers(1, 5))
    base = int_matrix(draw, draw(st.integers(1, 3)), n_distinct)
    rows = np.vstack([base, np.ones(n_distinct)])
    sizes = draw(st.lists(st.integers(1, 3), min_size=n_distinct, max_size=n_distinct))
    columns = np.repeat(rows, sizes, axis=1)
    dim = columns.shape[1]
    columns = columns[:, np.array(draw(st.permutations(range(dim))))]
    x0 = int_matrix(draw, dim, 1, st.integers(0, 3)).ravel()
    split = draw(st.integers(1, dim))
    blocks = [NonnegOrthant(split)] + ([NonnegOrthant(dim - split)] if split < dim else [])
    return ConicProblem(
        blocks=blocks,
        objective=int_matrix(draw, 1, dim, small_ints).ravel(),
        a=columns,
        b=columns @ x0,
    )


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(bounded_lps())
def test_solve_with_duplicate_columns_matches_linprog(problem):
    report = solve(problem, SolveSettings(tolerance=1e-9))
    assert report.status == "optimal"
    a = problem.a
    want = optimize.linprog(-problem.objective, A_eq=a, b_eq=problem.b, bounds=(0, None), method="highs")
    assert want.status == 0
    assert abs(report.objective_value + want.fun) <= 1e-6
    assert report.solution.shape == (problem.dim,)
    assert abs(problem.objective @ report.solution - report.objective_value) <= 1e-9
    assert np.all(report.solution >= 0.0)
    # the reported gap sums the same terms in another order: allow its rounding
    rounding = 1e-13 * max(1.0, np.max(np.abs(a) @ report.solution))
    assert np.max(np.abs(a @ report.solution - problem.b)) <= report.primal_residual + rounding
