import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from ordergame import solver
from ordergame.solver import (
    ANDERSON_MEMORY,
    _AffineSet,
    _svec_map,
    ConicProblem,
    HermitianPSD,
    NonnegOrthant,
    ProblemMalformed,
    SolveReport,
    SolverFailed,
    SolveSettings,
    dump_tableau,
    project_cone,
    shared_state_program,
    solve,
    solve_same_constraints,
    solve_shared_state_feasibility,
    solve_within_bound,
    svec,
    unsvec,
)
from ordergame.tensor import ENTANGLED_LAYOUT
from reference import read_tableau


def rand_hermitian(rng, side):
    m = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    return (m + m.conj().T) / 2


def psd_projection_oracle(h):
    """Spectral projection computed without eigh: P = (H + sqrt(H^2)) / 2,
    with the square root from the Denman-Beavers iteration."""
    h2 = h @ h.conj().T
    y = h2
    z = np.eye(h.shape[0], dtype=complex)
    for _ in range(100):
        y_next = 0.5 * (y + np.linalg.inv(z))
        z_next = 0.5 * (z + np.linalg.inv(y))
        if np.max(np.abs(y_next - y)) < 1e-14:
            y = y_next
            break
        y, z = y_next, z_next
    return (h + y) / 2


def reference_svec(h):
    h = np.asarray(h, dtype=complex)
    side = h.shape[-1]
    out = np.empty(h.shape[:-2] + (side * side,))
    idx, (iu, ju) = np.arange(side), np.triu_indices(side, 1)
    out[..., :side] = h[..., idx, idx].real
    upper = h[..., iu, ju]
    out[..., side::2] = math.sqrt(2.0) * upper.real
    out[..., side + 1 :: 2] = math.sqrt(2.0) * upper.imag
    return out


def reference_unsvec(v, side):
    # each real and imaginary part is set on its own: complex arithmetic
    # such as v_re + 1j * v_im would lose the sign of a zero part
    v = np.asarray(v, dtype=float)
    h = np.zeros(v.shape[:-1] + (side, side), dtype=complex)
    idx, (iu, ju) = np.arange(side), np.triu_indices(side, 1)
    h.real[..., idx, idx] = v[..., :side]
    re, im = (v[..., side + part :: 2] * (1.0 / math.sqrt(2.0)) for part in (0, 1))
    h.real[..., iu, ju], h.imag[..., iu, ju] = re, im
    h.real[..., ju, iu], h.imag[..., ju, iu] = re, -im
    return h


def eigh_projection(x, side):
    """PSD projection of svec blocks through the eigendecomposition."""
    w, vec = np.linalg.eigh(unsvec(x, side))
    return svec((vec * np.maximum(w, 0.0)[..., None, :]) @ np.swapaxes(vec.conj(), -1, -2))


class TestSvec:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        h = rand_hermitian(rng, 5)
        assert np.allclose(unsvec(svec(h), 5), h)

    def test_inner_product_preserved(self):
        rng = np.random.default_rng(6)
        a = rand_hermitian(rng, 4)
        b = rand_hermitian(rng, 4)
        assert np.isclose(svec(a) @ svec(b), np.trace(a @ b).real)

    def test_norm_preserved(self):
        rng = np.random.default_rng(7)
        a = rand_hermitian(rng, 6)
        assert np.isclose(np.linalg.norm(svec(a)), np.linalg.norm(a))

    @pytest.mark.parametrize("side", range(1, 17))
    def test_gather_maps_match_index_reference(self, side):
        # the fancy-index scatters the cached gather maps replaced, kept as
        # the reference; outputs must agree to the bit, batched or not
        rng = np.random.default_rng(side)
        h = rng.normal(size=(3, side, side)) + 1j * rng.normal(size=(3, side, side))
        v = rng.normal(size=(3, 2 * side * side + 1))[:, 1 : side * side + 1]
        # entries whose sum overflows, and zeros of either sign
        huge = rng.choice([1.7e308, -1.7e308], size=(3, side * side))
        zeros = rng.choice([0.0, -0.0], size=(3, side * side))
        for got, want in (
            (svec(h), reference_svec(h)),
            (svec(h[0]), reference_svec(h[0])),
            (svec(h.transpose(0, 2, 1)), reference_svec(h.transpose(0, 2, 1))),
            (svec(np.zeros((side, side))), reference_svec(np.zeros((side, side)))),
            *((unsvec(w, side), reference_unsvec(w, side)) for w in (v, v[0], huge, huge[0], zeros, zeros[0])),
            (unsvec(np.zeros(side * side), side), reference_unsvec(np.zeros(side * side), side)),
        ):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("length", [1, 3, 10, 300])
    @pytest.mark.parametrize("batch", [(), (2,)])
    def test_unsvec_refuses_a_vector_of_another_length(self, length, batch):
        # unsvec(np.arange(300.), 16) once built a matrix from the first 256 entries
        side = 3 if length < 300 else 16
        with pytest.raises(ProblemMalformed, match=rf"vector length \({length},\) does not match side {side} \({side * side},\)"):
            unsvec(np.arange(float(length)) * np.ones(batch + (1,)), side)

    @pytest.mark.parametrize("side", range(1, 17))
    def test_maps_match_the_triu_reference_bits(self, side):
        # the triu_indices construction the index lists replaced
        iu, ju = np.triu_indices(side, 1)
        upper = 2 * (iu * side + ju)
        at = np.concatenate([2 * (side + 1) * np.arange(side), np.stack([upper, upper + 1], axis=1).ravel()])
        scale = np.repeat([1.0, math.sqrt(2.0)], [side, side * side - side])
        for got, want in zip(_svec_map(side), (at, scale)):
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes()


class TestProjectCone:
    def test_psd_input_unchanged(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        psd = m @ m.conj().T
        x = svec(psd)
        assert np.max(np.abs(project_cone(x, [HermitianPSD(4)]) - x)) <= 1e-10

    def test_diag_clamp(self):
        x = svec(np.diag([1.0, -1.0]).astype(complex))
        out = unsvec(project_cone(x, [HermitianPSD(2)]), 2)
        assert np.allclose(out, np.diag([1.0, 0.0]))

    def test_orthant(self):
        out = project_cone(np.array([1.0, -2.0, 3.0]), [NonnegOrthant(3)])
        assert np.allclose(out, [1.0, 0.0, 3.0])

    def test_against_iteration_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            h = rand_hermitian(rng, 5)
            got = unsvec(project_cone(svec(h), [HermitianPSD(5)]), 5)
            want = psd_projection_oracle(h)
            assert np.max(np.abs(got - want)) <= 1e-9

    def test_idempotent_and_nonexpansive_1000_samples(self):
        rng = np.random.default_rng(10)
        blocks = [NonnegOrthant(3), HermitianPSD(4), HermitianPSD(2)]
        dim = 3 + 16 + 4
        for _ in range(1000):
            x = rng.normal(size=dim) * 3
            y = rng.normal(size=dim) * 3
            px = project_cone(x, blocks)
            py = project_cone(y, blocks)
            assert np.max(np.abs(project_cone(px, blocks) - px)) <= 1e-12
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ProblemMalformed):
            project_cone(np.zeros(3), [HermitianPSD(2)])


def psd2_cases():
    """2x2 svec blocks: zero, multiples of I, rank-one boundaries, negative
    definite and random."""
    rng = np.random.default_rng(12)
    ket = rng.normal(size=2) + 1j * rng.normal(size=2)
    rank_one = svec(np.outer(ket, ket.conj()))
    m = rand_hermitian(rng, 2)
    negative = -svec(m @ m + 0.1 * np.eye(2))
    fixed = [np.zeros(4), [1.5, 1.5, 0, 0], [-1.5, -1.5, 0, 0], rank_one, -rank_one, [2.0, 0, 0, 0], [0, -2.0, 0, 0], negative]
    return np.array(fixed + list(rng.normal(size=(200, 4))))


class TestProjectPsd2:
    """The closed-form projection of 2x2 blocks."""

    def test_matches_eigh_projection(self):
        for x in psd2_cases():
            got = project_cone(x, [HermitianPSD(2)])
            assert np.max(np.abs(got - eigh_projection(x, 2))) <= 1e-14

    def test_boundary_and_scalar_blocks(self):
        cases = psd2_cases()
        for x in cases[[0, 1, 3]]:  # zero, +1.5 I, rank one: already PSD
            assert np.array_equal(project_cone(x, [HermitianPSD(2)]), x)
        for x in cases[[2, 7]]:  # -1.5 I, negative definite
            assert np.array_equal(project_cone(x, [HermitianPSD(2)]), np.zeros(4))
        assert np.max(np.abs(project_cone(cases[4], [HermitianPSD(2)]))) <= 1e-15

    def test_mixed_with_other_blocks(self):
        blocks = [NonnegOrthant(3), HermitianPSD(2), HermitianPSD(2), HermitianPSD(1), HermitianPSD(4), HermitianPSD(2), NonnegOrthant(2)]
        rng = np.random.default_rng(13)
        for _ in range(50):
            x = rng.normal(size=sum(block.dim for block in blocks))
            got = project_cone(x, blocks)
            at = 0
            for block in blocks:
                part = slice(at, at + block.dim)
                alone = project_cone(x[part], [block])
                assert got[part].tobytes() == alone.tobytes()
                if isinstance(block, NonnegOrthant):
                    assert np.array_equal(alone, np.maximum(x[part], 0.0))
                else:
                    assert np.max(np.abs(alone - eigh_projection(x[part], block.side))) <= 1e-14
                at += block.dim


def trivial_lp():
    return ConicProblem(
        blocks=[NonnegOrthant(1)],
        objective=np.array([1.0]),
        a=[[1.0]],
        b=[1.0],
    )


def small_sdp():
    """max tr(rho) s.t. tr(Z rho) = 0, tr(rho) <= 1: optimum 1 at rho = I/2."""
    z = np.diag([1.0, -1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    return ConicProblem(
        blocks=[HermitianPSD(2), NonnegOrthant(1)],
        objective=np.concatenate([svec(eye), [0.0]]),
        a=[np.append(svec(z), 0.0), np.append(svec(eye), 1.0)],
        b=[0.0, 1.0],
    )


class TestSolve:
    def test_trivial_lp(self):
        report = solve(trivial_lp())
        assert report.status == "optimal"
        assert abs(report.objective_value - 1.0) <= 1e-7
        assert report.primal_residual <= 1e-8
        assert report.dual_residual <= 1e-8

    def test_small_sdp(self):
        report = solve(small_sdp())
        assert report.status == "optimal"
        assert abs(report.objective_value - 1.0) <= 1e-6
        rho = unsvec(report.solution[:4], 2)
        # the optimal face is the segment of trace-1 states with tr(Z rho)=0;
        # the solver lands on the analytic center I/2 for this seedless start
        assert abs(np.trace(rho).real - 1.0) <= 1e-6
        assert abs(np.trace(z_mat() @ rho)) <= 1e-7

    def test_determinism_bit_identical(self):
        r1 = solve(small_sdp())
        r2 = solve(small_sdp())
        assert r1.iterations == r2.iterations
        assert r1.objective_value == r2.objective_value
        assert np.array_equal(r1.solution, r2.solution)

    def test_max_iters_status(self):
        # the accelerated solve reaches x = 1 exactly, residuals 0.0, at iteration 4
        report = solve(trivial_lp(), SolveSettings(tolerance=1e-16, max_iters=3))
        assert report.status == "max_iters"
        assert report.iterations == 3

    @pytest.mark.parametrize("max_iters", [50.5, 50.0])
    def test_max_iters_must_be_an_integer(self, max_iters):
        # the loop counts whole iterations, so 50.5 would never be reached
        with pytest.raises(ProblemMalformed, match="integer"):
            solve(trivial_lp(), SolveSettings(max_iters=max_iters))

    # True ran one iteration, and False was refused only as a cap below 1
    @pytest.mark.parametrize("max_iters", [True, False])
    def test_bool_max_iters_is_refused(self, max_iters):
        with pytest.raises(ProblemMalformed, match="max_iters must be an integer"):
            SolveSettings(max_iters=max_iters)

    def test_numpy_integer_max_iters(self):
        report = solve(trivial_lp(), SolveSettings(tolerance=1e-16, max_iters=np.int64(3)))
        assert (report.status, report.iterations) == ("max_iters", 3)

    # "1e-8" and None reached the range test's `<` as a TypeError, and True passed it as 1
    @pytest.mark.parametrize("tolerance", [0.0, -1.0, float("inf"), float("nan"), "1e-8", None, True])
    def test_tolerance_must_be_finite_and_positive(self, tolerance):
        from ordergame.quantum import discrimination_program, unbiased_order_states

        problem = discrimination_program(unbiased_order_states())
        with pytest.raises(ProblemMalformed):
            solve(problem, SolveSettings(tolerance=tolerance, max_iters=50))

    # 10**400 overflows float() and 1/10**400 rounds to 0.0: both are refused
    @pytest.mark.parametrize("tolerance", [10**400, Fraction(1, 10**400)])
    def test_tolerance_is_checked_as_the_float_it_runs_as(self, tolerance):
        with pytest.raises(ProblemMalformed, match="finite and positive"):
            SolveSettings(tolerance=tolerance)

    def test_numpy_float_tolerance(self):
        report = solve(trivial_lp(), SolveSettings(tolerance=np.float32(1e-6)))
        assert report.status == "optimal"

    def test_malformed(self):
        cases = [
            ([1.0, 2.0], [[1.0]], [1.0]),  # objective longer than the one variable
            ([1.0], [[1.0, 0.0]], [1.0]),  # a column past the one variable
            ([1.0], [[1.0], [1.0]], [1.0]),  # more a rows than right-hand sides
            ([1.0], [1.0], [1.0]),  # a not a matrix
            ([1.0], [[1.0]], [[1.0]]),  # b not a vector
        ]
        for objective, a, b in cases:
            with pytest.raises(ProblemMalformed):
                ConicProblem(blocks=[NonnegOrthant(1)], objective=objective, a=a, b=b)

    # -2 and 2.0 ended in numpy errors, the empty list and size 0 in a
    # zero-size reduction, and True solved as a 1-orthant
    @pytest.mark.parametrize(
        "blocks, n",
        [
            ([HermitianPSD(-2)], 4),
            ([NonnegOrthant(2.0)], 2),
            ([], 0),
            ([NonnegOrthant(0)], 0),
            ([HermitianPSD(0)], 0),
            ([NonnegOrthant(True)], 1),
            (["psd"], 1),
        ],
        ids=["negative-side", "float-size", "no-blocks", "empty-orthant", "empty-psd", "bool-size", "not-a-block"],
    )
    def test_malformed_blocks(self, blocks, n):
        # n is the length the blocks' dims add up to, so only the block check can refuse them
        with pytest.raises(ProblemMalformed, match="block"):
            ConicProblem(blocks=blocks, objective=np.ones(n), a=np.zeros((0, n)), b=[])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_batch_rejects_non_finite_objective_rows(self, bad):
        from ordergame.quantum import discrimination_program, unbiased_order_states

        problem = discrimination_program(unbiased_order_states())
        objectives = np.stack([problem.objective, problem.objective])
        objectives[1, 3] = bad
        with pytest.raises(ProblemMalformed, match="non-finite objective"):
            solve_same_constraints(problem, objectives, SolveSettings(max_iters=5))

    def test_empty_batch(self):
        from ordergame.network import nonsignaling_program

        problem = nonsignaling_program()
        assert solve_same_constraints(problem, np.zeros((0, problem.dim))) == []

    def test_batched_matches_single(self):
        problem = small_sdp()
        objectives = np.stack([problem.objective, 0.5 * problem.objective])
        reports = solve_same_constraints(problem, objectives)
        single = solve(problem)
        assert abs(reports[0].objective_value - single.objective_value) <= 1e-9
        assert abs(reports[1].objective_value - 0.5 * single.objective_value) <= 1e-9

    @pytest.mark.parametrize("name", ["small-sdp", "discrimination"])
    def test_batched_repeats_single_solves_bits(self, name):
        from ordergame.quantum import discrimination_program, unbiased_order_states

        problem = small_sdp() if name == "small-sdp" else discrimination_program(unbiased_order_states())
        tilt = np.random.default_rng(15).normal(size=problem.dim)
        objectives = np.stack([problem.objective, -problem.objective, problem.objective + 0.01 * tilt])
        settings = SolveSettings(max_iters=300)
        for objective, got in zip(objectives, solve_same_constraints(problem, objectives, settings)):
            want = solve(ConicProblem(problem.blocks, objective, problem.a, problem.b), settings)
            assert (got.status, got.iterations) == (want.status, want.iterations)
            assert got.objective_value == want.objective_value
            assert (got.primal_residual, got.dual_residual) == (want.primal_residual, want.dual_residual)
            assert got.solution.tobytes() == want.solution.tobytes()

    def test_psd_blocks_with_untouched_off_diagonals(self):
        # max c1.d1 + c2.d2 s.t. d1 + 2 d2 = 1 on the diagonals of two 8x8 PSD
        # blocks; no equality and no objective touches an off-diagonal, so the
        # eigendecompositions redo the orthant LP's clipping
        c = np.random.default_rng(4).uniform(0.1, 1.0, size=(2, 8))
        diag = np.concatenate([np.arange(8), 64 + np.arange(8)])  # svec puts diagonals first
        objective = np.zeros(128)
        objective[diag] = c.ravel()
        lp_rows = np.hstack([np.eye(8), 2 * np.eye(8)])
        psd_rows = np.zeros((8, 128))
        psd_rows[:, diag] = lp_rows
        psd = ConicProblem(blocks=[HermitianPSD(8)] * 2, objective=objective, a=psd_rows, b=np.ones(8))
        lp = ConicProblem(blocks=[NonnegOrthant(16)], objective=c.ravel(), a=lp_rows, b=np.ones(8))
        got, want = solve(psd), solve(lp)
        assert got.status == want.status == "optimal"
        assert got.iterations == want.iterations
        assert abs(got.objective_value - np.maximum(c[0], c[1] / 2).sum()) <= 1e-6
        assert np.max(np.abs(got.solution[diag] - want.solution)) <= 1e-12
        assert np.max(np.abs(np.delete(got.solution, diag))) <= 1e-12


def small_sdp_directions():
    """Seeded objectives for :func:`small_sdp` that differ in direction, not only in scale."""
    return np.random.default_rng(0).normal(size=(8, 5))


def small_sdp_optimum(c):
    """The optimum of :func:`small_sdp` under the objective ``c``.

    Its feasible states are [[t, w], [w*, t]] with |w| <= t and slack
    1 - 2t, so the value is linear in t on [0, 1/2] and peaks at an end.
    """
    return max(c[4], (c[0] + c[1] + math.sqrt(2.0) * math.hypot(c[2], c[3])) / 2)


def routing_pair_ops():
    """The entangled scenario's 30 pair products, as float arrays keyed by order names."""
    from ordergame.quantum import routing_pair_products

    return {(pp.name, p.name): op.to_float().data for (pp, p), op in routing_pair_products().items()}


def z_mat():
    return np.diag([1.0, -1.0]).astype(complex)


def x_flip():
    """The X flip of the first qubit of the 16x16 entangled layout."""
    return np.kron(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), np.eye(8))


class TestSharedStateFeasibility:
    def test_two_level_toy(self):
        # annihilate the X flip of the first qubit: any diagonal state works; optimum trace 1
        flip = x_flip()
        state, report = solve_shared_state_feasibility({("p", "q"): flip})
        assert state.layout == ENTANGLED_LAYOUT
        assert report.status == "optimal"
        assert abs(report.objective_value - 1.0) <= 1e-6
        assert abs(np.trace(flip @ state.data)) <= 1e-8
        assert np.linalg.eigvalsh(state.data)[0] >= -1e-10

    def test_program_tableau_pinned(self):
        # the entangled scenario's program: one witness pair per distinct operator
        text = dump_tableau(shared_state_program(routing_pair_ops()))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e7a1c0327c7922b7551ae461b1a734d3e6dd2be2943e9f6703401beb28ffca73"
        )

    def test_duplicate_operators_under_extra_keys_change_nothing(self):
        pair_ops = routing_pair_ops()
        # the extra keys sort after every routing key, so each operator's
        # first copy keeps its place
        extra = dict(pair_ops)
        extra.update({("zz", i): op.copy() for i, op in enumerate(pair_ops.values())})
        base, more = shared_state_program(pair_ops), shared_state_program(extra)
        for field in ("a", "b", "objective"):
            assert getattr(more, field).tobytes() == getattr(base, field).tobytes()
        (state, report), (state2, report2) = (solve_shared_state_feasibility(ops) for ops in (pair_ops, extra))
        assert state2.data.tobytes() == state.data.tobytes()
        assert report2.solution.tobytes() == report.solution.tobytes()
        assert report2.jsonable() == report.jsonable()

    def test_routing_products_build_one_row_pair_per_distinct_permutation(self):
        # 30 products, 11 distinct qubit permutations: 22 witness rows and
        # the trace row, of rank 12
        problem = shared_state_program(routing_pair_ops())
        assert problem.a.shape == (23, 257)
        assert _AffineSet(problem).F.shape == (68, 12)

    def test_distinct_arbitrary_operators_each_build_two_rows(self):
        rng = np.random.default_rng(26)
        pair_ops = {k: rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)) for k in range(30)}
        assert shared_state_program(pair_ops).a.shape == (61, 257)

    # "1e-8" and None raised TypeError when the tolerance was halved, and True
    # was halved to a valid 0.5; the settings record now refuses them when it
    # is built and cannot be made to hold them, so the halving only meets a
    # checked float
    @pytest.mark.parametrize("tolerance", ["1e-8", None, True])
    def test_malformed_tolerance_is_refused_before_it_is_halved(self, tolerance):
        with pytest.raises(ProblemMalformed, match="tolerance must be a real number"):
            SolveSettings(tolerance=tolerance)
        settings = SolveSettings()
        with pytest.raises(AttributeError):
            settings.tolerance = tolerance
        assert type(settings.tolerance) is float

    def test_rejects_bad_shape(self):
        # the state is always 16x16, so the two-level flip is refused like a 3x3
        for op in (np.eye(3), np.eye(2)[::-1], x_flip()[:, :8]):
            with pytest.raises(ProblemMalformed, match="16x16"):
                solve_shared_state_feasibility({("p", "q"): op})


class TestSolveWithinBound:
    """The one result check of the three solver scenarios."""

    @staticmethod
    def stub_solve(monkeypatch, status, value):
        import ordergame.solver as solver

        tolerances = []

        def fake(problem, settings=None):
            tolerances.append(settings.tolerance)
            return SolveReport(status, value, 0.0, 0.0, 1, np.zeros(problem.dim))

        monkeypatch.setattr(solver, "solve", fake)
        return tolerances

    def test_status_must_be_optimal(self, monkeypatch):
        self.stub_solve(monkeypatch, "max_iters", 0.0)
        with pytest.raises(SolverFailed, match="toy solve ended with status max_iters"):
            solve_within_bound("toy", trivial_lp(), Fraction(1))

    def test_slack_is_ten_tolerances(self, monkeypatch):
        settings = SolveSettings(tolerance=1e-3)
        self.stub_solve(monkeypatch, "optimal", 1.0 + 9e-3)
        assert solve_within_bound("toy", trivial_lp(), Fraction(1), settings).objective_value == 1.009
        self.stub_solve(monkeypatch, "optimal", 1.0 + 11e-3)
        with pytest.raises(SolverFailed, match="exceeds the 1 bound"):
            solve_within_bound("toy", trivial_lp(), Fraction(1), settings)

    def test_shared_state_solves_and_bounds_at_half_the_tolerance(self, monkeypatch):
        # the slack is 10 x the halved tolerance, 5e-3 here; a converged
        # solve's value is at most 1 + 5e-4, well inside it
        flip = {("p", "q"): x_flip()}
        settings = SolveSettings(tolerance=1e-3)
        tolerances = self.stub_solve(monkeypatch, "optimal", 1.0 + 4.9e-3)
        solve_shared_state_feasibility(flip, settings)
        assert tolerances == [5e-4]
        self.stub_solve(monkeypatch, "optimal", 1.0 + 5.1e-3)
        with pytest.raises(SolverFailed, match="shared-state feasibility value"):
            solve_shared_state_feasibility(flip, settings)

    def test_converged_shared_state_value_is_within_half_the_tolerance(self):
        # the trace row tr(state) + slack = 1 is met within tolerance / 2 and
        # the slack variable is >= 0, so the value is at most 1 + tolerance / 2
        for tolerance in (1e-3, 1e-6, 1e-8):
            _, report = solve_shared_state_feasibility({("p", "q"): x_flip()}, SolveSettings(tolerance))
            assert report.status == "optimal"
            assert report.solution[-1] >= 0.0
            assert report.objective_value <= 1.0 + tolerance / 2

    # with a solve tolerance given, "1e-8" and None raised TypeError in the
    # slack after the solve, and True gave a slack of 10; the solve and the
    # slack now read the one settings record, which refuses them when built
    @pytest.mark.parametrize("tolerance", ["1e-8", None, True])
    def test_malformed_tolerance_is_refused_with_a_solve_tolerance(self, tolerance):
        with pytest.raises(ProblemMalformed, match="tolerance must be a real number"):
            SolveSettings(tolerance=tolerance)

    def test_zero_solve_tolerance_is_not_taken_as_absent(self, monkeypatch):
        # half the smallest subnormal tolerance rounds to 0.0, which is
        # refused, naming the tolerance given, not replaced by the default
        # tolerance, and no solve runs
        assert 5e-324 / 2.0 == 0.0
        tolerances = self.stub_solve(monkeypatch, "optimal", 1.0)
        with pytest.raises(ProblemMalformed, match=r"tolerance 5e-324 is too small: .* runs to half of it, which is 0\.0"):
            solve_shared_state_feasibility({("p", "q"): x_flip()}, SolveSettings(5e-324))
        assert tolerances == []


def package_programs():
    """The three programs the package builds, by name."""
    from ordergame.network import nonsignaling_program
    from ordergame.quantum import discrimination_program, unbiased_order_states

    return {
        "nonsignaling": nonsignaling_program(),
        "discrimination": discrimination_program(unbiased_order_states()),
        "shared-state": shared_state_program(routing_pair_ops()),
    }


class TestTableau:
    def test_round_trip(self):
        problem = small_sdp()
        text = dump_tableau(problem)
        back = read_tableau(text)
        assert back.blocks == problem.blocks
        assert np.array_equal(back.objective, problem.objective)
        assert np.array_equal(back.a, problem.a)
        assert np.array_equal(back.b, problem.b)

    def test_parsed_problem_solves_identically(self):
        problem = small_sdp()
        back = read_tableau(dump_tableau(problem))
        assert solve(back).objective_value == solve(problem).objective_value

    @pytest.mark.parametrize("name", ["nonsignaling", "discrimination", "shared-state"])
    def test_package_programs_read_back_bit_for_bit(self, name):
        problem = package_programs()[name]
        back = read_tableau(dump_tableau(problem))
        assert back.blocks == problem.blocks
        for field in ("objective", "a", "b"):
            assert getattr(back, field).tobytes() == getattr(problem, field).tobytes()


def dense_affine_projection(problem, x, rcond=1e-15):
    """w - Aᵀ(A Aᵀ)⁺(A w - b) row by row, with the full dense matrix."""
    a = problem.a
    step = ((x @ a.T - problem.b) @ np.linalg.pinv(a @ a.T, rcond=rcond, hermitian=True)) @ a
    return x - step


def planted_duplicates_program(seed=5):
    """Random equalities over 40 coordinates: 12 distinct columns copied 2-4
    times and 8 that appear once, shuffled; 10 untouched coordinates."""
    rng = np.random.default_rng(seed)
    n_eq = 9
    distinct = rng.normal(size=(n_eq, 20))
    copies = [3, 2, 4, 2, 3, 2, 2, 4, 3, 2, 2, 3] + [1] * 8
    columns = np.repeat(distinct, copies, axis=1)
    coords = rng.permutation(40)[: columns.shape[1]]
    a = np.zeros((n_eq, 40))
    a[:, coords] = columns
    return ConicProblem(blocks=[NonnegOrthant(40)], objective=rng.normal(size=40), a=a, b=rng.normal(size=n_eq))


def programs_with_duplicate_columns():
    from network_reference import full_nonsignaling_program

    return {
        **package_programs(),
        "nonsignaling-full": full_nonsignaling_program(),
        "planted": planted_duplicates_program(),
    }


class TestAffineSet:
    @pytest.mark.parametrize(
        "name", ["nonsignaling", "nonsignaling-full", "discrimination", "shared-state", "planted"]
    )
    def test_step_matches_dense_formula(self, name):
        problem = programs_with_duplicate_columns()[name]
        affine = _AffineSet(problem)
        x = np.random.default_rng(11).normal(size=(3, problem.dim))
        for row, want in zip(x, dense_affine_projection(problem, x)):
            got = row.copy()
            affine.project(got)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_gap_matches_dense_residual(self):
        problem = planted_duplicates_program()
        affine = _AffineSet(problem)
        for row in np.random.default_rng(2).normal(size=(4, problem.dim)):
            want = np.max(np.abs(problem.a @ row - problem.b))
            assert np.isclose(affine.gap(row), want, rtol=1e-13, atol=1e-13)

    def test_nonsignaling_factor_has_the_rank_of_the_equalities(self):
        from network_reference import full_nonsignaling_program
        from ordergame.network import nonsignaling_program

        # 225 rows of rank 203 over the 256 summed-diagonal columns
        assert _AffineSet(full_nonsignaling_program()).F.shape == (256, 203)
        # 31 rows of rank 31 over their 40 orbits
        assert _AffineSet(nonsignaling_program()).F.shape == (40, 31)

    @pytest.mark.parametrize(
        "name", ["nonsignaling", "nonsignaling-full", "discrimination", "shared-state", "planted"]
    )
    def test_factor_takes_one_svd_of_the_touched_columns(self, name, monkeypatch):
        problem = programs_with_duplicate_columns()[name]
        calls = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            calls.append(np.array(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        _AffineSet(problem)
        touched = problem.a[:, problem.a.any(axis=0)]
        assert [call.tobytes() for call in calls] == [touched.tobytes()]
        assert calls[0].shape == touched.shape


class TestPinnedSolves:
    """Iteration counts and values the affine-step arithmetic must not move."""

    def test_nonsignaling_lp(self):
        from network_reference import full_nonsignaling_program

        report = solve(full_nonsignaling_program())
        assert report.status == "optimal"
        assert report.iterations == 31
        # the merged 256-column LP ends 4.4e-10 above 5/6 at tolerance 1e-8
        assert abs(report.objective_value - 0.833333333772225) <= 1e-12
        accurate = solve(full_nonsignaling_program(), SolveSettings(tolerance=1e-10))
        assert accurate.status == "optimal"
        assert accurate.iterations == 37
        # and 1.2e-11 below 5/6 at tolerance 1e-10
        assert abs(accurate.objective_value - 0.8333333333209474) <= 1e-12

    def test_nonsignaling_orbit_lp(self):
        from ordergame.network import nonsignaling_program

        report = solve(nonsignaling_program())
        assert report.status == "optimal"
        assert report.iterations == 30
        # the 40-orbit LP ends 3.0e-11 below 5/6 at tolerance 1e-8
        assert abs(report.objective_value - 0.8333333333028483) <= 1e-12
        accurate = solve(nonsignaling_program(), SolveSettings(tolerance=1e-10))
        assert accurate.status == "optimal"
        assert accurate.iterations == 37
        assert abs(accurate.objective_value - 5.0 / 6.0) <= 1e-11

    def test_discrimination_program(self):
        from ordergame.quantum import discrimination_program, unbiased_order_states

        report = solve(discrimination_program(unbiased_order_states()))
        assert report.status == "optimal"
        assert report.iterations == 4

    def test_shared_state_program(self):
        _, report = solve_shared_state_feasibility(routing_pair_ops())
        assert report.iterations == 4

    @pytest.mark.parametrize(
        "name, tolerance, iterations, primal, dual, digest",
        [
            ("nonsignaling", 1e-8, 30, "6.7237113654528e-09", "2.005866359028503e-09", "f0374daa7316b268c78eb999acf279cfd5acc01b05d8486f29c34eab4a49eb2b"),
            ("discrimination", 1e-8, 4, "7.450706718259426e-13", "2.0611391492280265e-13", "f7d0236bf65627c09cba1b6396884c9d6775cee48a7188755d4ff8fda877e246"),
            ("shared-state", 1e-8, 4, "9.869882688917642e-13", "1.794120407794253e-13", "700310631d474ee5f6ad21d5ba4e5683a0b9ccbc53f6e0e611ff7c3c528d5ec1"),
            ("nonsignaling", 1e-14, 53, "8.881784197001252e-15", "1.2407842677516295e-15", "1a76d15d67ea1592cdd21e24ad8c0ea42fd3263d80103e2685654b80124615c9"),
            ("discrimination", 1e-14, 5, "1.9984014443252818e-15", "9.064933036736785e-17", "b279a3d7fee8e1fc04852ecc0444680603ce058746a1fc54e27b305836f90c54"),
            ("shared-state", 1e-14, 5, "3.8467383673345946e-15", "1.1657341758564144e-15", "c587b90d1283cbabc8a169952e6252f2dcb6262b6b0c356d15a3884cfc2037b1"),
        ],
    )
    def test_package_programs_solve_to_the_bit(self, name, tolerance, iterations, primal, dual, digest):
        # every iterate of a rewrite that keeps the arithmetic lands on the same bits
        report = solve(package_programs()[name], SolveSettings(tolerance))
        assert (report.status, report.iterations, report.rejected) == ("optimal", iterations, 0)
        assert (repr(report.primal_residual), repr(report.dual_residual)) == (primal, dual)
        assert hashlib.sha256(report.solution.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("name", ["nonsignaling", "discrimination", "shared-state"])
    def test_package_programs_converge_at_1e_14(self, name):
        settings = SolveSettings(tolerance=1e-14, max_iters=1000)
        if name == "shared-state":
            _, report = solve_shared_state_feasibility(routing_pair_ops(), settings)
        else:
            report = solve(package_programs()[name], settings)
        assert report.status == "optimal"

    @pytest.mark.xfail(
        strict=True,
        reason="one SVD of the 225x256 reference LP leaves an equality gap of about 6e-14 "
        "after each affine step; a factor per group of orthogonal rows reached 1e-14 in 49 iterations",
    )
    def test_reference_lp_converges_at_1e_14(self):
        from network_reference import full_nonsignaling_program

        report = solve(full_nonsignaling_program(), SolveSettings(tolerance=1e-14, max_iters=1000))
        assert report.status == "optimal"

    @pytest.mark.parametrize("name", ["nonsignaling", "nonsignaling-full", "planted"])
    def test_capped_solve_reports_the_equality_gap(self, name):
        problem = programs_with_duplicate_columns()[name]
        report = solve(problem, SolveSettings(max_iters=5))
        gap = np.max(np.abs(problem.a @ report.solution - problem.b))
        assert report.iterations == 5
        assert report.primal_residual >= gap * (1.0 - 1e-12)

    def test_batch_with_every_row_capped_keeps_positions_and_gaps(self):
        # alone, each row converges at iteration 4
        problem = small_sdp()
        objectives = np.stack([scale * problem.objective for scale in (1.0, -1.0, 0.5)])
        settings = SolveSettings(max_iters=3)
        batch = solve_same_constraints(problem, objectives, settings)
        assert len(batch) == 3
        for objective, got in zip(objectives, batch):
            want = solve(ConicProblem(problem.blocks, objective, problem.a, problem.b), settings)
            assert (got.status, got.iterations) == ("max_iters", 3)
            assert got.objective_value == objective @ got.solution
            assert np.max(np.abs(got.solution - want.solution)) <= 1e-12
            gap = np.max(np.abs(problem.a @ got.solution - problem.b))
            assert got.primal_residual >= gap * (1.0 - 1e-12)
        # the three rows follow three different objectives, so a mixed-up
        # position would show as a mismatch against its single solve
        assert len({got.objective_value for got in batch}) == 3

    def test_batch_converging_at_different_iterations_matches_single_solves(self):
        # alone, these four directions converge after 5, 10, 11 and 13
        # iterations: at the cap of 11 one row converges on the last
        # iteration and one is still live
        problem = small_sdp()
        objectives = small_sdp_directions()[[0, 4, 3, 1]]
        settings = SolveSettings(max_iters=11)
        batch = solve_same_constraints(problem, objectives, settings)
        assert [r.iterations for r in batch] == [5, 10, 11, 11]
        assert [r.status for r in batch][:3] == ["optimal"] * 3
        assert batch[3].status != "optimal"
        for objective, got in zip(objectives, batch):
            want = solve(ConicProblem(problem.blocks, objective, problem.a, problem.b), settings)
            assert got.status == want.status
            assert got.iterations == want.iterations
            assert abs(got.objective_value - want.objective_value) <= 1e-12
            assert np.isclose(got.primal_residual, want.primal_residual, rtol=1e-9, atol=1e-15)
            assert np.isclose(got.dual_residual, want.dual_residual, rtol=1e-9, atol=1e-15)
            assert np.max(np.abs(got.solution - want.solution)) <= 1e-12


def exactly_in_cone(problem, z):
    """Whether z lies in the problem's cone, in exact arithmetic.

    Orthant entries are compared with 0; each PSD block is decoded to its
    Hermitian float matrix, lifted to Fractions, and tested through its
    real embedding [[Re, -Im], [Im, Re]], which is PSD exactly when the
    block is.
    """
    from ordergame.tensor import exact_psd, integer_numerators

    at = 0
    for block in problem.blocks:
        part = z[at : at + block.dim]
        at += block.dim
        if isinstance(block, NonnegOrthant):
            if not np.all(part >= 0.0):
                return False
            continue
        h = unsvec(part, block.side)
        real = np.block([[h.real, -h.imag], [h.imag, h.real]])
        exact = np.array([Fraction(x) for x in real.ravel()], dtype=object).reshape(real.shape)
        if not exact_psd(integer_numerators(exact)[0]):
            return False
    return True


class TestAcceleratedLoop:
    """The Anderson-accelerated loop's safeguard, batch bits and reports."""

    def test_safeguard_rejections_keep_the_batch_bits(self):
        # alone, the last two directions each drop an extrapolated state and
        # still converge; the first two never drop one
        problem = small_sdp()
        objectives = small_sdp_directions()[[0, 1, 3, 4]]
        batch = solve_same_constraints(problem, objectives)
        assert [r.rejected > 0 for r in batch] == [False, False, True, True]
        assert [r.jsonable()["rejected"] for r in batch] == [r.rejected for r in batch]
        for objective, got in zip(objectives, batch):
            want = solve(ConicProblem(problem.blocks, objective, problem.a, problem.b))
            assert got.status == want.status == "optimal"
            assert (got.iterations, got.rejected) == (want.iterations, want.rejected)
            assert got.objective_value == want.objective_value
            assert (got.primal_residual, got.dual_residual) == (want.primal_residual, want.dual_residual)
            assert got.solution.tobytes() == want.solution.tobytes()
            assert abs(got.objective_value - small_sdp_optimum(objective)) <= 1e-7

    def test_discrimination_solutions_are_exactly_in_the_cone(self):
        # 200 seeded Haar triples, drawn as the discrimination scan draws
        # them; a rank-one 2x2 output whose smaller diagonal entry is taken
        # as the cancelling radius - |half| is indefinite by an ulp in 117
        from ordergame.game import all_orders
        from ordergame.quantum import _order_kets, discrimination_program, haar_qubit_unitary
        from ordergame.tensor import SHARED, Vec

        rng = np.random.default_rng(42)
        for _ in range(200):
            kets = _order_kets([haar_qubit_unitary(rng) for _ in range(3)])
            problem = discrimination_program({pi: Vec((SHARED,), ket) for pi, ket in zip(all_orders(), kets)})
            report = solve(problem)
            assert report.status == "optimal"
            assert exactly_in_cone(problem, report.solution)

    @pytest.mark.parametrize("tolerance", [1e-8, 1e-10])
    @pytest.mark.parametrize(
        "name, value",
        [("nonsignaling", 5 / 6), ("nonsignaling-full", 5 / 6), ("discrimination", 1 / 3), ("shared-state", 1.0)],
    )
    def test_reports_recheck_independently(self, name, value, tolerance):
        problem = programs_with_duplicate_columns()[name]
        report = solve(problem, SolveSettings(tolerance=tolerance))
        assert report.status == "optimal"
        assert np.max(np.abs(problem.a @ report.solution - problem.b)) <= tolerance
        assert exactly_in_cone(problem, report.solution)
        assert abs(report.objective_value - value) <= 10 * tolerance


class TestAndersonStep:
    """An empty history takes the plain step, with no solve for γ."""

    @pytest.mark.parametrize("direction", [None, *range(8)])
    def test_no_solve_on_the_first_iteration_or_after_a_rejection(self, direction, monkeypatch):
        problem = small_sdp()
        if direction is not None:
            problem = ConicProblem(problem.blocks, small_sdp_directions()[direction], problem.a, problem.b)
        # each evaluation of the map projects onto the cone once: count them,
        # and record the evaluation and the filled history slots of each solve
        evaluations, calls = [0], []
        project, linalg_solve = solver._project, np.linalg.solve

        def counting_project(v, groups):
            evaluations[0] += 1
            return project(v, groups)

        def recording_solve(a, b):
            # an empty history slot has a zero right-hand side entry
            calls.append((evaluations[0], np.count_nonzero(b)))
            return linalg_solve(a, b)

        monkeypatch.setattr(solver, "_project", counting_project)
        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        report = solve(problem)
        assert report.status == "optimal" and report.iterations == evaluations[0]
        solved = [k for k, _ in calls]
        # the last evaluation converges and returns; every other one without
        # a solve must be the first or one that rejected its state
        rejections = [k for k in range(2, report.iterations) if k not in solved]
        assert 1 not in solved and len(rejections) == report.rejected
        # the history restarts with each rejection: it holds the states
        # accepted since, up to ANDERSON_MEMORY
        restarts = [1, *rejections]
        want = [(k, min(k - max(r for r in restarts if r < k), ANDERSON_MEMORY)) for k in solved]
        assert calls == want

    def test_rejecting_directions_are_covered(self):
        problem = small_sdp()
        directions = small_sdp_directions()
        rejected = [solve(ConicProblem(problem.blocks, c, problem.a, problem.b)).rejected for c in directions]
        assert any(rejected) and not all(rejected)


class TestObjectiveScaledPenalty:
    """The penalty is |c|/2, so the ADMM map reads c only as c/rho."""

    # the primal test stops the discrimination and shared-state solves at
    # every scale; the LP's stop is decided by its dual residual, which
    # scales with c against an absolute tolerance (from 8c on it stops
    # after 31-34 iterations, not 30), so it is compared at a cap of 20
    @pytest.mark.parametrize("name, max_iters", [("discrimination", 200_000), ("shared-state", 200_000), ("nonsignaling", 20)])
    def test_power_of_two_scaling_keeps_every_iterate(self, name, max_iters):
        problem = package_programs()[name]
        settings = SolveSettings(max_iters=max_iters)
        base = solve(problem, settings)
        for k in range(-6, 7):
            scale = 2.0**k
            got = solve(ConicProblem(problem.blocks, scale * problem.objective, problem.a, problem.b), settings)
            assert (got.status, got.iterations, got.rejected) == (base.status, base.iterations, base.rejected)
            assert got.solution.tobytes() == base.solution.tobytes()
            assert got.primal_residual == base.primal_residual
            assert got.objective_value == scale * base.objective_value
            assert got.dual_residual == scale * base.dual_residual
        assert base.status == ("max_iters" if name == "nonsignaling" else "optimal")

    def test_zero_objective_is_a_feasibility_solve(self):
        problem = small_sdp()
        report = solve(ConicProblem(problem.blocks, np.zeros(problem.dim), problem.a, problem.b))
        assert report.status == "optimal" and report.objective_value == 0.0
        assert np.max(np.abs(problem.a @ report.solution - problem.b)) <= 1e-8


class TestNoEqualities:
    def test_solves_with_identity_affine_step(self):
        problem = ConicProblem(blocks=[NonnegOrthant(3)], objective=[-1, -2, -0.5], a=np.zeros((0, 3)), b=[])
        report = solve(problem)
        assert report.status == "optimal"
        assert report.objective_value == 0.0
        assert report.primal_residual <= 1e-8

    def test_affine_set_is_the_whole_space(self):
        problem = ConicProblem(blocks=[NonnegOrthant(3)], objective=np.zeros(3), a=np.zeros((0, 3)), b=[])
        affine = _AffineSet(problem)
        for row in np.random.default_rng(3).normal(size=(2, 3)):
            projected = row.copy()
            affine.project(projected)
            assert np.array_equal(projected, row)
            assert affine.gap(row) == 0.0

    def test_zero_rows_give_an_empty_factor_and_an_identity_step(self):
        problem = ConicProblem(blocks=[NonnegOrthant(3)], objective=np.zeros(3), a=np.zeros((2, 3)), b=np.zeros(2))
        affine = _AffineSet(problem)
        assert affine.F.size == affine.y.size == 0
        for row in np.random.default_rng(3).normal(size=(2, 3)):
            projected = row.copy()
            affine.project(projected)
            assert np.array_equal(projected, row)
            assert affine.gap(row) == 0.0
