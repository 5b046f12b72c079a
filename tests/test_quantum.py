import hashlib
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from ordergame.game import Perm3, all_orders
from ordergame.quantum import (
    _factor_index_map,
    _order_kets,
    _pair_index_table,
    _routing_positions,
    BASIS_OF_STATE,
    KET,
    CertificateFailed,
    ORDER_TO_BASIS_STATE,
    NotOrthogonal,
    bloch_coordinates,
    certify_discrimination,
    discrimination_program,
    factor_permutation_operator,
    haar_qubit_unitary,
    output_gram,
    pair_trace_values,
    perfect_discrimination_state,
    quantum_memoryless_optimum,
    routing_matrix,
    routing_pair_products,
    sampled_discrimination_values,
    symmetric_projector,
    unbiased_basis_unitaries,
    unbiased_order_states,
    verify_perfect_discrimination,
    ZeroTrace,
)
from ordergame.solver import (
    SolveReport,
    SolverFailed,
    SolveSettings,
    dump_tableau,
    solve,
    solve_same_constraints,
    svec,
)
from ordergame import tensor
from ordergame.tensor import (
    A_OUT,
    B_OUT,
    C_OUT,
    ENTANGLED_LAYOUT,
    INT64_BOUND,
    S_FINAL,
    SHARED,
    LabeledOperator,
    LayoutMismatch,
    NotPSD,
    Vec,
    eig_hermitian,
    integer_numerators,
    permute_to_layout,
)
from reference import entangled_output_states


class TestChannels:
    def test_unitarity(self):
        for u in unbiased_basis_unitaries():
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-12

    def test_first_channel_sends_zero_to_minus(self):
        a, _, _ = unbiased_basis_unitaries()
        out = a @ KET["0"]
        overlap = abs(np.vdot(KET["-"], out))
        assert abs(overlap - 1.0) <= 1e-12

    def test_third_channel_zero_diagonal(self):
        _, _, c = unbiased_basis_unitaries()
        assert c[0, 0] == 0 and c[1, 1] == 0


class TestOrderStates:
    def test_matches_reference_up_to_phase(self):
        states = unbiased_order_states()
        for pi, vec in states.items():
            target = KET[ORDER_TO_BASIS_STATE[pi.name]]
            overlap = abs(np.vdot(target, vec.data))
            assert abs(overlap - 1.0) <= 1e-12

    def test_mutually_unbiased(self):
        states = unbiased_order_states()
        for pi1, pi2 in itertools.combinations(all_orders(), 2):
            b1 = BASIS_OF_STATE[ORDER_TO_BASIS_STATE[pi1.name]]
            b2 = BASIS_OF_STATE[ORDER_TO_BASIS_STATE[pi2.name]]
            overlap = abs(np.vdot(states[pi1].data, states[pi2].data))
            if b1 == b2:
                # same basis: orthogonal partners or the same ray
                assert min(overlap, abs(overlap - 1.0)) <= 1e-12
            else:
                assert abs(overlap - 1.0 / math.sqrt(2)) <= 1e-12

    def test_bloch_coordinates(self):
        assert np.allclose(bloch_coordinates(KET["+"]), (1, 0, 0))
        assert np.allclose(bloch_coordinates(KET["-i"]), (0, -1, 0))
        # a batch of kets gives each ket's own vector
        batch = np.array([[KET["0"], KET["+"]], [KET["i"], KET["1"]]])
        assert np.allclose(bloch_coordinates(batch), [[[0, 0, 1], [1, 0, 0]], [[0, 1, 0], [0, 0, -1]]])


def program_objective(kets):
    """The discrimination program's objective for six kets in order."""
    return discrimination_program({pi: Vec((SHARED,), ket) for pi, ket in zip(all_orders(), kets)}).objective


def closed_form_value(states):
    """The closed-form certified optimum of one set of six states."""
    kets = np.array([[states[pi].data for pi in all_orders()]])
    return certify_discrimination(kets).values[0]


class TestDiscrimination:
    def test_mub_states_reach_one_third(self):
        result = quantum_memoryless_optimum(unbiased_order_states())
        assert abs(result.probability_float - 1.0 / 3.0) <= 1e-6
        assert abs(closed_form_value(unbiased_order_states()) - 1.0 / 3.0) <= 1e-12

    def test_unconverged_solve_raises(self):
        # the solve converges at iteration 4
        with pytest.raises(SolverFailed) as info:
            quantum_memoryless_optimum(unbiased_order_states(), SolveSettings(max_iters=3))
        assert info.value.report.status != "optimal"

    def test_bound_slack_follows_tolerance(self):
        # a loose tolerance stops short of the optimum, just above 1/3; the
        # unbiased states approach 1/3 from below at every loose tolerance,
        # so three orders on |0>, two on |1> and one on |+> stand in, whose
        # optimum is 1/3 as well
        states = {pi: Vec((SHARED,), KET[label]) for pi, label in zip(all_orders(), "00011+")}
        assert abs(closed_form_value(states) - 1.0 / 3.0) <= 1e-12
        result = quantum_memoryless_optimum(states, SolveSettings(tolerance=1e-3))
        assert 1.0 / 3.0 < result.probability_float <= 1.0 / 3.0 + 1e-3

    def test_bound_violation_raises(self, monkeypatch):
        import ordergame.solver as solver

        def over_bound(problem, settings=None):
            return SolveReport("optimal", 0.5, 0.0, 0.0, 1, np.zeros(problem.dim))

        # the bound check shared by every solver scenario calls solver.solve
        monkeypatch.setattr(solver, "solve", over_bound)
        with pytest.raises(SolverFailed, match="1/3 bound"):
            quantum_memoryless_optimum(unbiased_order_states())

    def test_six_identical_states_give_one_sixth(self):
        states = {pi: Vec((SHARED,), KET["0"]) for pi in all_orders()}
        report = solve(discrimination_program(states))
        assert abs(report.objective_value - 1.0 / 6.0) <= 1e-6
        assert abs(closed_form_value(states) - 1.0 / 6.0) <= 1e-12

    def test_orthogonal_pair_perfectly_distinguished(self):
        # three orders land on |0>, three on |1>: optimum is 2/6
        states = {}
        for i, pi in enumerate(all_orders()):
            states[pi] = Vec((SHARED,), KET["0"] if i < 3 else KET["1"])
        report = solve(discrimination_program(states))
        assert abs(report.objective_value - 2.0 / 6.0) <= 1e-6
        assert abs(closed_form_value(states) - 2.0 / 6.0) <= 1e-12

    def test_sampled_triples_respect_bound(self):
        scan = sampled_discrimination_values(n_samples=100, seed=7)
        assert scan.values.shape == (100,)
        assert scan.max_value <= 1.0 / 3.0 + 1e-12
        assert max(scan.max_primal_residual, scan.max_dual_violation, scan.max_gap) <= 1e-12
        # the batched ADMM solve of the same draws is the reference
        rng = np.random.default_rng(7)
        objectives = [program_objective(_order_kets([haar_qubit_unitary(rng) for _ in range(3)])) for _ in range(100)]
        template = discrimination_program(unbiased_order_states())
        settings = SolveSettings(tolerance=1e-7, max_iters=20_000)
        reports = solve_same_constraints(template, np.array(objectives), settings)
        assert all(r.status == "optimal" for r in reports)
        admm = np.array([r.objective_value for r in reports])
        assert np.max(np.abs(scan.values - admm)) <= 1e-6

    def test_points_just_inside_the_ball_are_not_its_support(self):
        # three states on the circle z = h bound the smallest ball; the three at
        # z = h + eps have a circumcentre within eps of its centre, and a radius
        # short of it by about h eps / R, which the certificate's gap would show
        heights, steps, turns = (0.5, 0.6, 0.7, 0.8), (6e-9, 8e-9, 1e-8, 1.3e-8, 1.6e-8, 2e-8), np.linspace(0, 1, 12)
        instances = []
        for h, eps, turn in itertools.product(heights, steps, turns):
            theta = np.repeat(np.arccos([h, h + eps]), 3)
            phi = 2 * np.pi * np.arange(6) / 3 + np.repeat([0, turn], 3)
            instances.append(np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], -1))
        scan = certify_discrimination(np.array(instances))
        radius = np.sqrt(1 - np.repeat(heights, len(steps) * len(turns)) ** 2)
        assert np.max(np.abs(scan.values - (1 + radius) / 6)) <= 1e-12

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_scan_needs_a_sample(self, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            sampled_discrimination_values(n_samples=n_samples)

    @pytest.mark.parametrize("bad", [1.5, "3"])
    @pytest.mark.parametrize("argument", ["n_samples", "seed"])
    def test_scan_arguments_must_be_integers(self, argument, bad):
        # 1.5 and "3" reached numpy as TypeErrors
        with pytest.raises(ValueError, match="integers"):
            sampled_discrimination_values(**{"n_samples": 20, "seed": 42, argument: bad})

    # True drew one sample, and a bool seed ran seed 0 or 1
    @pytest.mark.parametrize("argument", ["n_samples", "seed"])
    def test_scan_arguments_must_not_be_bools(self, argument):
        with pytest.raises(ValueError, match="integers"):
            sampled_discrimination_values(**{"n_samples": 20, "seed": 42, argument: True})

    def test_scan_accepts_numpy_integers(self):
        got = sampled_discrimination_values(n_samples=np.int64(20), seed=np.int64(42))
        want = sampled_discrimination_values(n_samples=20, seed=42)
        assert got.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("entry", [discrimination_program, quantum_memoryless_optimum])
    def test_states_keyed_by_other_than_the_six_orders_are_refused(self, entry):
        states = unbiased_order_states()
        # an extra key was once ignored, or failed to sort after the solve; a missing order raised a bare KeyError
        with pytest.raises(ValueError, match=r"one state per order, keyed by the six orders, not by \['ABC', .*'junk'\]"):
            entry({**states, "junk": states[all_orders()[0]]})
        del states[all_orders()[5]]
        with pytest.raises(ValueError, match=r"not by \['ABC', 'ACB', 'BAC', 'BCA', 'CAB'\]"):
            entry(states)

    @pytest.mark.parametrize("shape", [(1, 7, 2), (1, 5, 2), (6, 2), (1, 6, 3), (0, 6, 2)])
    def test_kets_not_six_per_row_are_refused(self, shape):
        # seven kets per row once gave 1/3 on the first six, and five raised IndexError
        with pytest.raises(ValueError, match=re.escape(f"shape (n, 6, 2) with n >= 1, not {shape}")):
            certify_discrimination(np.ones(shape) / math.sqrt(2))

    def test_certificate_that_does_not_verify_raises(self):
        # a ket of norm 2 has a Bloch vector of length 4, outside every unit-ball certificate
        kets = np.array([[2 * KET["0"]] + [KET["1"]] * 5])
        with pytest.raises(CertificateFailed, match="instance 0"):
            certify_discrimination(kets)

    @pytest.mark.parametrize("norm", [0.5, 2.0])
    @pytest.mark.parametrize("entry", [discrimination_program, quantum_memoryless_optimum])
    def test_kets_that_are_not_unit_vectors_are_refused_before_any_solve(self, entry, norm, monkeypatch):
        import ordergame.solver as solver

        # half-norm kets once gave 1/12 as the optimum, and 2|0> six times a
        # SolverFailed over the 1/3 bound, blaming the solver for the input
        monkeypatch.setattr(solver, "solve", lambda *args, **kwargs: pytest.fail("solved a program of non-states"))
        states = unbiased_order_states() if norm == 0.5 else {pi: Vec((SHARED,), KET["0"]) for pi in all_orders()}
        states[all_orders()[3]] = Vec((SHARED,), norm * states[all_orders()[3]].data)
        with pytest.raises(ValueError, match=f"order BCA is not a unit vector: its squared norm is off 1 by {abs(norm**2 - 1):g}"):
            entry(states)

    def test_the_unit_norm_check_has_the_certificate_slack(self):
        # squared norms off 1 by about 8e-10 pass, and by 1.2e-9 do not
        def scaled(factor):
            return {pi: Vec((SHARED,), factor * vec.data) for pi, vec in unbiased_order_states().items()}

        assert discrimination_program(scaled(1 + 4e-10)).objective.shape == (24,)
        with pytest.raises(ValueError, match="order ABC is not a unit vector"):
            discrimination_program(scaled(1 + 6e-10))

    def test_program_tableau_pinned(self):
        # with the non-signaling LP's and the shared-state program's pins, every
        # program the package builds is pinned
        text = dump_tableau(discrimination_program(unbiased_order_states()))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "fbfea2193734e747a7bd3bf11f034e80eaf2201c5a1cffc42f2738d7b8b37e60"
        )

    def test_scan_objectives_match_the_per_order_loop_bits(self, monkeypatch):
        import ordergame.quantum as quantum

        seen = []

        def capture(kets):
            seen.append(kets)
            return None

        monkeypatch.setattr(quantum, "certify_discrimination", capture)
        sampled_discrimination_values(n_samples=20, seed=42)
        rng = np.random.default_rng(42)
        # the reference builds each order's ket one party at a time and takes
        # its projector alone, as the per-order loop of the ADMM scan did
        for kets in seen[0]:
            us = {p: haar_qubit_unitary(rng) for p in ("A", "B", "C")}
            want = []
            for pi in all_orders():
                vec = KET["0"]
                for party in pi.order:
                    vec = us[party] @ vec
                want.append(svec(np.outer(vec, vec.conj())) / 6.0)
            assert program_objective(kets).tobytes() == np.concatenate(want).tobytes()

    def test_haar_sampler_unitary(self):
        rng = np.random.default_rng(3)
        u = haar_qubit_unitary(rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-12

    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("n_samples", [100, 1000])
    def test_batched_draw_matches_the_per_instance_loop_bits(self, monkeypatch, seed, n_samples):
        import ordergame.quantum as quantum

        def per_instance_unitary(rng):
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, r = np.linalg.qr(z)
            return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))

        seen = []
        monkeypatch.setattr(quantum, "certify_discrimination", seen.append)
        sampled_discrimination_values(n_samples=n_samples, seed=seed)
        # the reference draws one instance at a time, each party's unitary
        # alone, and moves |0> through them as matrix-vector products
        rng = np.random.default_rng(seed)
        want = []
        for _ in range(n_samples):
            us = {p: per_instance_unitary(rng) for p in ("A", "B", "C")}
            for pi in all_orders():
                vec = KET["0"]
                for party in pi.order:
                    vec = us[party] @ vec
                want.append(vec)
        assert seen[0].shape == (n_samples, 6, 2)
        assert seen[0].tobytes() == np.array(want).tobytes()
        # one unitary drawn alone, as the benchmark's scan draws them
        assert haar_qubit_unitary(np.random.default_rng(seed)).tobytes() == (
            per_instance_unitary(np.random.default_rng(seed)).tobytes()
        )


class TestSwapRouting:
    def test_routing_is_composition_of_swaps(self):
        # first mover's swap is applied first
        swaps = {}
        for party, pos in (("A", 3), ("B", 2), ("C", 1)):
            mat = np.zeros((16, 16), dtype=int)
            for j in range(16):
                bx = (j >> pos) & 1
                bs = j & 1
                jj = (j & ~((1 << pos) | 1)) | (bs << pos) | bx
                mat[jj, j] = 1
            swaps[party] = mat
        pi = Perm3(("A", "B", "C"))
        want = swaps["C"] @ swaps["B"] @ swaps["A"]
        got = np.asarray(routing_matrix(pi).op.to_float().data).real.astype(int)
        assert np.array_equal(got, want)

    def test_zero_one_orthogonal(self):
        for pi in all_orders():
            m = routing_matrix(pi).op
            dense = np.asarray(m.to_float().data).real.astype(int)
            assert set(np.unique(dense)) <= {0, 1}
            assert np.array_equal(dense.sum(axis=0), np.ones(16, dtype=int))
            assert np.array_equal(dense.sum(axis=1), np.ones(16, dtype=int))
            assert np.array_equal(dense.T @ dense, np.eye(16, dtype=int))

    def test_pair_traces_exactly_four(self):
        for (pp, p), op in routing_pair_products().items():
            assert op.trace() == 4

    def test_self_pair_trace_sixteen(self):
        for pi in all_orders():
            m = routing_matrix(pi).op
            assert np.trace(m.data.conj().T @ m.data) == 16

    def test_factor_permutation_matches_loop_reference(self):
        for positions in itertools.permutations(range(4)):
            want = np.zeros((16, 16), dtype=int)
            for j in range(16):
                bits = [(j >> (3 - p)) & 1 for p in range(4)]
                out = sum(bits[src] << (3 - slot) for slot, src in enumerate(positions))
                want[out, j] = 1
            assert np.array_equal(factor_permutation_operator(positions).data, want)

    def test_pair_products_are_factor_permutations(self):
        perms = {
            tuple(p): factor_permutation_operator(p).data
            for p in itertools.permutations(range(4))
        }
        for op in routing_pair_products().values():
            assert any(np.array_equal(op.data, mat) for mat in perms.values())


class TestSharedExactValues:
    """The exact values built once and shared equal the per-entry constructions they replaced."""

    def test_pair_products_are_one_operator_per_distinct_product(self):
        products = routing_pair_products()
        order, table = all_orders(), _pair_index_table()
        pairs = list(itertools.permutations(range(6), 2))
        assert list(products) == [(order[i], order[j]) for i, j in pairs]
        assert len({id(op) for op in products.values()}) == 11
        assert len({table[i, j].tobytes() for i, j in pairs}) == 11
        for i, j in pairs:
            # the per-pair construction that the shared operators replaced
            want = scatter_operator(table[i, j])
            got = products[order[i], order[j]]
            assert got.layout == want.layout and got.exact
            assert [type(x) for x in got.data.flat] == [type(x) for x in want.data.flat]
            assert got.data.tolist() == want.data.tolist()
        for (i, j), (k, m) in itertools.combinations(pairs, 2):
            same_map = np.array_equal(table[i, j], table[k, m])
            assert (products[order[i], order[j]] is products[order[k], order[m]]) == same_map

    def test_state_matches_the_fraction_construction(self):
        # the Fraction-per-entry construction that the integer numerators replaced
        weight = np.array([bin(i).count("1") for i in range(16)])
        classes = np.array([Fraction(-1, 15 * math.comb(4, k)) for k in range(5)], dtype=object)[weight]
        want = np.where(weight[:, None] == weight, classes, 0) + np.diag([Fraction(1, 12)] * 16)
        got = perfect_discrimination_state().data
        assert [type(x) for x in got.flat] == [type(x) for x in want.flat]
        assert got.tolist() == want.tolist()
        # one Fraction per distinct nonzero value, shared by its entries
        assert len({id(x) for x in got.flat if x}) == len({x for x in got.flat if x}) == 5

    @pytest.mark.parametrize(
        "state",
        [
            perfect_discrimination_state(),
            LabeledOperator(ENTANGLED_LAYOUT, np.diag([Fraction(k + 1, 136) for k in range(16)])),
            LabeledOperator(ENTANGLED_LAYOUT, np.full((16, 16), Fraction(1, 48)) + np.diag([Fraction(1, 3)] * 16)),
        ],
        ids=["closed-form", "diagonal", "thirds"],
    )
    def test_gram_matches_a_fraction_per_entry(self, state):
        # the Fraction-per-entry construction that the shared Fractions replaced
        nums, den = integer_numerators(state.data)
        sums = sum(np.moveaxis(nums[np.arange(16), _pair_index_table()], -1, 0))
        want = [[Fraction(val, den) for val in row] for row in sums.tolist()]
        gram = output_gram(state)
        assert gram.shape == (6, 6)
        assert all(type(x) is Fraction for x in gram.flat)
        assert gram.tolist() == want


def reference_factor_map(positions):
    """The basis map moving factor positions[i] to slot i: 16 index shifts and masks."""
    return (np.arange(16)[:, None] >> (3 - np.asarray(positions)) & 1) @ (8, 4, 2, 1)


def reference_routing_map(pi):
    """One order's map as built before the batched tables: its positions, then 16 index shifts and masks."""
    first, second, third = ("ABC".index(party) for party in pi.order)
    positions = [0] * 4
    positions[first], positions[second], positions[third], positions[3] = 3, first, second, third
    return reference_factor_map(positions)


def scatter_operator(index_map):
    """The exact 0/1 matrix sending e_j to e_{index_map[j]}, scattered one column at a time."""
    nums = np.zeros((16, 16), dtype=np.int64)
    nums[index_map, np.arange(16)] = 1
    return LabeledOperator.from_numerators(ENTANGLED_LAYOUT, nums, 1)


class TestBatchedTables:
    """The tables built in one array step equal the per-order constructions they replaced, to the bit."""

    def test_routing_maps_match_the_per_order_reference(self):
        for pi in all_orders():
            got, want = _factor_index_map(_routing_positions(pi)), reference_routing_map(pi)
            assert (got.shape, got.dtype) == (want.shape, want.dtype) == ((16,), np.dtype(np.int64))
            assert got.tobytes() == want.tobytes()
            got, want = routing_matrix(pi).op, scatter_operator(want)
            assert (got.layout, got.nums.dtype, got.den) == (want.layout, np.dtype(np.int64), 1)
            assert got.nums.tobytes() == want.nums.tobytes()

    def test_pair_table_matches_the_inverse_scatter_reference(self):
        maps = np.array([reference_routing_map(pi) for pi in all_orders()])
        inverse = np.empty_like(maps)
        inverse[np.arange(6)[:, None], maps] = np.arange(16)
        want = inverse[:, maps]
        got = _pair_index_table()
        assert (got.shape, got.dtype) == (want.shape, want.dtype) == ((6, 6, 16), np.dtype(np.int64))
        assert got.tobytes() == want.tobytes()

    def test_permutation_operator_matches_the_scatter_reference(self):
        for positions in itertools.permutations(range(4)):
            want = scatter_operator(reference_factor_map(positions))
            got = factor_permutation_operator(positions)
            assert (got.nums.dtype, got.den) == (np.dtype(np.int64), 1)
            assert got.nums.tobytes() == want.nums.tobytes()

    @pytest.mark.parametrize("seed", [None, 7])
    def test_batched_bloch_certificate_matches_each_state_alone(self, seed):
        states = unbiased_order_states()
        if seed is not None:
            rng = np.random.default_rng(seed)
            kets = _order_kets([haar_qubit_unitary(rng) for _ in range(3)])
            states = {pi: Vec((SHARED,), ket) for pi, ket in zip(all_orders(), kets)}
        got = quantum_memoryless_optimum(states).certificate["bloch_coordinates"]
        want = {
            pi.name: [round(x, 12) for x in bloch_coordinates(vec.data).tolist()]
            for pi, vec in sorted(states.items())
        }
        assert list(got) == list(want) and got == want
        assert all(type(x) is float for xyz in got.values() for x in xyz)


class TestSymmetricProjector:
    def test_is_projector_exact(self):
        p = symmetric_projector()
        assert (p @ p).allclose(p)
        assert p.trace() == 5

    def test_pointwise_invariant_under_factor_permutations(self):
        p = symmetric_projector()
        for positions in itertools.permutations(range(4)):
            r = factor_permutation_operator(positions)
            assert (r @ p).allclose(p)

    def test_pair_products_fix_it(self):
        p = symmetric_projector()
        for op in routing_pair_products().values():
            assert (op @ p).trace() == 5


class TestSharedState:
    def test_trace_exactly_one(self):
        assert perfect_discrimination_state().trace() == 1

    def test_exact_psd(self):
        assert perfect_discrimination_state().is_psd()

    def test_eigenvalue_identities_exact(self):
        state = perfect_discrimination_state()
        p = symmetric_projector()
        eye = LabeledOperator.identity(ENTANGLED_LAYOUT, exact=True)
        comp = eye - p
        assert (state @ p).allclose(p.scale(Fraction(1, 60)))
        assert (state @ comp).allclose(comp.scale(Fraction(1, 12)))

    def test_float_spectrum_multiplicities(self):
        w, _ = eig_hermitian(perfect_discrimination_state())
        assert np.sum(np.abs(w - 1.0 / 60.0) < 1e-12) == 5
        assert np.sum(np.abs(w - 1.0 / 12.0) < 1e-12) == 11

    def test_trace_identity_for_every_pair(self):
        # tr(pair . state) = tr(pair)/12 - 1/3 for factor-permutation pairs
        state = perfect_discrimination_state()
        values = pair_trace_values(state)
        pairs = routing_pair_products()
        for key, val in values.items():
            expected = Fraction(pairs[key].trace(), 12) - Fraction(1, 3)
            assert val == expected == 0

    def test_commutes_with_all_24_factor_permutations(self):
        state = perfect_discrimination_state()
        for positions in itertools.permutations(range(4)):
            r = factor_permutation_operator(positions)
            assert (r @ state).allclose(state @ r)

    def test_binding_invariance(self):
        # rebinding the four wires in any order leaves the matrix unchanged
        state = perfect_discrimination_state()
        for positions in itertools.permutations(range(4)):
            target = tuple(ENTANGLED_LAYOUT[i] for i in positions)
            moved = permute_to_layout(state, target)
            assert np.all(moved.data == state.data)


class TestVerification:
    def test_psd_verdict_is_worked_out_once_per_state(self, monkeypatch):
        eliminated = []
        bareiss = tensor._bareiss_psd
        monkeypatch.setattr(tensor, "_bareiss_psd", lambda a: eliminated.append(len(a)) or bareiss(a))
        state = perfect_discrimination_state()
        verify_perfect_discrimination(state)
        # one elimination of each weight class
        assert eliminated == [1, 4, 6, 4, 1]
        output_gram(state)
        pair_trace_values(state)
        assert state.is_psd()
        assert eliminated == [1, 4, 6, 4, 1]
        # the verdict lives on the instance: a new state works out its own
        assert perfect_discrimination_state().is_psd()
        assert eliminated == [1, 4, 6, 4, 1] * 2

    def test_psd_verdict_of_a_reordered_state_is_worked_out_once(self, monkeypatch):
        eliminated = []
        bareiss = tensor._bareiss_psd
        monkeypatch.setattr(tensor, "_bareiss_psd", lambda a: eliminated.append(len(a)) or bareiss(a))
        state = permute_to_layout(perfect_discrimination_state(), ENTANGLED_LAYOUT[::-1])
        verify_perfect_discrimination(state)
        output_gram(state)
        pair_trace_values(state)
        assert eliminated == [1, 4, 6, 4, 1]

    def test_exact_state_passes(self):
        result = verify_perfect_discrimination(perfect_discrimination_state())
        assert result.probability == Fraction(1)
        assert result.certificate["pair_traces_checked"] == 30
        assert result.certificate["exact"]

    def test_maximally_mixed_fails_with_quarter(self):
        mixed = LabeledOperator(
            ENTANGLED_LAYOUT, np.eye(16, dtype=complex) / 16.0
        )
        with pytest.raises(NotOrthogonal) as info:
            verify_perfect_discrimination(mixed)
        assert abs(info.value.value - 0.25) <= 1e-12

    def test_exact_mixed_fails(self):
        data = np.zeros((16, 16), dtype=object)
        data[...] = 0
        for i in range(16):
            data[i, i] = Fraction(1, 16)
        with pytest.raises(NotOrthogonal) as info:
            verify_perfect_discrimination(LabeledOperator(ENTANGLED_LAYOUT, data))
        assert info.value.value == Fraction(1, 4)

    def test_rejects_non_psd(self):
        bad = LabeledOperator(ENTANGLED_LAYOUT, -np.eye(16, dtype=complex) / 16.0)
        with pytest.raises(NotPSD):
            verify_perfect_discrimination(bad)

    @pytest.mark.parametrize("exact", [True, False])
    def test_a_state_on_other_labels_is_refused(self, exact):
        # the perfect state's numerators on four other wires once verified with probability 1
        state = perfect_discrimination_state()
        moved = LabeledOperator.from_numerators((A_OUT, B_OUT, C_OUT, S_FINAL), state.nums, state.den)
        for check in (verify_perfect_discrimination, output_gram, pair_trace_values):
            with pytest.raises(LayoutMismatch):
                check(moved if exact else moved.to_float())

    @pytest.mark.parametrize(
        "state",
        [
            LabeledOperator(ENTANGLED_LAYOUT, np.zeros((16, 16), dtype=object)),
            LabeledOperator(ENTANGLED_LAYOUT, np.zeros((16, 16), dtype=complex)),
        ],
        ids=["exact", "float"],
    )
    def test_rejects_the_zero_operator(self, state):
        # every pair trace of 0 vanishes, but it routes no outputs at all
        with pytest.raises(ZeroTrace):
            verify_perfect_discrimination(state)

    def test_float_trace_must_exceed_atol(self):
        tiny = perfect_discrimination_state().to_float().scale(1e-9)
        with pytest.raises(ZeroTrace):
            verify_perfect_discrimination(tiny, atol=1e-8)
        assert verify_perfect_discrimination(tiny, atol=1e-10).probability == 1.0

    def test_float_trace_equal_to_atol_is_refused(self):
        # sixteen diagonal entries of 1/32 sum to exactly 0.5
        half = LabeledOperator(ENTANGLED_LAYOUT, np.eye(16, dtype=complex) / 32.0)
        with pytest.raises(ZeroTrace):
            verify_perfect_discrimination(half, atol=0.5)

    def test_float_pair_trace_equal_to_atol_passes(self):
        # every pair trace of the maximally mixed state is exactly 1/4
        mixed = LabeledOperator(ENTANGLED_LAYOUT, np.eye(16, dtype=complex) / 16.0)
        result = verify_perfect_discrimination(mixed, atol=0.25)
        assert result.probability == 1.0 and result.certificate["max_pair_trace"] == 0.25

    @pytest.mark.parametrize("scale", [2e-8, 4e-8])
    def test_a_scaled_down_mixed_state_still_overlaps(self, scale):
        # its pair traces are scale/4, under the default atol, but a quarter of its trace
        mixed = LabeledOperator(ENTANGLED_LAYOUT, scale * np.eye(16, dtype=complex) / 16.0)
        with pytest.raises(NotOrthogonal) as info:
            verify_perfect_discrimination(mixed)
        assert abs(info.value.value - scale / 4) <= 1e-20

    @pytest.mark.parametrize("check", [verify_perfect_discrimination, output_gram])
    @pytest.mark.parametrize("scale", [1.5e-8, 5e-8])
    def test_a_scaled_down_indefinite_state_is_refused(self, check, scale):
        # a factor permutation fixes |0011> exactly when it fixes |1100>, so moving
        # weight 1/4 from one to the other keeps every pair trace at 0 and the
        # trace at 1, but leaves an eigenvalue of -0.18; scaled under the default
        # atol, that eigenvalue passed an absolute PSD floor of 1e-8
        state = perfect_discrimination_state()
        shift = np.zeros((16, 16), dtype=np.int64)
        shift[0b0011, 0b0011], shift[0b1100, 0b1100] = 45, -45
        bad = LabeledOperator.from_numerators(ENTANGLED_LAYOUT, state.nums + shift, state.den).to_float()
        assert np.linalg.eigvalsh(bad.data)[0] < -0.18
        with pytest.raises(NotPSD):
            check(bad.scale(scale))

    def test_exact_trace_of_one_numerator_reaches_the_pair_traces(self):
        # |0000><0000| has trace numerator 1; every routing fixes 0000, so each pair trace is 1
        data = np.zeros((16, 16), dtype=int)
        data[0, 0] = 1
        with pytest.raises(NotOrthogonal) as info:
            verify_perfect_discrimination(LabeledOperator.from_numerators(ENTANGLED_LAYOUT, data, 1))
        assert info.value.value == 1 and type(info.value.value) is Fraction


class TestOutputs:
    def test_unit_norm(self):
        outputs = entangled_output_states(perfect_discrimination_state())
        for vec in outputs.values():
            assert abs(np.linalg.norm(vec.data) - 1.0) <= 1e-12

    def test_exact_gram_is_identity(self):
        gram = output_gram(perfect_discrimination_state())
        for i in range(6):
            for j in range(6):
                assert gram[i, j] == (1 if i == j else 0)

    def test_float_gram_matches(self):
        gram = output_gram(perfect_discrimination_state().to_float())
        assert np.max(np.abs(gram - np.eye(6))) <= 1e-10

    def test_mixed_state_gram_off_diagonals(self):
        mixed = LabeledOperator(ENTANGLED_LAYOUT, np.eye(16, dtype=complex) / 16.0)
        gram = output_gram(mixed)
        off = gram[~np.eye(6, dtype=bool)]
        assert np.max(np.abs(off - 0.25)) <= 1e-10

    def test_analytic_state_feasible_for_assembled_program(self):
        # plugging the closed-form state into the feasibility program's
        # equalities gives zero residual and objective value one
        from ordergame.solver import shared_state_program, svec

        pair_ops = {
            (pp.name, p.name): np.asarray(routing_matrix(pp).op.to_float().data).conj().T
            @ np.asarray(routing_matrix(p).op.to_float().data)
            for pp in all_orders()
            for p in all_orders()
            if pp != p
        }
        program = shared_state_program(pair_ops)
        state = np.asarray(perfect_discrimination_state().to_float().data)
        x = np.concatenate([svec(state), [0.0]])  # zero slack: trace is 1
        residual = program.a @ x - program.b
        assert np.max(np.abs(residual)) <= 1e-12
        assert abs(program.objective @ x - 1.0) <= 1e-12


def exact_diagonal_state(value):
    data = np.zeros((16, 16), dtype=object)
    for i in range(16):
        data[i, i] = value
    return LabeledOperator(ENTANGLED_LAYOUT, data)


def per_entry_gram(state):
    """The pair traces as Fraction sums over the state's data, one entry at a time."""
    return [
        [sum((Fraction(state.data[j, k]) for j, k in enumerate(index_map)), Fraction(0)) for index_map in maps]
        for maps in _pair_index_table()
    ]


def verdict(state):
    """What verify_perfect_discrimination makes of the state: its certificate, or the overlap it raises."""
    try:
        return verify_perfect_discrimination(state).certificate
    except NotOrthogonal as overlap:
        return overlap.pair, overlap.value


def random_density_matrix(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = m @ m.conj().T
    return LabeledOperator(ENTANGLED_LAYOUT, rho / np.trace(rho).real)


class TestOutputGram:
    @pytest.mark.parametrize(
        "state",
        [
            perfect_discrimination_state().to_float(),
            LabeledOperator(ENTANGLED_LAYOUT, np.eye(16, dtype=complex) / 16.0),
            *(random_density_matrix(seed) for seed in (11, 12, 13)),
        ],
        ids=["closed-form", "mixed", "random-11", "random-12", "random-13"],
    )
    def test_matches_purification_vectors(self, state):
        # the reference takes the square root and inner products of the
        # routed purifications; output_gram takes neither
        outputs = entangled_output_states(state)
        order = all_orders()
        want = np.array([[np.vdot(outputs[a].data, outputs[b].data) for b in order] for a in order])
        gram = output_gram(state)
        assert gram.dtype == complex
        assert np.max(np.abs(gram - want)) <= 1e-12

    @pytest.mark.parametrize(
        "state",
        [perfect_discrimination_state(), perfect_discrimination_state().to_float(), random_density_matrix(16)],
        ids=["exact-closed-form", "float-closed-form", "float-random"],
    )
    def test_a_reordered_state_is_put_back_in_order(self, state):
        want = output_gram(state)
        for positions in itertools.permutations(range(4)):
            moved = permute_to_layout(state, [ENTANGLED_LAYOUT[i] for i in positions])
            got = output_gram(moved)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
            assert pair_trace_values(moved) == pair_trace_values(state)
            assert verdict(moved) == verdict(state)

    def test_exact_for_every_exact_state(self):
        gram = output_gram(exact_diagonal_state(Fraction(1, 16)))
        for i in range(6):
            for j in range(6):
                assert isinstance(gram[i, j], Fraction)
                assert gram[i, j] == (1 if i == j else Fraction(1, 4))

    def test_closed_form_gram_is_the_exact_identity(self):
        gram = output_gram(perfect_discrimination_state())
        assert gram.shape == (6, 6)
        assert all(type(x) is Fraction for x in gram.ravel())
        assert gram.tolist() == np.eye(6, dtype=int).tolist()

    def test_lifted_float_state_matches_a_fraction_sum(self):
        # binary-float entries of many sizes plus thirds: mixed denominators
        rng = np.random.default_rng(15)
        m = rng.normal(size=(16, 16))
        m = m @ m.T / 40.0
        state = LabeledOperator(ENTANGLED_LAYOUT, (m + m.T) / 2, exact=True) + exact_diagonal_state(Fraction(1, 3))
        denominators = {x.denominator for x in state.data.ravel()}
        assert len(denominators) > 5 and any(d % 3 == 0 for d in denominators)
        assert state.den > INT64_BOUND and state.nums.dtype == object
        gram = output_gram(state)
        assert all(type(x) is Fraction for x in gram.ravel())
        assert gram.tolist() == per_entry_gram(state)

    @pytest.mark.parametrize(
        "state",
        [
            # sixteen numerators of 2**62 sum past the int64 range
            LabeledOperator.from_numerators(ENTANGLED_LAYOUT, np.diag(np.full(16, 2**62)), 1),
            exact_diagonal_state(Fraction(1, 3**41)),
        ],
        ids=["large-numerators", "large-denominator"],
    )
    def test_numerators_past_the_int64_bound_are_python_ints(self, state):
        assert state.nums.dtype == object
        gram = output_gram(state)
        assert all(type(x) is Fraction for x in gram.ravel())
        assert gram.tolist() == per_entry_gram(state)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3])
    def test_a_float_state_is_psd_within_1e_8_of_its_trace(self, scale):
        # a diagonal state with one negative entry: its pair traces are about 0.2
        # and its trace about 1, so only a slack read off the trace tells them apart
        def diagonal(negative):
            return LabeledOperator(ENTANGLED_LAYOUT, scale * np.diag([negative] + [1 / 15] * 15))

        gram = output_gram(diagonal(-4e-9))
        assert abs(gram[0, 0] - scale) <= 1e-8 * scale
        with pytest.raises(NotPSD):
            output_gram(diagonal(-2e-8))

    def test_rejects_non_psd(self):
        with pytest.raises(NotPSD):
            output_gram(exact_diagonal_state(Fraction(-1, 16)))
        with pytest.raises(NotPSD):
            output_gram(LabeledOperator(ENTANGLED_LAYOUT, -np.eye(16, dtype=complex) / 16.0))

    @pytest.mark.parametrize(
        "state",
        [
            perfect_discrimination_state(),
            exact_diagonal_state(Fraction(1, 16)),
            perfect_discrimination_state().to_float(),
            random_density_matrix(14),
        ],
        ids=["exact-closed-form", "exact-mixed", "float-closed-form", "float-random"],
    )
    def test_pair_trace_values_are_the_off_diagonal(self, state):
        gram = output_gram(state)
        values = pair_trace_values(state)
        order = all_orders()
        want = {
            (order[i], order[j]): gram[i, j] for i in range(6) for j in range(6) if i != j
        }
        assert list(values) == list(want)
        for key, val in values.items():
            assert type(val) is type(want[key])
            assert val == want[key]

    def test_pair_index_map_is_the_operator_product(self):
        table = _pair_index_table()
        assert table.shape == (6, 6, 16)
        for (i, pp), (j, p) in itertools.product(enumerate(all_orders()), repeat=2):
            product = routing_matrix(pp).op.data.conj().T @ routing_matrix(p).op.data
            # column j of a permutation matrix has its one 1 in row map[j]
            want = [next(r for r in range(16) if product[r, c] == 1) for c in range(16)]
            assert table[i, j].tolist() == want


@pytest.mark.parametrize(
    "op",
    [
        perfect_discrimination_state(),
        *dict.fromkeys(routing_pair_products().values()),
        LabeledOperator((SHARED,), [[0.1, 0], [0, 1 / 3]], exact=True),
        exact_diagonal_state(Fraction(1, 3**41)),
    ],
    ids=["closed-form", *(f"pair-product-{k}" for k in range(11)), "from-floats", "large-denominator"],
)
def test_to_float_rounds_each_entry_as_converting_it_does(op):
    assert op.to_float().data.tobytes() == np.array(op.data, dtype=complex).tobytes()
