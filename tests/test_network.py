import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest

from ordergame.classical import BitStrategy, all_bit_strategies, run_losr
from ordergame.game import Perm3, all_orders, optimal_decoder
from ordergame.network import (
    _CHAINS,
    _MARGINALS,
    _doubled_constraints,
    _orbit_labels,
    nonsignaling_program,
    objective_diagonals,
    solve_nonsignaling,
    strategy_network_blocks,
    witness_feasibility,
)
from ordergame.solver import ConicProblem, NonnegOrthant, SolveSettings, dump_tableau, solve
from ordergame.tensor import (
    NETWORK_LAYOUT,
    A_IN,
    B_IN,
    C_IN,
    C_OUT,
    S_FINAL,
    S_PREP,
    LabeledOperator,
    NotHermitian,
    eig_hermitian,
    kron,
    partial_trace,
    permute_to_layout,
)

import network_reference
from network_reference import (
    IN_WIRE,
    OUT_WIRE,
    NetworkBlock,
    constraint_rows,
    full_nonsignaling_program,
    link_probability,
    max_entangled_projector,
    order_process,
    solution_blocks,
)
from reference import read_tableau


@pytest.fixture(scope="module")
def lp_report():
    return solve(nonsignaling_program())


class TestWiringOperator:
    def test_trace_sixteen_every_order(self):
        for pi in all_orders():
            op = order_process(pi).op
            assert op.side == 256
            assert op.trace() == 16

    def test_psd_rank_one(self):
        for pi in all_orders():
            w, _ = eig_hermitian(order_process(pi).op)
            assert w[0] >= -1e-10
            assert np.sum(w > 1e-8) == 1
            assert abs(w[-1] - 16.0) <= 1e-9

    def test_asymmetric_wiring_raises_typed_error(self, monkeypatch):
        def skewed(op, layout):
            data = np.zeros((256, 256), dtype=object)
            data[...] = 0
            data[0, 1] = 1
            return LabeledOperator(tuple(layout), data)

        monkeypatch.setattr(network_reference, "permute_to_layout", skewed)
        with pytest.raises(NotHermitian):
            order_process(Perm3(("A", "B", "C")))

    def test_real_symmetric_entrywise(self):
        for pi in all_orders():
            data = order_process(pi).op.data
            assert np.all(data == data.T)

    def test_partial_trace_oracle(self):
        # tracing the final wire off the identity-order operator leaves the
        # three chained pairs tensored with a free out wire
        pi = Perm3(("A", "B", "C"))
        got = partial_trace(order_process(pi).op, [S_FINAL])
        want = max_entangled_projector(NETWORK_LAYOUT[0], IN_WIRE["A"])
        want = kron(want, max_entangled_projector(OUT_WIRE["A"], IN_WIRE["B"]))
        want = kron(want, max_entangled_projector(OUT_WIRE["B"], IN_WIRE["C"]))
        want = kron(want, LabeledOperator.identity((C_OUT,), exact=True))
        want = permute_to_layout(want, got.layout)
        assert np.all(got.data == want.data)

    def test_relabeling_covariance_all_36_pairs(self):
        wire_of = {"A": (IN_WIRE["A"], OUT_WIRE["A"]),
                   "B": (IN_WIRE["B"], OUT_WIRE["B"]),
                   "C": (IN_WIRE["C"], OUT_WIRE["C"])}
        for pi, rho in itertools.product(all_orders(), repeat=2):
            op = order_process(pi).op
            image = dict(zip("ABC", rho.order))
            mapping = {}
            for party in ("A", "B", "C"):
                src_in, src_out = wire_of[party]
                dst_in, dst_out = wire_of[image[party]]
                mapping[src_in] = dst_in
                mapping[src_out] = dst_out
            relabeled = LabeledOperator(
                tuple(mapping.get(s, s) for s in op.layout), op.data
            )
            aligned = permute_to_layout(relabeled, NETWORK_LAYOUT)
            assert np.all(aligned.data == order_process(Perm3(tuple(image[p] for p in pi.order))).op.data)


class TestLinkProbability:
    def test_self_contraction(self):
        process = order_process(Perm3(("A", "B", "C")))
        block = NetworkBlock(process.pi, process.op.to_float().scale(1.0 / 16.0))
        assert abs(link_probability(block, process) - 16.0) <= 1e-9

    def test_zero_block(self):
        process = order_process(Perm3(("A", "B", "C")))
        zero = NetworkBlock(process.pi, process.op.to_float().scale(0.0))
        assert link_probability(zero, process) == 0.0

    def test_uniform_block(self):
        process = order_process(Perm3(("B", "C", "A")))
        uniform = NetworkBlock(
            process.pi, LabeledOperator.identity(NETWORK_LAYOUT).scale(1.0 / 256.0)
        )
        assert abs(link_probability(uniform, process) - 1.0 / 16.0) <= 1e-12

    def test_wrong_layout_rejected(self):
        from ordergame.tensor import Space

        bad = NetworkBlock(
            Perm3(("A", "B", "C")),
            LabeledOperator.identity(tuple(Space(f"W{i}", 2) for i in range(8))),
        )
        with pytest.raises(ValueError):
            link_probability(bad, order_process(Perm3(("A", "B", "C"))))


class TestProgramStructure:
    def test_variable_count(self):
        # one variable per entry of the summed diagonal, then one per orbit of those
        assert full_nonsignaling_program().blocks == [NonnegOrthant(256)]
        program = nonsignaling_program()
        assert program.dim == 40
        assert program.blocks == [NonnegOrthant(40)]
        assert program.a.shape == (31, 40)
        assert np.linalg.matrix_rank(program.a) == 31

    def test_trace_constraint_rhs(self):
        _, rhs = constraint_rows()
        assert rhs[-1] == 16.0
        program = nonsignaling_program()
        assert program.b[-1] == 16.0

    def test_wiring_diagonal_weight(self):
        for diagonal in objective_diagonals():
            assert diagonal.sum() == 16.0

    def test_wiring_diagonals_match_the_pos_lookup_reference_bits(self):
        got, want = objective_diagonals(), network_reference.pos_lookup_objective_diagonals()
        assert (got.shape, got.dtype) == (want.shape, want.dtype) == ((6, 256), np.dtype(float))
        assert got.tobytes() == want.tobytes()

    def test_chains_are_each_orders_wire_pairs(self):
        # the one table of chain positions the wiring diagonals and the witness check read
        pos = {space: i for i, space in enumerate(NETWORK_LAYOUT)}
        want = [tuple(pos[s] for pair in network_reference.wire_pairs(pi) for s in pair) for pi in all_orders()]
        assert list(_CHAINS) == want

    def test_wiring_diagonal_is_the_operator_diagonal(self):
        for pi, got in zip(all_orders(), objective_diagonals()):
            want = np.real(np.diag(order_process(pi).op.to_float().data))
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_constraint_rows_match_loop_reference(self):
        # the per-row loops the closed form replaced, kept as the reference:
        # one row per key u of each marginal, with the key's uniform bit
        pos = {space: i for i, space in enumerate(NETWORK_LAYOUT)}
        rows, bits = [], []
        for v in range(256):
            row = np.zeros(256)
            row[v] += 1.0
            for bit in (0, 1):
                row[(v & ~1) | bit] -= 0.5
            rows.append(row)
            bits.append((v, 1))
        for party in ("A", "B", "C"):
            pos_in, pos_out = pos[IN_WIRE[party]], pos[OUT_WIRE[party]]
            kept = [p for p in range(8) if p not in (pos_out, pos[S_FINAL])]
            for uval in range(64):
                row = np.zeros(256)
                base = 0
                for i, p in enumerate(kept):
                    base |= ((uval >> (5 - i)) & 1) << (7 - p)
                for out_bit, fin_bit in itertools.product((0, 1), repeat=2):
                    row[base | (out_bit << (7 - pos_out)) | fin_bit] += 1.0
                stripped = base & ~(1 << (7 - pos_in))
                for in_bit, out_bit, fin_bit in itertools.product((0, 1), repeat=3):
                    row[stripped | (in_bit << (7 - pos_in)) | (out_bit << (7 - pos_out)) | fin_bit] -= 0.5
                rows.append(row)
                bits.append((uval, 1 << (5 - kept.index(pos_in))))
        rows.append(np.ones(256))
        bits.append((0, 1))
        assert len(rows) == 449
        # the row of u ^ bit follows the row of u by `bit` rows in its marginal
        kept_rows = []
        for r, (u, bit) in enumerate(bits):
            if u & bit:
                assert np.array_equal(rows[r], -rows[r - bit])
            else:
                kept_rows.append(rows[r])
        got, got_rhs = constraint_rows()
        assert got.shape == (225, 256)
        assert np.count_nonzero(got) == 1280
        assert got.tobytes() == np.array(kept_rows).tobytes()
        assert got_rhs.tobytes() == np.array([0.0] * 224 + [16.0]).tobytes()

    def test_doubled_constraints_are_the_rows_nonzeros(self):
        # the witness sums over these integer coordinates; halved, they must
        # be exactly the float rows' nonzeros, one per column in each line
        rows, rhs = constraint_rows()
        row, coef, doubled_rhs = _doubled_constraints()
        assert row.shape == coef.shape == (5, 256)
        assert row.dtype.kind == coef.dtype.kind == doubled_rhs.dtype.kind == "i"
        assert set(np.unique(coef[:4])) == {-1, 1} and np.all(coef[4] == 2)
        columns = np.broadcast_to(np.arange(256), row.shape)
        halved = sorted(zip(row.ravel().tolist(), columns.ravel().tolist(), (coef / 2).ravel().tolist()))
        r, v = np.nonzero(rows)
        assert halved == list(zip(r.tolist(), v.tolist(), rows[r, v].tolist()))
        assert (doubled_rhs / 2).tobytes() == rhs.tobytes()

    def test_marginal_masks_are_the_layout_wires(self):
        # the one statement of the marginals that the rows and the witness check read
        value = {space: 1 << (7 - i) for i, space in enumerate(NETWORK_LAYOUT)}
        want = [(value[S_FINAL], 0)]
        want += [(value[IN_WIRE[p]], value[OUT_WIRE[p]] | value[S_FINAL]) for p in "ABC"]
        assert list(_MARGINALS) == want

    def test_doubled_constraints_match_the_per_marginal_reference_bits(self):
        # the per-marginal construction the one product replaced: each
        # party's key from six shifts, then each marginal's row formula
        bits = {space: (np.arange(256) >> (7 - i)) & 1 for i, space in enumerate(NETWORK_LAYOUT)}
        marginals = [(np.arange(256), 1)]
        for party in "ABC":
            kept = [s for s in NETWORK_LAYOUT if s not in (OUT_WIRE[party], S_FINAL)]
            key = sum(bits[s] << (5 - i) for i, s in enumerate(kept))
            marginals.append((key, 1 << (5 - kept.index(IN_WIRE[party]))))
        row, coef, at = [], [], 0
        for key, bit in marginals:
            low = bit - 1
            row.append(at + (((key >> 1) & ~low) | (key & low)))
            coef.append(np.where(key & bit, -1, 1))
            at += (int(key.max()) + 1) // 2
        row.append(np.full(256, at))
        coef.append(np.full(256, 2))
        rhs = np.zeros(at + 1, dtype=int)
        rhs[at] = 32
        for got, want in zip(_doubled_constraints(), (np.array(row), np.array(coef), rhs)):
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes()

    def test_tableau_pinned(self):
        # 13d2f88b... is the 225x256 LP the orbit reduction starts from;
        # fa9de381... had all 449 rows, before each negated row was dropped
        text = dump_tableau(nonsignaling_program())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ac129986f5f09457a53b7bfdd5d50a843e60e5b76a438a5c0cafc97f7fa7f6d8"
        )
        text = dump_tableau(full_nonsignaling_program())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "13d2f88bda2b8580f2c1cdc3800dab8ba06652697a425cf09088f879057d40e3"
        )

    def test_uniform_point_objective_exactly_one_sixth(self):
        # the scaled identity is feasible; its exact objective is a sanity
        # lower bound well below the optimum
        rows, rhs = constraint_rows()
        uniform = Fraction(16, 6 * 256)
        for r in range(rows.shape[0]):
            lhs = sum(Fraction(x) * uniform * 6 for x in rows[r])
            assert lhs == Fraction(rhs[r])
        objective = sum(
            Fraction(int(v)) * uniform for v in objective_diagonals().reshape(-1)
        )
        assert objective / 6 == Fraction(1, 6)


def symmetry_maps():
    """The 12 column maps, one index at a time: each party relabeling, with and without the flip of all eight bits."""
    pos = {space: i for i, space in enumerate(NETWORK_LAYOUT)}
    maps = []
    for rho in all_orders():
        target = dict(zip("ABC", rho.order))
        for flip in (0, 255):
            image = []
            for v in range(256):
                bits = {space: (v >> (7 - p)) & 1 for space, p in pos.items()}
                moved = dict(bits)
                for party in "ABC":
                    moved[IN_WIRE[target[party]]] = bits[IN_WIRE[party]]
                    moved[OUT_WIRE[target[party]]] = bits[OUT_WIRE[party]]
                image.append(sum(bit << (7 - pos[space]) for space, bit in moved.items()) ^ flip)
            maps.append(np.array(image))
    return maps


def signed_rows(a, b):
    """The rows of [a b] with the sign of each first nonzero cleared and signed zeros made 0.0, as sorted bytes."""
    lines = np.column_stack([a, b])
    first = lines[np.arange(len(lines)), np.argmax(lines != 0, axis=1)]
    return sorted(line.tobytes() for line in lines * np.where(first < 0, -1.0, 1.0)[:, None] + 0.0)


class TestOrbitReduction:
    def test_each_symmetry_maps_the_full_program_onto_itself(self):
        full = full_nonsignaling_program()
        want = signed_rows(full.a, full.b)
        maps = symmetry_maps()
        assert len({g.tobytes() for g in maps}) == 12
        for g in maps:
            assert sorted(g.tolist()) == list(range(256))
            # column v of the mapped rows is column g(v)'s
            moved = np.empty_like(full.a)
            moved[:, g] = full.a
            assert signed_rows(moved, full.b) == want
            assert np.array_equal(full.objective[g], full.objective)

    def test_labels_are_the_orbits_numbered_by_smallest_member(self):
        labels = _orbit_labels()
        maps = symmetry_maps()
        orbits = {frozenset(int(g[v]) for g in maps) for v in range(256)}
        assert len(orbits) == 40
        for orbit in orbits:
            assert {int(labels[v]) for v in orbit} == {int(labels[min(orbit)])}
        smallest = sorted(min(orbit) for orbit in orbits)
        assert [int(labels[v]) for v in smallest] == list(range(40))

    def test_rows_are_the_doubled_coordinates_summed_per_orbit_and_halved(self):
        # one Python int at a time, then every zero line and every line that
        # repeats an earlier one up to sign dropped
        row, coef, rhs = _doubled_constraints()
        labels = _orbit_labels()
        lines = [[0] * 40 + [int(value)] for value in rhs]
        for m, v in itertools.product(range(row.shape[0]), range(256)):
            lines[row[m, v]][labels[v]] += int(coef[m, v])
        kept, seen = [], set()
        for line in lines:
            nonzero = [x for x in line if x]
            signed = tuple(x if nonzero and nonzero[0] > 0 else -x for x in line)
            if nonzero and signed not in seen:
                seen.add(signed)
                kept.append(line)
        program = nonsignaling_program()
        assert program.a.tobytes() == (np.array([line[:40] for line in kept]) / 2).tobytes()
        assert program.b.tobytes() == (np.array([line[40] for line in kept]) / 2).tobytes()
        weights = objective_diagonals().max(axis=0)
        counts = [sum(int(weights[v]) for v in range(256) if labels[v] == k) for k in range(40)]
        assert program.objective.tolist() == [float(Fraction(count, 6)) for count in counts]

    @pytest.mark.parametrize("tolerance", [1e-8, 1e-10])
    def test_lifted_solution_meets_the_full_rows_and_scores_the_objective(self, tolerance):
        report = solve(nonsignaling_program(), SolveSettings(tolerance=tolerance))
        assert report.status == "optimal"
        full = full_nonsignaling_program()
        lifted = report.solution[_orbit_labels()]
        assert lifted.min() >= 0.0
        assert np.max(np.abs(full.a @ lifted - full.b)) <= 10 * tolerance
        assert abs(full.objective @ lifted - report.objective_value) <= 1e-12


class TestWitnessEmbedding:
    def test_canonical_witness_feasible_and_five_sixths(self):
        blocks = strategy_network_blocks()
        check = witness_feasibility(blocks)
        assert check["feasible"]
        assert check["max_violation"] == 0
        assert check["objective"] == Fraction(5, 6)

    def test_total_trace_sixteen(self):
        blocks = strategy_network_blocks()
        total = sum(int(sum(diag)) for diag in blocks.values())
        assert total == 16

    @pytest.mark.parametrize(
        "given, missing",
        [
            ((None, BitStrategy(1, 1), BitStrategy(1, 1)), "a"),
            ((BitStrategy(0, 0),), "b, c"),
            ((None, None, BitStrategy(0, 1)), "a, b"),
        ],
    )
    def test_partial_triple_is_refused(self, given, missing):
        # a partial triple once fell back to the canonical witness, or called None
        with pytest.raises(ValueError, match=f"strategies {missing} are missing"):
            strategy_network_blocks(*given)

    def test_strategies_that_are_not_bit_strategies_are_refused(self):
        # plain functions once gave 8 entries in place of 16: two indices collided
        with pytest.raises(ValueError, match="strategy a must be a BitStrategy"):
            strategy_network_blocks(lambda x: 2, lambda x: 0, lambda x: 1)

    def test_blocks_keyed_by_other_than_the_six_orders_are_refused(self):
        blocks = strategy_network_blocks()
        # an extra key was once ignored (feasible, 5/6), and a missing order raised a bare KeyError
        with pytest.raises(ValueError, match=r"keyed by the six orders, not by \['ABC', .*'junk'\]"):
            witness_feasibility({**blocks, "junk": np.zeros(256, dtype=np.int64)})
        missing = dict(blocks)
        del missing[all_orders()[5]]
        with pytest.raises(ValueError, match=r"not by \['ABC', 'ACB', 'BAC', 'BCA', 'CAB'\]"):
            witness_feasibility(missing)
        renamed = {**missing, "CBA": blocks[all_orders()[5]]}
        with pytest.raises(ValueError, match="keyed by the six orders"):
            witness_feasibility(renamed)

    def test_padded_blocks_are_refused(self):
        # each canonical block after 256 leading zeros once passed as feasible, with objective 5/6
        padded = {pi: np.concatenate([np.zeros(256, dtype=np.int64), d]) for pi, d in strategy_network_blocks().items()}
        with pytest.raises(ValueError, match=r"six blocks of 256 entries, not blocks stacked as \(6, 512\)"):
            witness_feasibility(padded)
        with pytest.raises(ValueError, match=r"stacked as \(6, 255\)"):
            witness_feasibility({pi: diag[1:] for pi, diag in strategy_network_blocks().items()})

    def test_weaker_strategy_scores_lower(self):
        identity = BitStrategy(0, 1)
        blocks = strategy_network_blocks(identity, identity, identity)
        check = witness_feasibility(blocks)
        assert check["feasible"]
        assert check["objective"] < Fraction(5, 6)


def loop_strategy_blocks(a, b, c):
    """The per-index loop the wire-bit masks replaced, kept as the reference."""
    pos = {space: i for i, space in enumerate(NETWORK_LAYOUT)}
    strategies = {"A": a, "B": b, "C": c}
    outcomes = {pi: run_losr(pi, a, b, c, 0).as_tuple() for pi in all_orders()}
    decode = optimal_decoder(outcomes)
    blocks = {}
    for guess in all_orders():
        diag = np.zeros(256, dtype=object)
        diag[...] = 0
        for v in range(256):
            bits = {space: (v >> (7 - p)) & 1 for space, p in pos.items()}
            if bits[S_PREP] != 0:
                continue
            if any(bits[OUT_WIRE[p]] != strategies[p](bits[IN_WIRE[p]]) for p in "ABC"):
                continue
            observed = (bits[S_FINAL], bits[A_IN], bits[B_IN], bits[C_IN])
            if decode.get(observed, all_orders()[0]) == guess:
                diag[v] = 1
        blocks[guess] = diag
    return blocks


class TestStrategyBlocks:
    @pytest.mark.parametrize("triple", list(itertools.product(all_bit_strategies(), repeat=3)))
    def test_match_loop_reference(self, triple):
        got = strategy_network_blocks(*triple)
        want = loop_strategy_blocks(*triple)
        assert list(got) == list(want)
        for pi, diag in got.items():
            assert diag.dtype == np.int64
            assert diag.tolist() == want[pi].tolist()

    @pytest.mark.parametrize("triple", list(itertools.product(all_bit_strategies(), repeat=3)))
    def test_witness_matches_the_object_array_reference(self, triple):
        # the loop's object blocks through the object-array check, as the package once ran both
        loop_blocks = loop_strategy_blocks(*triple)
        want = network_reference.object_witness_feasibility(loop_blocks)
        for blocks in (strategy_network_blocks(*triple), loop_blocks):
            got = witness_feasibility(blocks)
            assert got == want
            assert [type(v) for v in got.values()] == [type(v) for v in want.values()]


def loop_max_violation(blocks):
    """Largest equality violation, one Fraction product at a time."""
    rows, rhs = constraint_rows()
    # tolist() reads int64 entries as Python ints, which a Fraction sum cannot wrap
    entries = [diag.tolist() for diag in blocks.values()]
    summed = [sum(Fraction(diag[v]) for diag in entries) for v in range(256)]
    max_violation = Fraction(0)
    for r in range(rows.shape[0]):
        lhs = sum(Fraction(rows[r, v]) * summed[v] for v in np.nonzero(rows[r])[0])
        max_violation = max(max_violation, abs(lhs - Fraction(rhs[r])))
    return max_violation


def loop_objective(blocks):
    """The objective, one Fraction per support entry."""
    total = Fraction(0)
    for guess, diagonal in zip(all_orders(), objective_diagonals()):
        entries = blocks[guess].tolist()
        total += sum(Fraction(entries[u]) for u in np.flatnonzero(diagonal))
    return total / 6


def assert_matches_loop(blocks):
    """witness_feasibility gives the loop's violation and objective, as Fractions."""
    check = witness_feasibility(blocks)
    want = loop_max_violation(blocks)
    assert check["feasible"] == (want == 0)
    assert isinstance(check["max_violation"], Fraction)
    assert check["max_violation"] == want
    assert isinstance(check["objective"], Fraction)
    assert check["objective"] == loop_objective(blocks)
    return check


class TestWitnessViolation:
    @pytest.mark.parametrize("raise_by", [Fraction(1), Fraction(1, 3)])
    def test_raised_entry_matches_loop(self, raise_by):
        blocks = strategy_network_blocks()
        pi = all_orders()[2]
        v = int(np.flatnonzero(blocks[pi])[0])
        blocks[pi] = blocks[pi].astype(object)
        blocks[pi][v] += raise_by
        assert loop_max_violation(blocks) > 0
        assert_matches_loop(blocks)

    @pytest.mark.parametrize("dtype", [float, object])
    def test_float_blocks_convert_exactly(self, dtype):
        # float entries once raised TypeError: both arguments should be Rational instances
        blocks = {pi: diag.astype(float).astype(dtype) for pi, diag in strategy_network_blocks().items()}
        check = assert_matches_loop(blocks)
        assert check["feasible"] and check["objective"] == Fraction(5, 6)

    def test_float_entry_is_its_binary_value(self):
        blocks = {pi: diag.astype(float) for pi, diag in strategy_network_blocks().items()}
        pi = all_orders()[2]
        blocks[pi][int(np.flatnonzero(blocks[pi])[0])] = 0.1
        # the loop reads the entry as Fraction(0.1), not 1/10
        check = assert_matches_loop(blocks)
        assert check["max_violation"].denominator == Fraction(0.1).denominator

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_refused(self, bad):
        blocks = {pi: diag.astype(float) for pi, diag in strategy_network_blocks().items()}
        blocks[all_orders()[0]][0] = bad
        with pytest.raises(ValueError, match="cannot convert"):
            witness_feasibility(blocks)

    def test_sums_fall_back_to_python_ints_instead_of_wrapping(self):
        # each entry is within INT64_BOUND, but the trace row sums 2 x 1536 of them
        blocks = {pi: np.full(256, 2**52, dtype=np.int64) for pi in all_orders()}
        assert (2 * np.full(6 * 256, 2**52, dtype=np.int64)).sum() != 2 * 6 * 256 * 2**52
        check = assert_matches_loop(blocks)
        assert check["objective"] == 16 * 2**52

    def test_denominator_past_the_bound(self):
        blocks = strategy_network_blocks()
        pi = all_orders()[2]
        blocks[pi] = blocks[pi].astype(object)
        blocks[pi][int(np.flatnonzero(blocks[pi])[0])] = Fraction(1, 3**41)
        check = assert_matches_loop(blocks)
        assert not check["feasible"]

    @pytest.mark.parametrize("moved", [5, 1, Fraction(1, 2)])
    def test_negative_entry_is_infeasible(self, moved):
        # moving weight from one block's 0 entry onto another block at the same
        # index keeps every row, but leaves a negative entry; moving 5 once
        # passed as feasible with objective 5/3
        blocks = {pi: diag.astype(object) for pi, diag in strategy_network_blocks().items()}
        order = {pi.name: pi for pi in all_orders()}
        blocks[order["CAB"]][75] += moved
        blocks[order["ABC"]][75] -= moved
        check = witness_feasibility(blocks)
        # index 75 is on CAB's wiring support, not on ABC's
        assert check == {"feasible": False, "max_violation": 0, "objective": Fraction(5, 6) + Fraction(moved, 6)}
        assert check == network_reference.object_witness_feasibility(blocks)
        assert loop_max_violation(blocks) == 0
        if moved == int(moved):
            assert witness_feasibility({pi: diag.astype(np.int64) for pi, diag in blocks.items()}) == check

    def test_split_entry_stays_feasible(self):
        # half of BAC's entry at 75 moved onto ABC, which does not score there
        blocks = {pi: diag.astype(object) for pi, diag in strategy_network_blocks().items()}
        order = {pi.name: pi for pi in all_orders()}
        blocks[order["BAC"]][75] -= Fraction(1, 2)
        blocks[order["ABC"]][75] += Fraction(1, 2)
        check = assert_matches_loop(blocks)
        assert check == {"feasible": True, "max_violation": 0, "objective": Fraction(3, 4)}
        assert check == network_reference.object_witness_feasibility(blocks)

    @pytest.mark.parametrize("dtype", [np.int64, float, object])
    def test_zero_blocks_violate_only_the_trace_row(self, dtype):
        blocks = {pi: np.zeros(256, dtype=dtype) for pi in all_orders()}
        check = assert_matches_loop(blocks)
        assert check == {"feasible": False, "max_violation": 16, "objective": 0}


class TestSolveNonsignaling:
    def test_optimum_five_sixths(self, lp_report):
        assert lp_report.status == "optimal"
        assert abs(lp_report.objective_value - 5.0 / 6.0) <= 1e-6

    def test_cone_feasibility(self, lp_report):
        assert lp_report.solution.min() >= -1e-8

    def test_equality_residuals(self, lp_report):
        assert lp_report.primal_residual <= 1e-6

    def test_outcome_normalization_constant_across_orders(self, lp_report):
        blocks = solution_blocks(lp_report)
        totals = []
        for diag_w in objective_diagonals():
            totals.append(sum(blocks[guess] @ diag_w for guess in all_orders()))
        assert max(totals) - min(totals) <= 1e-6

    def test_solution_blocks_lift_the_summed_diagonal(self, lp_report):
        blocks = solution_blocks(lp_report)
        stacked = np.array([blocks[pi] for pi in all_orders()])
        assert np.all(stacked >= 0.0)
        assert np.array_equal(stacked.sum(axis=0), lp_report.solution[_orbit_labels()])
        score = sum(blocks[pi] @ diagonal for pi, diagonal in zip(all_orders(), objective_diagonals())) / 6
        assert abs(score - lp_report.objective_value) <= 1e-12

    def test_summed_diagonal_lp_solves_the_six_block_lp(self, lp_report):
        # the reference: six diagonal blocks, every row repeated once per block
        rows, rhs = constraint_rows()
        dense = np.tile(rows, (1, 6))
        six_blocks = ConicProblem(
            blocks=[NonnegOrthant(256)] * 6, objective=objective_diagonals().reshape(-1) / 6, a=dense, b=rhs
        )
        full = solve(six_blocks)
        assert full.status == "optimal"
        assert abs(full.objective_value - lp_report.objective_value) <= 1e-6
        lifted = np.concatenate([solution_blocks(lp_report)[pi] for pi in all_orders()])
        rounding = 1e-13 * max(1.0, np.max(np.abs(dense) @ lifted))
        assert np.max(np.abs(dense @ lifted - rhs)) <= lp_report.primal_residual + rounding

    def test_scenario_wrapper(self):
        result = solve_nonsignaling(SolveSettings(tolerance=1e-8))
        assert abs(result.probability_float - 5.0 / 6.0) <= 1e-6
        assert result.certificate["solver"]["status"] == "optimal"


class TestTableauExport:
    def test_round_trips_and_solves(self):
        program = nonsignaling_program()
        back = read_tableau(dump_tableau(program))
        assert np.array_equal(back.a, program.a)
        report = solve(back, SolveSettings(tolerance=1e-6, max_iters=5000))
        assert abs(report.objective_value - 5.0 / 6.0) <= 1e-5
