import itertools
import re
from fractions import Fraction

import numpy as np
import pytest

from ordergame import classical
from ordergame.classical import (
    _distinct,
    _run_table,
    BitStrategy,
    all_bit_strategies,
    losr_canonical_witness,
    run_losr,
    run_memoryless,
    search_losr,
    search_memoryless,
)
from ordergame.game import Perm3, all_orders, optimal_decoder
from reference import deterministic_success

CONST_ONE = BitStrategy(1, 1)
NEGATION = BitStrategy(1, 0)
IDENTITY_MAP = BitStrategy(0, 1)


class TestRunMemoryless:
    def test_cba_composition(self):
        # a always 1, b negates, c copies; A acts first
        assert run_memoryless(Perm3(("A", "B", "C")), CONST_ONE, NEGATION, IDENTITY_MAP, 0) == 0

    def test_acb_composition(self):
        # same maps, B acts first, then C, then A
        assert run_memoryless(Perm3(("B", "C", "A")), CONST_ONE, NEGATION, IDENTITY_MAP, 0) == 1

    def test_all_identity(self):
        ident = IDENTITY_MAP
        for pi in all_orders():
            assert run_memoryless(pi, ident, ident, ident, 0) == 0


class TestSearchMemoryless:
    def test_exact_optimum_one_third(self):
        result = search_memoryless()
        assert result.probability == Fraction(1, 3)
        assert result.certificate["cases_searched"] == 128

    def test_stated_witness_achieves_two_outputs(self):
        outputs = {
            pi: run_memoryless(pi, CONST_ONE, NEGATION, IDENTITY_MAP, 0)
            for pi in all_orders()
        }
        assert len(set(outputs.values())) == 2
        assert deterministic_success(outputs) == Fraction(1, 3)

    def test_single_bit_cannot_reach_three(self):
        for input_bit in (0, 1):
            for a, b, c in itertools.product(all_bit_strategies(), repeat=3):
                outs = {run_memoryless(pi, a, b, c, input_bit) for pi in all_orders()}
                assert len(outs) <= 2


class TestRunLosr:
    def test_canonical_witness_tuples(self):
        a, b, c = losr_canonical_witness()
        expect = {
            ("A", "B", "C"): (1, 0, 0, 1),
            ("A", "C", "B"): (1, 0, 1, 0),
            ("B", "A", "C"): (1, 1, 0, 0),
            ("C", "A", "B"): (1, 1, 0, 0),
            ("B", "C", "A"): (0, 1, 0, 1),
            ("C", "B", "A"): (0, 1, 1, 0),
        }
        for order, tup in expect.items():
            assert run_losr(Perm3(order), a, b, c, 0).as_tuple() == tup

    def test_collision_pair(self):
        a, b, c = losr_canonical_witness()
        cab = run_losr(Perm3(("B", "A", "C")), a, b, c, 0).as_tuple()
        bac = run_losr(Perm3(("C", "A", "B")), a, b, c, 0).as_tuple()
        assert cab == bac == (1, 1, 0, 0)


class TestBitRefusals:
    @pytest.mark.parametrize(
        "on_zero, on_one", [(-1, 0), (2, 0), (2, 3), (0, 2), (True, 0), (0, False), (0.0, 1), (np.int64(1), 0)]
    )
    def test_bit_strategy_refuses_a_value_that_is_not_a_bit(self, on_zero, on_one):
        # BitStrategy(-1, 0) once reached the network blocks as a wrapped negative index
        with pytest.raises(ValueError, match="must be the int 0 or 1"):
            BitStrategy(on_zero, on_one)

    @pytest.mark.parametrize("input_bit", [5, -1, 2, True, 1.0])
    def test_runs_refuse_an_input_that_is_not_a_bit(self, input_bit):
        # input_bit 5 was once recorded as x_a = 5
        a, b, c = losr_canonical_witness()
        for run in (run_losr, run_memoryless):
            with pytest.raises(ValueError, match="input_bit must be the int 0 or 1"):
                run(all_orders()[0], a, b, c, input_bit)

    @pytest.mark.parametrize("party", range(3))
    @pytest.mark.parametrize("strategy", [lambda x: 7, lambda x: x, (0, 1), None])
    def test_runs_refuse_a_strategy_that_is_not_a_bit_strategy(self, party, strategy):
        # a plain function once ran: a = lambda x: 7 was recorded as x_b = 7
        triple = list(losr_canonical_witness())
        triple[party] = strategy
        for run in (run_losr, run_memoryless):
            with pytest.raises(ValueError, match=f"strategy {'abc'[party]} must be a BitStrategy"):
                run(all_orders()[0], *triple, 0)


class TestSearchLosr:
    def test_exact_optimum_five_sixths(self):
        result = search_losr()
        assert result.probability == Fraction(5, 6)
        assert result.certificate["cases_searched"] == 64
        assert result.certificate["distinct_tuples"] == 5

    def test_input_one_gives_same_optimum(self):
        result = search_losr()
        assert result.certificate["distinct_tuples_input_1"] == 5

    def test_canonical_witness_reaches_five(self):
        a, b, c = losr_canonical_witness()
        tuples = {run_losr(pi, a, b, c, 0).as_tuple() for pi in all_orders()}
        assert len(tuples) == 5

    def test_outcome_is_a_plain_tuple_of_its_fields(self):
        a, b, c = losr_canonical_witness()
        outcome = run_losr(Perm3(("B", "A", "C")), a, b, c, 0)
        assert (outcome.s_out, outcome.x_a, outcome.x_b, outcome.x_c) == (1, 1, 0, 0)
        assert type(outcome.as_tuple()) is tuple
        assert outcome.as_tuple() == (1, 1, 0, 0)

    def test_memory_beats_memoryless(self):
        assert search_losr().probability >= search_memoryless().probability


class TestRunTable:
    def test_matches_the_runs_on_every_case(self):
        table = _run_table()
        assert table.shape == (2, 6, 64)
        triples = list(itertools.product(all_bit_strategies(), repeat=3))
        for input_bit in (0, 1):
            for o, pi in enumerate(all_orders()):
                for t, (a, b, c) in enumerate(triples):
                    code = int(table[input_bit, o, t])
                    s_out, x_a, x_b, x_c = run_losr(pi, a, b, c, input_bit)
                    assert code == 8 * s_out + 4 * x_a + 2 * x_b + x_c
                    assert code >> 3 == run_memoryless(pi, a, b, c, input_bit)

    def test_searches_pick_the_first_maximum_in_search_order(self):
        # the per-triple loops the run table replaced, kept as the reference
        triples = list(itertools.product(all_bit_strategies(), repeat=3))
        best = None
        for input_bit in (0, 1):
            for a, b, c in triples:
                count = len({run_memoryless(pi, a, b, c, input_bit) for pi in all_orders()})
                if best is None or count > best[0]:
                    best = (count, input_bit, (a, b, c))
        count, input_bit, (a, b, c) = best
        assert search_memoryless().strategy == (
            f"input {input_bit}; a={a.describe()}, b={b.describe()}, c={c.describe()}; {count} distinct final bits"
        )
        counts = [len({run_losr(pi, a, b, c, 0) for pi in all_orders()}) for a, b, c in triples]
        a, b, c = triples[counts.index(max(counts))]
        assert search_losr().strategy.startswith(f"input 0; a={a.describe()}, b={b.describe()}, c={c.describe()};")

    def test_searches_read_each_input_off_the_table(self, monkeypatch):
        # with every input-0 run set to code 0, the memoryless maximum lies on input 1,
        # and only the memory search's input-1 count keeps its real value
        table = _run_table().copy()
        table[0] = 0
        monkeypatch.setattr(classical, "_run_table", lambda: table)
        triples = list(itertools.product(all_bit_strategies(), repeat=3))
        finals = [len({run_memoryless(pi, a, b, c, 1) for pi in all_orders()}) for a, b, c in triples]
        a, b, c = triples[finals.index(max(finals))]
        assert search_memoryless().strategy == (
            f"input 1; a={a.describe()}, b={b.describe()}, c={c.describe()}; {max(finals)} distinct final bits"
        )
        result = search_losr()
        assert result.probability == Fraction(1, 6)
        assert result.certificate["distinct_tuples_input_1"] == max(
            len({run_losr(pi, a, b, c, 1) for pi in all_orders()}) for a, b, c in triples
        )


def reference_run_table():
    """The run table as built before the gather: each party's strategy shifted by 1 - x, one step at a time."""
    strategy = (np.arange(64) >> np.array([[4], [2], [0]])) & 3
    movers = np.array([["ABC".index(p) for p in pi.order] for pi in all_orders()])
    state = np.arange(2)[:, None, None]
    codes = np.zeros((2, 6, 64), dtype=np.int64)
    for party in movers.T:
        codes |= state << (2 - party)[:, None]
        state = (strategy[party] >> (1 - state)) & 1
    codes |= state << 3
    return codes


class TestTableReferences:
    """The searches' tables and results equal the constructions they replaced."""

    def test_run_table_matches_the_shift_reference_bits(self):
        got, want = _run_table(), reference_run_table()
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()

    def test_distinct_counts_match_the_comparison_reference(self):
        # the one-hot comparison the bit-mask count replaced
        for codes in (_run_table(), _run_table() >> 3):
            want = (codes[:, :, None] == np.arange(16)[:, None]).any(axis=1).sum(axis=1)
            got = _distinct(codes)
            assert got.shape == want.shape == (2, 64)
            assert got.tolist() == want.tolist()

    def test_certificates_match_the_runs(self):
        # the outputs and tuples the searches read off the run table, re-run
        result = search_memoryless()
        input_bit, a, b, c = strategy_of(result)
        outputs = {pi: run_memoryless(pi, a, b, c, input_bit) for pi in all_orders()}
        assert result.certificate["outputs"] == {pi.name: v for pi, v in sorted(outputs.items())}
        assert all(type(v) is int for v in result.certificate["outputs"].values())
        assert result.certificate["decoder"] == {str(o): pi.name for o, pi in optimal_decoder(outputs).items()}
        result = search_losr()
        input_bit, a, b, c = strategy_of(result)
        tuples = {pi: run_losr(pi, a, b, c, input_bit).as_tuple() for pi in all_orders()}
        assert result.certificate["tuples"] == {pi.name: t for pi, t in sorted(tuples.items())}
        assert all(type(t) is tuple and all(type(x) is int for x in t) for t in result.certificate["tuples"].values())
        assert result.certificate["decoder"] == {str(t): pi.name for t, pi in optimal_decoder(tuples).items()}


def strategy_of(result):
    """The input bit and the strategies a, b, c a search result names in its strategy text."""
    input_bit = int(re.match(r"input (\d);", result.strategy).group(1))
    return (input_bit, *(BitStrategy(int(z), int(o)) for z, o in re.findall(r"[abc]=\((\d),(\d)\)", result.strategy)))


def losr_histogram():
    """How many of the 64 memory triples reach each distinct-tuple count on input 0, through run_losr."""
    hist = {k: 0 for k in range(1, 7)}
    for a, b, c in itertools.product(all_bit_strategies(), repeat=3):
        hist[len({run_losr(pi, a, b, c, 0) for pi in all_orders()})] += 1
    return hist


class TestHistogram:
    def test_against_independent_enumeration(self):
        # independent oracle: raw bit loops, no strategy classes involved
        oracle = {k: 0 for k in range(1, 7)}
        orders = [tuple(p.order) for p in all_orders()]
        for bits in itertools.product((0, 1), repeat=6):
            fwd = {
                "A": bits[0:2],
                "B": bits[2:4],
                "C": bits[4:6],
            }
            seen = set()
            for order in orders:
                state = 0
                rec = {}
                for party in order:
                    rec[party] = state
                    state = fwd[party][state]
                seen.add((state, rec["A"], rec["B"], rec["C"]))
            oracle[len(seen)] += 1
        hist = losr_histogram()
        assert hist == oracle
        assert sum(hist.values()) == 64
        assert hist[6] == 0

    def test_five_count_attained(self):
        assert losr_histogram()[5] > 0


class TestPermutationCovariance:
    def test_relabeling_preserves_distinct_count(self):
        strategies = all_bit_strategies()
        for a, b, c in itertools.product(strategies, repeat=3):
            base = {run_losr(pi, a, b, c, 0).as_tuple() for pi in all_orders()}
            for rho in all_orders():
                # rho sends A, B and C to its first, second and third party
                relabeled = dict(zip(rho.order, (a, b, c)))
                moved = {
                    run_losr(pi, relabeled["A"], relabeled["B"], relabeled["C"], 0).as_tuple()
                    for pi in all_orders()
                }
                assert len(moved) == len(base)


def test_strategy_enumeration_order():
    assert [s.describe() for s in all_bit_strategies()] == ["(0,0)", "(0,1)", "(1,0)", "(1,1)"]


def test_deterministic_success_integer_rule_over_all_strategies():
    for a, b, c in itertools.product(all_bit_strategies(), repeat=3):
        outputs = {pi: run_losr(pi, a, b, c, 0).as_tuple() for pi in all_orders()}
        value = deterministic_success(outputs)
        assert (value * 6).denominator == 1
        assert 1 <= value * 6 <= 6
