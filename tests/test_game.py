import itertools
from fractions import Fraction

import pytest

from ordergame.game import Perm3, ScenarioResult, all_orders, optimal_decoder, trit_game, two_party_game
from reference import NotADistribution, OrderPrior, deterministic, deterministic_success, success_probability

IDENTITY = Perm3(("A", "B", "C"))


class TestPerm3:
    def test_six_distinct_orders(self):
        orders = all_orders()
        assert len(orders) == 6
        assert len(set(orders)) == 6
        assert Perm3(("A", "B", "C")) in orders
        assert Perm3(("C", "B", "A")) in orders

    def test_lexicographic(self):
        names = [pi.name for pi in all_orders()]
        assert names == sorted(names)
        assert names[0] == "ABC"

    def test_same_orders_on_every_call(self):
        first = all_orders()
        names = ["ABC", "ACB", "BAC", "BCA", "CAB", "CBA"]
        assert [pi.name for pi in first] == names
        first.reverse()
        first.append(IDENTITY)
        first[0] = Perm3(("C", "A", "B"))
        again = all_orders()
        assert [pi.name for pi in again] == names
        assert again is not all_orders()

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            Perm3(("A", "A", "B"))

    def test_any_spelling_is_the_same_order(self):
        spellings = [Perm3(("B", "C", "A")), Perm3(["B", "C", "A"]), Perm3("BCA")]
        assert all(pi == spellings[0] for pi in spellings)
        assert {hash(pi) for pi in spellings} == {hash(spellings[0])}
        assert all(pi.order == ("B", "C", "A") for pi in spellings)
        for other in all_orders():
            assert {pi < other for pi in spellings} == {spellings[0] < other}
            assert {pi > other for pi in spellings} == {spellings[0] > other}
        assert sorted([Perm3("CBA"), Perm3(["A", "C", "B"]), Perm3(("B", "A", "C"))]) == [
            Perm3("ACB"),
            Perm3("BAC"),
            Perm3("CBA"),
        ]


class TestPrior:
    def test_uniform(self):
        prior = OrderPrior.uniform()
        assert sum(prior.weights.values()) == 1
        assert prior[IDENTITY] == Fraction(1, 6)

    def test_rejects_unnormalized(self):
        weights = {pi: Fraction(1, 7) for pi in all_orders()}
        with pytest.raises(NotADistribution):
            OrderPrior(weights)


class TestSuccessProbability:
    def test_perfect_discrimination(self):
        outputs = {pi: i for i, pi in enumerate(all_orders())}
        assert deterministic_success(outputs) == 1

    def test_single_outcome(self):
        outputs = {pi: 0 for pi in all_orders()}
        assert deterministic_success(outputs) == Fraction(1, 6)

    def test_losr_five_tuples_value(self):
        # five distinct outcomes, one collision
        outcomes = [0, 1, 2, 2, 3, 4]
        outputs = dict(zip(all_orders(), outcomes))
        assert deterministic_success(outputs) == Fraction(5, 6)

    def test_distinct_count_rule(self):
        # for deterministic outputs the success times six equals the number
        # of distinct outcomes, whatever they are
        for outcomes in itertools.product(range(3), repeat=6):
            outputs = dict(zip(all_orders(), outcomes))
            assert deterministic_success(outputs) * 6 == len(set(outcomes))

    def test_rejects_unnormalized_distribution(self):
        dists = {pi: {0: 0.5} for pi in all_orders()}
        with pytest.raises(NotADistribution):
            success_probability(dists, {0: IDENTITY})

    def test_randomized_outputs(self):
        orders = all_orders()
        dists = {pi: {0: Fraction(1, 2), 1: Fraction(1, 2)} for pi in orders}
        decoder = {0: orders[0], 1: orders[1]}
        # half the mass decodes to orders[0], half to orders[1]
        assert success_probability(dists, decoder) == Fraction(1, 6)

    def test_decoder_tie_break_lexicographic(self):
        outputs = dict(zip(all_orders(), [0, 0, 1, 2, 3, 4]))
        table = optimal_decoder(outputs)
        assert table[0] == Perm3(("A", "B", "C"))

    def test_bounds(self):
        with pytest.raises(ValueError):
            ScenarioResult("x", 1.5, "bad")

    @pytest.mark.parametrize("probability", [Fraction(1000000001, 1000000000), 1 + Fraction(1, 10**15)])
    def test_exact_probabilities_are_checked_exactly(self, probability):
        # the float slack of 1e-9 once let an exact value past 1 through
        with pytest.raises(ValueError, match="out of range"):
            ScenarioResult("x", probability, "bad")
        # the bounds themselves pass, and a float keeps its slack
        for within in (Fraction(0), Fraction(1), 0, 1, 0.0, 1.0 + 1e-10):
            assert ScenarioResult("x", within, "ok").probability == within

    def test_in_unit_interval_for_random_instances(self):
        import random

        rng = random.Random(123)
        orders = all_orders()
        for _ in range(200):
            weights = [rng.random() for _ in orders]
            total = sum(weights)
            prior = OrderPrior({pi: w / total for pi, w in zip(orders, weights)})
            dists = {}
            for pi in orders:
                mass = [rng.random() for _ in range(3)]
                s = sum(mass)
                dists[pi] = {k: m / s for k, m in enumerate(mass)}
            decoder = {k: rng.choice(orders) for k in range(3)}
            value = success_probability(dists, decoder, prior)
            assert -1e-12 <= value <= 1 + 1e-12


class TestWarmups:
    def test_two_party(self):
        result = two_party_game()
        assert result.probability == 1
        assert result.certificate["transcript"] == {"ba(0)": 0, "ab(0)": 1}

    def test_trit(self):
        result = trit_game()
        assert result.probability == 1
        run = result.certificate["runs"]["ABC"]
        assert run["records"]["A"] == 0
        assert run["final_state"] == 0
        # every order decodes perfectly: six distinct record assignments
        assert len({tuple(sorted(r["records"].items())) for r in result.certificate["runs"].values()}) == 6

    def test_deterministic_helper(self):
        assert deterministic("x") == {"x": Fraction(1)}
