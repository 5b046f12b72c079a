"""Exhaustive search over deterministic classical strategies.

Memoryless parties are plain bit maps; memory parties additionally record
the bit they received and expose it to the final guess.  Both search spaces
are tiny (128 and 64 cases) and are enumerated completely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .game import Perm3, ScenarioResult, all_orders, optimal_decoder


@dataclass(frozen=True)
class BitStrategy:
    """A party's deterministic bit map, given by its outputs on 0 and 1.

    The same type serves both searches: under :func:`run_losr` the party
    also records the bit it received.
    """

    on_zero: int
    on_one: int

    def __call__(self, x: int) -> int:
        return self.on_one if x else self.on_zero

    def describe(self) -> str:
        return f"({self.on_zero},{self.on_one})"


class OutcomeTuple(NamedTuple):
    """Final system bit plus the three recorded inputs."""

    s_out: int
    x_a: int | None
    x_b: int | None
    x_c: int | None

    def as_tuple(self) -> tuple:
        return tuple(self)


def all_bit_strategies() -> list[BitStrategy]:
    return [BitStrategy(z, o) for z in (0, 1) for o in (0, 1)]


def run_memoryless(pi: Perm3, a: BitStrategy, b: BitStrategy, c: BitStrategy, input_bit: int) -> int:
    maps = {"A": a, "B": b, "C": c}
    state = input_bit
    for party in pi.order:
        state = maps[party](state)
    return state


def search_memoryless() -> ScenarioResult:
    """Try both inputs and all 4^3 bit-map triples; best is 2 distinct outputs."""
    best = None
    for input_bit in (0, 1):
        for a, b, c in itertools.product(all_bit_strategies(), repeat=3):
            outputs = {pi: run_memoryless(pi, a, b, c, input_bit) for pi in all_orders()}
            count = len(set(outputs.values()))
            if best is None or count > best[0]:
                best = (count, input_bit, (a, b, c), outputs)
    count, input_bit, (a, b, c), outputs = best
    return ScenarioResult(
        scenario="classical-memoryless",
        probability=Fraction(count, 6),
        strategy=(
            f"input {input_bit}; a={a.describe()}, b={b.describe()}, c={c.describe()}; "
            f"{count} distinct final bits"
        ),
        certificate={
            "cases_searched": 128,
            "distinct_outputs": count,
            "outputs": {pi.name: v for pi, v in sorted(outputs.items())},
            "decoder": {str(o): pi.name for o, pi in optimal_decoder(outputs).items()},
        },
    )


def run_losr(
    pi: Perm3,
    a: BitStrategy,
    b: BitStrategy,
    c: BitStrategy,
    input_bit: int,
) -> OutcomeTuple:
    maps = {"A": a, "B": b, "C": c}
    records: dict[str, int] = {}
    state = input_bit
    for party in pi.order:
        records[party] = state
        state = maps[party](state)
    return OutcomeTuple(state, records["A"], records["B"], records["C"])


def _losr_distinct(input_bit: int) -> list[tuple[int, tuple[BitStrategy, BitStrategy, BitStrategy]]]:
    """Each of the 64 memory triples with its distinct-tuple count, in search order."""
    return [
        (len({run_losr(pi, a, b, c, input_bit).as_tuple() for pi in all_orders()}), (a, b, c))
        for a, b, c in itertools.product(all_bit_strategies(), repeat=3)
    ]


def search_losr() -> ScenarioResult:
    """All 4^3 memory triples on input 0; input 1 is re-run as a cross-check."""
    # max keeps the first triple of a tie
    count, (a, b, c) = max(_losr_distinct(0), key=lambda pair: pair[0])
    best_input1 = max(count for count, _ in _losr_distinct(1))
    outputs = {pi: run_losr(pi, a, b, c, 0) for pi in all_orders()}
    tuples = {pi: t.as_tuple() for pi, t in outputs.items()}
    return ScenarioResult(
        scenario="losr",
        probability=Fraction(count, 6),
        strategy=(
            f"input 0; a={a.describe()}, b={b.describe()}, c={c.describe()}; "
            f"every party records its received bit; {count} distinct tuples"
        ),
        certificate={
            "cases_searched": 64,
            "distinct_tuples": count,
            "distinct_tuples_input_1": best_input1,
            "tuples": {pi.name: t for pi, t in sorted(tuples.items())},
            "decoder": {str(t): pi.name for t, pi in optimal_decoder(tuples).items()},
        },
    )


def losr_histogram() -> dict[int, int]:
    """How many of the 64 memory triples reach each distinct-tuple count."""
    hist = {k: 0 for k in range(1, 7)}
    for count, _ in _losr_distinct(0):
        hist[count] += 1
    return hist


def losr_canonical_witness() -> tuple[BitStrategy, BitStrategy, BitStrategy]:
    """The canonical optimum: a forwards 0 always, b and c forward 1 always."""
    return (BitStrategy(0, 0), BitStrategy(1, 1), BitStrategy(1, 1))
