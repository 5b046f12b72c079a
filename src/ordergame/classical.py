"""Exhaustive search over deterministic classical strategies.

Memoryless parties are plain bit maps; memory parties additionally record
the bit they received and expose it to the final guess.  Both search spaces
are tiny (128 and 64 cases) and are enumerated completely, all at once, by
one integer run table (:func:`_run_table`).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .game import Perm3, ScenarioResult, all_orders, optimal_decoder
from .tensor import FrozenRecord


def _check_bit(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is the int 0 or 1; a bool is refused."""
    if type(value) is not int or value not in (0, 1):
        raise ValueError(f"{name} must be the int 0 or 1, not {value!r}")


class BitStrategy(FrozenRecord):
    """A party's deterministic bit map, given by its outputs on 0 and 1.

    The same type serves both searches: under :func:`run_losr` the party
    also records the bit it received.  Each output must be the int 0 or 1.
    """

    __slots__ = ("on_zero", "on_one")

    def __init__(self, on_zero: int, on_one: int):
        _check_bit("on_zero", on_zero)
        _check_bit("on_one", on_one)
        super().__init__(on_zero, on_one)

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
    """The final system bit: recording inputs changes no bit passed on, so it is :func:`run_losr`'s ``s_out``."""
    return run_losr(pi, a, b, c, input_bit).s_out


@functools.lru_cache(maxsize=None)
def _run_table() -> np.ndarray:
    """Record codes of every run, indexed ``[input_bit, order, triple]``: shape ``(2, 6, 64)``, read-only.

    Triple ``16a + 4b + c`` holds the strategies at indices a, b, c of
    :func:`all_bit_strategies`, the order of ``product(all_bit_strategies(),
    repeat=3)``; strategy ``s = 2 on_zero + on_one`` maps bit x to
    ``(s >> (1 - x)) & 1``.  A code is the run's :class:`OutcomeTuple` as
    the bits ``8 s_out + 4 x_a + 2 x_b + x_c``, so ``code >> 3`` is the
    memoryless final bit.
    """
    triples = np.arange(64)
    # party p's output on bit x in triple t: bit 1 - x of its strategy, bit 5 - 2p - x of t
    output = triples >> np.array([[[5], [4]], [[3], [2]], [[1], [0]]]) & 1  # (party, x, triple)
    movers = np.array([pi.parties for pi in all_orders()]).T[:, :, None]  # (step, order, 1)
    state = np.array([[[0]], [[1]]])  # the input bit, broadcast over orders and triples
    codes = 0
    for party in movers:
        codes = codes | state << 2 - party
        state = output[party, state, triples]
    codes = codes | state << 3
    codes.flags.writeable = False
    return codes


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The number of distinct 4-bit codes along the order axis (axis 1) of ``codes``.

    Each code sets its bit of a 16-bit mask, and the mask's set bits are
    counted.  A sort along the axis gives the same counts, but pages in
    numpy's sort kernels, about 0.3 MB of a fresh interpreter's peak RSS.
    """
    return np.bitwise_count(np.bitwise_or.reduce(1 << codes, axis=1))


def _triple(index: int) -> tuple[BitStrategy, BitStrategy, BitStrategy]:
    """The strategies (a, b, c) of triple ``16a + 4b + c`` of :func:`_run_table`."""
    strategies = all_bit_strategies()
    return strategies[index >> 4], strategies[(index >> 2) & 3], strategies[index & 3]


def search_memoryless() -> ScenarioResult:
    """Try both inputs and all 4^3 bit-map triples; best is 2 distinct outputs."""
    final = _run_table() >> 3
    counts = _distinct(final)
    # the first maximum in search order: input 0 first, then triples in order
    input_bit, index = divmod(int(np.argmax(counts)), 64)
    count = int(counts[input_bit, index])
    a, b, c = _triple(index)
    outputs = dict(zip(all_orders(), final[input_bit, :, index].tolist()))
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
            "outputs": {pi.name: v for pi, v in outputs.items()},
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
    """The run of order ``pi`` on ``input_bit``, the int 0 or 1: the final bit and the bit each party received.

    Raises ``ValueError`` unless a, b and c are :class:`BitStrategy` values.
    """
    for name, strategy in zip("abc", (a, b, c)):
        if not isinstance(strategy, BitStrategy):
            raise ValueError(f"strategy {name} must be a BitStrategy, not {strategy!r}")
    _check_bit("input_bit", input_bit)
    records = [0] * 3
    state = input_bit
    for party in pi.parties:
        records[party], state = state, (a, b, c)[party](state)
    return OutcomeTuple(state, *records)


def search_losr() -> ScenarioResult:
    """All 4^3 memory triples on input 0; input 1 is re-run as a cross-check."""
    table = _run_table()
    counts = _distinct(table)
    index = int(np.argmax(counts[0]))  # the first triple of a tie
    count, best_input1 = int(counts[0, index]), int(counts[1].max())
    a, b, c = _triple(index)
    # each run's OutcomeTuple, read off its code's bits
    codes = table[0, :, index].tolist()
    tuples = {pi: (code >> 3, code >> 2 & 1, code >> 1 & 1, code & 1) for pi, code in zip(all_orders(), codes)}
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
            "tuples": {pi.name: t for pi, t in tuples.items()},
            "decoder": {str(t): pi.name for t, pi in optimal_decoder(tuples).items()},
        },
    )


def losr_canonical_witness() -> tuple[BitStrategy, BitStrategy, BitStrategy]:
    """The canonical optimum: a forwards 0 always, b and c forward 1 always."""
    return (BitStrategy(0, 0), BitStrategy(1, 1), BitStrategy(1, 1))
