"""The order-guessing game itself.

Three parties A, B, C are arranged in a hidden order (an element of S3),
each applies a local map to a system passed down the line, and afterwards
they jointly guess the order from whatever they can observe.  This module
holds the permutation type, the result record, the optimal decoder for
deterministic outputs and the two warm-up games (two parties, and three
parties exchanging a trit).
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Hashable, Mapping, Sequence

from .tensor import FrozenRecord, ratio_str

PARTIES = ("A", "B", "C")


class TranscriptMismatch(RuntimeError):
    """A warm-up game's run does not end as its strategy claims."""


@functools.total_ordering
class Perm3(FrozenRecord):
    """A hidden order: the parties listed first-mover first.

    Orders compare as their ``order`` tuples, so they sort lexicographically.
    """

    __slots__ = ("order",)

    def __init__(self, order: Sequence[str]):
        order = tuple(order)
        if sorted(order) != sorted(PARTIES):
            raise ValueError(f"not an ordering of {PARTIES}: {order}")
        super().__init__(order)

    def __lt__(self, other):
        return self.order < other.order if other.__class__ is self.__class__ else NotImplemented

    @property
    def name(self) -> str:
        return "".join(self.order)

    @property
    def parties(self) -> tuple[int, ...]:
        """The movers as indices into :data:`PARTIES`, first mover first."""
        return _MOVERS[self.order]

    def __str__(self) -> str:
        return self.name


_ORDERS = tuple(Perm3(order) for order in itertools.permutations(PARTIES))
#: Each order's movers by its party labels: both permutations run in the same lexicographic order.
_MOVERS = dict(zip(itertools.permutations(PARTIES), itertools.permutations(range(len(PARTIES)))))


def all_orders() -> list[Perm3]:
    """The six orders, lexicographic in the party labels: a new list on each call."""
    return list(_ORDERS)


def per_order(values: Mapping[Perm3, object], what: str) -> list:
    """The six orders' values, in :func:`all_orders` order.

    Raises ``ValueError``, naming the keys, unless ``values`` is keyed by
    exactly the six orders; ``what`` names one value in the message.
    """
    try:
        listed = [values[pi] for pi in _ORDERS]
    except KeyError:
        listed = None
    # six keys that include all six orders are exactly the orders
    if listed is None or len(values) != 6:
        raise ValueError(f"need one {what} per order, keyed by the six orders, not by {sorted(map(str, values))}")
    return listed


class ScenarioResult:
    """One solved scenario: the headline probability plus its evidence.

    ``certificate`` defaults to a new empty dict per result.  An exact
    probability must lie in [0, 1]; a float one may pass 1 by 1e-9.
    """

    def __init__(self, scenario: str, probability: Fraction | float, strategy: str, certificate: dict | None = None):
        if isinstance(probability, (Fraction, int)):
            in_range = 0 <= probability <= 1
        else:
            in_range = 0.0 <= float(probability) <= 1.0 + 1e-9
        if not in_range:
            raise ValueError(f"probability out of range: {probability}")
        self.scenario = scenario
        self.probability = probability
        self.strategy = strategy
        self.certificate = {} if certificate is None else certificate

    @property
    def probability_float(self) -> float:
        return float(self.probability)

    @property
    def probability_exact(self) -> str | None:
        if isinstance(self.probability, (Fraction, int)):
            return ratio_str(self.probability)
        return None


Outcome = Hashable


def optimal_decoder(outputs: Mapping[Perm3, Outcome]) -> dict[Outcome, Perm3]:
    """Best guess per outcome for deterministic outputs.

    Each distinct outcome is decoded to one order that produces it; ties are
    resolved toward the lexicographically smallest order, which never changes
    the success count.
    """
    table: dict[Outcome, Perm3] = {}
    # the orders run lexicographically, so an outcome's first order is its smallest
    for pi in _ORDERS:
        table.setdefault(outputs[pi], pi)
    return table


# ---------------------------------------------------------------------------
# warm-up games
# ---------------------------------------------------------------------------


def two_party_game() -> ScenarioResult:
    """Alice always sends 1, Bob negates: two players always win."""
    alice = lambda x: 1
    bob = lambda x: 1 - x
    ba = bob(alice(0))   # Alice first
    ab = alice(bob(0))   # Bob first
    if (ba, ab) != (0, 1):
        raise TranscriptMismatch(f"final bits {(ba, ab)} do not tell the orders apart")
    outputs = {"AB": ba, "BA": ab}
    return ScenarioResult(
        scenario="two-party",
        probability=Fraction(1),
        strategy="input 0; a(x)=1, b(x)=1-x; read the final bit",
        certificate={"transcript": {"ba(0)": ba, "ab(0)": ab}, "outputs": outputs},
    )


def trit_game() -> ScenarioResult:
    """Three players exchanging a trit: record the input, forward input+1 mod 3."""
    runs = {}
    for pi in all_orders():
        state = 0
        records = {}
        for party in pi.order:
            records[party] = state
            state = (state + 1) % 3
        # each party's record equals its (0-based) position in the line
        decoded = tuple(sorted(records, key=records.__getitem__))
        if decoded != pi.order or state != 0:
            raise TranscriptMismatch(
                f"order {pi.name}: records decode to {decoded}, final trit {state}"
            )
        runs[pi.name] = {"records": records, "final_state": state}
    return ScenarioResult(
        scenario="trit",
        probability=Fraction(1),
        strategy="trit input 0; every party records its input and forwards input+1 mod 3",
        certificate={"runs": runs},
    )
