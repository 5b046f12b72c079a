"""Non-signaling network scenario: wiring diagonals and the classical program.

Each hidden order corresponds to a rank-one wiring operator on the eight
network wires (the input wire, each party's in/out pair, the final wire)
built from unnormalized maximally entangled projectors across consecutive
wire pairs.  A classical strategy is a diagonal network operator per guess;
contracting it with the wiring operator of the true order gives the guess
probability.  The optimum over all non-signaling classical strategies is a
linear program.  A classical strategy is unchanged by dephasing in the
computational basis, and dephasing maps a PSD guess block to its diagonal,
which is PSD exactly when it is nonnegative; the guess probabilities and
the non-signaling equalities then read only the diagonals.  So this module
builds only the wiring operators' diagonals (:func:`objective_diagonals`); the
full operators and their contraction with a strategy block are the test
suite's reference (``tests/network_reference.py``).

Every equality reads only the summed diagonal d = sum_k D_k of the six
blocks, so the LP is stated over d: 256 entries, not 1536.  Any d >= 0 is
reached by putting each d(v) on the block whose wiring diagonal is largest
at v, and no split of d(v) scores more, so the objective weights d(v) by
max_k wiring_k(v) / 6.

Each marginal's non-signaling condition on key u is the negative of its
condition on u with the uniform bit flipped, so :func:`_doubled_constraints`
states each condition once: 225 rows over d, not 449, of the same rank 203,
held as their integer coordinates doubled.  The exact witness check sums
those coordinates and builds no float row; the dense float rows are the
test suite's reference (``tests/network_reference.py``).

The program is invariant under 12 maps of the wire bits: the six
relabelings of the parties, which move each party's in/out wire pair onto
another's, each with or without the flip of all eight bits.  Each map
permutes the entries of d so that the rows go to themselves up to sign and
the right-hand side and the objective stay fixed, so the average of an
optimal d over the 12 maps is optimal and constant on every orbit of the
maps (Gatermann & Parrilo, JPAA 192, 2004).  :func:`nonsignaling_program`
is therefore the LP over the 40 orbit values: the value of an orbit is the
value of d at each of its members, so ``solution[_orbit_labels()]`` is d.
Its rows are the doubled integer coordinates of the 225 rows summed over
each orbit and halved, so they stay dyadic; zero rows and rows that repeat
an earlier one up to sign are dropped, which leaves 31 rows of rank 31.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Mapping

import numpy as np

from .classical import BitStrategy, losr_canonical_witness, run_losr
from .game import PARTIES, Perm3, ScenarioResult, all_orders, optimal_decoder
from .solver import (
    ConicProblem,
    NonnegOrthant,
    SolveSettings,
    solve_within_bound,
)
from .tensor import (
    NETWORK_LAYOUT,
    A_IN,
    A_OUT,
    B_IN,
    B_OUT,
    C_IN,
    C_OUT,
    S_FINAL,
    S_PREP,
    Space,
)

IN_WIRE = {"A": A_IN, "B": B_IN, "C": C_IN}
OUT_WIRE = {"A": A_OUT, "B": B_OUT, "C": C_OUT}

_POS = {space: i for i, space in enumerate(NETWORK_LAYOUT)}
_SIDE = 256
_TOTAL_TRACE = 16


def _wire_pairs(pi: Perm3) -> list[tuple[Space, Space]]:
    """The four wire pairs an order connects, from preparation to final wire."""
    first, second, third = pi.order
    return [
        (S_PREP, IN_WIRE[first]),
        (OUT_WIRE[first], IN_WIRE[second]),
        (OUT_WIRE[second], IN_WIRE[third]),
        (OUT_WIRE[third], S_FINAL),
    ]


#: Row i holds the bit of wire i of the canonical layout in every basis index.
_BITS = (np.arange(_SIDE) >> (7 - np.arange(len(NETWORK_LAYOUT)))[:, None]) & 1
_BITS.flags.writeable = False


def _bit(space: Space) -> np.ndarray:
    """The bit of ``space`` in every basis index of the canonical layout (read-only)."""
    return _BITS[_POS[space]]


def objective_diagonals() -> np.ndarray:
    """The six orders' wiring diagonals in the computational basis, stacked as a (6, 256) array.

    Row k belongs to ``all_orders()[k]``.  The diagonal of an unnormalized
    maximally entangled projector is 1 where the pair's two bits agree and 0
    elsewhere, so the diagonal of the chained operator is the product of
    those indicators over the order's four wire pairs; no operator is built.
    """
    pairs = np.array([[(_POS[left], _POS[right]) for left, right in _wire_pairs(pi)] for pi in all_orders()])
    return (_BITS[pairs[..., 0]] == _BITS[pairs[..., 1]]).all(axis=1).astype(float)


# ---------------------------------------------------------------------------
# the classical non-signaling program
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _doubled_constraints() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The constraint rows doubled to integers, by their nonzeros: ``(row, coef, rhs)``, read-only.

    ``row`` and ``coef`` are (5, 256) int arrays with one line per marginal
    and one for the trace row: column v has exactly one nonzero in each,
    on row ``row[m, v]`` with value ``coef[m, v]``.  A marginal's condition
    on key u is stated once, on the u with the uniform bit clear, and its
    rows run over those keys in increasing order.  So column v sits on the
    row of its key with that bit compressed out, with +1 when the bit is
    clear and -1 when it is set; the trace row has 2 everywhere, and
    ``rhs`` is 0 but for twice the total trace on the trace row.
    """
    # (key, uniform bit) per marginal: the final wire keys the whole index; a
    # party keys the six bits left without S_F and its out wire, in wire order
    marginals = [(np.arange(_SIDE), 1)]
    for party in ("A", "B", "C"):
        kept = [s for s in NETWORK_LAYOUT if s not in (OUT_WIRE[party], S_FINAL)]
        key = sum(_bit(s) << (5 - i) for i, s in enumerate(kept))
        marginals.append((key, 1 << (5 - kept.index(IN_WIRE[party]))))
    row, coef = [], []
    at = 0
    for key, bit in marginals:
        low = bit - 1
        row.append(at + (((key >> 1) & ~low) | (key & low)))
        coef.append(np.where(key & bit, -1, 1))
        at += (int(key.max()) + 1) // 2
    row.append(np.full(_SIDE, at))
    coef.append(np.full(_SIDE, 2))
    rhs = np.zeros(at + 1, dtype=int)
    rhs[at] = 2 * _TOTAL_TRACE
    arrays = np.array(row), np.array(coef), rhs
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=None)
def _orbit_labels() -> np.ndarray:
    """The orbit of every entry of the summed diagonal under the program's 12 symmetries, read-only.

    A party relabeling moves each party's in and out wire bits onto the
    wires of its image, and the flip complements all eight bits.  The 40
    orbits are numbered from 0 in increasing order of their smallest member.
    """
    # row k, column i: the place value of the wire that relabeling k moves wire i to
    values = []
    for rho in all_orders():
        target = {wire[party]: wire[rho.apply(party)] for wire in (IN_WIRE, OUT_WIRE) for party in PARTIES}
        values.append([1 << (7 - _POS[target.get(s, s)]) for s in NETWORK_LAYOUT])
    images = np.array(values) @ _BITS
    # the smallest of each index's 12 images: each relabeling's, and its flip
    smallest = np.minimum(images, images ^ (_SIDE - 1)).min(axis=0)
    labels = np.cumsum(smallest == np.arange(_SIDE))[smallest] - 1
    labels.flags.writeable = False
    return labels


def nonsignaling_program() -> ConicProblem:
    """The non-signaling optimum as an LP over the 40 orbit values of the summed diagonal.

    Each row of :func:`_doubled_constraints` is summed over every orbit of
    :func:`_orbit_labels` on its integer coordinates.  A row that is zero
    with its right-hand side, or that repeats an earlier row with it up to
    sign, is dropped: each line of row and right-hand side is compared as
    integers, negated if its first nonzero is negative, so no signed zero
    can tell two lines apart.  The rows and right-hand side left are then
    halved, and the objective sums max_k wiring_k(v) / 6 over each orbit.
    """
    labels = _orbit_labels()
    n_orbits = int(labels.max()) + 1
    row, coef, rhs = _doubled_constraints()
    summed = np.zeros((len(rhs), n_orbits + 1), dtype=int)
    np.add.at(summed, (row, labels), coef)
    summed[:, -1] = rhs
    # the sign of each line's first nonzero, 0 for a zero line
    sign = np.sign(summed[np.arange(len(rhs)), np.argmax(summed != 0, axis=1)])
    canonical = summed * sign[:, None]
    # each line's bytes as one hashable key
    keys = canonical.view(np.dtype((np.void, canonical.itemsize * canonical.shape[1]))).ravel().tolist()
    first = {}
    kept = [
        r for r, (nonzero, key) in enumerate(zip(sign.tolist(), keys)) if nonzero and first.setdefault(key, r) == r
    ]
    return ConicProblem(
        blocks=[NonnegOrthant(n_orbits)],
        objective=np.bincount(labels, weights=objective_diagonals().max(axis=0)) / 6.0,
        a=summed[kept, :-1] / 2,
        b=summed[kept, -1] / 2,
    )


def solve_nonsignaling(settings: SolveSettings | None = None) -> ScenarioResult:
    """Solve the non-signaling LP and package the certificate."""
    report = solve_within_bound("non-signaling", nonsignaling_program(), Fraction(1), settings)
    return ScenarioResult(
        scenario="nonsignaling",
        probability=report.objective_value,
        strategy="six diagonal guess blocks optimized over all non-signaling "
        "classical strategies",
        certificate={"solver": report.jsonable(), "min_entry": float(report.solution.min())},
    )


# ---------------------------------------------------------------------------
# exact embedding of the memory-strategy witness as a feasible point
# ---------------------------------------------------------------------------


def strategy_network_blocks(
    a: BitStrategy | None = None,
    b: BitStrategy | None = None,
    c: BitStrategy | None = None,
) -> dict[Perm3, np.ndarray]:
    """Deterministic memory strategy as six exact diagonal guess blocks.

    The blocks encode: prepare 0 on the input wire, forward each party's
    map on its out wire, and decode the guess from the final bit together
    with the three received bits (read off the in wires).  Each block is a
    0/1 mask over the wire-bit table :func:`_bit`, with Python ``int``
    entries in an ``object`` array.
    """
    if a is None:
        a, b, c = losr_canonical_witness()
    orders = all_orders()
    outcomes = {pi: run_losr(pi, a, b, c, 0).as_tuple() for pi in orders}
    # the indices the strategy reaches: 0 on the input wire, and each out
    # wire carrying its party's map of the in wire
    reached = _bit(S_PREP) == 0
    for party, strategy in (("A", a), ("B", b), ("C", c)):
        reached &= _bit(OUT_WIRE[party]) == np.where(_bit(IN_WIRE[party]), strategy(1), strategy(0))
    # tuples no wiring produces still need a guess, or the measurement is
    # not a complete network: they get the first order, at no objective weight
    observed = np.stack([_bit(s) for s in (S_FINAL, A_IN, B_IN, C_IN)], axis=1)
    guess = np.zeros(_SIDE, dtype=int)
    for outcome, pi in optimal_decoder(outcomes).items():
        guess[np.all(observed == outcome, axis=1)] = orders.index(pi)
    return {pi: np.where(reached & (guess == k), 1, 0).astype(object) for k, pi in enumerate(orders)}


def witness_feasibility(blocks: Mapping[Perm3, np.ndarray]) -> dict:
    """Exact feasibility and objective of diagonal guess blocks.

    The left-hand sides are summed exactly over the integer coordinates of
    :func:`_doubled_constraints`, and their violation is halved once.  The
    objective sums each block over its exact 0/1 wiring diagonal and
    divides once by 6.
    """
    row, doubled, doubled_rhs = _doubled_constraints()
    summed = sum(np.asarray(diag, dtype=object) for diag in blocks.values())
    lhs = np.zeros(len(doubled_rhs), dtype=object)
    np.add.at(lhs, row.ravel(), (doubled.astype(object) * summed).ravel())
    max_violation = Fraction(max(np.abs(lhs - doubled_rhs)), 2)
    # each wiring diagonal is exactly 0/1: sum the blocks over their supports, divide once
    stacked = np.array([np.asarray(blocks[pi], dtype=object) for pi in all_orders()])
    objective = Fraction(stacked[objective_diagonals() != 0].sum(), 6)
    return {"feasible": max_violation == 0, "max_violation": max_violation, "objective": objective}
