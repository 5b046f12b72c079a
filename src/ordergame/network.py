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
held as their integer coordinates doubled.  The marginals are stated once,
as wire masks in :data:`_MARGINALS`, and the orders' wire chains once, in
:data:`_CHAINS`; the LP's rows and objective and the exact witness
check all read them.  The witness check builds no row: it walks the blocks'
nonzero integer numerators once, adding each to its key on every marginal,
to the trace and, where its order's chain agrees, to the objective.  The
dense float rows are the test suite's reference
(``tests/network_reference.py``).

The program is invariant under 12 maps of the wire bits: the six
relabelings of the parties, which move each party's in/out wire pair onto
another's, each with or without the flip of all eight bits.  The
relabelings are read off :data:`_CHAINS`: an order's chain, read in wire
order, sends each wire to the matching wire of the order's parties.  Each map
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
import itertools
from fractions import Fraction
from typing import Mapping

import numpy as np

from .classical import BitStrategy, losr_canonical_witness, run_losr
from .game import Perm3, ScenarioResult, all_orders, optimal_decoder, per_order
from .solver import (
    ConicProblem,
    NonnegOrthant,
    SolveSettings,
    solve_within_bound,
)
from .tensor import NETWORK_LAYOUT, _numerators

_SIDE = 256
_TOTAL_TRACE = 16


#: Row i holds the bit of wire i of the canonical layout in every basis index.
_BITS = (np.arange(_SIDE) >> (7 - np.arange(len(NETWORK_LAYOUT)))[:, None]) & 1
_BITS.flags.writeable = False


#: Each non-signaling marginal of the summed diagonal as ``(uniform, ignored)``: the
#: place values, in a basis index, of the wire whose bit it averages over and of the
#: wires it ignores.  Bits run high to low over NETWORK_LAYOUT, S_P A_I A_O B_I B_O C_I
#: C_O S_F: the final wire's marginal, then party A's, B's and C's, each uniform in
#: the party's in wire and ignoring its out wire and the final wire.
_MARGINALS = ((0b00000001, 0), (0b01000000, 0b00100001), (0b00010000, 0b00001001), (0b00000100, 0b00000011))


#: The wire positions each order chains, S_PREP to S_FINAL: row k belongs to
#: ``all_orders()[k]``, and entries 2j and 2j + 1 are the wires of its pair j
#: (party p's in and out wires are 2p + 1 and 2p + 2 of NETWORK_LAYOUT).
_CHAINS = tuple((0, *(w for p in pi.parties for w in (2 * p + 1, 2 * p + 2)), 7) for pi in all_orders())


def objective_diagonals() -> np.ndarray:
    """The six orders' wiring diagonals in the computational basis, stacked as a (6, 256) array.

    Row k belongs to ``all_orders()[k]``.  The diagonal of an unnormalized
    maximally entangled projector is 1 where the pair's two bits agree and 0
    elsewhere, so the diagonal of the chained operator is the product of
    those indicators over the order's four wire pairs; no operator is built.
    """
    bits = _BITS[np.array(_CHAINS)]
    # logical_and.reduce, not .all(): a fresh process pays about 20 µs more for its first .all()
    return np.logical_and.reduce(bits[:, 0::2] == bits[:, 1::2], axis=1).astype(float)


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
    # a line's row and coefficient are affine in the wire bits: a marginal
    # keys its rows by the wires left once its uniform wire and the wires it
    # ignores are taken out, in wire order, and flips sign with its uniform wire
    wires = range(len(NETWORK_LAYOUT))
    lines, starts = [], [0]
    for uniform, ignored in _MARGINALS:
        kept = [i for i in wires if not (uniform | ignored) >> (7 - i) & 1]
        key = [1 << (len(kept) - 1 - kept.index(i)) if i in kept else 0 for i in wires]
        lines.append((key, [-2 * (uniform >> (7 - i) & 1) for i in wires]))
        starts.append(starts[-1] + (1 << len(kept)))
    # the trace row: 2 on every column
    lines.append(([0] * len(wires),) * 2)
    row_coef = np.array(lines).swapaxes(0, 1) @ _BITS + np.array([starts, [1] * (len(starts) - 1) + [2]])[..., None]
    rhs = np.zeros(starts[-1] + 1, dtype=int)
    rhs[-1] = 2 * _TOTAL_TRACE
    row_coef.flags.writeable = rhs.flags.writeable = False
    return (*row_coef, rhs)


@functools.lru_cache(maxsize=None)
def _orbit_labels() -> np.ndarray:
    """The orbit of every entry of the summed diagonal under the program's 12 symmetries, read-only.

    A party relabeling moves each party's in and out wire bits onto the
    wires of its image, and the flip complements all eight bits.  Row k of
    :data:`_CHAINS` lists, in wire order, where relabeling k sends each
    wire.  The 40 orbits are numbered from 0 in increasing order of their
    smallest member.
    """
    # row k, column i: the place value of the wire that relabeling k moves wire i to
    images = (1 << (7 - np.array(_CHAINS))) @ _BITS
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
    with the three received bits (read off the in wires), as :func:`optimal_decoder`
    decodes each order's :func:`run_losr` on input 0.  Each block is an
    int64 0/1 mask over the basis indices of :data:`NETWORK_LAYOUT`.
    With no strategies the blocks are :func:`losr_canonical_witness`'s; a
    partial triple raises ``ValueError``.
    """
    missing = [name for name, strategy in zip("abc", (a, b, c)) if strategy is None]
    if len(missing) == 3:
        a, b, c = losr_canonical_witness()
    elif missing:
        raise ValueError(f"strategies {', '.join(missing)} are missing: give all three or none")
    orders = all_orders()
    decode = optimal_decoder({pi: run_losr(pi, a, b, c, 0) for pi in orders})
    blocks = dict(zip(orders, np.zeros((len(orders), _SIDE), dtype=np.int64)))
    # the strategy reaches 16 indices: 0 on the input wire, each out wire
    # carrying its party's map of the in wire, and either final bit; an
    # index's bits, high to low, are the wires of NETWORK_LAYOUT
    for x_a, x_b, x_c, s_f in itertools.product((0, 1), repeat=4):
        index = x_a << 6 | a(x_a) << 5 | x_b << 4 | b(x_b) << 3 | x_c << 2 | c(x_c) << 1 | s_f
        # outcomes no wiring produces still need a guess, or the measurement
        # is not a complete network: they get the first order, at no objective weight
        blocks[decode.get((s_f, x_a, x_b, x_c), orders[0])][index] = 1
    return blocks


def witness_feasibility(blocks: Mapping[Perm3, np.ndarray]) -> dict:
    """Exact feasibility and objective of diagonal guess blocks, read off their nonzero entries.

    The blocks become integer numerators over one denominator through
    :func:`~ordergame.tensor._numerators`, so float entries convert exactly,
    and the sums run on Python ints, which cannot wrap.  Each nonzero entry
    is added to one key per marginal of :data:`_MARGINALS`: its basis index
    with that marginal's uniform and ignored wire bits cleared, negated when
    the uniform bit is set.  Each key's sum is that doubled row's left-hand
    side, and every row with no entry reads 0, as its right-hand side does.
    The trace row compares the sum of all entries with the total trace 16,
    and the objective sums the entries whose bits agree on every wire pair
    their order chains (:data:`_CHAINS`), divided once by 6.  The blocks are
    feasible when no row is violated and no entry is negative.  Raises
    ``ValueError`` unless the blocks are keyed by exactly the six orders
    and stack to shape ``(6, 256)``.
    """
    nums, den = _numerators(np.array(per_order(blocks, "block")))
    if nums.shape != (6, _SIDE):
        raise ValueError(f"need six blocks of {_SIDE} entries, not blocks stacked as {nums.shape}")
    orders, indices = np.nonzero(nums)
    values = nums[orders, indices].tolist()
    # each marginal's doubled rows, by key; the trace; the objective
    keyed = [{} for _ in _MARGINALS]
    trace = objective = 0
    for order, index, value in zip(orders.tolist(), indices.tolist(), values):
        for sums, (uniform, ignored) in zip(keyed, _MARGINALS):
            key = index & ~(uniform | ignored)
            sums[key] = sums.get(key, 0) + (-value if index & uniform else value)
        trace += value
        bits = [index >> 7 - position & 1 for position in _CHAINS[order]]
        if bits[0::2] == bits[1::2]:
            objective += value
    # each violation doubled: twice the trace row's, and each key's signed sum
    doubled = [2 * abs(trace - _TOTAL_TRACE * den), *(abs(x) for sums in keyed for x in sums.values())]
    return {
        # every value is a nonzero entry: none negative means all positive
        "feasible": max(doubled) == 0 and all(value > 0 for value in values),
        "max_violation": Fraction(max(doubled), 2 * den),
        "objective": Fraction(objective, 6 * den),
    }
