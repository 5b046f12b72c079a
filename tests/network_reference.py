"""Reference operators of the network scenario, kept as the tests' physics oracles.

The package builds only the wiring operators' diagonals
(:func:`ordergame.network.objective_diagonals`) and the LP over them.  Here each
order's full 256x256 wiring operator is built from unnormalized maximally
entangled projectors across the wire pairs the order connects, and a
strategy block is contracted with it by the link-product rule: the trace
of their product.  The dense float constraint rows, the 256-column LP the
package reduces to its 40 symmetry orbits, and the lift of a solution back
onto six guess blocks, are here too, with the formulations the package's
wiring diagonals and witness check replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ordergame.game import Perm3, all_orders
from ordergame.network import _doubled_constraints, _orbit_labels, objective_diagonals
from ordergame.solver import ConicProblem, NonnegOrthant, SolveReport
from ordergame.tensor import (
    A_IN,
    A_OUT,
    B_IN,
    B_OUT,
    C_IN,
    C_OUT,
    NETWORK_LAYOUT,
    LabeledOperator,
    LayoutMismatch,
    NotHermitian,
    S_FINAL,
    S_PREP,
    Space,
    kron,
    permute_to_layout,
)

#: Each party's in and out wire by name: the package reads its wires by position, off ``network._CHAINS``.
IN_WIRE = {"A": A_IN, "B": B_IN, "C": C_IN}
OUT_WIRE = {"A": A_OUT, "B": B_OUT, "C": C_OUT}


def wire_pairs(pi: Perm3) -> list[tuple[Space, Space]]:
    """The four wire pairs an order connects, from preparation to final wire."""
    first, second, third = pi.order
    return [
        (S_PREP, IN_WIRE[first]),
        (OUT_WIRE[first], IN_WIRE[second]),
        (OUT_WIRE[second], IN_WIRE[third]),
        (OUT_WIRE[third], S_FINAL),
    ]


def max_entangled_projector(left: Space, right: Space) -> LabeledOperator:
    """Unnormalized projector sum_ij |ii><jj| across a wire pair (exact 0/1)."""
    ket = np.eye(left.dim, dtype=int).reshape(-1)  # unequal wires: LayoutMismatch
    return LabeledOperator((left, right), np.outer(ket, ket), exact=True)


@dataclass(frozen=True)
class OrderProcess:
    """Wiring operator of one hidden order on the canonical network layout."""

    pi: Perm3
    op: LabeledOperator


def order_process(pi: Perm3) -> OrderProcess:
    """Chain the four wire pairs of the order and align to the canonical layout."""
    op = None
    for left, right in wire_pairs(pi):
        factor = max_entangled_projector(left, right)
        op = factor if op is None else kron(op, factor)
    op = permute_to_layout(op, NETWORK_LAYOUT)
    # the contraction below uses plain products, which needs entrywise
    # symmetry; it holds because every factor is real 0/1
    if not np.all(op.data == op.data.T):
        raise NotHermitian(f"wiring operator of {pi.name} is not entrywise symmetric")
    return OrderProcess(pi=pi, op=op)


@dataclass(frozen=True)
class NetworkBlock:
    """One guess block of a strategy: a Hermitian operator on the network wires."""

    pi: Perm3
    op: LabeledOperator


def link_probability(block: NetworkBlock, process: OrderProcess) -> float:
    """Contract a strategy block with a wiring operator: trace of their product."""
    op = block.op
    if set(op.layout) != set(NETWORK_LAYOUT):
        raise LayoutMismatch("network block must live on the eight network wires")
    op = permute_to_layout(op, NETWORK_LAYOUT)
    lhs = np.asarray(op.to_float().data)
    rhs = np.asarray(process.op.to_float().data)
    return float(np.real(np.trace(lhs @ rhs)))


def constraint_rows() -> tuple[np.ndarray, np.ndarray]:
    """Equality rows acting on the summed diagonal of the six guess blocks.

    Returns (rows, rhs) with rows of shape (225, 256): 128 final-wire
    marginal rows, 32 per party, and one total-trace row.  A marginal's
    condition on key u reads +1 where the key is u, less 1/2 where it equals
    u up to the bit that must be uniform; the conditions on u and u ^ bit are
    exact negatives, so each is stated once, on the u with the bit clear, as
    1/2 where the key is u and -1/2 where it is u | bit.  The rows and rhs
    are :func:`ordergame.network._doubled_constraints` halved, so every
    coefficient is dyadic and the float rows convert losslessly to exact
    rationals.
    """
    row, coef, rhs = _doubled_constraints()
    side = row.shape[1]
    rows = np.zeros((len(rhs), side))
    np.put(rows, row * side + np.arange(side), coef / 2)
    return rows, rhs / 2


def full_nonsignaling_program() -> ConicProblem:
    """The non-signaling LP over all 256 entries of the summed diagonal, before the orbit reduction."""
    rows, rhs = constraint_rows()
    return ConicProblem(
        blocks=[NonnegOrthant(rows.shape[1])],
        objective=objective_diagonals().max(axis=0) / 6.0,
        a=rows,
        b=rhs,
    )


def solution_blocks(report: SolveReport) -> dict[Perm3, np.ndarray]:
    """Lift a solution of the package's orbit LP onto per-order diagonal blocks.

    Each orbit value goes on every entry of its orbit, which gives the
    summed diagonal; each entry then goes on the block whose wiring
    diagonal is largest there (the first on ties), so the blocks sum to the
    summed diagonal and score its objective.
    """
    summed = report.solution[_orbit_labels()]
    best = objective_diagonals().argmax(axis=0)
    blocks = np.where(best == np.arange(len(all_orders()))[:, None], summed, 0.0)
    return dict(zip(all_orders(), blocks))


def pos_lookup_objective_diagonals() -> np.ndarray:
    """The wiring diagonals with each wire pair's positions looked up by ``Space``, as the package built them."""
    pos = {space: i for i, space in enumerate(NETWORK_LAYOUT)}
    bits = (np.arange(256) >> (7 - np.arange(len(NETWORK_LAYOUT)))[:, None]) & 1
    pairs = np.array([[(pos[left], pos[right]) for left, right in wire_pairs(pi)] for pi in all_orders()])
    return (bits[pairs[..., 0]] == bits[pairs[..., 1]]).all(axis=1).astype(float)


def object_witness_feasibility(blocks) -> dict:
    """The exact witness check on object arrays of Python ints and ``Fraction``s, as the package made it.

    Dense over every row and column; feasible also needs every entry nonnegative.
    """
    row, doubled, doubled_rhs = _doubled_constraints()
    stacked = np.array([blocks[pi] for pi in all_orders()], dtype=object)
    lhs = np.zeros(len(doubled_rhs), dtype=object)
    np.add.at(lhs, row, doubled * stacked.sum(axis=0))
    max_violation = Fraction(max(np.abs(lhs - doubled_rhs)), 2)
    objective = Fraction(stacked[pos_lookup_objective_diagonals() != 0].sum(), 6)
    feasible = max_violation == 0 and all(x >= 0 for x in stacked.flat)
    return {"feasible": feasible, "max_violation": max_violation, "objective": objective}
