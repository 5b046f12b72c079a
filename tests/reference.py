"""Reference code the unit tests check the package against.

- The success-probability functional: a prior over the six orders, outcome
  distributions and a decoder give the chance of naming the true order.
  :func:`deterministic_success` counts the hits of the package's
  :func:`~ordergame.game.optimal_decoder` through it, independently of the
  run table the classical searches count with.
- The purified outputs of the entangled scenario: the square root S of the
  shared state routed by each order, vec(R_pi S).  Their inner products are
  the Gram matrix that :func:`ordergame.quantum.output_gram` gathers
  without a square root.
- A reader of :func:`ordergame.solver.dump_tableau` text, with no input
  checks: it only rebuilds what the package wrote.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from ordergame.game import Perm3, all_orders, optimal_decoder
from ordergame.quantum import routing_matrix
from ordergame.solver import ConicProblem, HermitianPSD, NonnegOrthant
from ordergame.tensor import FrozenRecord, LabeledOperator, Space, Vec, eig_hermitian

Outcome = Hashable


class NotADistribution(ValueError):
    """An outcome distribution does not sum to one."""


class OrderPrior(FrozenRecord):
    """Probability weights over the six orders."""

    __slots__ = ("weights",)

    def __init__(self, weights: Mapping[Perm3, Fraction | float]):
        total = sum(weights.values())
        if isinstance(total, Fraction):
            ok = total == 1
        else:
            ok = abs(float(total) - 1.0) <= 1e-12
        if not ok or set(weights) != set(all_orders()):
            raise NotADistribution("prior must put weight on all six orders and sum to 1")
        super().__init__(weights)

    @classmethod
    def uniform(cls) -> "OrderPrior":
        return cls({pi: Fraction(1, 6) for pi in all_orders()})

    def __getitem__(self, pi: Perm3):
        return self.weights[pi]


def deterministic(outcome: Outcome) -> dict[Outcome, Fraction]:
    """Point distribution on a single outcome."""
    return {outcome: Fraction(1)}


def success_probability(
    outputs: Mapping[Perm3, Mapping[Outcome, Fraction | float]],
    decoder: Mapping[Outcome, Perm3] | Callable[[Outcome], Perm3],
    prior: OrderPrior | None = None,
):
    """Average probability that the decoded outcome names the true order.

    ``outputs[pi]`` is the outcome distribution produced when the true order
    is ``pi``; the decoder maps each outcome to a guessed order.
    """
    prior = prior or OrderPrior.uniform()
    decode = decoder if callable(decoder) else decoder.__getitem__
    total = 0
    for pi in all_orders():
        dist = outputs[pi]
        mass = sum(dist.values())
        if isinstance(mass, Fraction):
            if mass != 1:
                raise NotADistribution(f"distribution for {pi} sums to {mass}")
        elif abs(float(mass) - 1.0) > 1e-12:
            raise NotADistribution(f"distribution for {pi} sums to {mass}")
        hit = sum(p for outcome, p in dist.items() if decode(outcome) == pi)
        total = total + prior[pi] * hit
    return total


def deterministic_success(outputs: Mapping[Perm3, Outcome], prior: OrderPrior | None = None):
    """success_probability for deterministic outputs under the optimal decoder."""
    dists = {pi: deterministic(outcome) for pi, outcome in outputs.items()}
    return success_probability(dists, optimal_decoder(outputs), prior)


def vectorize(m, out_layout: Sequence[Space], in_layout: Sequence[Space]) -> Vec:
    """Column-stack a matrix m: in -> out as the vector (m (x) I) sum_i |ii>.

    The resulting layout is out_layout followed by in_layout, matching the
    convention that vec(|i><j|) = |i>|j>; a matrix of another shape has the
    wrong length for that layout, which :class:`~ordergame.tensor.Vec` refuses.
    """
    return Vec(tuple(out_layout) + tuple(in_layout), np.asarray(m, dtype=complex).ravel())


def entangled_output_states(state: LabeledOperator) -> dict[Perm3, Vec]:
    """Unit vectors routed from the purified PSD shared state, one per order.

    The purification lives on the state's own layout plus a same-sized
    auxiliary space; the routing acts on the first factor only.
    """
    w, v = eig_hermitian(state)
    sqrt_mat = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    aux = (Space("E", state.side),)
    return {pi: vectorize(routing_matrix(pi).op.to_float().data @ sqrt_mat, state.layout, aux) for pi in all_orders()}


def read_tableau(text: str) -> ConicProblem:
    """The program a :func:`~ordergame.solver.dump_tableau` text holds."""
    lines = [line.split() for line in text.splitlines()[1:]]
    cones = [fields[1:] for fields in lines if fields[0] == "cone"]
    blocks = [NonnegOrthant(int(n)) if kind == "orthant" else HermitianPSD(int(n)) for kind, n in cones]
    dim, n_rows = sum(block.dim for block in blocks), int(lines[0][1])
    objective, a, b = np.zeros(dim), np.zeros((n_rows, dim)), np.zeros(n_rows)
    for key, *fields in lines:
        if key == "o":
            objective[int(fields[0])] = float(fields[1])
        elif key == "a":
            a[int(fields[0]), int(fields[1])] = float(fields[2])
        elif key == "rhs":
            b[int(fields[0])] = float(fields[1])
    return ConicProblem(blocks, objective, a, b)
