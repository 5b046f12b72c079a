"""Quantum strategies: memoryless qubit channels and shared entanglement.

The memoryless scenario applies three fixed single-qubit unitaries in the
hidden order; the resulting six states form three mutually unbiased bases
and an optimal-measurement cone program shows they cannot beat 1/3; random
triples are certified in closed form by :func:`certify_discrimination`.  The
entangled scenario routes a shared qubit through the parties with swap
gates; each routing, and each pair product of two, permutes the four qubit
factors.  A 4-qubit state built from Dicke projectors makes the six routed
outputs exactly orthogonal, so the order is read off perfectly.

That proof takes no square root of the state.  The Gram matrix of the six
routed purified outputs is the matrix of pair traces
tr(R_pi'^dag R_pi state), with tr(state) on its diagonal, and each pair
trace is a 16-entry gather from the state through the pair's index map:
exact rationals for every exact state, floats for float states.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .game import Perm3, ScenarioResult, all_orders
from .solver import (
    ConicProblem,
    HermitianPSD,
    SolveSettings,
    solve_within_bound,
    svec,
)
from .tensor import (
    ENTANGLED_LAYOUT,
    SHARED,
    FrozenRecord,
    LabeledOperator,
    NotPSD,
    Vec,
    permute_to_layout,
    rational_entries,
    rational_entry,
)


class NotOrthogonal(ValueError):
    """Two routed outputs overlap although orthogonality was required."""

    def __init__(self, pair, value):
        super().__init__(f"outputs for pair {pair} overlap: trace value {value}")
        self.pair = pair
        self.value = value


class ZeroTrace(ValueError):
    """The shared state has no positive trace, so it routes no outputs to tell apart."""


# ---------------------------------------------------------------------------
# memoryless scenario
# ---------------------------------------------------------------------------

#: The six reference kets by name, read-only: every caller shares them.
KET = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / math.sqrt(2),
    "-": np.array([1, -1], dtype=complex) / math.sqrt(2),
    "i": np.array([1, 1j], dtype=complex) / math.sqrt(2),
    "-i": np.array([1, -1j], dtype=complex) / math.sqrt(2),
}
for _ket in KET.values():
    _ket.flags.writeable = False

#: Which reference state each hidden order produces (up to global phase).
ORDER_TO_BASIS_STATE = {
    "ABC": "-",
    "ACB": "0",
    "BAC": "+",
    "BCA": "1",
    "CAB": "i",
    "CBA": "-i",
}

#: The three mutually unbiased bases tiled by the six outputs.
BASIS_OF_STATE = {"0": "Z", "1": "Z", "+": "X", "-": "X", "i": "Y", "-i": "Y"}


def unbiased_basis_unitaries() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three fixed single-qubit unitaries of the memoryless construction, as 2x2 arrays for A, B and C."""
    inv = 1.0 / math.sqrt(2)
    return (
        inv * np.array([[1, -1j], [-1, -1j]], dtype=complex),
        inv * np.array([[1, 1j], [-1, 1j]], dtype=complex),
        inv * np.array([[0, 1 - 1j], [1 + 1j, 0]], dtype=complex),
    )


def _order_kets(unitaries: Sequence[np.ndarray]) -> np.ndarray:
    """|0> through each party's unitary in each hidden order, first mover first.

    ``unitaries[p]`` is party p's, with any leading axes ``(..., 2, 2)``;
    the kets come out as ``(..., 6, 2)``, one row per order.
    """
    kets = []
    for pi in all_orders():
        vec = KET["0"][:, None]
        for party in pi.parties:
            vec = unitaries[party] @ vec
        kets.append(vec[..., 0])
    return np.stack(kets, axis=-2)


def unbiased_order_states() -> dict[Perm3, Vec]:
    """Apply the six hidden orders to |0>; the outputs tile three MUBs."""
    kets = _order_kets(unbiased_basis_unitaries())
    return {pi: Vec((SHARED,), ket) for pi, ket in zip(all_orders(), kets)}


def bloch_coordinates(kets: np.ndarray) -> np.ndarray:
    """Bloch vectors (x, y, z) of qubit kets along the last axis: ``(..., 2) -> (..., 3)``."""
    v = np.asarray(kets, dtype=complex)
    cross = v[..., 0].conj() * v[..., 1]
    return np.stack([2.0 * cross.real, 2.0 * cross.imag, np.abs(v[..., 0]) ** 2 - np.abs(v[..., 1]) ** 2], -1)


def discrimination_program(states: Mapping[Perm3, Vec]) -> ConicProblem:
    """Optimal-measurement program for six equiprobable qubit states.

    Variables are six PSD effects that must sum to the identity (each
    svec coordinate summed over the six blocks: four rows of ``[I I I I I I]``);
    the objective is the average success probability.
    """
    kets = np.array([states[pi].data for pi in all_orders()], dtype=complex)
    return ConicProblem(
        blocks=[HermitianPSD(2)] * 6,
        objective=(svec(kets[:, :, None] * kets.conj()[:, None, :]) / 6.0).ravel(),
        a=np.tile(np.eye(4), 6),
        b=svec(np.eye(2, dtype=complex)),
    )


def quantum_memoryless_optimum(
    states: Mapping[Perm3, Vec], settings: SolveSettings | None = None
) -> ScenarioResult:
    """Best discrimination probability for the given six output states.

    Whatever the states are, the effects sum to the 2x2 identity, so the
    value can never exceed 1/3; that bound is re-checked on the solver
    output.  Raises :class:`SolverFailed` if the solve did not converge or
    its value breaks the bound.
    """
    report = solve_within_bound("discrimination", discrimination_program(states), Fraction(1, 3), settings)
    ordered = sorted(states.items())
    coordinates = bloch_coordinates(np.array([vec.data for _, vec in ordered])).tolist()
    bloch = {pi.name: [round(x, 12) for x in xyz] for (pi, _), xyz in zip(ordered, coordinates)}
    return ScenarioResult(
        scenario="quantum-memoryless",
        probability=report.objective_value,
        strategy="fixed unitary triple on |0>; optimal six-outcome measurement",
        certificate={"solver": report.jsonable(), "bloch_coordinates": bloch},
    )


def haar_qubit_unitary(rng: np.random.Generator, shape: tuple[int, ...] = ()) -> np.ndarray:
    """Haar-random 2x2 unitaries of shape ``(*shape, 2, 2)``, via QR of complex Gaussian matrices.

    Each matrix takes eight normals from ``rng``, the real parts then the
    imaginary parts, so a batch draws the same matrices as that many
    single draws in turn.
    """
    z = rng.normal(size=(*shape, 2, 2, 2))
    q, r = np.linalg.qr(z[..., 0, :, :] + 1j * z[..., 1, :, :])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q @ (np.eye(2) * (d / np.abs(d))[..., None, :])


class SampledBoundScan:
    """Certified discrimination optima, one per instance, and the largest violations of their certificates."""

    def __init__(self, values: np.ndarray, max_primal_residual: float, max_dual_violation: float, max_gap: float):
        self.values = values
        self.max_primal_residual = max_primal_residual
        self.max_dual_violation = max_dual_violation
        self.max_gap = max_gap

    @property
    def max_value(self) -> float:
        return float(self.values.max())

    @property
    def at_one_third(self) -> int:
        return int(np.count_nonzero(np.abs(self.values - 1.0 / 3.0) <= 1e-12))


class CertificateFailed(ValueError):
    """A closed-form discrimination certificate does not verify."""


#: The largest violation any check of a closed-form certificate may show.
CERTIFICATE_ATOL = 1e-9


def _pauli(scale, v: np.ndarray) -> np.ndarray:
    """scale I + v.sigma for Bloch vectors v along the last axis."""
    x, y, z = np.moveaxis(v, -1, 0)
    return np.stack([np.stack([scale + z, x - 1j * y], -1), np.stack([x + 1j * y, scale - z], -1)], -2)


def certify_discrimination(kets: np.ndarray) -> SampledBoundScan:
    """Optimal discrimination of six equiprobable qubit states, per row of ``kets`` ``(n, 6, 2)``.

    The optimum is (1 + R)/6, R the radius of the smallest ball enclosing
    the six Bloch vectors r_k (Deconinck & Terhal, PRA 81, 062304 (2010);
    Bae & Hwang, PRA 87, 012334 (2013)).  Its centre c is the circumcentre
    of one to four r_k and lies in their hull, c = sum mu_k r_k with
    mu >= 0: the 56 such supports are searched at once, skipping affinely
    dependent ones, and the enclosing one of least radius is kept.  The
    dual Y = ((1 + R) I + c.sigma)/12 and the primal E_k = mu_k (I + n_k.sigma),
    n_k = (r_k - c)/R (0 if R = 0), are checked as 2x2 matrices; raises
    :class:`CertificateFailed` if any check exceeds :data:`CERTIFICATE_ATOL`.
    """
    kets = np.asarray(kets, dtype=complex)
    r = bloch_coordinates(kets)
    # each support as its first point and three more, padded with the first
    supports = np.array([s + s[:1] * (4 - len(s)) for k in range(1, 5) for s in itertools.combinations(range(6), k)])
    d = r[:, supports[:, 1:]] - r[:, supports[:, :1]]  # a padded point is a zero row
    gram = d @ d.swapaxes(-1, -2) + (supports[:, 1:] == supports[:, :1])[..., None] * np.eye(3)
    # a support with two points closer than sqrt(tiny) is skipped: its
    # subnormal Gram entries keep too few bits for the 1e-9 checks
    diagonal = np.diagonal(gram, axis1=-2, axis2=-1)
    with np.errstate(divide="ignore"):  # det takes the log of a zero pivot
        solvable = (np.linalg.det(gram) > 1e-12 * diagonal.prod(-1)) & (diagonal.min(-1) >= np.finfo(float).tiny)
    gram[~solvable] = np.eye(3)
    # the centre x, seen from the first point, is equidistant from all: 2 d_i.x = |d_i|^2
    lam = np.linalg.solve(gram, (d**2).sum(-1)[..., None] / 2)[..., 0]
    x = (lam[..., None] * d).sum(-2)
    mu = np.concatenate([1.0 - lam.sum(-1, keepdims=True), lam], -1)
    e = r[:, None] - r[:, supports[:, :1]] - x[:, :, None]  # from each centre to every point
    radius = np.linalg.norm(e, axis=-1).max(-1)
    valid = solvable & (mu >= -1e-12).all(-1) & (radius <= np.linalg.norm(x, axis=-1) + 1e-10)
    best = np.argmin(np.where(valid, radius, np.inf), axis=1)

    rows = np.arange(len(r))
    big_r, support = radius[rows, best], supports[best]
    weights = np.zeros(r.shape[:2])
    np.add.at(weights, (rows[:, None], support), mu[rows, best])
    n = e[rows, best] / np.where(big_r > 0, big_r, 1.0)[:, None, None]
    effects = weights[..., None, None] * _pauli(1.0, n)
    dual = _pauli(1.0 + big_r, r[rows, support[:, 0]] + x[rows, best]) / 12.0
    rho = kets[..., :, None] * kets.conj()[..., None, :]
    values = np.trace(dual, axis1=-2, axis2=-1).real
    checks = {
        "primal residual": np.maximum(
            np.abs(effects.sum(1) - np.eye(2)).max((-2, -1)), -np.linalg.eigvalsh(effects)[..., 0].min(-1)
        ),
        "dual violation": np.maximum(-np.linalg.eigvalsh(dual[:, None] - rho / 6.0)[..., 0].min(-1), 0.0),
        "gap": np.abs(values - np.einsum("nkij,nkji->n", effects, rho).real / 6.0),
    }
    for name, per_instance in checks.items():
        worst = int(np.argmax(per_instance))
        if not per_instance[worst] <= CERTIFICATE_ATOL:
            raise CertificateFailed(f"instance {worst}: {name} {per_instance[worst]:.3g} exceeds {CERTIFICATE_ATOL}")
    return SampledBoundScan(values, *(float(v.max()) for v in checks.values()))


def sampled_discrimination_values(n_samples: int = 1000, seed: int = 42) -> SampledBoundScan:
    """Closed-form certified optima for seeded Haar-random unitary triples, with no solver call."""
    if any(isinstance(v, bool) or not isinstance(v, numbers.Integral) for v in (n_samples, seed)):
        raise ValueError(f"n_samples and seed must be integers, not {n_samples!r} and {seed!r}")
    n_samples, seed = operator.index(n_samples), operator.index(seed)
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, not {n_samples}")
    unitaries = haar_qubit_unitary(np.random.default_rng(seed), (n_samples, 3))
    return certify_discrimination(_order_kets(np.moveaxis(unitaries, 1, 0)))


# ---------------------------------------------------------------------------
# entangled scenario: swap routing
# ---------------------------------------------------------------------------


def _factor_index_map(positions) -> np.ndarray:
    """Basis actions of moving factor ``positions[..., i]`` of the entangled layout to slot ``i``."""
    return (np.arange(16)[:, None] >> (3 - np.asarray(positions)[..., None, :]) & 1) @ (8, 4, 2, 1)


def _routing_positions(pi: Perm3) -> list[int]:
    """The factor positions of the order's three swaps, first mover first.

    Each swap trades the shared qubit with a party's input, so the first
    mover's slot ends up holding S, the second's the first's input, the
    third's the second's, and S the third's.
    """
    # A_I, B_I and C_I are slots 0-2 of ENTANGLED_LAYOUT, S is slot 3
    first, second, third = pi.parties
    positions = [0] * 4
    positions[first], positions[second], positions[third], positions[3] = 3, first, second, third
    return positions


class SystemPermutation(FrozenRecord):
    """Routing unitary of one hidden order, a value of that order alone.

    Equal orders give equal records with equal hashes; ``op`` builds the
    exact 0/1 factor-permutation matrix on the entangled layout afresh on
    each read.
    """

    __slots__ = ("pi",)

    @property
    def op(self) -> LabeledOperator:
        return factor_permutation_operator(_routing_positions(self.pi))


def routing_matrix(pi: Perm3) -> SystemPermutation:
    """Compose the three shared-wire swaps in temporal order."""
    return SystemPermutation(pi)


def _pair_positions() -> list[list[tuple[int, ...]]]:
    """Factor positions of adjoint(routing(pi')) @ routing(pi) at ``[i][j]``, pi' and pi orders i and j.

    The adjoint moves slot s back to slot ``pos_pi'.index(s)``, so factor ``pos_pi[pos_pi'.index(s)]`` ends in slot s.
    """
    positions = [_routing_positions(pi) for pi in all_orders()]
    getters = [operator.itemgetter(*map(q.index, range(4))) for q in positions]
    return [[get(p) for p in positions] for get in getters]


@functools.lru_cache(maxsize=None)
def _pair_index_table() -> np.ndarray:
    """The basis actions of :func:`_pair_positions`, shape ``(6, 6, 16)``, read-only."""
    table = _factor_index_map(_pair_positions())
    table.flags.writeable = False
    return table


def routing_pair_products() -> dict[tuple[Perm3, Perm3], LabeledOperator]:
    """All 30 ordered products adjoint(routing(pi')) @ routing(pi), exact.

    Each is the factor permutation of its :func:`_pair_positions`: only 11
    differ, and equal products are one shared operator.
    """
    positions, order, pairs = _pair_positions(), all_orders(), list(itertools.permutations(range(6), 2))
    # every pair's 0/1 matrix from one comparison, as factor_permutation_operator builds one
    matrices = np.arange(16)[:, None] == _pair_index_table()[:, :, None, :]
    pair_of = {positions[i][j]: (i, j) for i, j in pairs}  # one pair per distinct product
    shared = {key: LabeledOperator.from_numerators(ENTANGLED_LAYOUT, matrices[ij], 1) for key, ij in pair_of.items()}
    return {(order[i], order[j]): shared[positions[i][j]] for i, j in pairs}


def factor_permutation_operator(positions: Sequence[int]) -> LabeledOperator:
    """Exact operator permuting the four qubit factors of the entangled layout.

    ``positions[i]`` names the source factor moved to slot ``i``; every
    routing matrix (and every pair product) is such an operator, which is
    the mechanism behind their integer traces.
    """
    if sorted(positions) != [0, 1, 2, 3]:
        raise ValueError(f"not a permutation of 0..3: {positions}")
    return LabeledOperator.from_numerators(ENTANGLED_LAYOUT, np.arange(16)[:, None] == _factor_index_map(positions), 1)


# ---------------------------------------------------------------------------
# the perfectly discriminating shared state
# ---------------------------------------------------------------------------


#: Hamming weight of each 4-qubit basis string: the Dicke class of the index.
_WEIGHT = np.array([bin(i).count("1") for i in range(16)])
_WEIGHT.flags.writeable = False


def _weight_class_data(values) -> np.ndarray:
    """Entry (i, j) is values[k] when strings i and j both have k excitations, else 0."""
    return np.where(_WEIGHT[:, None] == _WEIGHT, np.asarray(values)[_WEIGHT], 0)


def symmetric_projector() -> LabeledOperator:
    """Exact rank-5 projector onto the span of the five 4-qubit Dicke states:
    entry (i, j) is 1/C(4, k) when strings i and j both have k excitations."""
    nums = _weight_class_data([12 // math.comb(4, k) for k in range(5)])
    return LabeledOperator.from_numerators(ENTANGLED_LAYOUT, nums, 12)


def perfect_discrimination_state() -> LabeledOperator:
    """The shared 4-qubit state 1/12 - (1/15) * (sum of Dicke projectors), exact.

    Built per Hamming-weight class as int64 numerators over 180:
    -12/C(4, k) within class k, plus 15 on the diagonal.  No ``Fraction`` is
    made until something reads the state's ``data``.
    """
    nums = 15 * np.eye(16, dtype=np.int64) - _weight_class_data([12 // math.comb(4, k) for k in range(5)])
    return LabeledOperator.from_numerators(ENTANGLED_LAYOUT, nums, 180)


# ---------------------------------------------------------------------------
# verification of perfect discrimination
# ---------------------------------------------------------------------------


def pair_trace_values(state: LabeledOperator) -> dict[tuple[Perm3, Perm3], object]:
    """tr(pair_product . state) for all 30 ordered pairs: the off-diagonal of :func:`output_gram`."""
    gram = output_gram(state)
    order = all_orders()
    return {(order[i], order[j]): gram[i, j] for i, j in itertools.permutations(range(6), 2)}


def verify_perfect_discrimination(
    state: LabeledOperator, atol: float = 1e-8, scenario: str = "lose-verify"
) -> ScenarioResult:
    """Check the six routed outputs of the given shared state are orthogonal.

    The outputs are perfectly distinguishable exactly when their Gram matrix
    (:func:`output_gram`) is diagonal with a positive diagonal, tr(state).
    Exact states must give a positive trace and exactly zero for all 30
    ordered pair traces, decided on the traces' integer numerators over the
    state's denominator; a ``Fraction`` is made only for a value reported or
    raised.  Float states are held to ``atol`` on both.  On success the
    reported probability is 1 with the orthonormal-output measurement as
    certificate.
    """
    gram = _pair_trace_sums(state).tolist()
    trace = gram[0][0]
    if not ((trace > 0) if state.exact else (trace.real > atol)):
        raise ZeroTrace(f"shared state has trace {_gram_value(state, trace)}: no outputs to tell apart")
    order = all_orders()
    pairs = list(itertools.permutations(range(6), 2))
    for i, j in pairs:
        if (gram[i][j] != 0) if state.exact else (abs(gram[i][j]) > atol):
            raise NotOrthogonal((order[i].name, order[j].name), _gram_value(state, gram[i][j]))
    probability: Fraction | float = Fraction(1) if state.exact else 1.0
    return ScenarioResult(
        scenario=scenario,
        probability=probability,
        strategy="shared 4-qubit state, every party swaps with the shared wire; "
        "measure onto the six orthogonal routed outputs",
        certificate={
            "pair_traces_checked": len(pairs),
            "max_pair_trace": 0.0 if state.exact else float(max(abs(gram[i][j]) for i, j in pairs)),
            "state_trace": str(_gram_value(state, trace)) if state.exact else float(trace.real),
            "exact": state.exact,
        },
    )


def _gram_value(state: LabeledOperator, entry):
    """An entry of :func:`_pair_trace_sums` as its value: for an exact state, its numerator over ``state.den``."""
    return rational_entry(entry, state.den, whole=Fraction) if state.exact else entry


def _pair_trace_sums(state: LabeledOperator) -> np.ndarray:
    """The pair-trace matrix of :func:`output_gram`, with an exact state's entries as numerators over ``state.den``.

    Each entry is a sum of 16 entries gathered from the state, of its
    numerators for an exact state: int64 sums of at most 2**53 each cannot
    wrap, and Python-int numerators sum as Python ints.  The state's factors
    are put in :data:`ENTANGLED_LAYOUT`'s order; other labels raise
    ``LayoutMismatch``.  Raises :class:`NotPSD` unless the state is PSD (an
    exact state's verdict is worked out once).
    """
    ordered = permute_to_layout(state, ENTANGLED_LAYOUT)
    # a reorder keeps the spectrum, so the caller's state keeps its verdict
    if not state.is_psd(1e-8):
        raise NotPSD("shared state must be positive semidefinite")
    # entry k of pair (i, j)'s trace is data[k, map[k]]
    gathered = (ordered.nums if ordered.exact else ordered.data)[np.arange(16), _pair_index_table()]
    if state.exact:
        return gathered.sum(-1)
    # Python sum over k adds the 16 columns left to right, so float data rounds
    # as a left-to-right sum (numpy's pairwise .sum() would move the last digits)
    return sum(np.moveaxis(gathered, -1, 0))


def output_gram(state: LabeledOperator) -> np.ndarray:
    """Gram matrix of the six routed purified outputs: the pair-trace matrix.

    With S the square root of the state, the outputs are vec(R_pi S), and
    <vec(R_pi' S), vec(R_pi S)> = tr(S R_pi'^dag R_pi S) = tr(R_pi'^dag R_pi state).
    So entry (pi', pi) is a pair trace, with tr(state) on the diagonal, and
    no square root is taken: the entries are complex numbers for float
    states, and for every exact state Fractions, each one sum of 16 of the
    state's integer numerators over its denominator (:func:`_pair_trace_sums`).
    Raises :class:`NotPSD` unless the state is PSD.
    """
    sums = _pair_trace_sums(state)
    return rational_entries(sums, state.den, whole=Fraction) if state.exact else sums
