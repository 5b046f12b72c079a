"""Deterministic first-order solver for small cone programs.

Problems have the shape

    maximize    c . x
    subject to  A x = b,    x in K,

where K is a product of nonnegative-orthant blocks and Hermitian-PSD blocks,
and A is held as one dense matrix: the largest program here is 61 x 257.
PSD blocks are carried inside the real variable vector through an isometric
"svec" encoding (diagonal first, then sqrt(2)-scaled real/imaginary parts of
the upper triangle), so trace inner products and Euclidean norms transfer
exactly.

The algorithm is ADMM on the consensus splitting between the affine set
{Ax = b} and the cone, with over-relaxation OVER_RELAXATION, accelerated
by safeguarded type-II Anderson acceleration of its fixed-point map
(Walker & Ni, SIAM J. Numer. Anal. 49(4), 2011; Zhang, O'Donoghue & Boyd,
SIAM J. Optim. 30(4), 2020).  A solve extrapolates its state (z, u) from
the last ANDERSON_MEMORY steps, and drops an extrapolated state whose
fixed-point residual grew, for the plain step of its last accepted state.
No adaptive rescaling within a solve, no randomized initialization: a
solve is a pure function of the problem and the settings.  Coordinates
that no equality touches pass through the affine step unchanged, so the
equality matrix and its factor only span the touched coordinates.

The penalty is scaled to the objective, rho = |c|₂/2 (Boyd et al.,
*ADMM*, 2011, §3.4.1), and the map reads the objective only as c/rho.
Scaling c by a power of two therefore leaves every iterate (z, u) the
same to the bit, and scales the objective value and the dual residual
rho·max|z' - z| exactly.  The tolerance is absolute, so a solve whose
stop the dual test decides can stop at another iteration.  A zero
objective keeps rho = 1: its iterates do not depend on rho.

The affine step is the cached-factorisation projection
w - Aᵀ(A Aᵀ)⁺(A w - b) (Boyd et al., *ADMM*, 2011, §4.2) over the t touched
columns: a thin SVD of A cut to the rank r gives a t x r factor F and the
step (w F - y) Fᵀ, two matrix-vector products of 2tr flops together
(40x31 for the non-signaling LP, 68x12 for the shared-state program).

The cone step projects orthant blocks by clipping, 2x2 PSD blocks in
closed form (their eigenvalues are mean ± radius of the svec entries;
Parikh & Boyd, *Proximal Algorithms*, 2014, §6.3; a rank-one output is
rounded towards the inside of the cone) and larger PSD blocks through
``eigh``.

The primal residual is max(|x - z|, max|A z - b|).  The equality gap can
only decide convergence once |x - z| and the dual residual already meet
the tolerance, so it is computed only then, or when the iteration cap ends
the loop: the convergence decision and reported residuals are those of
the full test.  The test is applied to every evaluation of the map,
extrapolated or not, and the reported solution is always the evaluation's
cone projection.

:func:`solve` is the one ADMM loop.  It solves one program on a 1-D
state, and its affine and cone steps each take one vector, so each
iteration is a fixed handful of matrix-vector products and its decisions
are taken on Python scalars.  Its tolerance and iteration cap are one
:class:`SolveSettings` record, which checks them when it is built; the
solve functions take the record as given.
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

from .tensor import ENTANGLED_LAYOUT, FrozenRecord, LabeledOperator

_SQRT2 = math.sqrt(2.0)
_EPS = math.ulp(1.0)

#: ADMM over-relaxation, fixed for every solve; the penalty follows the
#: objective (see the module docstring).
OVER_RELAXATION = 1.5

#: Anderson acceleration, fixed for every solve: how many past steps a
#: solve keeps, and the ridge on their Gram matrix as a multiple of its trace.
ANDERSON_MEMORY = 10
ANDERSON_RIDGE = 1e-12
_RIDGE_FLOOR = np.finfo(float).tiny

#: Side of the shared-state program's state: the four qubits of ENTANGLED_LAYOUT.
_STATE_SIDE = math.prod(space.dim for space in ENTANGLED_LAYOUT)


class ProblemMalformed(ValueError):
    """Structurally inconsistent cone program."""


class SolverFailed(RuntimeError):
    """A solve did not reach the requested tolerance."""

    def __init__(self, message: str, report: "SolveReport"):
        super().__init__(message)
        self.report = report


class NonnegOrthant(FrozenRecord):
    __slots__ = ("n",)

    @property
    def dim(self) -> int:
        return self.n


class HermitianPSD(FrozenRecord):
    __slots__ = ("side",)

    @property
    def dim(self) -> int:
        return self.side * self.side


Cone = NonnegOrthant | HermitianPSD


class ConicProblem:
    """Cone blocks, a linear objective to maximize, and affine equalities.

    ``a`` is the dense ``(len(b), dim)`` equality matrix: every program
    here is small (the largest, the shared-state program, is 61 x 257 for
    30 distinct pair operators).
    """

    def __init__(self, blocks: list[Cone], objective: np.ndarray, a: np.ndarray, b: np.ndarray):
        if not blocks:
            raise ProblemMalformed("a program needs at least one cone block")
        for block in blocks:
            if not isinstance(block, Cone):
                raise ProblemMalformed(f"{block!r} is not a cone block")
            size = block.n if isinstance(block, NonnegOrthant) else block.side
            try:
                valid = not isinstance(size, bool) and operator.index(size) >= 1
            except TypeError:
                valid = False
            if not valid:
                raise ProblemMalformed(f"cone block {block!r} needs an integer size of at least 1")
        self.blocks = blocks
        self.objective = np.asarray(objective, dtype=float)
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        n = self.dim
        if self.objective.shape != (n,):
            raise ProblemMalformed(f"objective has shape {self.objective.shape}, expected ({n},)")
        if self.b.ndim != 1 or self.a.shape != (self.b.size, n):
            raise ProblemMalformed(f"a has shape {self.a.shape} and b {self.b.shape}, expected (m, {n}) and (m,)")
        if not np.all(np.isfinite(self.b)) or not np.all(np.isfinite(self.a)):
            raise ProblemMalformed("non-finite constraint data")
        if not np.all(np.isfinite(self.objective)):
            raise ProblemMalformed("non-finite objective")

    @property
    def dim(self) -> int:
        return sum(block.dim for block in self.blocks)

    @property
    def n_eq(self) -> int:
        return self.b.shape[0]


class SolveSettings(FrozenRecord):
    """A solve's tolerance and iteration cap, and the one place they are checked.

    Raises :class:`ProblemMalformed` unless the tolerance is a finite
    positive real number and the cap an integer of at least 1; a bool is
    neither.  Numpy scalars pass and are stored as ``float`` and ``int``.
    """

    __slots__ = ("tolerance", "max_iters")

    def __init__(self, tolerance: float = 1e-8, max_iters: int = 200_000):
        if isinstance(max_iters, bool) or not isinstance(max_iters, numbers.Integral):
            raise ProblemMalformed(f"max_iters must be an integer, not {max_iters!r}")
        if max_iters < 1:
            raise ProblemMalformed(f"max_iters must be at least 1, not {max_iters}")
        if isinstance(tolerance, bool) or not isinstance(tolerance, numbers.Real):
            raise ProblemMalformed(f"tolerance must be a real number, not {tolerance!r}")
        try:
            tol = float(tolerance)
        except OverflowError:  # an int or Fraction past the float range
            tol = math.inf
        if not 0 < tol < math.inf:
            raise ProblemMalformed(f"tolerance must be finite and positive, not {tolerance}")
        super().__init__(tol, operator.index(max_iters))


class SolveReport:
    def __init__(
        self,
        status: str,  # "optimal" | "max_iters"
        objective_value: float,
        primal_residual: float,
        dual_residual: float,
        iterations: int,
        solution: np.ndarray,
        rejected: int = 0,  # extrapolated states the safeguard dropped
    ):
        self.status = status
        self.objective_value = objective_value
        self.primal_residual = primal_residual
        self.dual_residual = dual_residual
        self.iterations = iterations
        self.solution = solution
        self.rejected = rejected

    def jsonable(self) -> dict:
        return {
            "status": self.status,
            "objective_value": self.objective_value,
            "primal_residual": self.primal_residual,
            "dual_residual": self.dual_residual,
            "iterations": self.iterations,
            "rejected": self.rejected,
        }


# ---------------------------------------------------------------------------
# svec encoding of Hermitian matrices
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _svec_map(side: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each svec entry sits in a matrix's float view, and its scale.

    The float view of a complex ``side x side`` matrix interleaves real and
    imaginary parts row by row.  svec entry j is ``scale[j]`` times the
    float-view entry ``at[j]``: a diagonal real part at scale 1, then the
    real and imaginary parts of each upper-triangle entry at sqrt(2).
    """
    upper = [2 * (i * side + j) + part for i, j in itertools.combinations(range(side), 2) for part in (0, 1)]
    at = np.array([2 * (side + 1) * i for i in range(side)] + upper)
    scale = np.array([1.0] * side + [_SQRT2] * len(upper))
    for arr in (at, scale):
        arr.flags.writeable = False
    return at, scale


def svec(h: np.ndarray) -> np.ndarray:
    """Isometric real encoding of Hermitian matrices (batched over leading axes)."""
    h = np.ascontiguousarray(h, dtype=complex)
    side = h.shape[-1]
    at, scale = _svec_map(side)
    return np.take(h.view(float).reshape(h.shape[:-2] + (2 * side * side,)), at, axis=-1) * scale


def unsvec(v: np.ndarray, side: int) -> np.ndarray:
    """Inverse of :func:`svec` (batched over leading axes).

    The svec entries go back through :func:`_svec_map` onto the diagonal
    and the upper triangle, and the strict lower triangle is assigned the
    upper one's conjugate.  Raises :class:`ProblemMalformed` unless the
    last axis holds ``side * side`` entries.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (side * side,):
        raise ProblemMalformed(f"vector length {v.shape[-1:]} does not match side {side} ({side * side},)")
    at, scale = _svec_map(side)
    flat = np.zeros(v.shape[:-1] + (2 * side * side,))
    flat[..., at] = v * (1.0 / scale)
    upper = flat.view(complex).reshape(v.shape[:-1] + (side, side))
    return np.where(np.tri(side, k=-1, dtype=bool), upper.conj().swapaxes(-1, -2), upper)


def _group_blocks(blocks: Sequence[Cone]) -> list[tuple[Cone, int, slice]]:
    """Merge runs of identical consecutive blocks into (block, count, span)."""
    groups: list[tuple[Cone, int, slice]] = []
    at = 0
    for block, run in itertools.groupby(blocks):
        count = len(list(run))
        groups.append((block, count, slice(at, at + block.dim * count)))
        at += block.dim * count
    return groups


def _project(v: np.ndarray, groups: Sequence[tuple[Cone, int, slice]]) -> np.ndarray:
    """Project the vector ``v`` onto the product cone of the block runs ``groups``."""
    out = np.empty_like(v)
    for block, count, span in groups:
        if isinstance(block, NonnegOrthant):
            np.maximum(v[span], 0.0, out=out[span])
        elif block.side == 2:
            # svec (a, b, c, d) has eigenvalues mean ± radius: a PSD block
            # stays, and any other keeps max(mean + radius, 0) times the top
            # eigenprojector, whose svec is (radius + half, radius - half, c, d)
            # over 2 radius: the Lorentz-cone projection in closed form
            blocks = v[span].reshape(count, 4)
            a, b, c, d = blocks.T
            mean, half, q = (a + b) / 2, (a - b) / 2, (c * c + d * d) / 2
            radius = np.sqrt(half * half + q)
            # a radius-0 block is a multiple of I: kept, or zero through top = 0
            flat = radius == 0
            top = np.maximum(mean + radius, 0.0)
            scale = top / (2 * radius + flat)
            # radius - |half| would cancel, so the smaller diagonal entry is
            # q / (radius + |half|), and the off-diagonal entries shrink by a
            # factor 1 - 8ε: the output is then PSD in exact arithmetic
            big = radius + np.abs(half)
            small = q / (big + flat)
            clipped = blocks * (scale * (1.0 - 8 * _EPS))[:, None]
            upper = half >= 0
            np.multiply(np.where(upper, big, small), scale, out=clipped[:, 0])
            np.multiply(np.where(upper, small, big), scale, out=clipped[:, 1])
            np.copyto(clipped, blocks, where=(mean >= radius)[:, None])
            out[span] = clipped.ravel()
        else:
            side = block.side
            h = unsvec(v[span].reshape(count, side * side), side)
            w, vec = np.linalg.eigh(h)
            np.maximum(w, 0.0, out=w)
            clipped = (vec * w[:, None, :]) @ vec.conj().transpose(0, 2, 1)
            out[span] = svec(clipped).ravel()
    return out


def project_cone(x: np.ndarray, blocks: Sequence[Cone]) -> np.ndarray:
    """Euclidean projection of a variable vector onto the product cone."""
    x = np.asarray(x, dtype=float)
    dim = sum(block.dim for block in blocks)
    if x.shape != (dim,):
        raise ProblemMalformed(f"vector length {x.shape} does not match cones ({dim})")
    return _project(x, _group_blocks(blocks))


# ---------------------------------------------------------------------------
# ADMM core
# ---------------------------------------------------------------------------


class _AffineSet:
    """The set {x : A x = b}, held as one rank-r factor of A's touched columns.

    Over ``w = x[cols]``, with the thin SVD ``A[:, cols] = U Σ Vᵀ`` and only
    the singular values with ``σ² > 1e-15 σ_max²`` kept (the rank ``pinv``
    of ``A Aᵀ`` keeps), ``F = V_r`` and ``y = U_rᵀ b / σ_r`` give
    ``Aᵀ(A Aᵀ)⁺(A w - b) = (w F - y) Fᵀ``: ``Aᵀ(A Aᵀ)⁺ = A⁺``, so the step
    holds for every ``b``, consistent or not.

    ``cols`` is a slice when every column is touched, so the step then
    needs no gather or scatter; ``columns`` stays for the equality gap.  A
    program with no equality rows, or only zero rows, has an empty factor
    and an identity step.
    """

    def __init__(self, problem: ConicProblem):
        touched = problem.a.any(axis=0)
        self.cols = slice(None) if touched.all() else np.flatnonzero(touched)
        self.columns = problem.a[:, self.cols]
        self.b = problem.b
        u, sigma, vt = np.linalg.svd(self.columns, full_matrices=False)
        keep = sigma**2 > 1e-15 * sigma.max(initial=0.0) ** 2
        self.F = vt[keep].T
        self.y = u[:, keep].T @ self.b / sigma[keep]

    def project(self, x: np.ndarray) -> None:
        """Project the vector ``x`` onto the set, in place: w - Aᵀ(A Aᵀ)⁺(A w - b)."""
        w = x[self.cols]
        x[self.cols] = w - (w @ self.F - self.y) @ self.F.T

    def gap(self, z: np.ndarray) -> float:
        """Largest equality violation of the vector ``z``; 0 with no equalities."""
        return float(np.abs(z[self.cols] @ self.columns.T - self.b).max(initial=0.0))


def solve(problem: ConicProblem, settings: SolveSettings | None = None) -> SolveReport:
    """Solve one cone program by Anderson-accelerated ADMM.

    Each iteration evaluates the ADMM map ``F(z, u) = (z', u')`` once, at
    the state ``s = (z, u)``, and applies the convergence test to the
    evaluation.  The test holds for any input state, and the reported
    solution is the cone projection ``z'``: its orthant blocks are exactly
    nonnegative, a 2x2 block that the closed form changes is PSD in exact
    arithmetic, and the other PSD blocks are PSD up to rounding.  A 16x16
    block the projection puts on the cone's boundary can have, in exact
    arithmetic, a smallest eigenvalue below 0 by a rounding error: at most
    about 1e-16 of its trace on random blocks.

    The next state is type-II Anderson acceleration (Walker & Ni, 2011) of
    ``F``: with ``g = F(s) - s`` and the differences ``ΔF``, ``ΔG`` of
    ``F`` and ``g`` over the last ``ANDERSON_MEMORY`` accepted states, it
    is ``F(s) - ΔF γ`` with ``γ = (ΔGᵀΔG + λI)⁻¹ ΔGᵀ g``, where ``λ`` is
    ``ANDERSON_RIDGE`` times the trace of ``ΔGᵀΔG``.  An empty history,
    on the first iteration and on one that rejects a state, gives
    ``γ = 0`` exactly, so the next state is the plain step, taken with no
    ``np.linalg.solve``.  The safeguard (Zhang,
    O'Donoghue & Boyd, 2020): an extrapolated state whose ``|g|`` exceeds
    that of the last accepted state is rejected; the solve takes the plain
    step ``F`` of the last accepted state, which is already known, and
    restarts its history.  Each evaluation counts as one iteration,
    rejected or not.
    """
    settings = settings or SolveSettings()
    tol, max_iters = settings.tolerance, settings.max_iters
    affine = _AffineSet(problem)
    groups = _group_blocks(problem.blocks)
    objective, n = problem.objective, problem.dim
    # the penalty follows the objective's scale; see the module docstring
    rho = float(np.linalg.norm(objective)) / 2 or 1.0
    alpha, memory = OVER_RELAXATION, ANDERSON_MEMORY
    eye = np.eye(memory)

    shift = objective / rho
    # the state s = (z, u) F is evaluated at; F, g and |g|² at the last
    # accepted state; whether s is extrapolated; the differences of F and g
    # between accepted states, in a ring of slots, with the Gram matrix of
    # the g differences; and the rejection count
    s = np.zeros(2 * n)
    f_acc, g_acc, gg_acc = s, s, 0.0
    extrapolated = False
    d_f, d_g = np.zeros((memory, 2 * n)), np.zeros((memory, 2 * n))
    gram = np.zeros((memory, memory))
    rejections = 0

    for k in range(1, max_iters + 1):
        z, u = s[:n], s[n:]
        x = z - u + shift
        affine.project(x)
        xh = alpha * x + (1.0 - alpha) * z
        z_new = _project(xh + u, groups)
        f = np.concatenate((z_new, u + xh - z_new))
        g = f - s
        # g[:n] is z_new - z, the dual residual over rho
        dual = rho * float(np.abs(g[:n]).max())
        # the primal residual is max(|x - z|, equality gap); the gap can
        # only decide convergence once the tolerance is met without it
        primal = float(np.abs(x - z_new).max())
        if (primal <= tol and dual <= tol) or k == max_iters:
            primal = max(primal, affine.gap(z_new))
            converged = primal <= tol and dual <= tol
            if converged or k == max_iters:
                return SolveReport(
                    status="optimal" if converged else "max_iters",
                    objective_value=float(objective @ z_new),
                    primal_residual=primal,
                    dual_residual=dual,
                    iterations=k,
                    solution=z_new,
                    rejected=rejections,
                )

        gg = float(g @ g)
        rejected = extrapolated and gg > gg_acc
        if rejected:
            rejections += 1
            f, g, gg = f_acc, g_acc, gg_acc
            d_f[:] = d_g[:] = gram[:] = 0.0
        if k > 1:
            # a rejection pushes zero differences, which leave γ = 0
            slot = k % memory
            np.subtract(f, f_acc, out=d_f[slot])
            np.subtract(g, g_acc, out=d_g[slot])
            gram[slot] = gram[:, slot] = d_g @ d_g[slot]
            extrapolated = not rejected
        f_acc, g_acc, gg_acc = f, g, gg
        if not extrapolated:  # an empty history: γ = 0 exactly, the plain step
            s = f
            continue
        # an empty slot has a zero row and column in the Gram matrix and a
        # zero right-hand side, so its γ is 0; the ridge is floored so that
        # differences whose Gram trace underflows still solve
        ridge = max(ANDERSON_RIDGE * float(gram.trace()), _RIDGE_FLOOR)
        gamma = np.linalg.solve(gram + ridge * eye, d_g @ g)
        s = f - gamma @ d_f


def solve_within_bound(
    name: str,
    problem: ConicProblem,
    bound: Fraction,
    settings: SolveSettings | None = None,
) -> SolveReport:
    """Solve a scenario's program, which must converge to at most ``bound + 10 * settings.tolerance``.

    Raises :class:`SolverFailed` otherwise.  The slack follows the one
    tolerance the solve runs to: a converged solve meets every equality
    within it, so its value may overshoot the bound by that order, and a
    tighter solve is held to a tighter bound.
    """
    settings = settings or SolveSettings()
    report = solve(problem, settings)
    if report.status != "optimal":
        raise SolverFailed(f"{name} solve ended with status {report.status}", report)
    if report.objective_value > bound + 10 * settings.tolerance:
        raise SolverFailed(f"{name} value {report.objective_value} exceeds the {bound} bound", report)
    return report


def solve_same_constraints(
    problem: ConicProblem,
    objectives: np.ndarray,
    settings: SolveSettings | None = None,
) -> list[SolveReport]:
    """One :func:`solve` per row of ``objectives``, of ``problem`` with that row as its objective."""
    return [solve(ConicProblem(problem.blocks, row, problem.a, problem.b), settings) for row in objectives]


# ---------------------------------------------------------------------------
# the shared-state feasibility program of the entangled scenario
# ---------------------------------------------------------------------------


def shared_state_program(pair_ops: Mapping[object, np.ndarray]) -> ConicProblem:
    """Cone program: maximize tr(state) with tr(op . state) = 0 per pair.

    The state is 16x16, on ``ENTANGLED_LAYOUT``, and every pair operator
    must be 16x16 too.  Each distinct (generally non-Hermitian) pair
    operator contributes two real equalities through its Hermitian and
    anti-Hermitian witnesses.  Operators are taken in ``str(key)`` order,
    and one bit-identical to an earlier operator states the same
    constraint, so it adds no rows.  The trace cap tr(state) <= 1 is
    carried by one orthant slack variable.
    """
    side = _STATE_SIDE
    distinct: dict[bytes, np.ndarray] = {}
    for _, op in sorted(pair_ops.items(), key=lambda kv: str(kv[0])):
        op = np.asarray(op, dtype=complex)
        if op.shape != (side, side):
            raise ProblemMalformed(f"pair operator must be {side}x{side}")
        distinct.setdefault(op.tobytes(), op)
    ops = np.array(list(distinct.values()), dtype=complex).reshape(len(distinct), side, side)
    adjoint = ops.conj().transpose(0, 2, 1)
    # rows 2k and 2k + 1 hold the witnesses of the k-th distinct operator;
    # the last row is tr(state) + slack = 1
    coeffs = np.zeros((2 * len(ops) + 1, side * side + 1))
    witnesses = np.stack([(ops + adjoint) / 2.0, (ops - adjoint) / 2.0j], axis=1)
    coeffs[:-1, :-1] = svec(witnesses.reshape(-1, side, side))
    coeffs[-1, :-1] = svec(np.eye(side, dtype=complex))
    coeffs[-1, -1] = 1.0
    rhs = np.zeros(len(coeffs))
    rhs[-1] = 1.0
    return ConicProblem(
        blocks=[HermitianPSD(side), NonnegOrthant(1)],
        objective=np.append(coeffs[-1, :-1], 0.0),
        a=coeffs,
        b=rhs,
    )


def solve_shared_state_feasibility(
    pair_ops: Mapping[object, np.ndarray],
    settings: SolveSettings | None = None,
) -> tuple[LabeledOperator, SolveReport]:
    """Find a unit-trace PSD state on ``ENTANGLED_LAYOUT`` annihilating every supplied pair operator.

    The solve runs to half the tolerance, so each complex pair trace, two
    witness rows met within tol/2, has a modulus within tol/sqrt(2); a
    tolerance whose half underflows to 0.0 raises :class:`ProblemMalformed`
    naming it.  The bound's slack, 10 x tol/2, never rejects a converged
    solve: its value tr(state) is at most 1 + tol/2 (up to rounding), since
    the trace row's gap is at most tol/2 and the slack variable is >= 0.
    """
    settings = settings or SolveSettings()
    if settings.tolerance / 2 == 0.0:
        raise ProblemMalformed(
            f"tolerance {settings.tolerance!r} is too small: the shared-state solve runs to half of it, which is 0.0"
        )
    report = solve_within_bound(
        "shared-state feasibility",
        shared_state_program(pair_ops),
        Fraction(1),
        SolveSettings(settings.tolerance / 2, settings.max_iters),
    )
    # the solution's last entry is the trace slack
    return LabeledOperator(ENTANGLED_LAYOUT, unsvec(report.solution[:-1], _STATE_SIDE)), report


# ---------------------------------------------------------------------------
# plain-text tableau dump (for external cross-checks)
# ---------------------------------------------------------------------------


def dump_tableau(problem: ConicProblem) -> str:
    """Objective, cones, the equality nonzeros as row-major coordinate triplets, and right-hand sides."""
    lines = ["conic-tableau v1", f"rows {problem.n_eq}"]
    for block in problem.blocks:
        if isinstance(block, NonnegOrthant):
            lines.append(f"cone orthant {block.n}")
        else:
            lines.append(f"cone psd {block.side}")
    for j in np.nonzero(problem.objective)[0]:
        lines.append(f"o {j} {float(problem.objective[j])!r}")
    for r, c in zip(*np.nonzero(problem.a)):
        lines.append(f"a {r} {c} {float(problem.a[r, c])!r}")
    for r, v in enumerate(problem.b):
        lines.append(f"rhs {r} {float(v)!r}")
    return "\n".join(lines) + "\n"
