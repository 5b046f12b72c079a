"""Dense operators on named tensor factors.

Everything in the package that looks like a state, a channel in Choi form
or a wiring operator is a :class:`LabeledOperator`: a square matrix together
with the ordered list of subsystem labels it acts on.  The first label is
the most significant tensor factor, i.e. the basis index of ``|i1 ... ik>``
is ``sum(i_j * prod(later dims))``.

Two scalar kinds are supported and never mixed silently: complex floats
(``complex128`` arrays) and exact rationals, held as integer numerators
``nums`` over one positive denominator ``den``: int64 when every
|numerator| and ``den`` are at most :data:`INT64_BOUND`, Python ints
otherwise (a float converted exactly can carry a denominator up to
2**1074).  An exact ``data``, Python ints for whole entries and
``Fraction``s, is built from them only when read.  Conversions are
explicit: floats via :meth:`LabeledOperator.to_float`, and exact scalars
only through :meth:`LabeledOperator.from_numerators` or exact construction
(``exact=True``), which is lossless: bools, ints and ``Fraction``s keep
their values and each finite float becomes its binary value, entry by
entry for object data; a nonzero imaginary part or any other entry
(non-finite, or of another type) raises ``ValueError``.

Every operator and vector owns its arrays, made at construction and
marked read-only: a write into one raises ``ValueError``, and a later
write into the array it was built from does not reach it.  So equal values
can be built once and shared.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

HERMITIAN_ATOL = 1e-12


class LabelCollision(ValueError):
    """A subsystem label occurs more than once in a layout."""


class UnknownLabel(ValueError):
    """A referenced label is not part of the operator's layout."""


class LayoutMismatch(ValueError):
    """Two layouts do not agree (as sets or as required orderings)."""


class NotHermitian(ValueError):
    """Operation requires a Hermitian input."""


class NotPSD(ValueError):
    """Operation requires a positive semidefinite input."""


class Immutable:
    """Base of every immutable type in the package: no attribute can be set or deleted.

    A subclass lists its fields as ``__slots__`` and sets each once, in
    ``__init__`` (or on first use, for a cached value), through ``object.__setattr__``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class FrozenRecord(Immutable):
    """Base of the package's hashable values.

    A subclass declares its fields once, in ``__slots__``, and each field
    compares and hashes by value: no arrays, no mutable containers.  The
    base's ``__init__`` takes one value per slot, in ``__slots__`` order;
    a subclass that checks or defaults its arguments ends its own
    ``__init__`` in ``super().__init__(...)``.  ``_values`` returns the
    field tuple in that order.  Records of the same class are equal when
    their field tuples are, the hash is that of the field tuple, the repr
    names each field, and copies and pickles rebuild through ``__init__``.
    Written once here, not generated per class by ``dataclasses``, whose
    code generation took about a quarter of the package's import from
    source and half of it with cached bytecode.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the field tuple is read in C: a generic getattr loop costs four
        # times as much, on every hash and equality test
        fields = operator.attrgetter(*cls.__slots__)
        if len(cls.__slots__) == 1:
            cls._values = lambda self: (fields(self),)
        else:
            cls._values = lambda self: fields(self)

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, not {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not by setting slots
        return type(self), self._values()


class Space(FrozenRecord):
    """A named subsystem wire with a fixed dimension."""

    __slots__ = ("name", "dim")

    def __repr__(self) -> str:
        return f"{self.name}({self.dim})"


# Canonical wires of the three-party game.  S_P feeds the first slot of the
# hidden wiring, S_F leaves the last slot, X_I / X_O are party X's local
# input and output, and S is the shared system of the entangled scenario.
S_PREP = Space("S_P", 2)
S_FINAL = Space("S_F", 2)
SHARED = Space("S", 2)
A_IN = Space("A_I", 2)
A_OUT = Space("A_O", 2)
B_IN = Space("B_I", 2)
B_OUT = Space("B_O", 2)
C_IN = Space("C_I", 2)
C_OUT = Space("C_O", 2)


_DIM, _FIELDS = operator.attrgetter("dim"), operator.attrgetter(*Space.__slots__)

#: Factor order shared by every network-scenario operator.
NETWORK_LAYOUT = (S_PREP, A_IN, A_OUT, B_IN, B_OUT, C_IN, C_OUT, S_FINAL)

#: Factor order of the shared state in the entangled scenario.
ENTANGLED_LAYOUT = (A_IN, B_IN, C_IN, SHARED)


def _dims(layout: Sequence[Space]) -> tuple[int, ...]:
    return tuple(map(_DIM, layout))


def _side(layout: Sequence[Space]) -> int:
    return math.prod(map(_DIM, layout))


def _check_layout(layout: Sequence[Space]) -> tuple[Space, ...]:
    layout = tuple(layout)
    # labels compare by their field tuples, read in C: Space.__hash__ runs Python code
    if len(set(map(_FIELDS, layout))) != len(layout):
        raise LabelCollision(f"duplicate labels in layout {layout}")
    return layout


#: Exact numerators within this bound, over a denominator within it, are int64: each
#: converts to a float exactly, and a sum of up to 2**10 of them stays in range.
INT64_BOUND = 2**53


def _exact_scalar(x):
    """One object entry as a Python int (or bool) or ``Fraction`` (see the module docstring)."""
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, float) and math.isfinite(x):
        return Fraction(x)
    raise ValueError(f"cannot convert the {type(x).__name__} entry {x!r} to an exact rational")


def _packed(nums: np.ndarray, den: int) -> np.ndarray:
    """The numerators, copied: int64 if they and ``den`` are within :data:`INT64_BOUND`, else Python ints."""
    fits = den <= INT64_BOUND and (nums.itemsize < 8 or -INT64_BOUND <= nums.min() <= nums.max() <= INT64_BOUND)
    return nums.astype(np.int64 if fits else object)


def _numerators(data) -> tuple[np.ndarray, int]:
    """The package's one float->exact conversion (see the module docstring): numerators and their denominator."""
    arr = np.asarray(data)
    if arr.dtype.kind in "biu":
        return _packed(arr, 1), 1
    if arr.dtype != object:
        if np.iscomplexobj(arr) and np.any(arr.imag):
            raise ValueError("cannot convert complex data to exact rationals")
        arr = arr.real.astype(object)
    types = set(map(type, arr.flat))
    if types == {int}:
        return _packed(arr, 1), 1
    nums, den = integer_numerators(arr if types <= {int, Fraction} else np.frompyfunc(_exact_scalar, 1, 1)(arr))
    return _packed(nums, den), den


class LabeledOperator(Immutable):
    """Square matrix on an ordered list of named tensor factors.

    A float operator holds ``data``, a complex array.  An exact one holds
    ``nums`` over ``den`` (see the module docstring), and builds its ``data``
    on first read and its PSD verdict on first use, keeping both.
    """

    __slots__ = ("layout", "nums", "den", "_data", "_psd")

    def __init__(self, layout: Sequence[Space], data, *, exact: bool | None = None):
        if exact is None:
            exact = isinstance(data, np.ndarray) and data.dtype == object
        self._set(layout, *((None, *_numerators(data)) if exact else (np.array(data, dtype=complex), None, None)))

    @classmethod
    def from_numerators(cls, layout: Sequence[Space], nums, den: int) -> "LabeledOperator":
        """The exact operator ``nums / den``, from an integer (or bool) array and a positive int: no ``Fraction``."""
        nums = np.asarray(nums)
        if nums.dtype.kind not in "biu" or type(den) is not int or den < 1:
            raise ValueError(f"need integer numerators over a positive int, not {nums.dtype} over {den!r}")
        return cls._over(layout, nums, den)

    @classmethod
    def _over(cls, layout: Sequence[Space], nums: np.ndarray, den: int) -> "LabeledOperator":
        """:meth:`from_numerators` unchecked: ``nums`` may also hold Python ints in an object array."""
        op = cls.__new__(cls)
        op._set(layout, None, _packed(nums, den), den)
        return op

    def _set(self, layout, data, nums, den) -> None:
        layout = _check_layout(layout)
        held = data if nums is None else nums
        side = _side(layout)
        if held.shape != (side, side):
            raise LayoutMismatch(f"data shape {held.shape} does not match layout side {side}")
        held.flags.writeable = False
        for name, value in zip(self.__slots__, (layout, nums, den, data, None)):
            object.__setattr__(self, name, value)

    # -- basic queries -----------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The matrix; exact entries are built by :func:`rational_entries` on first read."""
        if self._data is None:
            object.__setattr__(self, "_data", rational_entries(self.nums, self.den))
            self._data.flags.writeable = False
        return self._data

    @property
    def side(self) -> int:
        return (self._data if self.nums is None else self.nums).shape[0]

    @property
    def exact(self) -> bool:
        return self.nums is not None

    @classmethod
    def identity(cls, layout: Sequence[Space], *, exact: bool = False) -> "LabeledOperator":
        return cls(layout, np.eye(_side(tuple(layout)), dtype=int), exact=exact)

    def trace(self):
        """Matrix trace; a Fraction/int for exact data, complex for floats."""
        return np.trace(self.data)

    def is_hermitian(self, atol: float = HERMITIAN_ATOL) -> bool:
        if self.exact:
            return bool(np.array_equal(self.nums, self.nums.T))
        return bool(np.max(np.abs(self.data - self.data.conj().T)) <= atol)

    def is_psd(self, atol: float = HERMITIAN_ATOL) -> bool:
        """PSD test: exact elimination on the numerators, once per operator, or eigenvalue floor for floats."""
        if self.exact:
            if self._psd is None:
                object.__setattr__(self, "_psd", exact_psd(self.nums))
            return self._psd
        if not self.is_hermitian(atol):
            return False
        w = np.linalg.eigvalsh(self.data)
        return bool(w[0] >= -max(atol, 1e-10))

    # -- scalar-kind conversions (always explicit) ---------------------------

    def to_float(self) -> "LabeledOperator":
        return LabeledOperator(self.layout, self.nums / self.den, exact=False) if self.exact else self

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other: "LabeledOperator") -> None:
        if self.layout != other.layout:
            raise LayoutMismatch(f"layouts differ: {self.layout} vs {other.layout}")
        if self.exact != other.exact:
            raise TypeError("exact and float operators do not mix implicitly")

    def __add__(self, other: "LabeledOperator") -> "LabeledOperator":
        self._check_compatible(other)
        return LabeledOperator(self.layout, self.data + other.data)

    def __sub__(self, other: "LabeledOperator") -> "LabeledOperator":
        self._check_compatible(other)
        return LabeledOperator(self.layout, self.data - other.data)

    def scale(self, factor) -> "LabeledOperator":
        if self.exact and isinstance(factor, (float, complex)):
            raise TypeError("exact operator scaled by float; convert explicitly")
        return LabeledOperator(self.layout, self.data * factor)

    def __matmul__(self, other: "LabeledOperator") -> "LabeledOperator":
        self._check_compatible(other)
        return LabeledOperator(self.layout, np.dot(self.data, other.data))

    def allclose(self, other: "LabeledOperator", atol: float = 1e-12) -> bool:
        self._check_compatible(other)
        if self.exact:
            return bool(np.all(self.data == other.data))
        return bool(np.max(np.abs(self.data - other.data)) <= atol)

    def __repr__(self) -> str:
        kind = "exact" if self.exact else "float"
        return f"LabeledOperator({[s.name for s in self.layout]}, side={self.side}, {kind})"


class Vec(Immutable):
    """Complex float column vector on an ordered list of named tensor factors.

    ``data`` is an owned, read-only copy of what was passed in.
    """

    __slots__ = ("layout", "data")

    def __init__(self, layout: Sequence[Space], data):
        layout = _check_layout(layout)
        arr = np.array(data, dtype=complex)
        if arr.shape != (_side(layout),):
            raise LayoutMismatch(
                f"vector length {arr.shape} does not match layout side {_side(layout)}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "data", arr)

    def __repr__(self) -> str:
        return f"Vec({[s.name for s in self.layout]}, len={self.data.shape[0]})"


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def kron(a: LabeledOperator, b: LabeledOperator) -> LabeledOperator:
    """Tensor product; the layout is a's labels followed by b's, which must not share one."""
    if a.exact != b.exact:
        raise TypeError("exact and float operators do not mix implicitly")
    return LabeledOperator(a.layout + b.layout, np.kron(a.data, b.data))


def _label_keys(labels: Iterable) -> list:
    """Each label's field tuple, compared in C where ``Space.__eq__`` runs Python code; ``None`` for a non-``Space``."""
    return [_FIELDS(s) if type(s) is Space else None for s in labels]


def permute_to_layout(op: LabeledOperator, target: Sequence[Space]) -> LabeledOperator:
    """Reorder tensor factors; spectrum and trace are unchanged."""
    target = tuple(target)
    fields, wanted = list(map(_FIELDS, op.layout)), _label_keys(target)
    if len(wanted) != len(fields) or set(wanted) != set(fields):
        raise LayoutMismatch(f"{target} is not a permutation of {op.layout}")
    if wanted == fields:
        return op
    k = len(op.layout)
    dims = _dims(op.layout)
    perm = list(map(fields.index, wanted))
    tens = (op.nums if op.exact else op.data).reshape(dims + dims).transpose(perm + [k + p for p in perm])
    tens = tens.reshape(op.side, op.side)
    # a reorder moves the numerators over the same denominator
    return LabeledOperator._over(target, tens, op.den) if op.exact else LabeledOperator(target, tens)


def partial_trace(op: LabeledOperator, labels: Iterable[Space]) -> LabeledOperator:
    """Trace out the given labels; the total trace is preserved."""
    labels = list(labels)
    fields, removed = list(map(_FIELDS, op.layout)), _label_keys(labels)
    for s, key in zip(labels, removed):
        if key not in fields:
            raise UnknownLabel(f"{s} not in layout {op.layout}")
    out = [key in removed for key in fields]
    keep = [s for s, gone in zip(op.layout, out) if not gone]
    traced = [s for s, gone in zip(op.layout, out) if gone]
    moved = permute_to_layout(op, tuple(keep) + tuple(traced))
    dk = _side(keep)
    dt = _side(traced)
    return LabeledOperator(tuple(keep), np.trace(moved.data.reshape(dk, dt, dk, dt), axis1=1, axis2=3))


def dephase(op: LabeledOperator) -> LabeledOperator:
    """Zero all off-diagonal entries (idempotent, trace preserving); exact entries stay exact."""
    return LabeledOperator(op.layout, np.diag(np.diag(op.data)))


def eig_hermitian(op: LabeledOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian operator.

    Returns ascending eigenvalues and a unitary matrix of column
    eigenvectors; exact inputs are converted to floats first.
    """
    work = op.to_float()
    if not work.is_hermitian(HERMITIAN_ATOL):
        raise NotHermitian("eig_hermitian requires a Hermitian operator")
    w, v = np.linalg.eigh(work.data)
    return w, v


def rational_entry(n: int, den: int, *, whole=int):
    """The exact value ``n / den``: a ``Fraction``, or ``whole`` of it when it is whole."""
    return Fraction(n, den) if n % den else whole(n // den)


def rational_entries(nums: np.ndarray, den: int, *, whole=int) -> np.ndarray:
    """The object array ``nums / den``: a shared :func:`rational_entry` per distinct value."""
    if den == 1 and whole is int:
        return nums.astype(object)
    values = {n: rational_entry(n, den, whole=whole) for n in set(nums.ravel().tolist())}
    return np.frompyfunc(values.__getitem__, 1, 1)(nums)


def integer_numerators(data: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact data as integer numerators over one common denominator.

    Returns ``(nums, den)`` with ``data == nums / den`` entrywise: ``den``
    is the lcm of the entries' denominators and ``nums`` an object array
    of Python ints of the same shape.
    """
    flat = data.ravel().tolist()
    den = math.lcm(*{x.denominator for x in flat})
    nums = [x.numerator * (den // x.denominator) for x in flat]
    return np.array(nums, dtype=object).reshape(data.shape), den


def _components(a: list[list[int]]) -> list[list[int]]:
    """The connected components of the nonzero pattern of a square matrix's upper triangle.

    Entry (i, j), i < j, links i and j both ways; each component is an
    ascending index list, and the components come in order of their least
    index.
    """
    unseen = set(range(len(a)))
    components = []
    while unseen:
        start = min(unseen)
        unseen.remove(start)
        component, frontier = [start], [start]
        while frontier:
            i = frontier.pop()
            linked = [j for j in unseen if (a[i][j] if i < j else a[j][i])]
            unseen.difference_update(linked)
            component += linked
            frontier += linked
        components.append(sorted(component))
    return components


def _bareiss_psd(a: list[list[int]]) -> bool:
    """Symmetric Bareiss elimination on an integer matrix's upper triangle (see :func:`exact_psd`)."""
    n = len(a)
    prev = 1
    for k in range(n):
        pivot_row = a[k]
        p = pivot_row[k]
        if p < 0:
            return False
        if p == 0:
            if any(pivot_row[k + 1 :]):
                return False
            continue
        for i in range(k + 1, n):
            f = pivot_row[i]
            a[i][i:] = [(p * x - f * y) // prev for x, y in zip(a[i][i:], pivot_row[i:])]
        prev = p
    return True


def exact_psd(nums: np.ndarray) -> bool:
    """Exact PSD test for real-rational data: symmetry, then symmetric Bareiss elimination per block.

    Takes integer numerators over one positive denominator, an exact
    operator's ``nums`` or :func:`integer_numerators` of its ``data``: no
    fraction is formed, and the data is symmetric, or PSD, exactly when the
    numerators are.  The elimination runs on Python ints, since its
    products outgrow int64.  Step k replaces each upper-triangle
    entry (i, j) below the pivot p = a[k][k] by
    (p a[i][j] - a[k][i] a[k][j]) / prev, an exact division by the previous pivot (Bareiss, Math. Comp. 22,
    1968).  The diagonal then carries the LDL pivots times a positive
    leading minor, so it has their signs.  A negative pivot means
    indefinite; a zero pivot forces its row to vanish (otherwise
    indefinite), and is then skipped without updating the divisor, which
    is the same elimination on the matrix without that row and column.

    The elimination reads only the upper triangle, and runs on each
    connected component of that triangle's nonzero pattern on its own: a
    symmetric matrix is a permuted block diagonal of those components, and
    is PSD exactly when every block is.
    """
    if not np.array_equal(nums, nums.T):
        return False
    a = nums.tolist()
    return all(_bareiss_psd([[a[i][j] for j in block] for i in block]) for block in _components(a))


# ---------------------------------------------------------------------------
# serialization (shared wire format for reports and matrix dumps)
# ---------------------------------------------------------------------------


def ratio_str(x) -> str:
    """An exact scalar as "p/q"; a Python int n prints as "n/1"."""
    return f"{x.numerator}/{x.denominator}"


def operator_jsonable(op: LabeledOperator) -> dict:
    """Nested-list form: float entries as [re, im], exact entries as "p/q"."""
    entry = ratio_str if op.exact else lambda z: [z.real, z.imag]
    data = [list(map(entry, row)) for row in op.data.tolist()]
    return {"layout": [s.name for s in op.layout], "exact": op.exact, "data": data}
