import numpy as np
import pytest
from fractions import Fraction

from ordergame.tensor import (
    A_IN,
    A_OUT,
    B_IN,
    C_IN,
    S_FINAL,
    S_PREP,
    LabelCollision,
    LabeledOperator,
    LayoutMismatch,
    NotHermitian,
    Space,
    UnknownLabel,
    INT64_BOUND,
    Vec,
    dephase,
    eig_hermitian,
    exact_psd,
    integer_numerators,
    kron,
    operator_jsonable,
    partial_trace,
    permute_to_layout,
)
from reference import vectorize

Q0, Q1, Q2 = Space("Q0", 2), Space("Q1", 2), Space("Q2", 2)
E = Space("E", 2)


def rand_op(rng, layout, hermitian=False):
    side = int(np.prod([s.dim for s in layout]))
    m = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    if hermitian:
        m = (m + m.conj().T) / 2
    return LabeledOperator(layout, m)


class TestKron:
    def test_identity_case(self):
        i2a = LabeledOperator.identity((Q0,))
        i2b = LabeledOperator.identity((Q1,))
        out = kron(i2a, i2b)
        assert out.layout == (Q0, Q1)
        assert np.allclose(out.data, np.eye(4))

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(7)
        x = rand_op(rng, (Q0,))
        y = rand_op(rng, (Q1,))
        assert np.isclose(kron(x, y).trace(), x.trace() * y.trace())

    def test_label_collision(self):
        x = LabeledOperator.identity((Q0,))
        with pytest.raises(LabelCollision):
            kron(x, x)

    def test_exact_float_do_not_mix(self):
        x = LabeledOperator.identity((Q0,), exact=True)
        y = LabeledOperator.identity((Q1,))
        with pytest.raises(TypeError):
            kron(x, y)

    def test_exact_trace_multiplicative(self):
        x = LabeledOperator((Q0,), np.array([[Fraction(1, 3), 1], [0, Fraction(2, 7)]], dtype=object))
        y = LabeledOperator((Q1,), np.array([[Fraction(5, 2), 0], [Fraction(1, 9), 2]], dtype=object))
        assert kron(x, y).trace() == x.trace() * y.trace()


class TestPartialTrace:
    def test_entangled_pair_marginal(self):
        ket = vectorize(np.eye(2), (Q0,), (Q1,))
        proj = LabeledOperator(ket.layout, np.outer(ket.data, ket.data.conj()))
        out = partial_trace(proj, [Q1])
        assert out.layout == (Q0,)
        assert np.allclose(out.data, np.eye(2))

    def test_first_factor_of_product(self):
        rng = np.random.default_rng(11)
        x = rand_op(rng, (Q0,))
        y = rand_op(rng, (Q1,))
        out = partial_trace(kron(x, y), [Q0])
        assert np.allclose(out.data, x.trace() * y.data)

    def test_trace_preserved_and_full_trace(self):
        rng = np.random.default_rng(12)
        op = rand_op(rng, (Q0, Q1, Q2))
        reduced = partial_trace(op, [Q1])
        assert np.isclose(reduced.trace(), op.trace())
        everything = partial_trace(op, [Q0, Q1, Q2])
        assert everything.layout == ()
        assert everything.data[0, 0] == op.trace()

    def test_unknown_label(self):
        op = LabeledOperator.identity((Q0,))
        with pytest.raises(UnknownLabel):
            partial_trace(op, [Q1])

    def test_exact_path(self):
        def exact_entries(data):
            return all(type(x) in (int, Fraction) for x in np.ravel(data))

        eye = LabeledOperator.identity((Q0, Q1), exact=True)
        out = partial_trace(eye, [Q1])
        assert out.exact and out.trace() == 4
        assert exact_entries(eye.data) and exact_entries(out.data)
        assert type(eye.trace()) is int and eye.trace() == 4
        # ints off the diagonal, Fractions 0/3, 5/3, 10/3, 15/3 on it
        data = [[Fraction(4 * i + j, 3) if i == j else 4 * i + j for j in range(4)] for i in range(4)]
        op = LabeledOperator((Q0, Q1), np.array(data, dtype=object))
        assert type(op.trace()) is Fraction and op.trace() == 10
        assert exact_entries(op.data.conj().T)
        for labels in ([Q0], [Q1], [Q0, Q1]):
            reduced = partial_trace(op, labels)
            assert reduced.exact and exact_entries(reduced.data)
            assert reduced.trace() == op.trace()
        deph = dephase(op)
        assert deph.exact and exact_entries(deph.data)
        assert np.array_equal(deph.data, np.diag(np.diag(op.data)))


class TestPermute:
    def test_identity_permutation(self):
        rng = np.random.default_rng(13)
        op = rand_op(rng, (Q0, Q1))
        assert permute_to_layout(op, (Q0, Q1)) is op

    def test_swap_two_factors(self):
        rng = np.random.default_rng(14)
        x = rand_op(rng, (Q0,))
        y = rand_op(rng, (Q1,))
        swapped = permute_to_layout(kron(x, y), (Q1, Q0))
        assert swapped.allclose(kron(y, x), atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(15)
        op = rand_op(rng, (Q0, Q1, Q2))
        forward = permute_to_layout(op, (Q2, Q0, Q1))
        back = permute_to_layout(forward, (Q0, Q1, Q2))
        assert back.allclose(op, atol=0.0)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(16)
        op = rand_op(rng, (Q0, Q1, Q2), hermitian=True)
        w0, _ = eig_hermitian(op)
        w1, _ = eig_hermitian(permute_to_layout(op, (Q1, Q2, Q0)))
        assert np.max(np.abs(w0 - w1)) <= 1e-10

    def test_not_a_permutation(self):
        op = LabeledOperator.identity((Q0, Q1))
        with pytest.raises(LayoutMismatch):
            permute_to_layout(op, (Q0, Q2))

    @pytest.mark.parametrize("label", ["Q1", ("Q1", 2), None])
    def test_a_label_that_is_no_space_matches_none(self, label):
        # labels are matched on their field tuples, which only a Space has
        op = LabeledOperator.identity((Q0, Q1))
        with pytest.raises(LayoutMismatch):
            permute_to_layout(op, (label, Q0))
        with pytest.raises(UnknownLabel):
            partial_trace(op, [label])


class TestDephase:
    def test_diagonal_fixed_point(self):
        op = LabeledOperator((Q0,), np.diag([1.0, 2.0]))
        assert dephase(op).allclose(op)

    def test_plus_state(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        out = dephase(LabeledOperator((Q0,), np.outer(plus, plus)))
        assert np.allclose(out.data, np.eye(2) / 2)

    def test_idempotent_large(self):
        rng = np.random.default_rng(17)
        layout = (S_PREP, A_IN, A_OUT, B_IN, C_IN, S_FINAL, Space("X1", 2), Space("X2", 2))
        op = rand_op(rng, layout)
        once = dephase(op)
        assert dephase(once).allclose(once, atol=0.0)
        assert np.isclose(once.trace(), op.trace())


def exact_operators():
    """Exact operators on (Q0, Q1): small Fractions, a denominator past INT64_BOUND, and a numerator past it."""
    rng = np.random.default_rng(11)
    pairs = zip(rng.integers(-9, 9, (4, 4)), rng.integers(1, 9, (4, 4)))
    small = np.array([[Fraction(int(n), int(d)) for n, d in zip(*row)] for row in pairs], dtype=object)
    tiny = np.diag([Fraction(1, 3**41), Fraction(2, 5), 0, 1]).astype(object)
    # off the diagonal, so that dephasing it leaves int64 numerators
    huge = np.array([[2, 2**60, 0, 0], [1, 3, 0, 0], [0, 0, 5, Fraction(1, 2)], [0, 0, Fraction(1, 2), 7]], object)
    return [LabeledOperator((Q0, Q1), data) for data in (small, tiny, huge)]


def entrywise(layout, entry):
    """The exact operator on ``layout`` whose entry (i, j) is ``entry(i, j)``, built one entry at a time."""
    side = 2 ** len(layout)
    return LabeledOperator(layout, np.array([[entry(i, j) for j in range(side)] for i in range(side)], dtype=object))


def assert_same_entries(got, want):
    """Equal exact layouts and ``.data``, entry for entry: values and Python types."""
    assert got.exact and want.exact and got.layout == want.layout
    assert [type(x) for x in got.data.flat] == [type(x) for x in want.data.flat]
    assert got.data.tolist() == want.data.tolist()
    # nums are int64 exactly when they and den fit within INT64_BOUND
    fits = got.den <= INT64_BOUND and all(abs(int(n)) <= INT64_BOUND for n in got.nums.flat)
    assert got.nums.dtype == (np.int64 if fits else object)


class TestExactNumeratorOps:
    """kron, partial_trace and dephase act on .data and permute_to_layout on the numerators; each matches an entrywise reference."""

    @pytest.mark.parametrize("a", range(3))
    @pytest.mark.parametrize("b", range(3))
    def test_kron_matches_the_data_reference(self, a, b):
        x, y = exact_operators()[a], LabeledOperator((Q2, E), exact_operators()[b].data)
        side = y.side
        want = entrywise(x.layout + y.layout, lambda i, j: x.data[i // side, j // side] * y.data[i % side, j % side])
        assert_same_entries(kron(x, y), want)

    def test_kron_falls_back_to_python_ints_instead_of_wrapping(self):
        big = LabeledOperator.from_numerators((Q0,), np.array([[2**40, 0], [0, 1]]), 1)
        out = kron(big, LabeledOperator.from_numerators((Q1,), np.array([[2**40, 0], [0, 3]]), 1))
        assert out.nums.dtype == object and out.data[0, 0] == 2**80
        # int64 products of the same numerators wrap around
        assert np.kron(big.nums, big.nums)[0, 0] != 2**80
        over = LabeledOperator.from_numerators((Q0,), np.eye(2, dtype=int), 2**30)
        out = kron(over, LabeledOperator.from_numerators((Q1,), np.eye(2, dtype=int), 2**30))
        assert out.nums.dtype == object and out.den == 2**60 and out.data[0, 0] == Fraction(1, 2**60)

    def test_numerators_and_denominator_at_the_bound_stay_int64(self):
        at = LabeledOperator.from_numerators((Q0,), np.array([[-INT64_BOUND, 0], [0, INT64_BOUND]]), INT64_BOUND)
        assert at.nums.dtype == np.int64 and at.data.tolist() == [[-1, 0], [0, 1]]
        for nums, den in [([[-INT64_BOUND - 1, 0], [0, 1]], 1), ([[0, 0], [0, INT64_BOUND + 1]], 1), ([[1, 0], [0, 1]], INT64_BOUND + 1)]:
            past = LabeledOperator.from_numerators((Q0,), np.array(nums), den)
            assert past.nums.dtype == object and past.data.tolist() == [[Fraction(n, den) for n in row] for row in nums]

    @pytest.mark.parametrize("k", range(3))
    def test_permute_matches_the_data_reference(self, k):
        op = exact_operators()[k]
        # the reorder of .data that the reorder of the numerators replaced
        want = LabeledOperator((Q1, Q0), op.data.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4))
        got = permute_to_layout(op, (Q1, Q0))
        assert got.den == op.den
        assert_same_entries(got, want)

    @pytest.mark.parametrize("k", range(3))
    @pytest.mark.parametrize("traced", [(Q0,), (Q1,), (Q1, Q0), ()])
    def test_partial_trace_matches_the_data_reference(self, k, traced):
        op = exact_operators()[k]
        keep = tuple(s for s in op.layout if s not in traced)
        dt = 2 ** len(traced)
        moved = permute_to_layout(op, keep + traced).data
        want = entrywise(keep, lambda i, j: sum(moved[i * dt + t, j * dt + t] for t in range(dt)))
        assert_same_entries(partial_trace(op, traced), want)

    def test_partial_trace_falls_back_to_python_ints_past_the_bound(self):
        op = LabeledOperator.from_numerators((Q0, Q1), np.diag([INT64_BOUND, 1, 3, INT64_BOUND]), 1)
        assert op.nums.dtype == np.int64
        got = partial_trace(op, (Q1,))
        assert got.nums.dtype == object and got.data.tolist() == [[INT64_BOUND + 1, 0], [0, INT64_BOUND + 3]]
        assert all(type(x) is int for x in got.data.flat)

    @pytest.mark.parametrize("k", range(3))
    def test_dephase_matches_the_data_reference(self, k):
        op = exact_operators()[k]
        assert_same_entries(dephase(op), entrywise(op.layout, lambda i, j: op.data[i, j] if i == j else 0))


class TestVectorize:
    def test_identity_gives_pair_ket(self):
        v = vectorize(np.eye(2), (Q0,), (Q1,))
        assert np.allclose(v.data, [1, 0, 0, 1])

    def test_isometry(self):
        rng = np.random.default_rng(18)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        n = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        vm = vectorize(m, (Q0,), (Q1,))
        vn = vectorize(n, (Q0,), (Q1,))
        assert np.isclose(np.vdot(vm.data, vn.data), np.trace(m.conj().T @ n))

    def test_shape_mismatch(self):
        with pytest.raises(LayoutMismatch):
            vectorize(np.eye(3), (Q0,), (Q1,))


class TestEig:
    def test_identity(self):
        w, v = eig_hermitian(LabeledOperator.identity((Q0, Q1)))
        assert np.allclose(w, 1.0)
        assert np.allclose(v.conj().T @ v, np.eye(4))

    def test_pauli_z(self):
        w, _ = eig_hermitian(LabeledOperator((Q0,), np.diag([1.0, -1.0])))
        assert np.allclose(w, [-1.0, 1.0])

    def test_rejects_non_hermitian(self):
        op = LabeledOperator((Q0,), np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotHermitian):
            eig_hermitian(op)


class TestScalarKinds:
    def test_exact_stays_reduced(self):
        op = LabeledOperator((Q0,), np.array([[Fraction(2, 4), 0], [0, 1]], dtype=object))
        assert op.data[0, 0] == Fraction(1, 2)
        assert op.data[0, 0].denominator == 2

    def test_explicit_conversions(self):
        op = LabeledOperator.identity((Q0,), exact=True)
        as_float = op.to_float()
        assert not as_float.exact
        assert LabeledOperator(as_float.layout, as_float.data, exact=True).allclose(op)

    @pytest.mark.parametrize("cls, data", [
        (LabeledOperator, [[0.5, 0.1], [0.1, 1.0 / 3.0]]),
    ])
    def test_exact_construction_converts_floats_losslessly(self, cls, data):
        obj = cls((Q0,), data, exact=True)
        assert obj.exact
        assert all(type(x) is Fraction for x in np.ravel(obj.data))
        assert np.ravel(obj.data).tolist() == [Fraction(x) for x in np.ravel(data)]

    def test_exact_operator_from_floats_stays_exact(self):
        op = LabeledOperator((Q0,), [[0.5, 0.1], [0.1, 0.5]], exact=True)
        assert type(op.trace()) is Fraction and op.trace() == 1
        scaled = op.scale(Fraction(1, 3))
        assert all(type(x) is Fraction for x in np.ravel(scaled.data))
        assert scaled.data[0, 0] == Fraction(1, 6)

    def test_exact_construction_keeps_ints(self):
        op = LabeledOperator((Q0,), np.array([[True, False], [False, True]]), exact=True)
        assert all(type(x) is int for x in np.ravel(op.data))

    @pytest.mark.parametrize("cls, data", [
        (LabeledOperator, [[0.5, 0.5j], [-0.5j, 0.5]]),
    ])
    def test_exact_construction_rejects_complex(self, cls, data):
        with pytest.raises(ValueError):
            cls((Q0,), data, exact=True)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_exact_construction_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            LabeledOperator((Q0,), [[bad, 0.0], [0.0, 1.0]], exact=True)
        with pytest.raises(ValueError):
            LabeledOperator((Q0,), np.array([[1.0, 0.0], [0.0, bad]], dtype=complex), exact=True)

    @pytest.mark.parametrize("cls", [LabeledOperator])
    def test_object_data_follows_the_exact_rules(self, cls):
        entries = [np.float64(0.5), True, 3, Fraction(1, 3)]
        layout, data = (Q0,), np.array([entries[:2], entries[2:]], dtype=object)
        for obj in (cls(layout, data), cls(layout, data, exact=True)):
            assert obj.exact
            assert [type(x) for x in np.ravel(obj.data)] == [Fraction, int, int, Fraction]
            assert np.ravel(obj.data).tolist() == [Fraction(1, 2), 1, 3, Fraction(1, 3)]

    def test_object_float_serializes_as_a_ratio(self):
        op = LabeledOperator((Q0,), np.array([[0.5, 0], [0, 0.1]], dtype=object))
        assert operator_jsonable(op)["data"][0][0] == "1/2"
        assert op.data[1, 1] == Fraction(0.1)

    @pytest.mark.parametrize("bad", [0.5j, complex(1, 0), np.complex128(1), float("inf"), float("nan"), "1/2", None],
                             ids=["complex", "real-complex", "numpy-complex", "inf", "nan", "str", "None"])
    def test_object_data_rejects_other_entries(self, bad):
        data = np.array([[1, 0], [0, 1]], dtype=object)
        data[0, 1] = data[1, 0] = bad
        with pytest.raises(ValueError):
            LabeledOperator((Q0,), data)

    def test_integer_numerators(self):
        data = np.array([[Fraction(1, 6), 2], [Fraction(-3, 4), 0]], dtype=object)
        nums, den = integer_numerators(data)
        assert den == 12
        assert nums.tolist() == [[2, 24], [-9, 0]]
        assert all(type(x) is int for x in nums.ravel())
        assert integer_numerators(np.array([3, -1], dtype=object))[1] == 1

    def test_to_exact_rejects_complex(self):
        with pytest.raises(ValueError):
            LabeledOperator((Q0,), [[1.0, 1e-300j], [-1e-300j, 1.0]], exact=True)

    def test_to_exact_is_lossless(self):
        op = LabeledOperator((Q0,), np.array([[0.1, 0.0], [0.0, 1.0 / 3.0]], dtype=complex))
        exact = LabeledOperator(op.layout, op.data, exact=True)
        assert exact.data[0, 0] == Fraction(0.1) != Fraction(1, 10)
        assert exact.data[1, 1] == Fraction(1.0 / 3.0) != Fraction(1, 3)
        assert np.array_equal(exact.to_float().data, op.data)

    def test_no_implicit_mixing(self):
        a = LabeledOperator.identity((Q0,), exact=True)
        b = LabeledOperator.identity((Q0,))
        with pytest.raises(TypeError):
            _ = a + b
        with pytest.raises(TypeError):
            a.scale(0.5)

    def test_exact_psd(self):
        good = LabeledOperator((Q0,), np.array([[Fraction(1, 3), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 3)]], dtype=object))
        assert good.is_psd()
        bad = LabeledOperator((Q0,), np.array([[Fraction(1, 3), 1], [1, Fraction(1, 3)]], dtype=object))
        assert not bad.is_psd()
        # zero pivot with nonzero row is indefinite
        edge = LabeledOperator((Q0,), np.array([[0, 1], [1, 0]], dtype=object))
        assert not edge.is_psd()

    @pytest.mark.parametrize(
        "nums, psd",
        [
            # a pivot of exactly -1 is negative
            ([[-1]], False),
            # the first step divides by 1: a divisor of 2 would floor the pivot 1 to 0 beside a nonzero entry
            ([[1, 1, 1], [1, 2, 0], [1, 0, 3]], True),
            # two zero pivots in one block: each is skipped and never becomes the divisor
            ([[1] * 4] * 4, True),
        ],
    )
    def test_exact_psd_on_small_integer_matrices(self, nums, psd):
        assert exact_psd(np.array(nums)) is psd


class TestSerialization:
    def test_float_entries(self):
        d = operator_jsonable(LabeledOperator((Q0,), np.array([[1, 1j], [-1j, 1]]) / 2))
        assert d["layout"] == ["Q0"]
        assert d["data"][0][1] == [0.0, 0.5]

    def test_exact_entries(self):
        op = LabeledOperator((Q0,), np.array([[Fraction(1, 3), 0], [0, 2]], dtype=object))
        d = operator_jsonable(op)
        assert d["data"][0][0] == "1/3"
        assert d["data"][1][1] == "2/1"


class TestImmutable:
    @pytest.mark.parametrize(
        "value",
        [LabeledOperator((Q0,), np.eye(2)), Vec((Q0,), [1, 0])],
        ids=["LabeledOperator", "Vec"],
    )
    def test_fields_cannot_be_set_or_deleted(self, value):
        data = value.data
        with pytest.raises(AttributeError):
            value.data = np.zeros_like(data)
        with pytest.raises(AttributeError):
            del value.data
        with pytest.raises(AttributeError):
            value.extra = 1
        assert value.data is data

    @pytest.mark.parametrize(
        "value",
        [
            LabeledOperator((Q0, Q1), np.eye(4)),
            LabeledOperator.identity((Q0, Q1), exact=True),
            Vec((Q0,), [1, 0]),
        ],
        ids=["float-LabeledOperator", "exact-LabeledOperator", "Vec"],
    )
    def test_data_is_owned_and_read_only(self, value):
        before = value.data.tolist()
        assert value.data.base is None
        with pytest.raises(ValueError):
            value.data[(0,) * value.data.ndim] = 7
        with pytest.raises(ValueError):
            value.data[...] = 0
        assert value.data.tolist() == before

    def test_exact_identity_keeps_its_trace(self):
        e = LabeledOperator.identity((Q0, Q1, Q2, E), exact=True)
        with pytest.raises(ValueError):
            e.data[0, 0] = 7
        assert e.trace() == 16

    @pytest.mark.parametrize(
        "build, index",
        [(lambda a: LabeledOperator((Q0, Q1, Q2, E), a), (0, 0)), (lambda a: Vec((Q0, Q1, Q2, E), a[0]), (0,))],
        ids=["LabeledOperator", "Vec"],
    )
    def test_writing_the_input_leaves_the_value_unchanged(self, build, index):
        a = np.eye(16, dtype=complex)
        value = build(a)
        a[0, 0] = 5
        assert value.data[index] == 1


def test_invariant_sweep_1000_seeded_instances():
    """Trace multiplicativity, marginal preservation, dephasing idempotence
    and eigendecomposition residuals on 1000 random operators."""
    rng = np.random.default_rng(20240)
    layout_pool = [(Q0,), (Q0, Q1), (Q0, Q1, Q2)]
    for trial in range(1000):
        layout = layout_pool[trial % len(layout_pool)]
        op = rand_op(rng, layout, hermitian=True)
        other = rand_op(rng, (E,))

        prod = kron(op, other)
        assert abs(prod.trace() - op.trace() * other.trace()) <= 1e-10

        reduced = partial_trace(prod, [E])
        assert abs(reduced.trace() - prod.trace()) <= 1e-10

        deph = dephase(op)
        assert dephase(deph).allclose(deph, atol=0.0)

        w, v = eig_hermitian(op)
        recon = (v * w) @ v.conj().T
        assert np.max(np.abs(recon - op.data)) <= 1e-10
        assert np.max(np.abs(v.conj().T @ v - np.eye(op.side))) <= 1e-10
        assert np.all(np.diff(w) >= -1e-14)


def test_psd_diagonal_nonnegative_after_dephase():
    rng = np.random.default_rng(99)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    psd = LabeledOperator((Q0, Q1, Q2), m @ m.conj().T)
    deph = dephase(psd)
    assert np.all(np.real(np.diag(deph.data)) >= 0)
