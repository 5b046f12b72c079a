"""Property tests of the exact PSD test: integer Bareiss elimination must give
the same verdict as plain Fraction elimination on random rational symmetric
matrices up to 6x6."""

from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from ordergame.tensor import LabeledOperator, Space, exact_psd, integer_numerators  # noqa: E402

settings = hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
rationals = st.builds(Fraction, st.integers(-24, 24), st.sampled_from((1, 2, 3, 5, 6, 12)))
#: Floats whose exact values have large power-of-two denominators.
floats = st.sampled_from((0.1, 0.2, 0.3, -0.7, 1.0 / 3.0, 2.0 / 7.0, 1e-3, 0.0, 1.0))


def fraction_psd(mat) -> bool:
    """Reference: Gaussian elimination in Fractions; a zero pivot forces its row to vanish."""
    n = len(mat)
    a = [[Fraction(mat[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        p = a[i][i]
        if p < 0:
            return False
        if p == 0:
            if any(a[i][j] != 0 for j in range(i, n)):
                return False
            continue
        for r in range(i + 1, n):
            if a[r][i] == 0:
                continue
            f = a[r][i] / p
            for c in range(i, n):
                a[r][c] -= f * a[i][c]
    return True


def gram(b: np.ndarray) -> np.ndarray:
    """B B^T in exact arithmetic."""
    return np.dot(b, b.T)


def verdict(mat: np.ndarray) -> bool:
    """The package's verdict, through the operator and directly; both must agree."""
    op = LabeledOperator((Space("M", mat.shape[0]),), mat, exact=True)
    got = op.is_psd()
    assert exact_psd(integer_numerators(op.data)[0]) == got
    return got


@st.composite
def factors(draw, entries=rationals, min_n=1, singular=False):
    """An n x r matrix B, min_n <= n <= 6, so B B^T has rank at most r <= n (r < n if singular)."""
    n = draw(st.integers(min_n, 6))
    r = draw(st.integers(1, n - 1 if singular else n))
    return np.array(draw(st.lists(entries, min_size=n * r, max_size=n * r)), dtype=object).reshape(n, r)


@st.composite
def symmetric(draw):
    n = draw(st.integers(1, 6))
    upper = draw(st.lists(rationals, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    mat = np.zeros((n, n), dtype=object)
    mat[np.triu_indices(n)] = upper
    return mat + np.triu(mat, 1).T


@settings
@hypothesis.given(factors())
def test_gram_matrices_are_psd(b):
    mat = gram(b)
    assert fraction_psd(mat.tolist())
    assert verdict(mat)


@settings
@hypothesis.given(symmetric())
def test_symmetric_matrices_match_the_reference(mat):
    assert verdict(mat) == fraction_psd(mat.tolist())


@settings
@hypothesis.given(factors(min_n=3), st.data())
def test_zero_pivot_with_a_nonzero_row_is_indefinite(b, data):
    # rows k-1 and k of B agree, so the pivot at k vanishes; bumping entry
    # (k, j), j > k, leaves it at zero but makes its row nonzero
    n = b.shape[0]
    k = data.draw(st.integers(1, n - 2))
    j = data.draw(st.integers(k + 1, n - 1))
    b[k] = b[k - 1]
    mat = gram(b)
    mat[k, j] = mat[j, k] = mat[k, j] + data.draw(rationals.filter(bool))
    assert not fraction_psd(mat.tolist())
    assert not verdict(mat)


@settings
@hypothesis.given(factors(min_n=2), st.data())
def test_a_non_symmetric_matrix_with_a_psd_upper_triangle_is_rejected(b, data):
    # the elimination reads only the upper triangle, which stays PSD here;
    # only the symmetry check sees the entry moved below the diagonal
    mat = gram(b)
    i = data.draw(st.integers(1, mat.shape[0] - 1))
    j = data.draw(st.integers(0, i - 1))
    mat[i, j] += data.draw(rationals.filter(bool))
    assert verdict(np.triu(mat) + np.triu(mat, 1).T)
    assert not verdict(mat)


@settings
@hypothesis.given(factors(floats))
def test_large_denominators_from_floats(b):
    # exact construction from binary floats such as 0.1 gives denominators up to 2**60
    b = b.astype(float)
    n = b.shape[0]
    product = b @ b.T
    lifted = LabeledOperator((Space("M", n),), (product + product.T) / 2, exact=True).data
    for mat in (lifted, lifted - np.eye(n, dtype=int) * Fraction(1, 3)):
        assert verdict(mat) == fraction_psd(mat.tolist())
    exact_b = LabeledOperator((Space("M", b.size),), np.diag(b.ravel()), exact=True).data.diagonal()
    assert verdict(gram(exact_b.reshape(b.shape)))


@settings
@hypothesis.given(factors(min_n=2, singular=True))
def test_a_tiny_negative_shift_of_a_singular_gram_is_rejected(b):
    n = b.shape[0]
    mat = gram(b) - np.eye(n, dtype=int) * Fraction(1, 10**12)
    assert not fraction_psd(mat.tolist())
    assert not verdict(mat)
    # the float eigenvalue floor cannot see a 1e-12 dip
    assert LabeledOperator((Space("M", n),), mat.astype(float)).is_psd()


def shuffled_block_diagonal(blocks, perm) -> np.ndarray:
    """The block-diagonal matrix of ``blocks``, its rows and columns both permuted by ``perm``."""
    n = sum(len(b) for b in blocks)
    mat = np.zeros((n, n), dtype=object)
    at = 0
    for b in blocks:
        mat[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    return mat[np.ix_(perm, perm)]


@settings
@hypothesis.given(st.lists(st.one_of(symmetric(), factors().map(gram)), min_size=1, max_size=4), st.data())
def test_permuted_block_diagonal_matches_the_reference(blocks, data):
    mat = shuffled_block_diagonal(blocks, data.draw(st.permutations(range(sum(len(b) for b in blocks)))))
    want = fraction_psd(mat.tolist())
    assert want == all(fraction_psd(b.tolist()) for b in blocks)
    assert verdict(mat) == want


@settings
@hypothesis.given(factors(min_n=3), st.lists(factors().map(gram), max_size=3), st.booleans(), st.data())
def test_zero_pivot_inside_a_block(b, others, bump, data):
    # rows k-1 and k of B agree, so the block's pivot at k vanishes; with
    # its row left as is the block is PSD, with entry (k, j) bumped it is not
    n = b.shape[0]
    k = data.draw(st.integers(1, n - 2))
    b[k] = b[k - 1]
    block = gram(b)
    if bump:
        j = data.draw(st.integers(k + 1, n - 1))
        block[k, j] = block[j, k] = block[k, j] + data.draw(rationals.filter(bool))
    blocks = [block] + others
    mat = shuffled_block_diagonal(blocks, data.draw(st.permutations(range(sum(len(x) for x in blocks)))))
    assert fraction_psd(mat.tolist()) is not bump
    assert verdict(mat) is not bump


@settings
@hypothesis.given(st.lists(factors().map(gram), min_size=1, max_size=3), rationals.filter(lambda x: x < 0), st.data())
def test_one_by_one_negative_block(blocks, negative, data):
    blocks = blocks + [np.array([[negative]], dtype=object)]
    mat = shuffled_block_diagonal(blocks, data.draw(st.permutations(range(sum(len(x) for x in blocks)))))
    assert not fraction_psd(mat.tolist())
    assert not verdict(mat)
