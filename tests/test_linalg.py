import numpy as np
import pytest

from gkheat import DimensionMismatch, SingularMatrix, dense_solve
from gkheat.linalg import dct, difference_symbols, dst, idct

SIZES = list(range(1, 10)) + [64]


def cosine_matrix(n):
    """Dense orthonormal DCT-II matrix, column m the cosine vector m."""
    # exact angle indices m(2j+1) mod 4n keep the entries accurate
    angle = np.outer(2 * np.arange(n) + 1, np.arange(n)) % (4 * n)
    C = np.sqrt(2.0 / n) * np.cos(np.pi * angle / (2 * n))
    C[:, 0] = np.sqrt(1.0 / n)
    return C


def sine_matrix(J):
    """Dense orthonormal DST-I matrix, column m the sine vector m = 1..J."""
    n = J + 1
    angle = np.outer(np.arange(1, n), np.arange(1, n)) % (2 * n)
    return np.sqrt(2.0 / n) * np.sin(np.pi * angle / n)


class TestTransforms:
    @pytest.mark.parametrize("n", SIZES)
    def test_against_dense_matrices(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(3, n))
        C, S = cosine_matrix(n), sine_matrix(n)
        np.testing.assert_allclose(C.T @ C, np.eye(n), atol=1e-14)
        np.testing.assert_allclose(S.T @ S, np.eye(n), atol=1e-14)
        tol = 1e-14 * np.max(np.abs(x)) * np.sqrt(n)
        assert np.max(np.abs(dct(x) - x @ C)) <= tol
        assert np.max(np.abs(idct(x) - x @ C.T)) <= tol
        assert np.max(np.abs(dst(x) - x @ S)) <= tol
        # one row at a time gives the same numbers as the stack
        np.testing.assert_array_equal(dct(x[1]), dct(x)[1])
        np.testing.assert_array_equal(dst(x[1]), dst(x)[1])

    @pytest.mark.parametrize("n", SIZES + [500, 8000])
    def test_inverses(self, n):
        x = np.random.default_rng(n).normal(size=(2, n))
        np.testing.assert_allclose(idct(dct(x)), x, atol=1e-14)
        np.testing.assert_allclose(dst(dst(x)), x, atol=1e-14)

    @pytest.mark.parametrize("J", [1, 2, 7, 63])
    def test_difference_maps_are_diagonal(self, J):
        # A_T C_m = -s_m S_m (and A_T C_0 = 0), A_q S_m = s_m C_m
        s = difference_symbols(J)
        C, S = cosine_matrix(J + 1), sine_matrix(J)
        at = np.eye(J, J + 1, k=1) - np.eye(J, J + 1)
        aq = np.eye(J + 1, J) - np.eye(J + 1, J, k=-1)
        np.testing.assert_allclose(at @ C[:, 0], 0.0, atol=1e-15)
        np.testing.assert_allclose(at @ C[:, 1:], -S * s, atol=1e-14)
        np.testing.assert_allclose(aq @ S, C[:, 1:] * s, atol=1e-14)
        assert np.all(np.diff(s) > 0.0) and 0.0 < s[0] and s[-1] < 2.0


class TestDense:
    def test_identity(self):
        b = np.arange(5.0)
        np.testing.assert_array_equal(dense_solve(np.eye(5), b), b)

    def test_hand_elimination(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(dense_solve(a, [3.0, 3.0]), [1.0, 1.0],
                                   rtol=1e-14)

    def test_self_consistency(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = rng.normal(size=(20, 20)) + 20.0 * np.eye(20)
            b = rng.normal(size=20)
            x = dense_solve(a, b)
            np.testing.assert_allclose(a @ x, b, rtol=1e-10, atol=1e-10)

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            dense_solve(np.zeros((3, 3)), np.ones(3))

    def test_non_square(self):
        with pytest.raises(DimensionMismatch):
            dense_solve(np.zeros((2, 3)), np.ones(2))

    @pytest.mark.parametrize("a", [np.ones(4), np.ones((2, 2, 2))])
    def test_not_two_dimensional(self, a):
        with pytest.raises(DimensionMismatch):
            dense_solve(a, np.ones(2))

    def test_rhs_size_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dense_solve(np.eye(2), [1.0, 2.0, 3.0])
