import numpy as np
import pytest

from gkheat import DimensionMismatch, SingularMatrix, dense_solve


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
