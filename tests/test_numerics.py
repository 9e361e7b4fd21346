import numpy as np
import pytest
from hypothesis import given, strategies as st

from cascal.errors import DimensionMismatch, NotPositiveDefinite
from cascal.numerics import factor_psd, inverse_psd, log_det, solve_psd

from _oracles import random_spd


class TestFactorPsd:
    def test_identity_needs_no_jitter(self):
        f = factor_psd(np.eye(3), max_jitter=1e-6)
        np.testing.assert_array_equal(f.lower_triangular, np.eye(3))
        assert f.jitter_used == 0.0

    def test_known_2x2_factor(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        f = factor_psd(a, max_jitter=1e-6)
        expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        np.testing.assert_allclose(f.lower_triangular, expected, rtol=1e-12)
        lower = f.lower_triangular
        np.testing.assert_allclose(lower @ lower.T, a, rtol=1e-12)

    def test_rank_deficient_succeeds_with_jitter(self):
        ones = np.ones((2, 2))
        # the plain factorization of the rank-1 matrix must fail
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(ones)
        f = factor_psd(ones, max_jitter=1e-6)
        assert f.jitter_used > 0.0
        lower = f.lower_triangular
        np.testing.assert_allclose(
            lower @ lower.T, ones + f.jitter_used * np.eye(2), atol=1e-12
        )

    def test_indefinite_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(NotPositiveDefinite):
            factor_psd(a, max_jitter=1e-6)

    def test_reads_only_lower_triangle(self, rng):
        a = random_spd(rng, 5)
        upper_garbage = a + np.triu(rng.normal(size=(5, 5)), k=1)
        np.testing.assert_array_equal(
            factor_psd(upper_garbage, max_jitter=0.0).lower_triangular,
            factor_psd(a, max_jitter=0.0).lower_triangular,
        )

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            factor_psd(np.zeros((2, 3)), max_jitter=1e-6)

    def test_empty_matrix(self):
        f = factor_psd(np.zeros((0, 0)), max_jitter=1e-6)
        assert f.lower_triangular.shape == (0, 0)
        assert f.jitter_used == 0.0

    def test_positive_diagonal(self, rng):
        a = random_spd(rng, 12)
        f = factor_psd(a, max_jitter=1e-6)
        assert np.all(np.diag(f.lower_triangular) > 0)

    @pytest.mark.parametrize("n", [1, 3, 8, 50, 200])
    def test_reconstruction_bound(self, n):
        rng = np.random.default_rng(n)
        a = random_spd(rng, n)
        f = factor_psd(a, max_jitter=1e-6)
        lower = f.lower_triangular
        recon = lower @ lower.T - (a + f.jitter_used * np.eye(n))
        bound = 1e-10 * (1.0 + np.max(np.abs(a)))
        assert np.max(np.abs(recon)) <= bound


class TestSolvePsd:
    def test_identity_factor_returns_rhs(self, rng):
        f = factor_psd(np.eye(4), max_jitter=0.0)
        b = rng.normal(size=(4, 2))
        np.testing.assert_array_equal(solve_psd(f, b), b)

    def test_known_2x2_solve(self):
        f = factor_psd(np.array([[4.0, 2.0], [2.0, 3.0]]), max_jitter=0.0)
        x = solve_psd(f, np.array([[1.0], [0.0]]))
        np.testing.assert_allclose(x, [[0.375], [-0.25]], rtol=1e-12)

    def test_recovers_known_solution(self, rng):
        a = random_spd(rng, 5)
        x0 = rng.normal(size=(5, 3))
        f = factor_psd(a, max_jitter=0.0)
        x = solve_psd(f, a @ x0)
        np.testing.assert_allclose(x, x0, rtol=1e-9, atol=1e-12)

    def test_dimension_mismatch(self):
        f = factor_psd(np.eye(3), max_jitter=0.0)
        with pytest.raises(DimensionMismatch):
            solve_psd(f, np.zeros(4))
        with pytest.raises(DimensionMismatch):
            solve_psd(f, np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_rejected(self, bad):
        f = factor_psd(np.array([[4.0, 2.0], [2.0, 3.0]]), max_jitter=0.0)
        with pytest.raises(ValueError):
            solve_psd(f, np.array([1.0, bad]))
        with pytest.raises(ValueError):
            solve_psd(f, np.array([[bad], [0.0]]))

    def test_wrong_shape_is_dimension_mismatch(self):
        f = factor_psd(np.eye(3), max_jitter=0.0)
        for shape in [(2,), (3, 2, 1), (4, 3), ()]:
            with pytest.raises(DimensionMismatch):
                solve_psd(f, np.zeros(shape))

    def test_vector_shape_preserved(self, rng):
        a = random_spd(rng, 6)
        f = factor_psd(a, max_jitter=0.0)
        assert solve_psd(f, np.ones(6)).shape == (6,)
        assert solve_psd(f, np.ones((6, 1))).shape == (6, 1)

    @pytest.mark.parametrize("n", [2, 20, 100, 200])
    def test_roundtrip_random_spd(self, n):
        rng = np.random.default_rng(1000 + n)
        a = random_spd(rng, n)
        x0 = rng.normal(size=n)
        f = factor_psd(a, max_jitter=1e-6)
        x = solve_psd(f, a @ x0)
        err = np.linalg.norm(x - x0) / np.linalg.norm(x0)
        assert err <= 1e-8


class TestInversePsd:
    def check(self, a, f):
        inv = np.linalg.inv(a + f.jitter_used * np.eye(a.shape[0]))
        got = inverse_psd(f)
        np.testing.assert_array_equal(np.triu(got, 1), 0.0)
        full = got + np.tril(got, -1).T
        scale = np.max(np.abs(inv))
        np.testing.assert_allclose(full, inv, rtol=1e-9, atol=1e-12 * scale)

    def test_known_2x2(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        f = factor_psd(a, max_jitter=0.0)
        np.testing.assert_allclose(
            inverse_psd(f), [[0.375, 0.0], [-0.25, 0.5]], rtol=1e-12
        )
        self.check(a, f)

    @pytest.mark.parametrize("n", [1, 3, 20, 100])
    def test_random_spd(self, n):
        a = random_spd(np.random.default_rng(2000 + n), n)
        self.check(a, factor_psd(a, max_jitter=1e-6))

    def test_jittered_rank_deficient(self):
        ones = np.ones((2, 2))
        f = factor_psd(ones, max_jitter=1e-6)
        assert f.jitter_used > 0.0
        self.check(ones, f)

    def test_empty(self):
        f = factor_psd(np.zeros((0, 0)), max_jitter=0.0)
        assert inverse_psd(f).shape == (0, 0)


class TestLogDet:
    def test_identity_is_zero(self):
        f = factor_psd(np.eye(7), max_jitter=0.0)
        assert log_det(f) == 0.0

    def test_diagonal_matrix(self):
        f = factor_psd(np.diag([2.0, 8.0]), max_jitter=0.0)
        assert log_det(f) == pytest.approx(np.log(16.0), rel=1e-12)

    def test_known_2x2(self):
        f = factor_psd(np.array([[4.0, 2.0], [2.0, 3.0]]), max_jitter=0.0)
        assert log_det(f) == pytest.approx(np.log(8.0), rel=1e-12)

    def test_empty_is_zero(self):
        f = factor_psd(np.zeros((0, 0)), max_jitter=0.0)
        assert log_det(f) == 0.0

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=100))
    def test_matches_bruteforce_determinant(self, n, seed):
        rng = np.random.default_rng(seed)
        a = random_spd(rng, n)
        f = factor_psd(a, max_jitter=0.0)
        brute = np.log(np.linalg.det(a + f.jitter_used * np.eye(n)))
        assert log_det(f) == pytest.approx(brute, rel=1e-8)
