import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cascal.kernels import (
    Hyperparameters,
    PriorMean,
    eval_prior_mean,
    kernel_matrix,
    se_kernel,
)
from cascal.numerics import factor_psd

HP_UNIT = Hyperparameters(length_scale=1.0, signal_variance=1.0, noise_variance=0.0)

positions = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


class TestHyperparameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            Hyperparameters(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            Hyperparameters(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            Hyperparameters(1.0, 1.0, -1e-12)
        Hyperparameters(1.0, 1.0, 0.0)  # zero noise is legal

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("field", [0, 1, 2])
    def test_non_finite_rejected(self, field, value):
        args = [1.0, 1.0, 0.0]
        args[field] = value
        with pytest.raises(ValueError, match="finite"):
            Hyperparameters(*args)

    def test_dict_roundtrip(self):
        hp = Hyperparameters(0.3, 2.5, 1e-8)
        assert Hyperparameters.from_dict(hp.to_dict()) == hp


class TestSeKernel:
    def test_zero_distance_gives_signal_variance(self):
        hp = Hyperparameters(0.7, 3.2, 0.0)
        assert se_kernel(0.4, 0.4, hp) == 3.2

    def test_unit_distance(self):
        assert se_kernel(0.0, 1.0, HP_UNIT) == pytest.approx(
            np.exp(-0.5), rel=1e-12
        )
        assert se_kernel(0.0, 1.0, HP_UNIT) == pytest.approx(0.606531, abs=1e-6)

    def test_short_length_scale_underflow(self):
        hp = Hyperparameters(0.1, 2.0, 0.0)
        val = se_kernel(0.0, 1.0, hp)
        assert val == pytest.approx(2.0 * np.exp(-50.0), rel=1e-10)
        assert val == pytest.approx(3.86e-22, rel=1e-2)

    @given(positions, positions)
    def test_symmetric_exactly(self, a, b):
        assert se_kernel(a, b, HP_UNIT) == se_kernel(b, a, HP_UNIT)

    @given(positions, positions)
    def test_bounded_and_positive(self, a, b):
        hp = Hyperparameters(0.5, 2.0, 0.0)
        val = se_kernel(a, b, hp)
        assert 0.0 <= val <= hp.signal_variance
        if abs(a - b) > 1e-4:
            assert val < hp.signal_variance
        # strict positivity holds wherever exp does not underflow in float64
        if abs(a - b) < 15.0 * hp.length_scale:
            assert val > 0.0


class TestKernelMatrix:
    def test_single_point(self):
        np.testing.assert_array_equal(
            kernel_matrix(np.array([0.0]), np.array([0.0]), HP_UNIT), [[1.0]]
        )

    def test_two_points_explicit(self):
        k = kernel_matrix(np.array([0.0, 1.0]), np.array([0.0, 1.0]), HP_UNIT)
        e = np.exp(-0.5)
        np.testing.assert_allclose(k, [[1.0, e], [e, 1.0]], rtol=1e-12)

    def test_rectangular_shape(self):
        k = kernel_matrix(np.zeros(3), np.zeros(2), HP_UNIT)
        assert k.shape == (3, 2)

    def test_entries_match_scalar_kernel(self, rng):
        ya = rng.uniform(0, 1, 4)
        yb = rng.uniform(0, 1, 3)
        hp = Hyperparameters(0.2, 1.7, 0.0)
        k = kernel_matrix(ya, yb, hp)
        for p in range(4):
            for q in range(3):
                assert k[p, q] == pytest.approx(
                    se_kernel(ya[p], yb[q], hp), rel=1e-15
                )

    def test_same_vector_exactly_symmetric(self, rng):
        y = rng.uniform(0, 1, 20)
        k = kernel_matrix(y, y, hp=HP_UNIT)
        np.testing.assert_array_equal(k, k.T)

    def test_bit_identical_to_plain_expression(self, rng):
        for _ in range(50):
            ya = rng.normal(0.0, 2.0, rng.integers(1, 40))
            yb = rng.normal(0.0, 2.0, rng.integers(1, 40))
            hp = Hyperparameters(
                float(np.exp(rng.normal(-1.0, 2.0))),
                float(np.exp(rng.normal(0.0, 3.0))),
                0.0,
            )
            diff = (ya[:, None] - yb[None, :]) / hp.length_scale
            plain = hp.signal_variance * np.exp(-0.5 * diff * diff)
            np.testing.assert_array_equal(kernel_matrix(ya, yb, hp), plain)

    def test_far_positions_give_zero_without_warning(self):
        # the difference, or its square, overflows to inf: exp(-inf) = 0
        hp = Hyperparameters(0.3, 2.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = kernel_matrix(np.array([1e200, 1e308, 0.0]), np.array([-1e308, 0.0]), hp)
        np.testing.assert_array_equal(k, [[0.0, 0.0], [0.0, 0.0], [0.0, 2.0]])

    def test_gram_with_noise_is_positive_definite(self):
        y = np.linspace(0, 1, 10)
        hp = Hyperparameters(0.3, 1.0, 1e-4)
        gram = kernel_matrix(y, y, hp) + hp.noise_variance * np.eye(10)
        f = factor_psd(gram, max_jitter=1e-6)
        assert f.jitter_used == 0.0


class TestPriorMean:
    def test_identity(self):
        np.testing.assert_array_equal(
            eval_prior_mean(PriorMean.identity(), np.array([0.2, 0.7])),
            [0.2, 0.7],
        )

    def test_zero(self):
        np.testing.assert_array_equal(
            eval_prior_mean(PriorMean.zero(), np.array([0.2])), [0.0]
        )

    def test_affine(self):
        np.testing.assert_array_equal(
            eval_prior_mean(PriorMean.affine(2.0, 1.0), np.array([3.0])), [7.0]
        )

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            PriorMean("cubic")

    @pytest.mark.parametrize(
        "mean",
        [PriorMean.identity(), PriorMean.zero(), PriorMean.affine(-1.5, 0.25)],
    )
    def test_dict_roundtrip(self, mean):
        assert PriorMean.from_dict(mean.to_dict()) == mean
