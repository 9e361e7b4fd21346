import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, strategies as st

from cascal import cascade, lut, sim
from cascal.errors import ConfigError, NonMonotonic
from cascal.sim import (
    SensorTruth,
    TruthPair,
    cost_j,
    generate_d1,
    generate_d2,
    invert_sensor,
    is_monotone,
    sample_truth,
    sample_truth_pair,
    sensor_eval,
    sensor_read,
    substream,
    true_f13,
)


def identity_sensor(noise: float = 0.0) -> SensorTruth:
    return SensorTruth(np.zeros(0), np.zeros(0), np.zeros(0), noise)


def single_term_sensor() -> SensorTruth:
    # reading(p) = p + 0.01 * sin(pi * p)
    return SensorTruth(
        sin_coeffs=np.array([0.01]),
        cos_coeffs=np.array([0.0]),
        freqs=np.array([np.pi]),
        noise_variance=0.0,
    )


def identity_pair(noise: float = 0.0) -> TruthPair:
    return TruthPair(identity_sensor(noise), identity_sensor(noise))


class TestSampleTruth:
    def test_zero_variance_gives_identity_sensor(self):
        t = sample_truth(0, coeff_var=0.0)
        np.testing.assert_array_equal(t.sin_coeffs, np.zeros(10))
        np.testing.assert_array_equal(t.cos_coeffs, np.zeros(10))
        assert sensor_eval(t, 0.37) == 0.37

    def test_deterministic_given_seed(self):
        a = sample_truth(123)
        b = sample_truth(123)
        np.testing.assert_array_equal(a.sin_coeffs, b.sin_coeffs)
        np.testing.assert_array_equal(a.cos_coeffs, b.cos_coeffs)
        np.testing.assert_array_equal(a.freqs, b.freqs)

    def test_coefficient_variance_law_of_large_numbers(self):
        rng = np.random.default_rng(42)
        draws = [sample_truth(rng, n_terms=10) for _ in range(1000)]
        coeffs = np.concatenate(
            [np.r_[t.sin_coeffs, t.cos_coeffs] for t in draws]
        )
        assert coeffs.size == 20000
        assert coeffs.var() == pytest.approx(1e-4, rel=0.05)

    def test_defaults(self):
        t = sample_truth(0)
        assert t.sin_coeffs.shape == (10,)
        assert t.noise_variance == 1e-8


class TestSensorRead:
    @pytest.mark.parametrize("noise", [np.nan, np.inf, -1e-8])
    def test_noise_variance_must_be_finite_and_non_negative(self, noise):
        with pytest.raises(ValueError, match="noise_variance must be finite and >= 0"):
            identity_sensor(noise)

    def test_noiseless_identity(self):
        rng = np.random.default_rng(0)
        assert sensor_read(identity_sensor(), 0.4, rng) == 0.4

    def test_single_term_value(self):
        rng = np.random.default_rng(0)
        got = sensor_read(single_term_sensor(), 0.5, rng)
        assert got == pytest.approx(0.51, abs=1e-12)

    def test_noise_statistics(self):
        t = sample_truth(3)  # noise_variance 1e-8
        rng = np.random.default_rng(7)
        reads = sensor_read(t, np.full(10000, 0.37), rng)
        assert reads.std() == pytest.approx(1e-4, rel=0.2)

    def test_vector_reads(self):
        rng = np.random.default_rng(0)
        out = sensor_read(identity_sensor(), np.linspace(0, 1, 5), rng)
        np.testing.assert_array_equal(out, np.linspace(0, 1, 5))


class TestInvertSensor:
    def test_identity(self):
        assert invert_sensor(identity_sensor(), 0.7) == pytest.approx(
            0.7, abs=1e-10
        )

    def test_single_term(self):
        assert invert_sensor(single_term_sensor(), 0.51) == pytest.approx(
            0.5, abs=1e-9
        )

    def test_roundtrip_many_points(self):
        t = sample_truth(11)
        rng = np.random.default_rng(5)
        y_star = rng.uniform(0.0, 1.0, 100)
        back = invert_sensor(t, sensor_eval(t, y_star))
        np.testing.assert_allclose(back, y_star, atol=1e-8)

    def test_non_monotone_rejected(self):
        bad = SensorTruth(
            sin_coeffs=np.array([1.0]),  # huge: slope goes negative
            cos_coeffs=np.array([0.0]),
            freqs=np.array([10.0]),
            noise_variance=0.0,
        )
        assert not is_monotone(bad)
        with pytest.raises(NonMonotonic):
            invert_sensor(bad, 0.5)

    def test_outside_range_rejected(self):
        with pytest.raises(ValueError):
            invert_sensor(identity_sensor(), 5.0)

    @pytest.mark.parametrize("y_obs", [np.nan, np.array([0.2, np.nan, 0.7])],
                             ids=["scalar", "array"])
    def test_nan_rejected(self, y_obs):
        with pytest.raises(ValueError, match="outside the invertible range"):
            invert_sensor(identity_sensor(), y_obs)


def invert_brentq(t, y, rng_range=(0.0, 1.0)):
    """Scalar Brent root of sensor_eval(t, p) = y on the padded range."""
    lo, hi = sim._padded_range(rng_range)
    return np.array([
        scipy.optimize.brentq(
            lambda p, v=v: float(sensor_eval(t, p)) - v, lo, hi,
            xtol=1e-15, rtol=1e-15,
        )
        for v in np.atleast_1d(y)
    ])


class TestBracketingGrid:
    def test_built_once_per_sensor_in_a_trial(self, monkeypatch):
        grids = []
        real = sim.sensor_eval

        def counted(t, y):
            if np.size(y) == sim.MONOTONE_GRID:
                grids.append(t)
            return real(t, y)

        monkeypatch.setattr(sim, "sensor_eval", counted)
        pair, rejected = sample_truth_pair(3)
        generate_d1(pair, 30, substream(3, 1))
        cost_j(lambda grid: grid, pair, 501)
        assert rejected == 0
        assert len(grids) == 2
        assert grids[0] is pair.sensor1 and grids[1] is pair.sensor2

    def test_kept_grid_inverts_as_a_fresh_one(self):
        pair, _ = sample_truth_pair(5)
        y = np.linspace(0.1, 0.9, 257)
        first = true_f13(pair, y)
        fresh = SensorTruth.from_dict(pair.sensor1.to_dict())
        np.testing.assert_array_equal(true_f13(pair, y), first)
        np.testing.assert_array_equal(invert_sensor(fresh, y), first)

    def test_non_monotone_rejected_every_time(self):
        bad = SensorTruth(np.array([1.0]), np.array([0.0]), np.array([10.0]), 0.0)
        for _ in range(2):
            assert not is_monotone(bad)
            with pytest.raises(NonMonotonic):
                invert_sensor(bad, 0.5)


class TestInvertSensorAgainstBrent:
    @pytest.mark.parametrize("seed", range(8))
    def test_truth_pairs_at_quadrature_grid(self, seed):
        pair, _ = sample_truth_pair(seed)
        for t in (pair.sensor1, pair.sensor2):
            y = np.linspace(
                float(sensor_eval(t, 0.0)), float(sensor_eval(t, 1.0)), 2001
            )
            root = invert_sensor(t, y)
            np.testing.assert_allclose(root, invert_brentq(t, y), rtol=0, atol=1e-11)
            assert np.max(np.abs(sensor_eval(t, root) - y)) <= 1e-12

    def test_grid_nodes_and_range_ends(self):
        pair, _ = sample_truth_pair(3)
        t = pair.sensor1
        grid, vals = sim._monotone_grid(t, pair.range)
        # every node of the bracketing grid, the padded ends among them
        root = invert_sensor(t, vals)
        np.testing.assert_allclose(root, grid, rtol=0, atol=1e-11)
        assert np.max(np.abs(sensor_eval(t, root) - vals)) <= 1e-12
        ends = np.array([vals[0], vals[-1]])
        np.testing.assert_allclose(
            invert_sensor(t, ends), invert_brentq(t, ends), rtol=0, atol=1e-11
        )

    def test_scalar_path(self):
        pair, _ = sample_truth_pair(5)
        t = pair.sensor1
        for p in (0.0, 0.37, 1.0):
            y = float(sensor_eval(t, p))
            root = invert_sensor(t, y)
            assert isinstance(root, float)
            assert root == pytest.approx(invert_brentq(t, y)[0], abs=1e-11)
            assert root == invert_sensor(t, np.array([y]))[0]


class TestSampleTruthPair:
    def test_deterministic(self):
        a, ra = sample_truth_pair(9)
        b, rb = sample_truth_pair(9)
        assert ra == rb
        np.testing.assert_array_equal(a.sensor1.freqs, b.sensor1.freqs)
        np.testing.assert_array_equal(a.sensor2.freqs, b.sensor2.freqs)

    def test_both_sensors_monotone(self):
        pair, rejected = sample_truth_pair(17)
        assert rejected >= 0
        assert is_monotone(pair.sensor1)
        assert is_monotone(pair.sensor2)


class TestGenerateD2:
    def test_default_removals_yield_64_pairs(self):
        pair, _ = sample_truth_pair(0)
        d2 = generate_d2(pair, rng=substream(0, 2))
        assert d2.n == 64

    def test_no_removal_keeps_full_monotone_grid(self):
        pair, _ = sample_truth_pair(0)
        d2 = generate_d2(pair, 100, 0, 0, substream(0, 2))
        assert d2.n == 100
        assert np.all(np.diff(d2.x) > 0)

    def test_removal_indices_small_case(self):
        d2 = generate_d2(identity_pair(), 10, 1, 2, np.random.default_rng(0))
        grid = np.linspace(0.0, 1.0, 10)
        np.testing.assert_allclose(d2.y, grid[[1, 2, 3, 6, 7, 8]], atol=1e-12)

    def test_overlapping_removals_rejected(self):
        with pytest.raises(ConfigError):
            generate_d2(identity_pair(), 100, 60, 60, np.random.default_rng(0))

    def test_exhausting_grid_rejected(self):
        with pytest.raises(ConfigError):
            generate_d2(identity_pair(), 10, 4, 2, np.random.default_rng(0))

    @given(
        st.integers(min_value=4, max_value=60),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=15),
    )
    def test_kept_count_algebra(self, n_grid, edge, center):
        kept = n_grid - 2 * edge - center
        start = (n_grid - center) // 2
        assume(kept >= 2)
        assume(start >= edge and start + center <= n_grid - edge)
        d2 = generate_d2(identity_pair(), n_grid, edge, center,
                         np.random.default_rng(1))
        assert d2.n == kept


class TestGenerateD1:
    def test_identity_sensors_give_uniform_grid(self):
        d1 = generate_d1(identity_pair(), 10, np.random.default_rng(0))
        np.testing.assert_allclose(d1.x, np.linspace(0, 1, 10), atol=1e-12)
        np.testing.assert_allclose(d1.y, np.linspace(0, 1, 10), atol=1e-12)

    def test_two_points_at_range_ends(self):
        pair, _ = sample_truth_pair(2)
        d1 = generate_d1(pair, 2, substream(2, 1))
        lo = sensor_eval(pair.sensor1, 0.0)
        hi = sensor_eval(pair.sensor1, 1.0)
        assert d1.x[0] == pytest.approx(lo, abs=1e-3)
        assert d1.x[1] == pytest.approx(hi, abs=1e-3)

    def test_consistent_with_forward_model(self):
        pair, _ = sample_truth_pair(6)
        d1 = generate_d1(pair, 100, substream(6, 1))
        lo = float(sensor_eval(pair.sensor1, 0.0))
        hi = float(sensor_eval(pair.sensor1, 1.0))
        y1_grid = np.linspace(lo, hi, 100)
        predicted = sensor_eval(pair.sensor2, invert_sensor(pair.sensor1, y1_grid))
        sigma = np.sqrt(pair.sensor2.noise_variance)
        assert np.max(np.abs(d1.y - predicted)) <= 5 * sigma


class TestTrueF13:
    def test_identity(self):
        assert true_f13(identity_pair(), 0.3) == pytest.approx(0.3, abs=1e-10)

    def test_single_term(self):
        pair = TruthPair(single_term_sensor(), identity_sensor())
        assert true_f13(pair, 0.51) == pytest.approx(0.5, abs=1e-9)

    def test_inverse_identity_composition(self):
        pair, _ = sample_truth_pair(8)
        y1 = np.linspace(
            float(sensor_eval(pair.sensor1, 0.0)),
            float(sensor_eval(pair.sensor1, 1.0)),
            50,
        )
        back = sensor_eval(pair.sensor1, true_f13(pair, y1))
        np.testing.assert_allclose(back, y1, atol=1e-8)


class TestCostJ:
    def test_perfect_model_is_free(self):
        pair, _ = sample_truth_pair(3)
        assert cost_j(lambda y: true_f13(pair, y), pair) <= 1e-8

    def test_constant_offset_costs_the_offset(self):
        pair = identity_pair()
        j = cost_j(lambda y: np.asarray(y) + 0.01, pair)
        assert j == pytest.approx(0.01, abs=1e-10)

    def test_sinusoidal_error_profile(self):
        pair = identity_pair()
        j = cost_j(lambda y: np.asarray(y) + np.sin(2 * np.pi * np.asarray(y)), pair)
        assert j == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-4)

    def test_quadrature_refinement_stable(self):
        pair, _ = sample_truth_pair(4)
        model = lambda y: np.asarray(y) + 0.005 * np.sin(4.0 * np.asarray(y))
        j_default = cost_j(model, pair, 2001)
        j_fine = cost_j(model, pair, 8001)
        assert j_fine == pytest.approx(j_default, rel=1e-6)

    def test_identity_model_on_identity_truth(self):
        assert cost_j(lambda y: np.asarray(y), identity_pair()) <= 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_stacked_maps_cost_what_each_costs_alone(self, seed):
        # run_trial scores its three maps in one call, against one inversion
        # of the truth; each cost must be the one a single-map call gives.
        pair, _ = sample_truth_pair(seed)
        d1 = generate_d1(pair, 20, substream(seed, 1))
        d2 = generate_d2(pair, 30, 3, 6, substream(seed, 2))
        stage_one = cascade.calibrate_stage_one(d2)
        maps = [
            cascade.calibrate_cascaded(d1, d2, stage_one=stage_one).apply,
            cascade.calibrate_alternative1(d1, d2, stage_one=stage_one).apply,
            lut.calibrate_lut_cascade(d1, d2).apply,
        ]
        stacked = cost_j(lambda y: np.stack([f(y) for f in maps]), pair, 501)
        alone = [cost_j(f, pair, 501) for f in maps]
        assert all(isinstance(j, float) for j in alone)
        assert stacked.shape == (3,)
        assert stacked.tolist() == alone

    @pytest.mark.parametrize("seed", range(3))
    def test_score_is_cost_j_with_its_error_line(self, seed):
        # J and errors.csv come from one scorer: its J is cost_j's, bit for
        # bit, and its error rows are each map's error on its grid.
        pair, _ = sample_truth_pair(seed)
        d1 = generate_d1(pair, 20, substream(seed, 1))
        d2 = generate_d2(pair, 30, 3, 6, substream(seed, 2))
        maps = [cascade.calibrate_cascaded(d1, d2).apply,
                lut.calibrate_lut_cascade(d1, d2).apply]
        stack = lambda y: np.stack([f(y) for f in maps])
        grid, err, j = sim.score(stack, pair, 501)
        assert j.tolist() == cost_j(stack, pair, 501).tolist()
        truth = true_f13(pair, grid)
        for f, row, j_f in zip(maps, err, j.tolist()):
            grid_f, err_f, alone = sim.score(f, pair, 501)
            assert alone == j_f == cost_j(f, pair, 501)
            np.testing.assert_array_equal(grid_f, grid)
            np.testing.assert_array_equal(err_f, row)
            np.testing.assert_array_equal(row, f(grid) - truth)


class TestDeterminism:
    def test_datasets_reproduce_bitwise(self):
        pair, _ = sample_truth_pair(5)
        a = generate_d1(pair, 50, substream(5, 1))
        b = generate_d1(pair, 50, substream(5, 1))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        c = generate_d2(pair, 40, 2, 4, substream(5, 2))
        d = generate_d2(pair, 40, 2, 4, substream(5, 2))
        np.testing.assert_array_equal(c.x, d.x)
        np.testing.assert_array_equal(c.y, d.y)


class TestTruthSerialization:
    def test_roundtrip(self, tmp_path):
        pair, _ = sample_truth_pair(21)
        path = tmp_path / "truth.json"
        sim.save_truth_pair(pair, path)
        back = sim.load_truth_pair(path)
        np.testing.assert_array_equal(back.sensor1.sin_coeffs, pair.sensor1.sin_coeffs)
        np.testing.assert_array_equal(back.sensor2.freqs, pair.sensor2.freqs)
        assert back.range == pair.range
        assert back.sensor1.noise_variance == pair.sensor1.noise_variance
