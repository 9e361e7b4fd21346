import json
import tracemalloc

import numpy as np
import pytest

from cascal import cascade, gp, lut, sim
from cascal.cascade import (
    CalibrationDataset,
    CascadeConfig,
    CascadeModel,
    calibrate_alternative1,
    calibrate_cascaded,
    calibrate_stage_one,
    load_dataset_csv,
    propagate,
    save_dataset_csv,
)
from cascal.errors import DatasetFormatError
from cascal.gp import TrainingSet, fit, log_marginal_likelihood, predict_cov
from cascal.kernels import Hyperparameters, PriorMean
from cascal.numerics import factor_psd

import _oracles

IDENTITY = PriorMean.identity()


def identity_dataset(n: int = 16, noise: float = 1e-4, seed: int = 0):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, n)
    return CalibrationDataset(x=x, y=x + rng.normal(0.0, noise, n))


class TestCalibrationDataset:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            CalibrationDataset(np.zeros(3), np.zeros(2))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            CalibrationDataset(np.array([0.0, np.inf]), np.zeros(2))


# Each value type with the vector fields it checks and valid other fields.
VECTOR_TYPES = [
    (CalibrationDataset, ("x", "y"), {}),
    (TrainingSet, ("inputs", "targets"), {"target_cov": np.zeros((2, 2))}),
    (lut.LookupTable, ("breakpoints", "values"), {}),
    (sim.SensorTruth, ("freqs", "sin_coeffs", "cos_coeffs"), {"noise_variance": 0.0}),
]


@pytest.mark.parametrize("cls, names, others, field", [
    pytest.param(cls, names, others, field, id=f"{cls.__name__}-{field}")
    for cls, names, others in VECTOR_TYPES for field in names
])
class TestVectorRule:
    """All four value types coerce and check their vectors by one rule."""

    def vectors(self, names, field, value):
        return {name: value if name == field else [0.0, 1.0] for name in names}

    def test_non_finite_entry_names_field(self, cls, names, others, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            cls(**self.vectors(names, field, [0.0, np.nan]), **others)

    def test_length_mismatch_names_field(self, cls, names, others, field):
        if field == names[0]:
            expected = f"{names[1]} has 2 entries, {field} 3"
        else:
            expected = f"{field} has 3 entries, {names[0]} 2"
        with pytest.raises(ValueError, match=f"^{expected}$"):
            cls(**self.vectors(names, field, [0.0, 1.0, 2.0]), **others)

    def test_vectors_stored_as_flat_float_arrays(self, cls, names, others, field):
        value = cls(**self.vectors(names, field, [[0], [1]]), **others)
        for name in names:
            array = getattr(value, name)
            assert array.dtype == float and array.shape == (2,)


class TestCalibrateStageOne:
    def test_identity_sensor_learned(self):
        model = calibrate_stage_one(identity_dataset(64))
        grid = np.linspace(0.0, 1.0, 101)
        err = gp.predict_mean(model, grid) - grid
        assert np.max(np.abs(err)) <= 1e-3

    def test_gap_inflates_variance(self):
        # a grid with the center removed: uncertainty must rise inside the
        # hole above both the adjacent retained points and the typical
        # retained level
        pair, _ = sim.sample_truth_pair(0)
        d2 = sim.generate_d2(pair, 100, 8, 20, sim.substream(0, 2))
        model = calibrate_stage_one(d2)
        gap_mid = float(sim.sensor_eval(pair.sensor2, 0.5))
        var_gap = float(np.diag(predict_cov(model, [gap_mid]))[0])
        var_train = np.diag(predict_cov(model, d2.x))
        # kept indices 8..39 and 60..91: rows 31/32 border the hole
        assert var_gap > var_train[31]
        assert var_gap > var_train[32]
        assert var_gap > np.median(var_train)

    def test_minimal_two_points(self):
        d2 = CalibrationDataset(np.array([0.0, 1.0]), np.array([0.01, 0.99]))
        model = calibrate_stage_one(d2)
        lml = log_marginal_likelihood(model.train, model.hp, model.mean)
        assert np.isfinite(lml)


class TestPropagate:
    def test_prior_recovery_without_stage_one_data(self):
        hp = Hyperparameters(0.4, 1.0, 1e-6)
        empty = fit(TrainingSet.exact([], []), hp, IDENTITY)
        d1 = CalibrationDataset(np.array([0.0, 0.5]), np.array([0.1, 0.6]))
        ts = propagate(d1, empty)
        np.testing.assert_array_equal(ts.inputs, d1.x)
        np.testing.assert_array_equal(ts.targets, d1.y)
        from cascal.kernels import kernel_matrix

        np.testing.assert_array_equal(ts.target_cov, kernel_matrix(d1.y, d1.y, hp))

    def test_pinned_stage_one_passes_data_through(self):
        hp = Hyperparameters(0.5, 1.0, 0.0)
        x = np.linspace(0.0, 1.0, 21)
        stage_one = fit(TrainingSet.exact(x, x.copy()), hp, IDENTITY)
        d1 = CalibrationDataset(np.linspace(0.1, 0.9, 9), np.linspace(0.1, 0.9, 9))
        ts = propagate(d1, stage_one)
        np.testing.assert_allclose(ts.targets, d1.y, atol=1e-8)
        assert np.max(np.abs(ts.target_cov)) <= 1e-8

    def test_covariance_matches_bruteforce(self):
        hp = Hyperparameters(0.7, 0.9, 1e-4)
        stage_ts = TrainingSet.exact([0.2, 0.8], [0.25, 0.75])
        stage_one = fit(stage_ts, hp, IDENTITY)
        d1 = CalibrationDataset(
            np.array([0.0, 0.5, 1.0]), np.array([0.1, 0.5, 0.9])
        )
        ts = propagate(d1, stage_one)
        expected = _oracles.predict_cov_bruteforce(
            stage_ts, hp, IDENTITY, d1.y, stage_one.gram_factor.jitter_used
        )
        np.testing.assert_allclose(ts.target_cov, expected, rtol=1e-10, atol=1e-14)

    def test_covariance_symmetric_psd(self):
        pair, _ = sim.sample_truth_pair(1)
        d2 = sim.generate_d2(pair, 40, 3, 8, sim.substream(1, 2))
        d1 = sim.generate_d1(pair, 30, sim.substream(1, 1))
        ts = propagate(d1, calibrate_stage_one(d2))
        cov = ts.target_cov
        assert np.max(np.abs(cov - cov.T)) <= 1e-9 * (1 + np.max(np.abs(cov)))
        factor_psd(cov, max_jitter=1e-5 * max(np.max(np.diag(cov)), 1e-30))


class TestCalibrateCascaded:
    def test_identity_sensors_give_identity_model(self):
        d1 = identity_dataset(20, seed=1)
        d2 = identity_dataset(20, seed=2)
        model = calibrate_cascaded(d1, d2)
        grid = np.linspace(0.0, 1.0, 201)
        err = model.apply(grid) - grid
        assert np.sqrt(np.mean(err**2)) <= 1e-3

    def test_noiseless_identity_passes_targets_through(self):
        x = np.linspace(0.0, 1.0, 10)
        d = CalibrationDataset(x, x.copy())
        model = calibrate_cascaded(d, d)
        np.testing.assert_array_equal(model.stage_two.train.targets, d.y)

    def test_stage_two_trained_on_propagated_set(self):
        d1 = identity_dataset(12, seed=3)
        d2 = identity_dataset(12, seed=4)
        model = calibrate_cascaded(d1, d2)
        np.testing.assert_array_equal(model.stage_two.train.inputs, d1.x)
        np.testing.assert_array_equal(
            model.stage_two.train.targets, gp.predict_mean(model.stage_one, d1.y)
        )
        assert model.method_tag == "bayes"


class TestCalibrateAlternative1:
    def test_stage_one_bit_identical_to_cascaded(self):
        d1 = identity_dataset(12, seed=5)
        d2 = identity_dataset(12, seed=6)
        bayes = calibrate_cascaded(d1, d2)
        alt1 = calibrate_alternative1(d1, d2)
        assert bayes.stage_one.hp == alt1.stage_one.hp
        np.testing.assert_array_equal(bayes.stage_one.weights, alt1.stage_one.weights)
        np.testing.assert_array_equal(
            bayes.stage_one.gram_factor.lower_triangular,
            alt1.stage_one.gram_factor.lower_triangular,
        )
        # methods differ only in the stage-two covariance
        np.testing.assert_array_equal(
            bayes.stage_two.train.targets, alt1.stage_two.train.targets
        )
        expected = alt1.stage_one.hp.noise_variance * np.eye(d1.n)
        np.testing.assert_array_equal(alt1.stage_two.train.target_cov, expected)
        assert alt1.method_tag == "alt1"

    def test_coincides_when_propagated_cov_is_diagonal_noise(self):
        # a data-free stage one whose kernel is white-noise-like: prior
        # covariance at well-separated points is exactly noise * identity
        c = 1e-4
        hp = Hyperparameters(length_scale=1e-8, signal_variance=c, noise_variance=c)
        stage_one = fit(TrainingSet.exact([], []), hp, IDENTITY)
        d1 = CalibrationDataset(
            np.array([0.0, 0.4, 0.8]), np.array([0.05, 0.45, 0.85])
        )
        propagated = propagate(d1, stage_one)
        np.testing.assert_array_equal(propagated.target_cov, c * np.eye(3))
        np.testing.assert_array_equal(propagated.targets, d1.y)
        # identical training sets -> identical stage-two Gram matrices
        hp2 = Hyperparameters(0.3, 1.0, 1e-6)
        alt_ts = TrainingSet(
            inputs=d1.x,
            targets=gp.predict_mean(stage_one, d1.y),
            target_cov=stage_one.hp.noise_variance * np.eye(3),
        )
        a = fit(propagated, hp2, IDENTITY)
        b = fit(alt_ts, hp2, IDENTITY)
        np.testing.assert_array_equal(
            a.gram_factor.lower_triangular, b.gram_factor.lower_triangular
        )

    def test_dense_stage_one_nearly_matches_cascaded(self):
        pair, _ = sim.sample_truth_pair(0)
        rng = np.random.default_rng(99)
        y_star = np.linspace(0.0, 1.0, 200)
        d2 = CalibrationDataset(
            x=sim.sensor_read(pair.sensor2, y_star, rng),
            y=y_star + rng.normal(0.0, 1e-4, 200),
        )
        d1 = sim.generate_d1(pair, 100, sim.substream(0, 1))
        stage_one = calibrate_stage_one(d2)
        j_bayes = sim.cost_j(
            calibrate_cascaded(d1, d2, stage_one=stage_one).apply, pair
        )
        j_alt1 = sim.cost_j(
            calibrate_alternative1(d1, d2, stage_one=stage_one).apply, pair
        )
        assert abs(j_alt1 - j_bayes) <= 0.10 * j_bayes


class TestStrictMode:
    def test_stage_two_mean_matches_explicit_inverse(self):
        cfg = CascadeConfig(stage2_learned_noise=False)
        d1 = identity_dataset(15, seed=7)
        d2 = identity_dataset(15, seed=8)
        model = calibrate_cascaded(d1, d2, cfg)
        assert model.stage_two.hp.noise_variance == 0.0
        query = np.linspace(0.0, 1.0, 9)
        oracle = _oracles.predict_mean_bruteforce(
            model.stage_two.train,
            model.stage_two.hp,
            model.stage_two.mean,
            query,
            model.stage_two.gram_factor.jitter_used,
        )
        np.testing.assert_allclose(model.apply(query), oracle, rtol=1e-9, atol=1e-12)


class TestApply:
    def test_identity_cascade_value(self):
        model = calibrate_cascaded(identity_dataset(20, seed=1),
                                   identity_dataset(20, seed=2))
        assert model.apply(np.array([0.5]))[0] == pytest.approx(0.5, abs=1e-3)

    def test_vector_input_no_refit(self):
        model = calibrate_cascaded(identity_dataset(12, seed=3),
                                   identity_dataset(12, seed=4))
        xs = np.linspace(-0.1, 1.1, 1000)
        out = model.apply(xs)
        assert out.shape == (1000,)
        np.testing.assert_array_equal(model.apply(xs), out)

    def test_tight_training_point_interpolated(self):
        hp = Hyperparameters(0.5, 1.0, 0.0)
        x = np.linspace(0.0, 1.0, 11)
        targets = x + 0.02 * np.sin(6.0 * x)
        stage_two = fit(TrainingSet.exact(x, targets), hp, IDENTITY)
        model = cascade.CascadeModel(stage_two, stage_two, "bayes", CascadeConfig())
        assert model.apply(np.array([x[4]]))[0] == pytest.approx(
            targets[4], abs=1e-6
        )


@pytest.fixture(scope="module")
def sparse_model():
    """A bayes cascade fitted on 26 reference and 30 device pairs."""
    pair, _ = sim.sample_truth_pair(0)
    d1 = sim.generate_d1(pair, 30, sim.substream(0, 1))
    d2 = sim.generate_d2(pair, 40, 3, 8, sim.substream(0, 2))
    assert (d2.n, d1.n) == (26, 30)
    return calibrate_cascaded(d1, d2)


class TestApplyVariance:
    def test_equals_predict_cov_diagonal(self, sparse_model):
        xs = np.linspace(-0.1, 1.1, 500)
        expected = np.diag(predict_cov(sparse_model.stage_two, xs))
        np.testing.assert_allclose(
            sparse_model.apply_variance(xs), expected, rtol=0,
            atol=1e-12 * sparse_model.stage_two.hp.signal_variance,
        )

    def test_memory_linear_in_readings(self, sparse_model):
        # the m x m covariance at 5,000 readings alone would be 200 MB
        xs = np.linspace(-0.1, 1.1, 5000)
        tracemalloc.start()
        try:
            var = sparse_model.apply_variance(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert var.shape == (5000,)
        assert peak < 32 * 2**20


class TestDatasetCsv:
    def test_roundtrip(self, tmp_path):
        ds = identity_dataset(9)
        path = tmp_path / "d.csv"
        save_dataset_csv(ds, path)
        back = load_dataset_csv(path)
        np.testing.assert_array_equal(back.x, ds.x)
        np.testing.assert_array_equal(back.y, ds.y)

    @pytest.mark.parametrize("text", [
        "y,x\n0.2,0.1\n0.4,0.3\n",
        "x,y,z\n0.1,0.2,a\n0.3,0.4,b\n",
    ])
    def test_columns_read_by_name(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        ds = load_dataset_csv(path)
        np.testing.assert_array_equal(ds.x, [0.1, 0.3])
        np.testing.assert_array_equal(ds.y, [0.2, 0.4])

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DatasetFormatError, match="row 1"):
            load_dataset_csv(path)

    def test_non_numeric_cell_names_row(self, tmp_path):
        rows = ["x,y"] + [f"0.{i},0.{i}" for i in range(1, 20)]
        rows[16] = "0.16,oops"  # physical file row 17
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DatasetFormatError, match="row 17"):
            load_dataset_csv(path)

    def test_wrong_column_count_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n0.1,0.2\n0.3\n")
        with pytest.raises(DatasetFormatError, match="row 3"):
            load_dataset_csv(path)


class TestModelJson:
    def test_roundtrip_preserves_predictions(self):
        model = calibrate_cascaded(identity_dataset(10, seed=9),
                                   identity_dataset(10, seed=10))
        doc = json.loads(json.dumps(model.to_dict()))
        back = CascadeModel.from_dict(doc)
        grid = np.linspace(0.0, 1.0, 17)
        np.testing.assert_allclose(
            back.apply(grid), model.apply(grid), rtol=1e-12, atol=0
        )
        assert back.method_tag == model.method_tag
        assert back.config == model.config

    def test_rejects_foreign_method_tag(self):
        with pytest.raises(ValueError):
            CascadeModel.from_dict({"method_tag": "lut"})

    def test_file_roundtrip(self, tmp_path):
        model = calibrate_alternative1(identity_dataset(10, seed=11),
                                       identity_dataset(10, seed=12))
        path = tmp_path / "model.json"
        cascade.save_model(model, path)
        back = cascade.load_model(path)
        grid = np.linspace(0.0, 1.0, 9)
        np.testing.assert_allclose(
            back.apply(grid), model.apply(grid), rtol=1e-12, atol=0
        )
        assert back.method_tag == "alt1"
