import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cascal import cascade, gp, sim
from cascal.errors import NotPositiveDefinite
from cascal.gp import (
    OptimizerConfig,
    TrainingSet,
    _condition,
    default_hp0,
    fit,
    log_marginal_likelihood,
    optimize_hyperparameters,
    posterior_from_dict,
    posterior_to_dict,
    predict_cov,
    predict_mean,
    predict_var,
)
from cascal.kernels import Hyperparameters, PriorMean, eval_prior_mean, kernel_matrix

import _oracles

IDENTITY = PriorMean.identity()
HP = Hyperparameters(length_scale=0.5, signal_variance=1.0, noise_variance=1e-2)


def empty_ts() -> TrainingSet:
    return TrainingSet.exact(np.array([]), np.array([]))


def random_problem(seed: int, n: int, m: int = 4):
    """A well-conditioned random regression problem plus query points."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, n)) + 0.01 * np.arange(n)  # well separated
    y = rng.normal(size=n)
    cov = _oracles.random_spd(rng, n, cond=50.0) * 0.1 if n else np.zeros((0, 0))
    hp = Hyperparameters(
        length_scale=rng.uniform(0.3, 2.0),
        signal_variance=rng.uniform(0.5, 2.0),
        noise_variance=rng.uniform(1e-3, 1e-1),
    )
    y_star = rng.uniform(-0.2, 1.2, m)
    return TrainingSet(inputs=x, targets=y, target_cov=cov), hp, y_star


class TestTrainingSet:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            TrainingSet(np.zeros(3), np.zeros(2), np.zeros((3, 3)))

    def test_cov_shape_mismatch(self):
        with pytest.raises(ValueError):
            TrainingSet(np.zeros(3), np.zeros(3), np.zeros((2, 2)))

    def test_asymmetric_cov_rejected(self):
        cov = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            TrainingSet(np.zeros(2), np.zeros(2), cov)

    def test_indefinite_cov_rejected(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            TrainingSet(np.zeros(2), np.zeros(2), cov)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            TrainingSet.exact(np.array([0.0, np.nan]), np.zeros(2))


class TestFit:
    def test_empty_training_set(self):
        p = fit(empty_ts(), HP, IDENTITY)
        assert p.weights.shape == (0,)
        np.testing.assert_array_equal(predict_mean(p, [0.3]), [0.3])

    def test_single_point_zero_residual(self):
        ts = TrainingSet.exact([0.4], [0.4])
        p = fit(ts, HP, IDENTITY)
        np.testing.assert_array_equal(p.weights, [0.0])

    def test_two_point_weights_match_explicit_inverse(self):
        ts = TrainingSet.exact([0.0, 1.0], [0.2, 0.9])
        p = fit(ts, HP, IDENTITY)
        gram = _oracles.gram(ts, HP, jitter=p.gram_factor.jitter_used)
        residual = ts.targets - ts.inputs
        expected = np.linalg.inv(gram) @ residual
        np.testing.assert_allclose(p.weights, expected, rtol=1e-10)

    def test_weights_reproducible_from_stored_fields(self):
        ts, hp, _ = random_problem(7, 6)
        p = fit(ts, hp, IDENTITY)
        from cascal.numerics import solve_psd

        residual = p.train.targets - eval_prior_mean(p.mean, p.train.inputs)
        np.testing.assert_allclose(
            p.weights, solve_psd(p.gram_factor, residual), rtol=1e-12, atol=1e-15
        )


class TestPredictMean:
    def test_prior_recovery_on_empty(self):
        p = fit(empty_ts(), HP, IDENTITY)
        np.testing.assert_array_equal(predict_mean(p, [0.3, -1.0]), [0.3, -1.0])

    def test_noiseless_interpolation(self):
        hp = Hyperparameters(0.5, 1.0, 0.0)
        ts = TrainingSet.exact([0.0, 0.5, 1.0], [0.1, 0.7, 0.8])
        p = fit(ts, hp, IDENTITY)
        np.testing.assert_allclose(
            predict_mean(p, ts.inputs), ts.targets, atol=1e-6
        )

    def test_matches_bruteforce(self):
        ts, hp, y_star = random_problem(11, 3, m=5)
        p = fit(ts, hp, IDENTITY)
        expected = _oracles.predict_mean_bruteforce(
            ts, hp, IDENTITY, y_star, jitter=p.gram_factor.jitter_used
        )
        np.testing.assert_allclose(predict_mean(p, y_star), expected, rtol=1e-10)


class TestPredictCov:
    def test_prior_covariance_on_empty(self):
        p = fit(empty_ts(), HP, IDENTITY)
        y_star = np.array([0.1, 0.4, 0.9])
        np.testing.assert_array_equal(
            predict_cov(p, y_star), kernel_matrix(y_star, y_star, HP)
        )
        np.testing.assert_array_equal(
            predict_var(p, y_star), np.full(3, HP.signal_variance)
        )

    def test_noiseless_variance_pinned_at_training_points(self):
        hp = Hyperparameters(0.5, 1.0, 0.0)
        ts = TrainingSet.exact([0.0, 0.5, 1.0], [0.1, 0.7, 0.8])
        p = fit(ts, hp, IDENTITY)
        var = np.diag(predict_cov(p, ts.inputs))
        assert np.all(var <= 1e-8 * hp.signal_variance)
        assert np.all(predict_var(p, ts.inputs) <= 1e-8 * hp.signal_variance)

    def test_matches_bruteforce(self):
        ts, hp, y_star = random_problem(13, 3, m=4)
        p = fit(ts, hp, IDENTITY)
        expected = _oracles.predict_cov_bruteforce(
            ts, hp, IDENTITY, y_star, jitter=p.gram_factor.jitter_used
        )
        np.testing.assert_allclose(
            predict_cov(p, y_star), expected, rtol=1e-10, atol=1e-12
        )
        np.testing.assert_allclose(
            predict_var(p, y_star), np.diag(expected), rtol=1e-10, atol=1e-12
        )

    def test_symmetric_and_nonnegative_diagonal(self):
        ts, hp, y_star = random_problem(17, 8, m=6)
        c = predict_cov(fit(ts, hp, IDENTITY), y_star)
        np.testing.assert_array_equal(c, c.T)
        assert np.all(np.diag(c) >= 0.0)

    def test_never_exceeds_prior_variance(self):
        for seed in range(5):
            ts, hp, y_star = random_problem(100 + seed, 6, m=8)
            c = predict_cov(fit(ts, hp, IDENTITY), y_star)
            assert np.all(np.diag(c) <= hp.signal_variance + 1e-10)
            var = predict_var(fit(ts, hp, IDENTITY), y_star)
            assert np.all((var >= 0.0) & (var <= hp.signal_variance + 1e-10))


class TestLogMarginalLikelihood:
    def test_unit_gram_zero_residual(self):
        # gram = [[1]]: signal 1 at zero distance, no noise, zero residual
        ts = TrainingSet.exact([0.3], [0.3])
        hp = Hyperparameters(1.0, 1.0, 0.0)
        lml = log_marginal_likelihood(ts, hp, IDENTITY)
        assert lml == pytest.approx(-0.5 * np.log(2 * np.pi), rel=1e-12)
        assert lml == pytest.approx(-0.918939, abs=1e-6)

    def test_empty_is_zero(self):
        assert log_marginal_likelihood(empty_ts(), HP, IDENTITY) == 0.0

    def test_two_point_matches_bruteforce(self):
        cov = np.array([[2e-3, 1e-3], [1e-3, 3e-3]])
        ts = TrainingSet(np.array([0.0, 1.0]), np.array([0.15, 1.2]), cov)
        lml = log_marginal_likelihood(ts, HP, IDENTITY)
        assert lml == pytest.approx(
            _oracles.lml_bruteforce(ts, HP, IDENTITY), rel=1e-10
        )

    def test_permutation_invariant(self):
        ts, hp, _ = random_problem(23, 7)
        perm = np.random.default_rng(0).permutation(7)
        ts_perm = TrainingSet(
            ts.inputs[perm], ts.targets[perm], ts.target_cov[np.ix_(perm, perm)]
        )
        a = log_marginal_likelihood(ts, hp, IDENTITY)
        b = log_marginal_likelihood(ts_perm, hp, IDENTITY)
        assert b == pytest.approx(a, rel=1e-12)


class TestOracleEquivalence:
    """Solve-based and explicit-inverse routes must agree."""

    @pytest.mark.parametrize("seed", range(10))
    def test_all_three_operations(self, seed):
        n = 2 + seed % 9
        ts, hp, y_star = random_problem(1000 + seed, n, m=5)
        p = fit(ts, hp, IDENTITY)
        jit = p.gram_factor.jitter_used
        np.testing.assert_allclose(
            predict_mean(p, y_star),
            _oracles.predict_mean_bruteforce(ts, hp, IDENTITY, y_star, jit),
            rtol=1e-9, atol=1e-12,
        )
        np.testing.assert_allclose(
            predict_cov(p, y_star),
            _oracles.predict_cov_bruteforce(ts, hp, IDENTITY, y_star, jit),
            rtol=1e-9, atol=1e-12,
        )
        np.testing.assert_allclose(
            predict_var(p, y_star),
            np.diag(_oracles.predict_cov_bruteforce(ts, hp, IDENTITY, y_star, jit)),
            rtol=1e-10, atol=1e-12,
        )
        assert log_marginal_likelihood(ts, hp, IDENTITY) == pytest.approx(
            _oracles.lml_bruteforce(ts, hp, IDENTITY, jit), rel=1e-9
        )

    @given(st.integers(min_value=0, max_value=50))
    def test_posterior_mean_solution_form(self, seed):
        # the regularized-solution identity, two independent ways
        ts, hp, y_star = random_problem(2000 + seed, 5, m=3)
        p = fit(ts, hp, IDENTITY)
        direct = _oracles.predict_mean_bruteforce(
            ts, hp, IDENTITY, y_star, p.gram_factor.jitter_used
        )
        np.testing.assert_allclose(
            predict_mean(p, y_star), direct, rtol=1e-9, atol=1e-12
        )


class TestOptimizeHyperparameters:
    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            optimize_hyperparameters(TrainingSet.exact([0.0], [0.0]), HP)

    def test_recovers_known_length_scale(self):
        # data drawn from a known prior; every seed must land within 2x
        true_hp = Hyperparameters(0.2, 1.0, 1e-4)
        mean = PriorMean.zero()
        recovered = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = np.sort(rng.uniform(0.0, 1.0, 100))
            k = kernel_matrix(x, x, true_hp) + (
                true_hp.noise_variance + 1e-12
            ) * np.eye(100)
            y = np.linalg.cholesky(k) @ rng.normal(size=100)
            ts = TrainingSet.exact(x, y)
            hp = optimize_hyperparameters(ts, default_hp0(ts, mean), mean=mean)
            recovered.append(hp.length_scale)
        recovered = np.array(recovered)
        assert np.all(recovered >= 0.1)
        assert np.all(recovered <= 0.4)

    def test_zero_residuals_drive_signal_variance_to_bound(self):
        x = np.linspace(0.0, 1.0, 30)
        ts = TrainingSet.exact(x, x.copy())
        cfg = OptimizerConfig()
        # numeric check that the evidence really improves as the signal
        # variance shrinks, before asserting where the optimizer went
        lmls = [
            log_marginal_likelihood(
                ts, Hyperparameters(0.3, sf, 1e-8), IDENTITY
            )
            for sf in (1e-2, 1e-6, 1e-9)
        ]
        assert lmls[0] < lmls[1] < lmls[2]
        hp = optimize_hyperparameters(ts, Hyperparameters(0.3, 1.0, 1e-8), cfg)
        assert np.log(hp.signal_variance) == pytest.approx(cfg.log_lower, abs=1e-9)

    def test_never_worse_than_grid_searched_start(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(0.0, 1.0, 25))
        y = x + 0.01 * np.sin(8 * x) + rng.normal(0.0, 1e-3, 25)
        ts = TrainingSet.exact(x, y)
        grid = np.geomspace(0.01, 3.0, 40)
        lmls = [
            log_marginal_likelihood(
                ts, Hyperparameters(l, 1e-4, 1e-6), IDENTITY
            )
            for l in grid
        ]
        hp0 = Hyperparameters(grid[int(np.argmax(lmls))], 1e-4, 1e-6)
        hp = optimize_hyperparameters(ts, hp0)
        assert log_marginal_likelihood(ts, hp, IDENTITY) >= max(lmls) - 1e-6

    def test_fix_noise_pins_noise_variance(self):
        ts, _, _ = random_problem(5, 10)
        hp = optimize_hyperparameters(
            ts, Hyperparameters(0.3, 1.0, 1e-4), fix_noise=0.0
        )
        assert hp.noise_variance == 0.0

    def test_deterministic(self):
        ts, _, _ = random_problem(9, 12)
        hp0 = default_hp0(ts, IDENTITY)
        a = optimize_hyperparameters(ts, hp0)
        b = optimize_hyperparameters(ts, hp0)
        assert a == b

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("broken kernel")

        monkeypatch.setattr(gp, "kernel_matrix", broken)
        ts, hp, _ = random_problem(11, 8)
        with pytest.raises(TypeError, match="broken kernel"):
            optimize_hyperparameters(ts, hp)

    def test_unfactorable_starts_are_skipped(self, monkeypatch):
        # every evaluation away from hp0 fails numerically: the search
        # gives up on those starts and returns hp0
        ts, hp, _ = random_problem(12, 8)
        real = gp._condition

        def only_at_hp0(ts_, hp_, mean, with_grad=False):
            if hp_ != hp:
                raise NotPositiveDefinite("forced")
            return real(ts_, hp_, mean, with_grad)

        monkeypatch.setattr(gp, "_condition", only_at_hp0)
        assert optimize_hyperparameters(ts, hp) == hp

    def test_default_start_is_scale_aware(self):
        x = np.linspace(2.0, 4.0, 20)
        targets = x + 0.1 * np.sin(3.0 * x)
        ts = TrainingSet.exact(x, targets)
        hp0 = default_hp0(ts, IDENTITY)
        assert hp0.length_scale == pytest.approx(0.2)  # 10% of the input range
        assert hp0.signal_variance == pytest.approx(
            np.var(targets - x), rel=1e-12
        )
        assert hp0.noise_variance == 1e-8


def _log_hp(hp: Hyperparameters, step: np.ndarray) -> Hyperparameters:
    """hp with each parameter multiplied by exp(step)."""
    return Hyperparameters(
        hp.length_scale * np.exp(step[0]),
        hp.signal_variance * np.exp(step[1]),
        hp.noise_variance * np.exp(step[2]),
    )


class TestConditionGradient:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("noise", ["free", "fixed at 0"])
    def test_matches_central_differences(self, seed, noise):
        ts, hp, _ = random_problem(40 + seed, 12)
        if noise == "fixed at 0":
            hp = Hyperparameters(hp.length_scale, hp.signal_variance, 0.0)
        c = _condition(ts, hp, IDENTITY, with_grad=True)
        assert c.factor.jitter_used == 0.0
        h = 1e-5
        fd = np.empty(3)
        for i in range(3):
            step = np.zeros(3)
            step[i] = h
            up = _condition(ts, _log_hp(hp, step), IDENTITY).lml
            down = _condition(ts, _log_hp(hp, -step), IDENTITY).lml
            fd[i] = (up - down) / (2 * h)
        np.testing.assert_allclose(c.grad, fd, rtol=1e-6, atol=1e-8)
        if noise == "fixed at 0":
            assert c.grad[2] == 0.0

    def test_fit_and_evidence_read_the_same_conditioning(self):
        ts, hp, _ = random_problem(47, 9)
        c = _condition(ts, hp, IDENTITY, with_grad=True)
        p = fit(ts, hp, IDENTITY)
        np.testing.assert_array_equal(c.alpha, p.weights)
        assert c.lml == log_marginal_likelihood(ts, hp, IDENTITY)
        assert _condition(ts, hp, IDENTITY).grad is None


class TestSearchParity:
    """The gradient search reaches a simplex search's optimum or better."""

    @pytest.mark.parametrize("seed", range(4))
    def test_optimum_at_least_nelder_mead(self, seed):
        pair, _ = sim.sample_truth_pair(seed)
        d1 = sim.generate_d1(pair, 20, sim.substream(seed, 1))
        d2 = sim.generate_d2(pair, 30, 3, 6, sim.substream(seed, 2))
        stage_one = cascade.calibrate_stage_one(d2)
        sets = {
            "stage one": TrainingSet.exact(d2.x, d2.y),
            "bayes stage two": cascade.propagate(d1, stage_one),
            "alt1 stage two": cascade.calibrate_alternative1(
                d1, d2, stage_one=stage_one
            ).stage_two.train,
        }
        runs = [(name, ts, None) for name, ts in sets.items()]
        runs += [(name + ", strict", ts, 0.0) for name, ts in list(sets.items())[1:]]
        for name, ts, fix_noise in runs:
            hp0 = default_hp0(ts, IDENTITY)
            ours = optimize_hyperparameters(ts, hp0, fix_noise=fix_noise)
            ref = _oracles.optimize_nelder_mead(ts, hp0, IDENTITY, fix_noise=fix_noise)
            assert log_marginal_likelihood(ts, ours, IDENTITY) >= (
                log_marginal_likelihood(ts, ref, IDENTITY) - 1e-6
            ), name


class TestSerialization:
    def test_roundtrip_reproduces_predictions(self):
        ts, hp, y_star = random_problem(31, 6, m=5)
        p = fit(ts, hp, IDENTITY)
        doc = json.loads(json.dumps(posterior_to_dict(p)))
        q = posterior_from_dict(doc)
        np.testing.assert_allclose(
            predict_mean(q, y_star), predict_mean(p, y_star), rtol=1e-12, atol=0
        )
        np.testing.assert_allclose(
            predict_cov(q, y_star), predict_cov(p, y_star), rtol=1e-12, atol=0
        )

    def test_roundtrip_empty(self):
        p = fit(empty_ts(), HP, IDENTITY)
        q = posterior_from_dict(json.loads(json.dumps(posterior_to_dict(p))))
        np.testing.assert_array_equal(predict_mean(q, [0.5]), [0.5])
