import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cascal import cascade, gp, sim
from cascal.errors import NotPositiveDefinite, OptimizationFailed
from cascal.gp import (
    GPPosterior,
    OptimizerConfig,
    TrainingSet,
    _condition,
    default_hp0,
    fit,
    log_marginal_likelihood,
    optimize_hyperparameters,
    predict_cov,
    predict_mean,
    predict_mean_var,
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

    def test_cov_asymmetric_within_tolerance_stored_symmetric(self):
        cov = np.array([[2.0, 0.5], [0.5 + 1e-12, 1.0]])
        ts = TrainingSet(np.zeros(2), np.zeros(2), cov)
        np.testing.assert_array_equal(ts.target_cov, ts.target_cov.T)
        assert ts.target_cov[0, 1] == 0.5 * (0.5 + (0.5 + 1e-12))

    def test_huge_finite_cov_stored_unchanged(self):
        cov = np.diag([1.7e308, 1.0])
        with np.errstate(over="raise"):
            ts = TrainingSet(np.zeros(2), np.zeros(2), cov)
        np.testing.assert_array_equal(ts.target_cov, cov)

    def test_nonfinite_cov_rejected(self):
        cov = np.diag([1.0, np.inf])
        with pytest.raises(ValueError, match="target_cov must be finite"):
            TrainingSet(np.zeros(2), np.zeros(2), cov)

    def test_indefinite_cov_rejected(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            TrainingSet(np.zeros(2), np.zeros(2), cov)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            TrainingSet.exact(np.array([0.0, np.nan]), np.zeros(2))

    def test_nonfinite_residual_rejected(self):
        # finite inputs and targets whose prior mean overflows
        ts = TrainingSet.exact(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        mean = PriorMean("affine", slope=1e308)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
            ts.residual(mean)


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
            predict_mean_var(p, y_star)[1], np.full(3, HP.signal_variance)
        )

    def test_noiseless_variance_pinned_at_training_points(self):
        hp = Hyperparameters(0.5, 1.0, 0.0)
        ts = TrainingSet.exact([0.0, 0.5, 1.0], [0.1, 0.7, 0.8])
        p = fit(ts, hp, IDENTITY)
        var = np.diag(predict_cov(p, ts.inputs))
        assert np.all(var <= 1e-8 * hp.signal_variance)
        assert np.all(predict_mean_var(p, ts.inputs)[1] <= 1e-8 * hp.signal_variance)

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
            predict_mean_var(p, y_star)[1], np.diag(expected), rtol=1e-10, atol=1e-12
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
            var = predict_mean_var(fit(ts, hp, IDENTITY), y_star)[1]
            assert np.all((var >= 0.0) & (var <= hp.signal_variance + 1e-10))


def blocked_models():
    """A 26-point campaign stage one, and a 100-point model whose factor needed jitter."""
    ts = campaign_sets(0, 40, 3, 8, 30)["stage one"]
    sparse = fit(ts, default_hp0(ts, IDENTITY), IDENTITY)
    x = np.repeat(np.linspace(0.0, 1.0, 50), 2)  # each input twice, no noise
    jittered = fit(TrainingSet.exact(x, x + 0.1 * np.sin(5.0 * x)),
                   Hyperparameters(0.1, 1.0, 0.0), IDENTITY)
    assert (sparse.train.n, jittered.train.n) == (26, 100)
    assert sparse.gram_factor.jitter_used == 0 < jittered.gram_factor.jitter_used
    return {"26 points": sparse, "100 points, jittered": jittered}


class TestBlockedPrediction:
    """Queries run in blocks of rows, each evaluated as a single call would be."""

    @pytest.fixture(scope="class")
    @staticmethod
    def models():
        return blocked_models()

    def test_block_rows(self):
        assert [gp._block_rows(n) for n in (1, 26, 30, 64, 100, 1024, 5000)] == [
            65536, 2496, 2176, 1024, 640, 64, 64]
        assert gp._block_rows(30) >= 2001  # the default cost grid stays one block

    @pytest.mark.parametrize("name", ["26 points", "100 points, jittered"])
    def test_any_length_gives_one_blocks_bits(self, models, monkeypatch, name):
        p = models[name]
        b = gp._block_rows(p.train.n)
        rng = np.random.default_rng(7)
        for m in (0, 1, b - 1, b, b + 1, 3 * b + 17):
            y_star = rng.uniform(p.train.inputs.min() - 0.1, p.train.inputs.max() + 0.1, m)
            blocked = (predict_mean(p, y_star), predict_mean_var(p, y_star)[1],
                       predict_mean_var(p, y_star))
            with monkeypatch.context() as patch:
                patch.setattr(gp, "_block_rows", lambda n: m + 1)
                single = (predict_mean(p, y_star), predict_mean_var(p, y_star)[1],
                          predict_mean_var(p, y_star))
            for got, want in zip(blocked[:2] + blocked[2], single[:2] + single[2]):
                assert got.shape == (m,)
                np.testing.assert_array_equal(got, want)
            # the mean half is predict_mean's, as matching prediction files need
            np.testing.assert_array_equal(blocked[2][0], blocked[0])
            np.testing.assert_array_equal(blocked[2][1], blocked[1])

    @pytest.mark.parametrize("full, rest, blocks", [(1, 1, 1), (2, 0, 2), (3, 17, 4)])
    def test_one_kernel_per_block(self, models, monkeypatch, full, rest, blocks):
        # full * B + rest queries; a last row on its own joins the block before it
        p = models["100 points, jittered"]
        b = gp._block_rows(p.train.n)
        calls = []
        monkeypatch.setattr(gp, "kernel_matrix", counted(calls, gp.kernel_matrix))
        predict_mean_var(p, np.linspace(0.0, 1.0, full * b + rest))
        assert len(calls) == blocks

    def test_memory_is_one_block_beyond_the_results(self, models):
        import tracemalloc

        p = models["100 points, jittered"]
        y_star = np.linspace(-0.1, 1.1, 100_000)
        predict_mean_var(p, y_star[:10])  # warm up
        tracemalloc.start()
        try:
            mean, var = predict_mean_var(p, y_star)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        results = mean.nbytes + var.nbytes
        # a full cross-kernel would be 100 x 100k doubles, 80 MB
        assert peak < results + 4 * 8 * gp.BLOCK_ENTRIES

    def test_empty_model_gives_the_prior(self):
        p = fit(empty_ts(), HP, IDENTITY)
        mean, var = predict_mean_var(p, [0.3, -1.0])
        np.testing.assert_array_equal(mean, [0.3, -1.0])
        np.testing.assert_array_equal(var, [HP.signal_variance] * 2)


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
            predict_mean_var(p, y_star)[1],
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

        monkeypatch.setattr(gp, "se_from_scaled", broken)
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

    def test_no_finite_start_raises(self, monkeypatch):
        # neither hp0 nor any start can be scored
        def unfactorable(*args, **kwargs):
            raise NotPositiveDefinite("forced")

        monkeypatch.setattr(gp, "_condition", unfactorable)
        ts, hp, _ = random_problem(12, 8)
        with pytest.raises(OptimizationFailed):
            optimize_hyperparameters(ts, hp)

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


class TestLeanCondition:
    """The evidence's own solve and its empty and jittered edges."""

    def test_empty_training_set(self):
        c = _condition(empty_ts(), HP, IDENTITY, with_grad=True)
        assert c.lml == 0.0
        np.testing.assert_array_equal(c.grad, np.zeros(3))
        assert c.alpha.shape == (0,)

    def test_jittered_gram_matches_oracles(self):
        # A repeated input with no target covariance and no noise gives a
        # singular Gram matrix, so the factor needs jitter.  Its condition
        # number is then about 1e12, so two stable routes agree only to
        # about 1e-8 relative here; one jitter step (a factor 10) moves the
        # LML by about 1.
        x = np.array([0.2, 0.2, 0.8])
        ts = TrainingSet.exact(x, x + 0.1 * np.sin(5.0 * x))
        hp = Hyperparameters(length_scale=0.1, signal_variance=1.0, noise_variance=0.0)
        c = _condition(ts, hp, IDENTITY)
        jitter = c.factor.jitter_used
        assert jitter > 0
        assert c.lml == pytest.approx(
            _oracles.lml_bruteforce(ts, hp, IDENTITY, jitter), rel=1e-6
        )
        y_star = np.array([0.25, 0.55, 0.8])
        np.testing.assert_allclose(
            predict_mean(fit(ts, hp, IDENTITY), y_star),
            _oracles.predict_mean_bruteforce(ts, hp, IDENTITY, y_star, jitter),
            rtol=0, atol=1e-5,
        )


def campaign_sets(seed, n_grid, edge_remove, center_remove, n1):
    """A trial's three training sets: stage one, bayes and alt1 stage two."""
    pair, _ = sim.sample_truth_pair(seed)
    d1 = sim.generate_d1(pair, n1, sim.substream(seed, 1))
    d2 = sim.generate_d2(pair, n_grid, edge_remove, center_remove, sim.substream(seed, 2))
    stage_one = cascade.calibrate_stage_one(d2)
    return {
        "stage one": TrainingSet.exact(d2.x, d2.y),
        "bayes": cascade.propagate(d1, stage_one),
        "alt1": cascade.calibrate_alternative1(d1, d2, stage_one=stage_one).stage_two.train,
    }


def counted(calls, fn):
    """``fn``, appending to ``calls`` on every call."""
    def wrapper(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)
    return wrapper


class TestConditionBitIdentity:
    """The evidence keeps each training set's fixed quantities, and gives
    the bits of the evaluation that rebuilt them in every call."""

    @staticmethod
    def assert_identical(ts, hp, mean=IDENTITY):
        for with_grad in (False, True):
            ours = _condition(ts, hp, mean, with_grad)
            ref = _oracles.condition_reference(ts, hp, mean, with_grad)
            assert ours.lml == ref.lml
            np.testing.assert_array_equal(ours.alpha, ref.alpha)
            np.testing.assert_array_equal(
                ours.factor.lower_triangular, ref.factor.lower_triangular
            )
            assert ours.factor.jitter_used == ref.factor.jitter_used
            if with_grad:
                np.testing.assert_array_equal(ours.grad, ref.grad)
            else:
                assert ours.grad is None

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "sizes", [(40, 3, 8, 30), (100, 8, 20, 100)], ids=["26/30", "64/100"]
    )
    def test_campaign_sets(self, monkeypatch, seed, sizes):
        for name, ts in campaign_sets(seed, *sizes).items():
            hp0 = default_hp0(ts, IDENTITY)
            hp = optimize_hyperparameters(ts, hp0)
            for h in (hp0, hp, dataclasses.replace(hp, noise_variance=0.0),
                      Hyperparameters(3.0 * hp.length_scale, hp.signal_variance, 1e-12),
                      Hyperparameters(1e-3, 10.0, hp.noise_variance)):
                self.assert_identical(ts, h)
            # a search through the reference takes the same path
            for fix_noise in (None, 0.0):
                searches = []
                for condition in (_oracles.condition_reference, _condition):
                    calls = []
                    with monkeypatch.context() as m:
                        m.setattr(gp, "_condition", counted(calls, condition))
                        found = optimize_hyperparameters(ts, hp0, fix_noise=fix_noise)
                    searches.append((found, len(calls)))
                assert searches[0] == searches[1], name

    def test_jittered_gram(self):
        x = np.array([0.2, 0.2, 0.8])
        ts = TrainingSet.exact(x, x + 0.1 * np.sin(5.0 * x))
        hp = Hyperparameters(length_scale=0.1, signal_variance=1.0, noise_variance=0.0)
        assert _condition(ts, hp, IDENTITY).factor.jitter_used > 0
        self.assert_identical(ts, hp)

    def test_empty_set(self):
        self.assert_identical(empty_ts(), HP)

    def test_other_prior_means_keep_their_own_residual(self):
        ts, hp, _ = random_problem(14, 9)
        for mean in (IDENTITY, PriorMean.zero(), PriorMean.affine(0.5, 0.1), IDENTITY):
            self.assert_identical(ts, hp, mean)

    def test_cached_quantities_are_read_only(self):
        ts, _, _ = random_problem(15, 6)
        for array in (ts.differences, ts.residual(IDENTITY)):
            with pytest.raises(ValueError):
                array[0] = 1.0


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


class TestScipyMinimizeParity:
    """The search takes ``scipy.optimize.minimize``'s L-BFGS-B iterates.

    ``gp._lbfgsb`` calls scipy's L-BFGS-B routine itself; the oracle hands
    each start to ``scipy.optimize.minimize``.  The two must pick the same
    hyperparameters, bit for bit, through the same number of evidence
    evaluations.  A scipy that changes the routine's arguments or defaults
    fails here.
    """

    CONFIGS = [
        OptimizerConfig(),
        OptimizerConfig(max_iters=1),
        OptimizerConfig(max_iters=3),
        OptimizerConfig(rel_tol=0.0),
    ]

    @staticmethod
    def assert_same_search(monkeypatch, ts, cfg, fix_noise, condition=None):
        condition = condition or gp._condition
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return condition(*args, **kwargs)

        monkeypatch.setattr(gp, "_condition", counted)
        hp0 = default_hp0(ts, IDENTITY)
        ours = optimize_hyperparameters(ts, hp0, cfg, IDENTITY, fix_noise)
        n_ours = len(calls)
        ref = _oracles.optimize_scipy_minimize(ts, hp0, cfg, IDENTITY, fix_noise)
        assert ours == ref
        assert n_ours == len(calls) - n_ours

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "n_grid, edge_remove, center_remove, n1",
        [(40, 3, 8, 30), (32, 4, 8, 25)],
        ids=["26/30", "16/25"],
    )
    def test_campaign_training_sets(
        self, monkeypatch, seed, n_grid, edge_remove, center_remove, n1
    ):
        pair, _ = sim.sample_truth_pair(seed)
        d1 = sim.generate_d1(pair, n1, sim.substream(seed, 1))
        d2 = sim.generate_d2(
            pair, n_grid, edge_remove, center_remove, sim.substream(seed, 2)
        )
        stage_one = cascade.calibrate_stage_one(d2)
        sets = [
            TrainingSet.exact(d2.x, d2.y),
            cascade.propagate(d1, stage_one),
            cascade.calibrate_alternative1(d1, d2, stage_one=stage_one).stage_two.train,
        ]
        for ts in sets:
            for fix_noise in (None, 0.0):
                for cfg in self.CONFIGS:
                    with monkeypatch.context() as m:
                        self.assert_same_search(m, ts, cfg, fix_noise)

    @pytest.mark.parametrize("fraction", [0.5, 1.0, 2.0])
    def test_failing_region(self, monkeypatch, fraction):
        # evaluations fail above a length scale that the search crosses:
        # starts there are skipped, and line searches meet inf and back off
        pair, _ = sim.sample_truth_pair(0)
        d2 = sim.generate_d2(pair, 40, 3, 8, sim.substream(0, 2))
        ts = TrainingSet.exact(d2.x, d2.y)
        limit = fraction * optimize_hyperparameters(
            ts, default_hp0(ts, IDENTITY)
        ).length_scale
        real = gp._condition
        failed = []

        def fails_above(ts_, hp_, mean, with_grad=False):
            if hp_.length_scale > limit:
                failed.append(None)
                raise NotPositiveDefinite("forced")
            return real(ts_, hp_, mean, with_grad)

        for cfg in self.CONFIGS:
            with monkeypatch.context() as m:
                self.assert_same_search(m, ts, cfg, None, fails_above)
        assert failed

    def test_degenerate_boxes(self, monkeypatch):
        ts, _, _ = random_problem(13, 10)
        # a box of one point: every start is clipped onto it
        self.assert_same_search(
            monkeypatch, ts, OptimizerConfig(log_lower=-1.0, log_upper=-1.0), None
        )
        # an inverted box: both searches raise
        inverted = OptimizerConfig(log_lower=1.0, log_upper=-1.0)
        hp0 = default_hp0(ts, IDENTITY)
        for search in (optimize_hyperparameters, _oracles.optimize_scipy_minimize):
            with pytest.raises(ValueError):
                search(ts, hp0, inverted)


class TestStartSchedule:
    """The middle and the two outermost offsets run first; the rest run
    only when those three do not end at one finite optimum."""

    @staticmethod
    def search(monkeypatch, ts, cfg=OptimizerConfig(), condition=None):
        """The search's result and the x0 of each ``_lbfgsb`` start, in order."""
        starts = []
        lbfgsb = gp._lbfgsb

        def recorded(objective, x0, cfg_):
            starts.append(x0.copy())
            return lbfgsb(objective, x0, cfg_)

        with monkeypatch.context() as m:
            m.setattr(gp, "_lbfgsb", recorded)
            if condition is not None:
                m.setattr(gp, "_condition", condition)
            hp = optimize_hyperparameters(ts, default_hp0(ts, IDENTITY), cfg)
        return hp, starts

    @staticmethod
    def x0s(ts, cfg, offsets):
        center = np.clip(gp._pack(default_hp0(ts, IDENTITY), None),
                         cfg.log_lower, cfg.log_upper)
        return [np.clip(center + o, cfg.log_lower, cfg.log_upper) for o in offsets]

    @pytest.mark.parametrize("offsets, first", [
        ((-2.0, -1.0, 0.0, 1.0, 2.0), (0.0, -2.0, 2.0)),
        ((3.0, -1.0, 0.0, 2.0), (2.0, -1.0, 3.0)),
    ])
    def test_three_starts_when_they_agree(self, monkeypatch, offsets, first):
        ts = campaign_sets(0, 40, 3, 8, 30)["stage one"]
        cfg = OptimizerConfig(start_offsets=offsets)
        hp, starts = self.search(monkeypatch, ts, cfg)
        assert len(starts) == 3
        for ran, x0 in zip(starts, self.x0s(ts, cfg, first)):
            np.testing.assert_array_equal(ran, x0)
        assert hp == _oracles.optimize_scipy_minimize(ts, default_hp0(ts, IDENTITY), cfg)

    def test_all_starts_when_one_is_steered_away(self, monkeypatch):
        # a tall narrow bump in the evidence at the +2 start's x0 holds that
        # start there, far from where 0 and -2 end
        ts = campaign_sets(0, 40, 3, 8, 30)["stage one"]
        cfg = OptimizerConfig()
        bump_at = self.x0s(ts, cfg, [2.0])[0]
        height, width = 1e3, 0.2

        def bumped(ts_, hp_, mean, with_grad=False):
            c = _condition(ts_, hp_, mean, with_grad)
            d = np.log([hp_.length_scale, hp_.signal_variance, hp_.noise_variance]) - bump_at
            b = height * np.exp(-0.5 * (d @ d) / width**2)
            grad = None if c.grad is None else c.grad - b * d / width**2
            return c._replace(lml=c.lml + b, grad=grad)

        hp, starts = self.search(monkeypatch, ts, cfg, condition=bumped)
        assert len(starts) == 5
        with monkeypatch.context() as m:
            m.setattr(gp, "_condition", bumped)
            ref = _oracles.optimize_scipy_minimize(ts, default_hp0(ts, IDENTITY),
                                                   all_starts=True)
        assert hp == ref

    def test_all_starts_when_one_is_not_finite(self, monkeypatch):
        # no evidence above the +1 start's length scale: the +2 start
        # cannot be scored at its x0
        ts = campaign_sets(0, 40, 3, 8, 30)["stage one"]
        limit = 1.5 * default_hp0(ts, IDENTITY).length_scale * np.exp(1.0)

        def fails_above(ts_, hp_, mean, with_grad=False):
            if hp_.length_scale > limit:
                raise NotPositiveDefinite("forced")
            return _condition(ts_, hp_, mean, with_grad)

        hp, starts = self.search(monkeypatch, ts, condition=fails_above)
        assert len(starts) == 5
        assert hp.length_scale <= limit

    @pytest.mark.parametrize("step, runs", [(1.0, 5), (1e-4, 3)])
    def test_a_tie_goes_to_the_earlier_offset(self, monkeypatch, step, runs):
        # every start ends at one f, step times its own offset from the
        # center: far apart all five run, and close together three do
        ts = campaign_sets(0, 40, 3, 8, 30)["stage one"]
        cfg = OptimizerConfig()
        center = self.x0s(ts, cfg, [0.0])[0]
        calls = []

        def tied(objective, x0, cfg_):
            calls.append(None)
            return center + step * (x0 - center), -1e9

        monkeypatch.setattr(gp, "_lbfgsb", tied)
        hp = optimize_hyperparameters(ts, default_hp0(ts, IDENTITY), cfg)
        assert len(calls) == runs
        first = self.x0s(ts, cfg, [cfg.start_offsets[0]])[0]
        assert hp == gp._unpack(center + step * (first - center), None)

    @pytest.mark.parametrize("offsets", [(), (1.5,), (-1.0, 1.0), (1.0, -1.0, 0.0)])
    def test_three_or_fewer_offsets_all_run(self, monkeypatch, offsets):
        ts = campaign_sets(0, 40, 3, 8, 30)["stage one"]
        cfg = OptimizerConfig(start_offsets=offsets)
        _, starts = self.search(monkeypatch, ts, cfg)
        assert len(starts) == len(offsets)
        for ran, x0 in zip(starts, self.x0s(ts, cfg, offsets)):
            np.testing.assert_array_equal(ran, x0)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "sizes", [(40, 3, 8, 30), (32, 4, 8, 25)], ids=["26/30", "16/25"]
    )
    def test_evidence_within_a_micronat_of_all_starts(self, seed, sizes):
        for name, ts in campaign_sets(seed, *sizes).items():
            hp0 = default_hp0(ts, IDENTITY)
            for fix_noise in (None, 0.0):
                ours = optimize_hyperparameters(ts, hp0, fix_noise=fix_noise)
                ref = _oracles.optimize_scipy_minimize(
                    ts, hp0, fix_noise=fix_noise, all_starts=True
                )
                loss = (log_marginal_likelihood(ts, ref, IDENTITY)
                        - log_marginal_likelihood(ts, ours, IDENTITY))
                assert loss <= 1e-6, (name, fix_noise)


class TestSerialization:
    def test_roundtrip_reproduces_predictions(self):
        ts, hp, y_star = random_problem(31, 6, m=5)
        p = fit(ts, hp, IDENTITY)
        doc = json.loads(json.dumps(p.to_dict()))
        q = GPPosterior.from_dict(doc)
        np.testing.assert_allclose(
            predict_mean(q, y_star), predict_mean(p, y_star), rtol=1e-12, atol=0
        )
        np.testing.assert_allclose(
            predict_cov(q, y_star), predict_cov(p, y_star), rtol=1e-12, atol=0
        )

    def test_roundtrip_empty(self):
        p = fit(empty_ts(), HP, IDENTITY)
        q = GPPosterior.from_dict(json.loads(json.dumps(p.to_dict())))
        np.testing.assert_array_equal(predict_mean(q, [0.5]), [0.5])

    @pytest.mark.parametrize("field, edit", [
        ("train_inputs", lambda a: ["0.1"] + a[1:]),
        ("train_targets", lambda a: [True] + a[1:]),
        ("train_targets", lambda a: [10**400] + a[1:]),
        ("target_cov", lambda a: a[:-1] + [a[-1][:-1]]),
        ("target_cov", lambda a: sum(a, [])),
    ], ids=["string", "bool", "huge-int", "ragged", "flat"])
    def test_from_dict_rejects_edited_array(self, field, edit):
        ts, hp, _ = random_problem(32, 4)
        doc = json.loads(json.dumps(fit(ts, hp, IDENTITY).to_dict()))
        doc[field] = edit(doc[field])
        with pytest.raises(ValueError, match=field):
            GPPosterior.from_dict(doc)
