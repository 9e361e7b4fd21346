import inspect

import numpy as np
import pytest

from cascal import gp, lut, montecarlo, sim
from cascal.errors import (ConfigError, DatasetFormatError, DegenerateTable, EmptyCampaign,
                           ScipyIncompatible)
from cascal.montecarlo import (
    METHODS,
    TrialConfig,
    TrialResult,
    dataset_checksum,
    read_trials_csv,
    run_campaign,
    run_trial,
    summarize,
    write_trials_csv,
)

# reduced problem sizes keep optimizer runtime low without changing structure
SMALL = TrialConfig(n_grid=30, edge_remove=3, center_remove=6, n1=20, n_quad=501)


def fake_results(js_by_method: dict, flags=None) -> list:
    n = len(next(iter(js_by_method.values())))
    flags = flags or [None] * n
    return [
        TrialResult(
            seed=k,
            j_bayes=js_by_method["bayes"][k],
            j_alt1=js_by_method["alt1"][k],
            j_alt2=js_by_method["alt2"][k],
            flag=flags[k],
        )
        for k in range(n)
    ]


class TestRunTrial:
    def test_zero_coefficient_truths_are_easy(self):
        cfg = TrialConfig(
            coeff_var=0.0, n_grid=30, edge_remove=3, center_remove=6,
            n1=20, n_quad=501,
        )
        r = run_trial(0, cfg)
        assert r.ok
        assert r.j_bayes <= 1e-3
        assert r.j_alt1 <= 1e-3
        assert r.j_alt2 <= 1e-3

    def test_same_seed_identical_result(self):
        a = run_trial(3, SMALL)
        b = run_trial(3, SMALL)
        assert a == b  # wall times excluded from comparison

    def test_methods_consumed_identical_datasets(self):
        r = run_trial(5, SMALL)
        pair, _ = sim.sample_truth_pair(
            5, SMALL.n_terms, SMALL.coeff_var, SMALL.freq_var, SMALL.noise_var
        )
        d1 = sim.generate_d1(pair, SMALL.n1, sim.substream(5, 1))
        d2 = sim.generate_d2(
            pair, SMALL.n_grid, SMALL.edge_remove, SMALL.center_remove,
            sim.substream(5, 2),
        )
        assert r.d1_checksum == dataset_checksum(d1)
        assert r.d2_checksum == dataset_checksum(d2)

    def test_costs_finite_and_nonnegative(self):
        r = run_trial(1, SMALL)
        for m in METHODS:
            assert np.isfinite(r.j_for(m))
            assert r.j_for(m) >= 0.0

    @pytest.mark.parametrize("seed, rejected", [(13, 2), (1, 1)])
    def test_rejected_draws_counts_non_monotone_truths(self, seed, rejected):
        cfg = TrialConfig(freq_var=150.0, n_grid=40, edge_remove=3,
                          center_remove=8, n1=30)
        r = run_trial(seed, cfg)
        assert r.rejected_draws == rejected
        assert r.rejected_draws == sim.sample_truth_pair(seed, freq_var=150.0)[1]

    def test_method_failure_flags_trial(self, monkeypatch):
        scored = run_trial(2, SMALL)
        assert scored.ok

        def degenerate(*args, **kwargs):
            raise DegenerateTable("x")

        monkeypatch.setattr(lut, "calibrate_lut_cascade", degenerate)
        r = run_trial(2, SMALL)
        assert r.flag == "DegenerateTable: x"
        assert all(np.isnan(r.j_for(m)) for m in METHODS)
        assert r.hp_stage_one is None and r.hp_stage_two is None
        # the draw and both datasets are those of the unpatched trial
        assert r.rejected_draws == scored.rejected_draws
        assert r.d1_checksum == scored.d1_checksum
        assert r.d2_checksum == scored.d2_checksum

    def test_invalid_removal_config_propagates(self):
        with pytest.raises(ConfigError):
            run_trial(0, TrialConfig(n_grid=10, edge_remove=4, center_remove=4))


class TestRunCampaign:
    def test_changed_scipy_routine_propagates(self, monkeypatch):
        # every trial would fail alike, so it is no flag on one draw
        def changed(*args):
            raise TypeError("setulb() takes 18 positional arguments")

        monkeypatch.setattr(gp, "setulb", changed)
        with pytest.raises(ScipyIncompatible, match="18 positional"):
            run_trial(0, SMALL)

    def test_single_trial_equals_run_trial(self):
        campaign = run_campaign(1, 11, SMALL)
        assert campaign == [run_trial(11, SMALL)]

    def test_seed_sequence(self):
        results = run_campaign(3, 20, SMALL)
        assert [r.seed for r in results] == [20, 21, 22]

    def test_parallel_matches_serial_byte_identical(self, tmp_path):
        serial = run_campaign(6, 0, SMALL, max_parallel=1)
        parallel = run_campaign(6, 0, SMALL, max_parallel=3)
        a, b = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        write_trials_csv(serial, a)
        write_trials_csv(parallel, b)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_empty_campaign_request(self):
        with pytest.raises(ConfigError):
            run_campaign(0, 0, SMALL)

    @pytest.mark.parametrize("n_trials, parallel, workers", [(3, 64, 3), (5, 2, 2)])
    def test_workers_capped_at_trial_count(self, monkeypatch, n_trials, parallel,
                                          workers):
        # A stand-in pool that records its size and maps serially, so no
        # process is started.
        created = []

        class SerialPool:
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(
            montecarlo, "run_trial",
            lambda seed, cfg: TrialResult(seed, 0.0, 0.0, 0.0),
        )
        results = run_campaign(n_trials, 10, SMALL, max_parallel=parallel)
        assert created == [workers]
        assert [r.seed for r in results] == list(range(10, 10 + n_trials))


class TestTrialConfigDefaults:
    """TrialConfig's defaults are the sim functions' keyword defaults."""

    @staticmethod
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    def test_matches_sim_signatures(self):
        cfg = TrialConfig()
        truth = sim.sample_truth_pair
        assert cfg.n_terms == self.default(truth, "n_terms")
        assert cfg.coeff_var == self.default(truth, "coeff_var")
        assert cfg.freq_var == self.default(truth, "freq_var")
        assert cfg.noise_var == self.default(truth, "noise_variance")
        assert cfg.n1 == self.default(sim.generate_d1, "n1")
        assert cfg.n_grid == self.default(sim.generate_d2, "n_grid")
        assert cfg.edge_remove == self.default(sim.generate_d2, "edge_remove")
        assert cfg.center_remove == self.default(sim.generate_d2, "center_remove")
        assert cfg.n_quad == self.default(sim.cost_j, "n_quad")


class TestTrialConfigChecks:
    @pytest.mark.parametrize("bad", [
        {"lut_extrapolation": "bogus"}, {"opt_max_iters": 0}, {"opt_rel_tol": -1.0},
        {"opt_rel_tol": float("nan")}, {"n_terms": -1}, {"coeff_var": float("nan")},
        {"noise_var": -1.0}, {"n_grid": 3}, {"n1": 1}, {"n_quad": 1},
        {"edge_remove": 60}, {"center_remove": -1},
    ])
    def test_out_of_range_value_raises_config_error(self, bad):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            TrialConfig(**bad)

    def test_cascade_carries_run_settings(self):
        cfg = TrialConfig(strict_paper=True, opt_max_iters=7, opt_rel_tol=1e-3)
        assert not cfg.cascade.stage2_learned_noise
        assert cfg.cascade.optimizer.max_iters == 7
        assert cfg.cascade.optimizer.rel_tol == 1e-3


class TestSummarize:
    def test_single_trial_degenerate_histogram(self):
        results = fake_results(
            {"bayes": [0.3], "alt1": [0.3], "alt2": [0.3]}
        )
        s = summarize(results, n_bins=5)
        m = s.methods["bayes"]
        # all mass in one bin; cdf is a single step at the observed cost
        assert np.count_nonzero(m.density) == 1
        np.testing.assert_array_equal(m.cdf_values, [0.3])
        np.testing.assert_array_equal(m.cdf_fractions, [1.0])

    def test_identical_costs_tie_gives_zero_win_rates(self):
        js = [0.1, 0.2, 0.3]
        s = summarize(fake_results({"bayes": js, "alt1": js, "alt2": js}))
        assert s.methods["bayes"].win_rate == {"alt1": 0.0, "alt2": 0.0}
        assert s.methods["alt1"].win_rate == {"bayes": 0.0, "alt2": 0.0}
        np.testing.assert_array_equal(
            s.methods["bayes"].cdf_values, s.methods["alt1"].cdf_values
        )

    def test_uniform_costs_have_flat_density(self):
        rng = np.random.default_rng(0)
        n = 100_000
        js = {m: rng.uniform(0.0, 1.0, n) for m in METHODS}
        s = summarize(fake_results(js), n_bins=20)
        density = s.methods["bayes"].density
        np.testing.assert_allclose(density, 1.0, rtol=0.05)

    def test_density_integrates_to_one(self):
        results = run_campaign(4, 0, SMALL)
        s = summarize(results, n_bins=13)
        widths = np.diff(s.bin_edges)
        for m in METHODS:
            assert np.sum(s.methods[m].density * widths) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_cdf_monotone_zero_to_one(self):
        results = run_campaign(4, 0, SMALL)
        s = summarize(results)
        for m in METHODS:
            f = s.methods[m].cdf_fractions
            assert np.all(np.diff(f) >= 0)
            assert 0.0 < f[0] <= 1.0
            assert f[-1] == 1.0

    def test_win_rates_exclude_ties(self):
        rng = np.random.default_rng(1)
        js = {m: rng.uniform(0, 1, 50) for m in METHODS}
        s = summarize(fake_results(js))
        for a in METHODS:
            for b in METHODS:
                if a != b:
                    total = s.methods[a].win_rate[b] + s.methods[b].win_rate[a]
                    assert total <= 1.0

    def test_flagged_trials_excluded_but_counted(self):
        js = {m: [0.1, 0.2, 0.3] for m in METHODS}
        results = fake_results(js, flags=[None, "OptimizationFailed: x", None])
        s = summarize(results)
        assert s.n_trials == 2
        assert s.n_flagged == 1
        assert s.methods["bayes"].median == pytest.approx(0.2)

    def test_all_flagged_raises(self):
        js = {m: [0.1] for m in METHODS}
        with pytest.raises(EmptyCampaign):
            summarize(fake_results(js, flags=["boom"]))

    def test_all_zero_costs_give_finite_histograms(self, tmp_path):
        results = fake_results({m: [0.0, 0.0, 0.0] for m in METHODS})
        path = tmp_path / "trials.csv"
        write_trials_csv(results, path)
        for trials in (results, read_trials_csv(path)):
            s = summarize(trials, n_bins=4)
            assert np.all(np.isfinite(s.bin_edges)) and s.bin_edges[-1] > 0.0
            widths = np.diff(s.bin_edges)
            for m in METHODS:
                assert np.all(np.isfinite(s.methods[m].density))
                assert np.sum(s.methods[m].density * widths) == pytest.approx(1.0)

    def test_summary_dict_is_json_ready(self):
        import json

        s = summarize(run_campaign(2, 0, SMALL))
        doc = json.loads(json.dumps(s.to_dict()))
        assert doc["n_trials"] == 2
        assert set(doc["methods"]) == set(METHODS)


class TestTrialsCsv:
    def test_roundtrip(self, tmp_path):
        results = run_campaign(3, 7, SMALL)
        path = tmp_path / "trials.csv"
        write_trials_csv(results, path)
        back = read_trials_csv(path)
        assert [r.seed for r in back] == [7, 8, 9]
        for orig, parsed in zip(results, back):
            assert parsed.j_bayes == orig.j_bayes
            assert parsed.j_alt1 == orig.j_alt1
            assert parsed.j_alt2 == orig.j_alt2
            assert parsed.flag == orig.flag

    def test_flagged_row_roundtrip(self, tmp_path):
        r = TrialResult(
            seed=0, j_bayes=float("nan"), j_alt1=float("nan"),
            j_alt2=float("nan"), flag="NotPositiveDefinite: boom",
        )
        path = tmp_path / "trials.csv"
        write_trials_csv([r], path)
        back = read_trials_csv(path)[0]
        assert back.flag == "NotPositiveDefinite: boom"
        assert np.isnan(back.j_bayes)

    def test_flagged_row_among_scored_rows_reads_back(self, tmp_path):
        nan = float("nan")
        results = [
            TrialResult(seed=3, j_bayes=1e-4, j_alt1=2e-4, j_alt2=3e-4),
            TrialResult(seed=4, j_bayes=nan, j_alt1=nan, j_alt2=nan,
                        flag="NonMonotonic: redraw"),
        ]
        path = tmp_path / "trials.csv"
        write_trials_csv(results, path)
        ok, flagged = read_trials_csv(path)
        assert (ok.seed, ok.j_bayes, ok.j_alt1, ok.j_alt2, ok.flag) == (
            3, 1e-4, 2e-4, 3e-4, None)
        assert flagged.flag == "NonMonotonic: redraw"
        assert all(np.isnan(flagged.j_for(m)) for m in METHODS)

    @pytest.mark.parametrize("cost", ["nan", "inf", "-5"])
    @pytest.mark.parametrize("column", [1, 2, 3])
    def test_unflagged_impossible_cost_names_row(self, tmp_path, cost, column):
        cells = ["1", "1e-4", "2e-4", "3e-4", ""]
        cells[column] = cost
        path = tmp_path / "trials.csv"
        path.write_text(",".join(montecarlo.TRIALS_COLUMNS) + "\n"
                        + "0,1e-4,2e-4,3e-4,\n" + ",".join(cells) + "\n")
        with pytest.raises(DatasetFormatError, match="row 3"):
            read_trials_csv(path)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n")
        with pytest.raises(DatasetFormatError, match="row 1"):
            read_trials_csv(path)

    def test_repeated_seed_names_row(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text(",".join(montecarlo.TRIALS_COLUMNS) + "\n"
                        + "0,1e-4,2e-4,3e-4,\n1,1e-4,2e-4,3e-4,\n"
                        + "0,nan,nan,nan,boom\n")
        with pytest.raises(DatasetFormatError, match="row 4: seed 0 repeats row 2"):
            read_trials_csv(path)
