import copy
import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from cascal import cascade, gp, lut, montecarlo, sim
from cascal.cascade import CascadeConfig
from cascal.cli import RunConfig, main
from cascal.montecarlo import TrialConfig, TrialResult

runner = CliRunner()

GOLDEN = Path(__file__).parent / "golden"

# small problem sizes for fast CLI round trips
SMALL_CONFIG = {
    "n_grid": 30,
    "edge_remove": 3,
    "center_remove": 6,
    "n1": 20,
    "n_quad": 501,
    "n_bins": 10,
}


def invoke(*args):
    return runner.invoke(main, [str(a) for a in args])


def write_identity_csv(path, n=12, noise=1e-4, seed=0):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, n)
    y = x + rng.normal(0.0, noise, n)
    with open(path, "w") as fh:
        fh.write("x,y\n")
        for a, b in zip(x, y):
            fh.write(f"{float(a)!r},{float(b)!r}\n")


def bogus_extrapolation_model(path):
    """An identity LUT model file whose extrapolation mode does not exist."""
    t = lut.LookupTable(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    doc = lut.LutCascade(stage_one=t, stage_two=t).to_dict()
    doc["config"]["extrapolation"] = "bogus"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def identity_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("identity")
    write_identity_csv(d / "d1.csv", seed=1)
    write_identity_csv(d / "d2.csv", seed=2)
    return d


@pytest.fixture(scope="module")
def identity_model(identity_files):
    model_path = identity_files / "model.json"
    result = invoke(
        "calibrate", "--d1", identity_files / "d1.csv",
        "--d2", identity_files / "d2.csv", "--model", model_path,
    )
    assert result.exit_code == 0, result.output
    return model_path


@pytest.fixture(scope="module")
def gappy_model(tmp_path_factory):
    """A full-size simulated problem with the reference-grid hole."""
    d = tmp_path_factory.mktemp("gappy")
    pair, _ = sim.sample_truth_pair(0)
    d1 = sim.generate_d1(pair, 100, sim.substream(0, 1))
    d2 = sim.generate_d2(pair, 100, 8, 20, sim.substream(0, 2))
    cascade.save_dataset_csv(d1, d / "d1.csv")
    cascade.save_dataset_csv(d2, d / "d2.csv")
    model_path = d / "model.json"
    result = invoke(
        "calibrate", "--d1", d / "d1.csv", "--d2", d / "d2.csv",
        "--model", model_path,
    )
    assert result.exit_code == 0, result.output
    return pair, d1, model_path, d


class TestHelp:
    @pytest.mark.parametrize(
        "cmd", ["simulate", "calibrate", "predict", "evaluate", "summarize"]
    )
    def test_help_exits_zero(self, cmd):
        result = invoke(cmd, "--help")
        assert result.exit_code == 0

    @pytest.mark.parametrize("cmd", ["simulate", "calibrate", "evaluate", "summarize"])
    def test_help_documents_defaults(self, cmd):
        assert "default" in invoke(cmd, "--help").output.lower()

    def test_top_level_help(self):
        assert invoke("--help").exit_code == 0


class TestSimulate:
    def test_single_trial(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_CONFIG))
        out = tmp_path / "out"
        result = invoke(
            "simulate", "--trials", 1, "--seed", 7, "--out", out,
            "--config", cfg,
        )
        assert result.exit_code == 0, result.output
        rows = list(csv.reader(open(out / "trials.csv")))
        assert rows[0] == ["seed", "j_bayes", "j_alt1", "j_alt2", "flag"]
        assert len(rows) == 2
        assert rows[1][0] == "7"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_trials"] == 1
        assert "median J (bayes)" in result.output

    def test_impossible_removal_exits_2(self, tmp_path):
        result = invoke(
            "simulate", "--trials", 1, "--out", tmp_path / "o",
            "--edge-remove", 60, "--center-remove", 60,
        )
        assert result.exit_code == 2

    def test_zero_bins_exits_2_before_any_trial(self, tmp_path, monkeypatch):
        def no_campaign(*args):
            pytest.fail("simulate ran trials with n_bins 0")

        monkeypatch.setattr(montecarlo, "run_campaign", no_campaign)
        result = invoke("simulate", "--bins", 0, "--out", tmp_path / "o")
        assert result.exit_code == 2
        assert "n_bins must be >= 1" in result.stderr

    @pytest.mark.parametrize("flag, value, message", [
        ("--trials", 0, "n_trials must be >= 1"), ("--seed", -1, "seed must be >= 0"),
        ("--n-quad", 1, "n_quad must be >= 2"), ("--edge-remove", 60, "edge_remove"),
        ("--coeff-var", "nan", "coeff_var must be finite"), ("--n1", 1, "n1 must be >= 2"),
    ])
    def test_bad_campaign_exits_2_before_making_out(self, tmp_path, flag, value,
                                                     message):
        result = invoke("simulate", flag, value, "--out", tmp_path / "d")
        assert result.exit_code == 2
        assert message in result.stderr
        assert not (tmp_path / "d").exists()

    def test_full_scale_overrides_trials(self, tmp_path, monkeypatch):
        sizes = []

        def campaign(n_trials, *args):
            sizes.append(n_trials)
            return [TrialResult(0, 1e-4, 2e-4, 3e-4)]

        monkeypatch.setattr(montecarlo, "run_campaign", campaign)
        result = invoke("simulate", "--full-scale", "--trials", 0,
                        "--out", tmp_path / "o")
        assert result.exit_code == 0, result.output
        assert sizes == [12000]

    def test_all_flagged_campaign_keeps_trials_csv(self, tmp_path, monkeypatch):
        flagged = [TrialResult(s, np.nan, np.nan, np.nan, flag=f"NonMonotonic: {s}")
                   for s in (0, 1)]
        monkeypatch.setattr(montecarlo, "run_campaign", lambda *args: flagged)
        out = tmp_path / "o"
        result = invoke("simulate", "--trials", 2, "--out", out)
        assert result.exit_code == 1
        assert "no unflagged trials" in result.stderr
        assert (out / "trials.csv").read_text() == (
            TRIALS_HEAD + "0,nan,nan,nan,NonMonotonic: 0\n1,nan,nan,nan,NonMonotonic: 1\n"
        )
        assert not (out / "summary.json").exists()

    def test_changed_scipy_routine_exits_1_with_one_line(self, tmp_path, monkeypatch):
        def changed(*args):
            raise TypeError("setulb() takes 18 positional arguments")

        monkeypatch.setattr(gp, "setulb", changed)
        kept, empty = tmp_path / "kept", tmp_path / "empty"
        kept.mkdir()
        empty.mkdir()
        (kept / "notes.txt").write_text("mine\n")
        for out in (tmp_path / "o", tmp_path / "a" / "b", kept, empty):
            result = invoke("simulate", "--trials", 1, "--out", out)
            assert result.exit_code == 1
            assert result.stderr.count("\n") == 1
            assert result.stderr.startswith("Error: ")
            assert f"scipy {scipy.__version__}" in result.stderr
            assert "18 positional" in result.stderr
        # the directories the runs made are gone; the ones that were there stay
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty", "kept"]
        assert [p.name for p in kept.iterdir()] == ["notes.txt"]
        assert (kept / "notes.txt").read_text() == "mine\n"
        assert not any(empty.iterdir())

    def test_deterministic_outputs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_CONFIG))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = invoke(
                "simulate", "--trials", 2, "--seed", 3, "--out", out,
                "--config", cfg, "--parallel", 1 if name == "a" else 2,
            )
            assert result.exit_code == 0, result.output
            outs.append(out)
        assert (outs[0] / "trials.csv").read_bytes() == (
            outs[1] / "trials.csv"
        ).read_bytes()
        assert (outs[0] / "summary.json").read_bytes() == (
            outs[1] / "summary.json"
        ).read_bytes()

    def test_dump_truth(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_CONFIG))
        out = tmp_path / "out"
        result = invoke(
            "simulate", "--trials", 1, "--seed", 4, "--out", out,
            "--config", cfg, "--dump-truth",
        )
        assert result.exit_code == 0, result.output
        pair = sim.load_truth_pair(out / "truth_4.json")
        expected, _ = sim.sample_truth_pair(4)
        np.testing.assert_array_equal(
            pair.sensor1.freqs, expected.sensor1.freqs
        )


class TestConfigFile:
    def test_unknown_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_key": 1}))
        result = invoke(
            "simulate", "--trials", 1, "--out", tmp_path / "o", "--config", cfg
        )
        assert result.exit_code == 2
        assert "bogus_key" in result.stderr

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG, "trials": 5}))
        out = tmp_path / "out"
        result = invoke(
            "simulate", "--trials", 1, "--seed", 0, "--out", out,
            "--config", cfg,
        )
        assert result.exit_code == 0, result.output
        rows = list(csv.reader(open(out / "trials.csv")))
        assert len(rows) == 2  # header + exactly one trial

    def test_malformed_json_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        result = invoke(
            "simulate", "--trials", 1, "--out", tmp_path / "o", "--config", cfg
        )
        assert result.exit_code == 2

    def test_wrong_type_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": "lots"}))
        result = invoke(
            "simulate", "--trials", 1, "--out", tmp_path / "o", "--config", cfg
        )
        assert result.exit_code == 2
        assert "trials" in result.stderr

    @pytest.mark.parametrize("raw", ["1e400", "Infinity", "2.7"])
    def test_int_key_needs_integral_finite_number(self, tmp_path, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_CONFIG)[:-1] + f', "trials": {raw}}}')
        result = invoke("simulate", "--out", tmp_path / "o", "--config", cfg)
        assert result.exit_code == 2
        assert "trials" in result.stderr
        assert isinstance(result.exception, SystemExit)
        assert not (tmp_path / "o" / "trials.csv").exists()

    def test_integral_float_is_an_int(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG, "trials": 1.0}))
        result = invoke("simulate", "--out", tmp_path / "o", "--config", cfg)
        assert result.exit_code == 0, result.output
        assert len(list(csv.reader(open(tmp_path / "o" / "trials.csv")))) == 2


class TestRunConfigDefaults:
    def test_keys_and_defaults_pinned(self):
        assert dataclasses.asdict(RunConfig()) == {
            "n_terms": 10,
            "coeff_var": 1e-4,
            "freq_var": 6.0,
            "noise_var": 1e-8,
            "n_grid": 100,
            "edge_remove": 8,
            "center_remove": 20,
            "n1": 100,
            "n_quad": 2001,
            "n_bins": 60,
            "trials": 200,
            "seed": 0,
            "parallel": 1,
            "strict_paper": False,
            "opt_max_iters": 400,
            "opt_rel_tol": 1e-9,
            "lut_extrapolation": "slope",
        }

    def test_defaults_build_default_cascade_config(self):
        assert RunConfig().cascade == TrialConfig().cascade == CascadeConfig()


class TestCalibrate:
    def test_identity_model_predicts_identity(self, identity_model, tmp_path):
        inp = tmp_path / "in.csv"
        inp.write_text("x\n0.5\n")
        outp = tmp_path / "out.csv"
        result = invoke(
            "predict", "--model", identity_model, "--input", inp, "--out", outp
        )
        assert result.exit_code == 0, result.output
        row = list(csv.DictReader(open(outp)))[0]
        assert float(row["y_hat"]) == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("method", ["bayesian", "alt1", "lut"])
    def test_all_methods_produce_models(self, identity_files, tmp_path, method):
        model_path = tmp_path / f"{method}.json"
        result = invoke(
            "calibrate", "--d1", identity_files / "d1.csv",
            "--d2", identity_files / "d2.csv",
            "--method", method, "--model", model_path,
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(model_path.read_text())
        expected_tag = {"bayesian": "bayes", "alt1": "alt1", "lut": "lut"}[method]
        assert doc["method_tag"] == expected_tag

    def test_malformed_csv_names_row(self, identity_files, tmp_path):
        bad = tmp_path / "bad.csv"
        rows = ["x,y"] + [f"0.{i},0.{i}" for i in range(1, 20)]
        rows[16] = "0.16,not_a_number"  # physical row 17
        bad.write_text("\n".join(rows) + "\n")
        result = invoke(
            "calibrate", "--d1", bad, "--d2", identity_files / "d2.csv",
            "--model", tmp_path / "m.json",
        )
        assert result.exit_code == 2
        assert "row 17" in result.stderr

    @pytest.mark.parametrize("method", ["bayesian", "alt1", "lut"])
    @pytest.mark.parametrize("option", ["--d1", "--d2"])
    @pytest.mark.parametrize("text", ["x,y\n", "x,y\n0.5,0.5\n"],
                             ids=["header-only", "one-row"])
    def test_dataset_under_two_rows_exits_2(self, identity_files, tmp_path, method,
                                            option, text):
        short = _write(tmp_path / "short.csv", text)
        files = {"--d1": identity_files / "d1.csv", "--d2": identity_files / "d2.csv",
                 option: short}
        result = invoke("calibrate", *[a for kv in files.items() for a in kv],
                        "--method", method, "--model", tmp_path / "m.json")
        assert result.exit_code == 2, result.output
        assert f"{short}: a dataset needs at least 2 rows" in result.stderr
        assert not (tmp_path / "m.json").exists()

    def test_byte_identical_reruns(self, identity_files, tmp_path):
        paths = [tmp_path / "m1.json", tmp_path / "m2.json"]
        for p in paths:
            result = invoke(
                "calibrate", "--d1", identity_files / "d1.csv",
                "--d2", identity_files / "d2.csv", "--model", p,
            )
            assert result.exit_code == 0, result.output
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_strict_paper_pins_stage_two_noise(self, identity_files, tmp_path):
        model_path = tmp_path / "strict.json"
        result = invoke(
            "calibrate", "--d1", identity_files / "d1.csv",
            "--d2", identity_files / "d2.csv", "--model", model_path,
            "--strict-paper",
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(model_path.read_text())
        assert doc["stage_two"]["hyperparameters"]["noise_variance"] == 0.0
        assert doc["config"]["stage2_learned_noise"] is False


class TestByteOrderMark:
    """A CSV file that starts with a UTF-8 byte-order mark, as spreadsheet
    programs write, reads the same rows as one without."""

    def bom_copy(self, path, tmp_path):
        bom = tmp_path / f"bom-{path.name}"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        return bom

    def test_dataset(self, identity_files, tmp_path):
        d2 = identity_files / "d2.csv"
        for name, path in [("plain", d2), ("bom", self.bom_copy(d2, tmp_path))]:
            result = invoke("calibrate", "--d1", identity_files / "d1.csv",
                            "--d2", path, "--model", tmp_path / f"{name}.json")
            assert result.exit_code == 0, result.output
        assert ((tmp_path / "bom.json").read_bytes()
                == (tmp_path / "plain.json").read_bytes())

    def test_readings(self, identity_model, tmp_path):
        inp = tmp_path / "in.csv"
        inp.write_text("x\n0.1\n0.9\n")
        for name, path in [("plain", inp), ("bom", self.bom_copy(inp, tmp_path))]:
            result = invoke("predict", "--model", identity_model, "--input", path,
                            "--out", tmp_path / f"{name}.csv")
            assert result.exit_code == 0, result.output
        assert ((tmp_path / "bom.csv").read_bytes()
                == (tmp_path / "plain.csv").read_bytes())

    def test_trials(self, tmp_path):
        trials = tmp_path / "trials.csv"
        results = [TrialResult(0, 1e-4, 2e-4, 3e-4), TrialResult(1, 2e-4, 1e-4, 5e-4)]
        montecarlo.write_trials_csv(results, trials)
        bom = self.bom_copy(trials, tmp_path)
        assert montecarlo.read_trials_csv(bom) == montecarlo.read_trials_csv(trials)


class TestPredict:
    def test_identity_values(self, identity_model, tmp_path):
        inp = tmp_path / "in.csv"
        inp.write_text("x\n0.1\n0.9\n")
        outp = tmp_path / "out.csv"
        result = invoke(
            "predict", "--model", identity_model, "--input", inp, "--out", outp
        )
        assert result.exit_code == 0
        rows = list(csv.DictReader(open(outp)))
        got = [float(r["y_hat"]) for r in rows]
        assert got == pytest.approx([0.1, 0.9], abs=1e-3)

    def test_variance_on_lut_exits_2(self, identity_files, tmp_path):
        model_path = tmp_path / "lut.json"
        invoke(
            "calibrate", "--d1", identity_files / "d1.csv",
            "--d2", identity_files / "d2.csv", "--method", "lut",
            "--model", model_path,
        )
        inp = tmp_path / "in.csv"
        inp.write_text("x\n0.5\n")
        result = invoke(
            "predict", "--model", model_path, "--input", inp,
            "--out", tmp_path / "o.csv", "--with-variance",
        )
        assert result.exit_code == 2
        assert "variance" in result.stderr.lower()

    def test_variance_lower_at_covered_point_than_in_gap(self, gappy_model, tmp_path):
        pair, d1, model_path, _ = gappy_model
        covered = float(
            d1.x[np.argmin(np.abs(d1.x - sim.sensor_eval(pair.sensor1, 0.25)))]
        )
        gap_mid = float(sim.sensor_eval(pair.sensor1, 0.5))
        inp = tmp_path / "in.csv"
        inp.write_text(f"x\n{covered!r}\n{gap_mid!r}\n")
        outp = tmp_path / "out.csv"
        result = invoke(
            "predict", "--model", model_path, "--input", inp, "--out", outp,
            "--with-variance",
        )
        assert result.exit_code == 0, result.output
        rows = list(csv.DictReader(open(outp)))
        assert float(rows[0]["var"]) <= float(rows[1]["var"])

    def test_non_psd_target_cov_exits_2(self, identity_model, tmp_path):
        doc = json.loads(identity_model.read_text())
        n = len(doc["stage_two"]["train_inputs"])
        doc["stage_two"]["target_cov"] = (-np.eye(n)).tolist()
        model_path = tmp_path / "bad.json"
        model_path.write_text(json.dumps(doc))
        inp = tmp_path / "in.csv"
        inp.write_text("x\n0.5\n")
        result = invoke(
            "predict", "--model", model_path, "--input", inp,
            "--out", tmp_path / "o.csv",
        )
        assert result.exit_code == 2
        assert "not a valid model file" in result.stderr
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("with_variance", [False, True])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_x_exits_2(self, identity_model, tmp_path, value,
                                  with_variance):
        inp = tmp_path / "in.csv"
        inp.write_text(f"x\n0.5\n{value}\n")
        args = ["predict", "--model", identity_model, "--input", inp,
                "--out", tmp_path / "o.csv"]
        result = invoke(*args, *(["--with-variance"] if with_variance else []))
        assert result.exit_code == 2
        assert "row 3: non-finite x" in result.stderr
        assert isinstance(result.exception, SystemExit)

    def test_error_after_blank_line_names_file_line(self, identity_model, tmp_path):
        inp = tmp_path / "in.csv"
        inp.write_text("x\n0.5\n\nnan\n")
        result = invoke(
            "predict", "--model", identity_model, "--input", inp,
            "--out", tmp_path / "o.csv",
        )
        assert result.exit_code == 2
        assert "row 4: non-finite x" in result.stderr

    def test_infinite_hyperparameter_exits_2(self, identity_model, tmp_path):
        doc = json.loads(identity_model.read_text())
        doc["stage_two"]["hyperparameters"]["signal_variance"] = 1e400
        model_path = tmp_path / "bad.json"
        model_path.write_text(json.dumps(doc))
        inp = tmp_path / "in.csv"
        inp.write_text("x\n0.5\n")
        result = invoke(
            "predict", "--model", model_path, "--input", inp,
            "--out", tmp_path / "o.csv",
        )
        assert result.exit_code == 2
        assert "not a valid model file" in result.stderr
        assert isinstance(result.exception, SystemExit)

    def test_unknown_lut_extrapolation_exits_2(self, tmp_path):
        model_path = bogus_extrapolation_model(tmp_path / "bad.json")
        inp = tmp_path / "in.csv"
        inp.write_text("x\n0.5\n")
        result = invoke(
            "predict", "--model", model_path, "--input", inp,
            "--out", tmp_path / "o.csv",
        )
        assert result.exit_code == 2
        assert "not a valid model file" in result.stderr
        assert isinstance(result.exception, SystemExit)

    def test_missing_x_column_exits_2(self, identity_model, tmp_path):
        inp = tmp_path / "in.csv"
        inp.write_text("value\n0.5\n")
        result = invoke(
            "predict", "--model", identity_model, "--input", inp,
            "--out", tmp_path / "o.csv",
        )
        assert result.exit_code == 2


    @pytest.mark.parametrize("model, extra", [
        ("model_bayes.json", []),
        ("model_bayes.json", ["--with-variance"]),
        ("model_lut.json", []),
    ], ids=["bayes", "bayes-with-variance", "lut-slope"])
    def test_finite_reading_with_non_finite_prediction_exits_2(self, tmp_path, model,
                                                               extra):
        # An affine prior mean, and a table that extends its end slopes,
        # overflow at a finite reading near the float limit.
        doc = json.loads((GOLDEN / model).read_text())
        if doc["method_tag"] == lut.METHOD_LUT:
            doc["config"]["extrapolation"] = "slope"
        model_path = _write(tmp_path / "m.json", json.dumps(doc))
        inp = _write(tmp_path / "in.csv", "x\n0.5\n\n1.79e308\n")
        out = tmp_path / "o.csv"
        result = invoke("predict", "--model", model_path, "--input", inp, "--out", out,
                        *extra)
        assert result.exit_code == 2
        assert result.stderr.splitlines() == [
            f"Error: {inp}: row 4: x = 1.79e+308 gives a non-finite y_hat"]
        assert not out.exists()

    def test_far_readings_predict_the_prior_without_warnings(self, identity_model,
                                                             tmp_path):
        # Their scaled distance to every training input overflows, so the
        # kernel is 0: y_hat = x (the identity prior mean) and var = the
        # signal variance.
        doc = json.loads(identity_model.read_text())["stage_two"]
        assert doc["prior_mean"] == {"variant": "identity"}
        sv = doc["hyperparameters"]["signal_variance"]
        far = [1e200, 1e308, -1e308]
        _write(tmp_path / "in.csv", "x\n0.5\n" + "".join(f"{x!r}\n" for x in far))
        out = tmp_path / "out.csv"
        done = _fresh(["-m", "cascal.cli", "predict", "--model", str(identity_model),
                       "--input", str(tmp_path / "in.csv"), "--out", str(out),
                       "--with-variance"])
        assert (done.returncode, done.stderr) == (0, "")
        rows = list(csv.DictReader(open(out)))[1:]
        assert [float(r["y_hat"]) for r in rows] == far
        assert [float(r["var"]) for r in rows] == [sv] * 3

    def test_with_variance_repeats_the_mean_only_columns(self, gappy_model, tmp_path):
        # several query blocks, the last of one row joined to the one before
        _, _, model_path, _ = gappy_model
        b = gp._block_rows(100)
        xs = np.random.default_rng(3).uniform(-0.05, 1.05, 2 * b + 1)
        _write(tmp_path / "in.csv", "x\n" + "".join(f"{float(x)!r}\n" for x in xs))
        outs = []
        for extra in ([], ["--with-variance"]):
            out = tmp_path / f"out{len(extra)}.csv"
            result = invoke("predict", "--model", model_path,
                            "--input", tmp_path / "in.csv", "--out", out, *extra)
            assert result.exit_code == 0, result.output
            outs.append([line.split(",")[:2] for line in out.read_text().splitlines()])
        assert outs[0] == outs[1]
        assert len(outs[0]) == xs.size + 1


class TestEvaluate:
    @pytest.fixture(scope="class")
    @staticmethod
    def identity_truth(tmp_path_factory):
        d = tmp_path_factory.mktemp("truth")
        pair = sim.TruthPair(
            sim.SensorTruth(np.zeros(0), np.zeros(0), np.zeros(0), 0.0),
            sim.SensorTruth(np.zeros(0), np.zeros(0), np.zeros(0), 0.0),
        )
        path = d / "truth.json"
        sim.save_truth_pair(pair, path)
        return path

    @staticmethod
    def lut_model_file(path, offset=0.0):
        t = lut.LookupTable(np.array([0.0, 1.0]), np.array([offset, 1.0 + offset]))
        model = lut.LutCascade(stage_one=t, stage_two=t)
        path.write_text(json.dumps(model.to_dict()))
        return path

    @staticmethod
    def parse_j(output: str) -> float:
        for line in output.splitlines():
            if line.startswith("J = "):
                return float(line.split("=")[1])
        raise AssertionError(f"no J in output: {output!r}")

    def test_perfect_model_costs_nothing(self, identity_truth, tmp_path):
        model = self.lut_model_file(tmp_path / "m.json")
        result = invoke("evaluate", "--model", model, "--truth", identity_truth)
        assert result.exit_code == 0, result.output
        assert self.parse_j(result.output) <= 1e-8

    def test_constant_offset_costs_offset(self, identity_truth, tmp_path):
        model = self.lut_model_file(tmp_path / "m.json", offset=0.01)
        result = invoke("evaluate", "--model", model, "--truth", identity_truth)
        assert result.exit_code == 0
        assert self.parse_j(result.output) == pytest.approx(0.01, abs=1e-6)

    def test_matches_library_cost(self, tmp_path):
        pair, _ = sim.sample_truth_pair(3)
        truth_path = tmp_path / "truth.json"
        sim.save_truth_pair(pair, truth_path)
        model_path = self.lut_model_file(tmp_path / "m.json")
        result = invoke("evaluate", "--model", model_path, "--truth", truth_path)
        assert result.exit_code == 0
        expected = sim.cost_j(lambda y: np.asarray(y, dtype=float), pair)
        assert self.parse_j(result.output) == pytest.approx(expected, rel=1e-8)

    def test_errors_csv(self, identity_truth, tmp_path):
        model = self.lut_model_file(tmp_path / "m.json", offset=0.01)
        errs = tmp_path / "errors.csv"
        result = invoke(
            "evaluate", "--model", model, "--truth", identity_truth,
            "--errors-csv", errs, "--n-quad", 11,
        )
        assert result.exit_code == 0
        rows = list(csv.DictReader(open(errs)))
        assert len(rows) == 11
        assert float(rows[0]["error"]) == pytest.approx(0.01, abs=1e-9)

    def test_errors_csv_inverts_the_truth_once(self, tmp_path, monkeypatch):
        pair, _ = sim.sample_truth_pair(3)
        truth_path = tmp_path / "truth.json"
        sim.save_truth_pair(pair, truth_path)
        model = self.lut_model_file(tmp_path / "m.json", offset=0.01)
        args = ["evaluate", "--model", model, "--truth", truth_path, "--n-quad", 101]
        alone = invoke(*args)
        assert alone.exit_code == 0, alone.output
        calls = []
        invert = sim.invert_sensor

        def counted(*a, **k):
            calls.append(a)
            return invert(*a, **k)

        monkeypatch.setattr(sim, "invert_sensor", counted)
        errs = tmp_path / "errors.csv"
        result = invoke(*args, "--errors-csv", errs)
        assert result.exit_code == 0, result.output
        assert len(calls) == 1
        assert result.output == alone.output
        rows = list(csv.DictReader(open(errs)))
        assert len(rows) == 101

    def test_unknown_lut_extrapolation_exits_2(self, identity_truth, tmp_path):
        model_path = bogus_extrapolation_model(tmp_path / "bad.json")
        result = invoke("evaluate", "--model", model_path, "--truth", identity_truth)
        assert result.exit_code == 2
        assert "not a valid model file" in result.stderr
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("ends", [[0.0], [0.0, 0.5, 1.0]])
    def test_truth_range_needs_two_ends(self, identity_truth, tmp_path, ends):
        doc = json.loads(identity_truth.read_text())
        doc["range"] = ends
        truth_path = tmp_path / "truth.json"
        truth_path.write_text(json.dumps(doc))
        model = self.lut_model_file(tmp_path / "m.json")
        result = invoke("evaluate", "--model", model, "--truth", truth_path)
        assert result.exit_code == 2
        assert "not a valid truth file" in result.stderr
        assert isinstance(result.exception, SystemExit)


class TestSummarizeCommand:
    def test_resummarize_matches_simulate(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_CONFIG))
        out = tmp_path / "out"
        result = invoke(
            "simulate", "--trials", 3, "--seed", 0, "--out", out, "--config", cfg
        )
        assert result.exit_code == 0, result.output
        redone = tmp_path / "summary2.json"
        result = invoke(
            "summarize", "--trials", out / "trials.csv", "--out", redone,
            "--bins", SMALL_CONFIG["n_bins"],
        )
        assert result.exit_code == 0, result.output
        assert redone.read_bytes() == (out / "summary.json").read_bytes()

    def test_simulate_summary_is_summarize_of_its_trials_csv(self, tmp_path,
                                                              monkeypatch):
        results = [TrialResult(0, 1 / 3, 2 / 7, 0.1 + 0.2),
                   TrialResult(1, np.nan, np.nan, np.nan, flag="NonMonotonic: 1, x"),
                   TrialResult(2, 1e-4 / 3, 5e-4 / 7, 2e-3 / 9)]
        monkeypatch.setattr(montecarlo, "run_campaign", lambda *args: results)
        out = tmp_path / "out"
        simulated = invoke("simulate", "--trials", 3, "--out", out)
        assert simulated.exit_code == 0, simulated.output
        redone = tmp_path / "summary2.json"
        summarized = invoke("summarize", "--trials", out / "trials.csv", "--out", redone)
        assert summarized.exit_code == 0, summarized.output
        assert redone.read_bytes() == (out / "summary.json").read_bytes()
        assert simulated.output == summarized.output
        assert "trials: 2 ok, 1 flagged" in simulated.output

    def test_missing_file_exits_2(self, tmp_path):
        result = invoke(
            "summarize", "--trials", tmp_path / "nope.csv",
            "--out", tmp_path / "s.json",
        )
        assert result.exit_code == 2


class TestValueChecks:
    @pytest.mark.parametrize("parallel", [1, 2])
    @pytest.mark.parametrize(
        "bad", [{"coeff_var": float("nan")}, {"noise_var": -1.0}, {"n_terms": -1},
                {"n_quad": 1}, {"seed": -3}],
        ids=["nan-coeff-var", "negative-noise-var", "negative-n-terms", "n-quad-1",
             "negative-seed"],
    )
    def test_out_of_range_simulation_value_exits_2(self, tmp_path, bad, parallel):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG, **bad}))
        result = invoke(
            "simulate", "--trials", 2, "--parallel", parallel,
            "--out", tmp_path / "o", "--config", cfg,
        )
        assert result.exit_code == 2
        assert next(iter(bad)) in result.stderr
        assert not (tmp_path / "o" / "trials.csv").exists()

    @pytest.mark.parametrize(
        "bad", [{"opt_max_iters": 0}, {"opt_max_iters": -1}, {"opt_rel_tol": -1.0},
                {"parallel": 0}, {"parallel": -3}],
        ids=["zero-iters", "negative-iters", "negative-tol", "zero-parallel",
             "negative-parallel"],
    )
    def test_out_of_range_run_value_exits_2_before_any_trial(
        self, tmp_path, monkeypatch, bad
    ):
        monkeypatch.setattr(montecarlo, "run_campaign", self.no_campaign)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG, **bad}))
        result = invoke("simulate", "--trials", 2, "--out", tmp_path / "o",
                        "--config", cfg)
        assert result.exit_code == 2
        assert f"{next(iter(bad))} must be >=" in result.stderr
        assert not (tmp_path / "o").exists()

    def test_zero_parallel_flag_exits_2_before_any_trial(self, tmp_path, monkeypatch):
        monkeypatch.setattr(montecarlo, "run_campaign", self.no_campaign)
        result = invoke("simulate", "--trials", 2, "--parallel", 0,
                        "--out", tmp_path / "o")
        assert result.exit_code == 2
        assert "parallel must be >= 1" in result.stderr
        assert not (tmp_path / "o").exists()

    @staticmethod
    def no_campaign(*args):
        pytest.fail("simulate ran trials with an out-of-range value")


TRIALS_HEAD = "seed,j_bayes,j_alt1,j_alt2,flag\n"
TRIALS_OK = TRIALS_HEAD + "0,1e-4,2e-4,3e-4,\n1,nan,nan,nan,NonMonotonic: x\n"


def _write(path, text):
    path.write_text(text)
    return path


def _undecodable(path):
    path.write_bytes(b"\xff\xfex,y\n")
    return path


def _nested(path):
    """A JSON document nested past the interpreter's recursion limit."""
    return _write(path, "[" * 100_000 + "]" * 100_000)


def _edited_file(src, dst, path, value):
    """dst holding src's JSON document with the value at path replaced."""
    return _write(dst, json.dumps(_edited(json.loads(src.read_text()), path, value)))


def _predict_edited(g, t, model, path, value):
    edited = _edited_file(g / model, t / "m.json", path, value)
    return ["predict", "--model", edited, "--input", g / "in.csv",
            "--out", t / "o.csv"], edited


def _predict_stringified(g, t, path):
    """predict on model.json with the number at path written as its string."""
    value = json.loads((g / "model.json").read_text())
    for key in path:
        value = value[key]
    return _predict_edited(g, t, "model.json", path, repr(value))


def _evaluate_edited_truth(g, t, path, value):
    edited = _edited_file(g / "truth.json", t / "t.json", path, value)
    return ["evaluate", "--model", g / "lut.json", "--truth", edited,
            "--n-quad", 11], edited


def _huge_variance_model(path):
    """The golden bayes model with its stage-two variances at 1.7e308.

    Every value is finite, but the stage-two Gram matrix is not, so its
    factor is not either.
    """
    doc = json.loads((GOLDEN / "model_bayes.json").read_text())
    stage_two = doc["stage_two"]
    stage_two["hyperparameters"]["signal_variance"] = 1.7e308
    for i, row in enumerate(stage_two["target_cov"]):
        row[i] = 1.7e308
    return _write(path, json.dumps(doc))


@pytest.fixture(scope="module")
def good_files(identity_files, identity_model):
    """identity_files plus a readings CSV, a LUT model, a truth and a trials.csv."""
    d = identity_files
    _write(d / "in.csv", "x\n0.25\n0.75\n")
    calibrated = invoke(
        "calibrate", "--d1", d / "d1.csv", "--d2", d / "d2.csv",
        "--method", "lut", "--model", d / "lut.json",
    )
    assert calibrated.exit_code == 0, calibrated.output
    pair, _ = sim.sample_truth_pair(0)
    sim.save_truth_pair(pair, d / "truth.json")
    _write(d / "trials.csv", TRIALS_OK)
    return d


# Each case: (command line from the good files g and a scratch dir t, the
# path the error message must name, if any).
BAD_INPUT = {
    "missing --d1": lambda g, t: (
        ["calibrate", "--d1", t / "nope.csv", "--d2", g / "d2.csv",
         "--model", t / "m.json"], t / "nope.csv"),
    "missing --d2": lambda g, t: (
        ["calibrate", "--d1", g / "d1.csv", "--d2", t / "nope.csv",
         "--model", t / "m.json"], t / "nope.csv"),
    "missing --model": lambda g, t: (
        ["predict", "--model", t / "nope.json", "--input", g / "in.csv",
         "--out", t / "o.csv"], t / "nope.json"),
    "missing --truth": lambda g, t: (
        ["evaluate", "--model", g / "lut.json", "--truth", t / "nope.json"],
        t / "nope.json"),
    "missing --trials": lambda g, t: (
        ["summarize", "--trials", t / "nope.csv", "--out", t / "s.json"],
        t / "nope.csv"),
    "missing --input": lambda g, t: (
        ["predict", "--model", g / "model.json", "--input", t / "nope.csv",
         "--out", t / "o.csv"], t / "nope.csv"),
    "unwritable calibrate --model": lambda g, t: (
        ["calibrate", "--d1", g / "d1.csv", "--d2", g / "d2.csv",
         "--method", "lut", "--model", t / "no-dir" / "m.json"],
        t / "no-dir" / "m.json"),
    "unwritable predict --out": lambda g, t: (
        ["predict", "--model", g / "model.json", "--input", g / "in.csv",
         "--out", t / "no-dir" / "o.csv"], t / "no-dir" / "o.csv"),
    "unwritable summarize --out": lambda g, t: (
        ["summarize", "--trials", g / "trials.csv", "--out", t / "no-dir" / "s.json"],
        t / "no-dir" / "s.json"),
    "unwritable simulate --out": lambda g, t: (
        ["simulate", "--trials", 1, "--n-quad", 11, "--out", g / "in.csv"],
        g / "in.csv"),
    "unwritable --errors-csv": lambda g, t: (
        ["evaluate", "--model", g / "lut.json", "--truth", g / "truth.json",
         "--n-quad", 11, "--errors-csv", t / "no-dir" / "e.csv"],
        t / "no-dir" / "e.csv"),
    "short trials row": lambda g, t: (
        ["summarize", "--trials", _write(t / "t.csv", TRIALS_OK + "2,1e-4,2e-4\n"),
         "--out", t / "s.json"], t / "t.csv"),
    "long trials row": lambda g, t: (
        ["summarize", "--trials", _write(t / "t.csv", TRIALS_OK + "2,1,2,3,,x\n"),
         "--out", t / "s.json"], t / "t.csv"),
    "non-numeric trials cell": lambda g, t: (
        ["summarize", "--trials", _write(t / "t.csv", TRIALS_OK + "2,1,two,3,\n"),
         "--out", t / "s.json"], t / "t.csv"),
    # Every CSV file is read by one rule, whose messages name the file line.
    "empty --d1": lambda g, t: (
        ["calibrate", "--d1", _write(t / "d1.csv", ""), "--d2", g / "d2.csv",
         "--model", t / "m.json"], f"{t / 'd1.csv'}: row 1"),
    "nan dataset cell": lambda g, t: (
        ["calibrate", "--d1", _write(t / "d1.csv", "x,y\n0.1,0.1\n0.2,nan\n"),
         "--d2", g / "d2.csv", "--model", t / "m.json"],
        f"{t / 'd1.csv'}: row 3: non-finite y"),
    "readings row wider than header": lambda g, t: (
        ["predict", "--model", g / "model.json", "--input", _write(t / "in.csv", "x\n0.5,9\n"),
         "--out", t / "o.csv"], f"{t / 'in.csv'}: row 2"),
    "readings field past the csv module's size limit": lambda g, t: (
        ["predict", "--model", g / "model.json",
         "--input", _write(t / "in.csv", "x\n0.5\n" + "1" * 200_000 + "\n"),
         "--out", t / "o.csv"], f"{t / 'in.csv'}: row 3"),
    # Bytes that are not UTF-8: a CSV decoder's message names no file.
    "undecodable --d1": lambda g, t: (
        ["calibrate", "--d1", _undecodable(t / "d1.csv"), "--d2", g / "d2.csv",
         "--model", t / "m.json"], ""),
    "undecodable --input": lambda g, t: (
        ["predict", "--model", g / "model.json", "--input", _undecodable(t / "in.csv"),
         "--out", t / "o.csv"], ""),
    "undecodable --model": lambda g, t: (
        ["predict", "--model", _undecodable(t / "m.json"), "--input", g / "in.csv",
         "--out", t / "o.csv"], t / "m.json"),
    "undecodable --trials": lambda g, t: (
        ["summarize", "--trials", _undecodable(t / "t.csv"), "--out", t / "s.json"],
        ""),
    # JSON nested past the recursion limit does not parse.
    "deeply nested --model": lambda g, t: (
        ["predict", "--model", _nested(t / "m.json"), "--input", g / "in.csv",
         "--out", t / "o.csv"], t / "m.json"),
    "deeply nested --truth": lambda g, t: (
        ["evaluate", "--model", g / "lut.json", "--truth", _nested(t / "t.json")],
        t / "t.json"),
    "deeply nested --config": lambda g, t: (
        ["calibrate", "--config", _nested(t / "c.json"), "--d1", g / "d1.csv",
         "--d2", g / "d2.csv", "--model", t / "m.json"], t / "c.json"),
    # Model and truth files decode by the --config rule: no bool from a
    # string, no int from 2.7, and no non-finite float.
    "string bool in model": lambda g, t: _predict_edited(
        g, t, "model.json", ("config", "stage2_learned_noise"), "false"),
    "non-integral int in model": lambda g, t: _predict_edited(
        g, t, "model.json", ("config", "optimizer", "max_iters"), 2.7),
    "nan LUT value": lambda g, t: _predict_edited(
        g, t, "lut.json", ("stage_two", "values", 1), float("nan")),
    "infinite LUT value": lambda g, t: _predict_edited(
        g, t, "lut.json", ("stage_two", "values", 1), float("inf")),
    "nan truth coefficient": lambda g, t: _evaluate_edited_truth(
        g, t, ("sensor1", "sin_coeffs", 0), float("nan")),
    "nan truth noise variance": lambda g, t: _evaluate_edited_truth(
        g, t, ("sensor1", "noise_variance"), float("nan")),
    # Array entries decode by the same rule, the stage-two training arrays
    # of a bayes model included: a number never from a string or a bool,
    # and a float never from an int past the float range.
    "string train input": lambda g, t: _predict_stringified(
        g, t, ("stage_two", "train_inputs", 0)),
    "string train target": lambda g, t: _predict_stringified(
        g, t, ("stage_two", "train_targets", 0)),
    "string target covariance": lambda g, t: _predict_stringified(
        g, t, ("stage_two", "target_cov", 0, 0)),
    "bool train target": lambda g, t: _predict_edited(
        g, t, "model.json", ("stage_two", "train_targets", 1), True),
    "huge int truth frequency": lambda g, t: _evaluate_edited_truth(
        g, t, ("sensor1", "freqs", 0), 10**400),
    # Finite values whose Gram matrix is not: no answer is read off its factor.
    "huge variances in model": lambda g, t: (
        ["predict", "--model", _huge_variance_model(t / "m.json"),
         "--input", g / "in.csv", "--out", t / "o.csv"], t / "m.json"),
}


# Each case: a command line whose one undecodable file is t/bad.
UNDECODABLE = {
    "--d1": lambda g, t: ["calibrate", "--d1", t / "bad", "--d2", g / "d2.csv",
                          "--model", t / "m.json"],
    "--d2": lambda g, t: ["calibrate", "--d1", g / "d1.csv", "--d2", t / "bad",
                          "--model", t / "m.json"],
    "--input": lambda g, t: ["predict", "--model", g / "model.json",
                             "--input", t / "bad", "--out", t / "o.csv"],
    "--trials": lambda g, t: ["summarize", "--trials", t / "bad", "--out", t / "s.json"],
    "--config": lambda g, t: ["calibrate", "--config", t / "bad", "--d1", g / "d1.csv",
                              "--d2", g / "d2.csv", "--model", t / "m.json"],
}


class TestExitCodes:
    @pytest.mark.parametrize("case", list(BAD_INPUT))
    def test_bad_input_exits_2(self, good_files, tmp_path, case):
        args, named = BAD_INPUT[case](good_files, tmp_path)
        result = invoke(*args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert str(named) in result.stderr

    @pytest.mark.parametrize("option", list(UNDECODABLE))
    def test_undecodable_file_names_path(self, good_files, tmp_path, option):
        bad = _undecodable(tmp_path / "bad")
        result = invoke(*UNDECODABLE[option](good_files, tmp_path))
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert str(bad) in result.stderr
        assert "can't decode" in result.stderr

    def test_infinite_int_in_model_exits_2(self, good_files, tmp_path):
        doc = json.loads((good_files / "model.json").read_text())
        doc["config"]["optimizer"]["max_iters"] = float("inf")
        model_path = _write(tmp_path / "bad.json", json.dumps(doc))
        result = invoke(
            "predict", "--model", model_path, "--input", good_files / "in.csv",
            "--out", tmp_path / "o.csv",
        )
        assert result.exit_code == 2
        assert "not a valid model file" in result.stderr
        assert isinstance(result.exception, SystemExit)

    def test_overflow_prints_one_line(self, good_files, tmp_path):
        """A model too large to compute with gives one line on stderr.

        Run in a new interpreter: numpy warns once per call site and
        process, so in-process capture depends on test order.
        """
        done = _fresh(["-m", "cascal.cli", "predict",
                       "--model", str(_huge_variance_model(tmp_path / "m.json")),
                       "--input", str(good_files / "in.csv"),
                       "--out", str(tmp_path / "o.csv")])
        assert done.returncode == 2
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error:"), done.stderr

    def test_all_flagged_campaign_exits_1(self, good_files, tmp_path):
        trials = _write(tmp_path / "t.csv", TRIALS_HEAD + "0,nan,nan,nan,boom\n")
        result = invoke("summarize", "--trials", trials, "--out", tmp_path / "s.json")
        assert result.exit_code == 1
        assert "no unflagged trials" in result.stderr


# Loader fuzzing: whatever a file holds, a command ends in an exit code
# (SystemExit) or succeeds, and never lets an error escape as a traceback.
_TEXT = st.text(st.characters(exclude_categories=["Cs"]), max_size=80)
_CSV_BODY = st.text("0123456789.,-+eEnaif x\n", max_size=60)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_DELETE = object()


def _paths(doc, prefix=()):
    """Every path into a JSON document, the root included."""
    yield prefix
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        return
    for key, value in children:
        yield from _paths(value, prefix + (key,))


def _edited(doc, path, value):
    if not path:
        return None if value is _DELETE else value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def csv_texts(header):
    return _TEXT | _CSV_BODY.map(lambda body: header + "\n" + body)


def json_texts(*docs):
    """Arbitrary text, arbitrary JSON, and valid docs with one part replaced."""
    edits = st.sampled_from(docs).flatmap(lambda doc: st.builds(
        lambda path, value: json.dumps(_edited(doc, path, value)),
        st.sampled_from(list(_paths(doc))), _JSON | st.just(_DELETE),
    ))
    return _TEXT | _JSON.map(json.dumps) | edits


def _docs(*paths):
    return [json.loads(p.read_text()) for p in paths]


@pytest.fixture(scope="module")
def fuzz(good_files, tmp_path_factory):
    """Run a command line with one file replaced by the drawn text."""
    scratch = tmp_path_factory.mktemp("fuzz")
    bad = scratch / "bad"

    def run(text, *args):
        bad.write_text(text, encoding="utf-8")
        result = invoke(*[bad if a is None else a for a in args])
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            f"{type(result.exception).__name__}: {result.exception} on {text!r}"
        )

    return good_files, scratch, run


class TestLoaderFuzzing:
    @settings(max_examples=50)
    @given(text=csv_texts("x,y"))
    def test_dataset_csv(self, fuzz, text):
        g, t, run = fuzz
        run(text, "calibrate", "--d1", None, "--d2", g / "d2.csv",
            "--method", "lut", "--model", t / "m.json")

    @settings(max_examples=50)
    @given(text=csv_texts("x"))
    def test_readings_csv(self, fuzz, text):
        g, t, run = fuzz
        run(text, "predict", "--model", g / "lut.json", "--input", None,
            "--out", t / "o.csv")

    @settings(max_examples=50)
    @given(text=csv_texts(TRIALS_HEAD.strip()))
    def test_trials_csv(self, fuzz, text):
        g, t, run = fuzz
        run(text, "summarize", "--trials", None, "--out", t / "s.json")

    @settings(max_examples=50)
    @given(data=st.data())
    def test_model_json(self, fuzz, data):
        g, t, run = fuzz
        text = data.draw(json_texts(*_docs(g / "model.json", g / "lut.json")))
        run(text, "predict", "--model", None, "--input", g / "in.csv",
            "--out", t / "o.csv")

    @settings(max_examples=50)
    @given(data=st.data())
    def test_truth_json(self, fuzz, data):
        g, t, run = fuzz
        text = data.draw(json_texts(*_docs(g / "truth.json")))
        run(text, "evaluate", "--model", g / "lut.json", "--truth", None,
            "--n-quad", 11)

    @settings(max_examples=50)
    @given(text=json_texts(SMALL_CONFIG))
    def test_config(self, fuzz, text):
        g, t, run = fuzz
        run(text, "evaluate", "--config", None, "--model", g / "lut.json",
            "--truth", g / "truth.json", "--n-quad", 11)


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fresh(args, **env):
    """``python args`` run by a new interpreter, BLAS variables unset."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    src = str(Path(__file__).parents[1] / "src")
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**base, **env},
                          capture_output=True, text=True, timeout=120)


def _fresh_python(code, **env):
    """Output words of ``code`` run by a new interpreter, BLAS variables unset."""
    done = _fresh(["-c", code], **env)
    done.check_returncode()
    return done.stdout.split()


class TestBlasThreads:
    """The command pins one BLAS thread before numpy loads; a set value wins."""

    READ = f"import os, cascal.cli; print(*(os.environ[v] for v in {BLAS_VARIABLES}))"

    def test_import_cascal_loads_no_numpy(self):
        code = "import sys, cascal; print('numpy' in sys.modules, cascal.__version__)"
        assert _fresh_python(code) == ["False", "0.1.0"]

    def test_exports_load_on_first_use(self):
        code = ("import cascal; gp = cascal.gp; "
                "print(gp.fit is cascal.fit, 'sim' in dir(cascal), "
                "cascal.sim.sample_truth_pair is cascal.sample_truth_pair, "
                "hasattr(cascal, 'nope'))")
        assert _fresh_python(code) == ["True", "True", "True", "False"]

    def test_command_pins_one_thread(self):
        assert _fresh_python(self.READ) == ["1", "1", "1"]

    def test_user_setting_wins(self):
        assert _fresh_python(self.READ, OPENBLAS_NUM_THREADS="2") == ["2", "1", "1"]


class TestLazyImports:
    """Only a parallel campaign loads the process pool and what it needs."""

    POOL = ("concurrent.futures.process", "multiprocessing", "socket", "logging")

    def test_import_cli_loads_no_process_pool(self):
        code = f"import sys, cascal.cli; print('loaded:', *(m for m in {self.POOL!r} if m in sys.modules))"
        assert _fresh_python(code) == ["loaded:"]


class TestScipyImports:
    """The package loads scipy's two compiled modules it calls, not their packages."""

    UNUSED = ("scipy.optimize", "scipy.linalg", "scipy.sparse", "scipy.special")

    def test_fit_and_predict_load_no_scipy_package(self, tmp_path):
        write_identity_csv(tmp_path / "d1.csv", seed=1)
        write_identity_csv(tmp_path / "d2.csv", seed=2)
        _write(tmp_path / "in.csv", "x\n0.25\n0.5\n")
        d = str(tmp_path)
        code = f"""
import os, sys, cascal.cli
d = {d!r}
for args in (
    ["calibrate", "--d1", os.path.join(d, "d1.csv"), "--d2", os.path.join(d, "d2.csv"),
     "--method", "bayesian", "--model", os.path.join(d, "m.json")],
    ["predict", "--model", os.path.join(d, "m.json"), "--input", os.path.join(d, "in.csv"),
     "--out", os.path.join(d, "out.csv"), "--with-variance"],
):
    cascal.cli.main(args, standalone_mode=False)
print("loaded:", *(m for m in {self.UNUSED!r} if m in sys.modules))
"""
        done = _fresh(["-c", code])
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "loaded:"
        assert (tmp_path / "out.csv").read_text().startswith("x,y_hat,var\n")
