import csv
import json

import numpy as np
import pytest
from click.testing import CliRunner

from cascal import cascade, lut, sim
from cascal.cli import main

runner = CliRunner()

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

    def test_missing_x_column_exits_2(self, identity_model, tmp_path):
        inp = tmp_path / "in.csv"
        inp.write_text("value\n0.5\n")
        result = invoke(
            "predict", "--model", identity_model, "--input", inp,
            "--out", tmp_path / "o.csv",
        )
        assert result.exit_code == 2


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

    def test_missing_file_exits_2(self, tmp_path):
        result = invoke(
            "summarize", "--trials", tmp_path / "nope.csv",
            "--out", tmp_path / "s.json",
        )
        assert result.exit_code == 2
