"""Golden files pin the on-disk JSON and CSV of every artefact byte for byte.

The bayes, alt1 and LUT model files, the truth file, ``summary.json``,
``trials.csv`` and a dataset CSV are built from hand-written
hyperparameters, tables, truths and costs: no optimizer output and no
BLAS-dependent floats, so the bytes are the same on any machine.  Each
test writes its artefact with the package's own writer and compares it
with ``tests/golden/``, then loads the golden file and checks that it
writes back unchanged.  The ``predict`` and ``evaluate --errors-csv``
files are written by the commands from the golden model and truth files.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from cascal import cascade, gp, lut, montecarlo, sim
from cascal._record import write_json
from cascal.cascade import CascadeConfig, CascadeModel
from cascal.cli import main
from cascal.gp import OptimizerConfig, TrainingSet
from cascal.kernels import Hyperparameters, PriorMean
from cascal.lut import LutCascade
from cascal.montecarlo import TrialResult

GOLDEN = Path(__file__).parent / "golden"


def golden(name: str) -> bytes:
    return (GOLDEN / name).read_bytes()


def posterior(inputs, targets, cov, hp, mean):
    ts = TrainingSet(np.array(inputs), np.array(targets), np.array(cov))
    return gp.fit(ts, hp, mean)


STAGE_ONE = posterior(
    [0.0, 0.25, 0.5, 0.75, 1.0],
    [0.01, 0.26, 0.49, 0.76, 1.02],
    np.zeros((5, 5)),
    Hyperparameters(0.3, 0.01, 1e-8),
    PriorMean.identity(),
)

MODELS = {
    "model_bayes.json": CascadeModel(
        stage_one=STAGE_ONE,
        stage_two=posterior(
            [0.1, 0.4, 0.6, 0.9],
            [0.11, 0.38, 0.61, 0.93],
            [
                [2e-6, 1e-6, 0.0, 0.0],
                [1e-6, 2e-6, 1e-6, 0.0],
                [0.0, 1e-6, 2e-6, 1e-6],
                [0.0, 0.0, 1e-6, 2e-6],
            ],
            Hyperparameters(0.25, 0.02, 1e-7),
            PriorMean.affine(1.01, -0.002),
        ),
        method_tag=cascade.METHOD_BAYES,
        config=CascadeConfig(),
    ),
    "model_alt1.json": CascadeModel(
        stage_one=STAGE_ONE,
        stage_two=posterior(
            [0.1, 0.4, 0.6, 0.9],
            [0.11, 0.38, 0.61, 0.93],
            1e-8 * np.eye(4),
            Hyperparameters(0.5, 0.125, 0.0),
            PriorMean.zero(),
        ),
        method_tag=cascade.METHOD_ALT1,
        config=CascadeConfig(
            optimizer=OptimizerConfig(
                start_offsets=(-1.0, 0.0, 1.0), max_iters=50, rel_tol=1e-6,
                log_lower=-15.0, log_upper=3.0,
            ),
            stage2_learned_noise=False,
            prior_mean=PriorMean.zero(),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_cascade_model_bytes(name, tmp_path):
    path = tmp_path / name
    cascade.save_model(MODELS[name], path)
    assert path.read_bytes() == golden(name)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_cascade_model_golden_loads(name, tmp_path):
    model = cascade.load_model(GOLDEN / name)
    assert model.method_tag == MODELS[name].method_tag
    assert model.config == MODELS[name].config
    assert model.stage_two.hp == MODELS[name].stage_two.hp
    path = tmp_path / name
    cascade.save_model(model, path)
    assert path.read_bytes() == golden(name)


# The LUT model goes through `cascal calibrate`, so the CLI's writer is
# pinned too.  d1's test-bed readings sit on d2's breakpoints, so every
# interpolated value is a table value, exactly.
LUT_D2 = "x,y\n0.0,0.0\n0.5,0.5\n0.25,0.25\n1.0,1.0\n0.5,0.75\n"
LUT_D1 = "x,y\n0.1,0.0\n0.3,0.25\n0.7,0.5\n0.9,1.0\n"


def test_lut_model_bytes(tmp_path):
    (tmp_path / "d1.csv").write_text(LUT_D1)
    (tmp_path / "d2.csv").write_text(LUT_D2)
    (tmp_path / "cfg.json").write_text(json.dumps({"lut_extrapolation": "clamp"}))
    path = tmp_path / "model_lut.json"
    result = CliRunner().invoke(main, [
        "calibrate", "--method", "lut", "--d1", str(tmp_path / "d1.csv"),
        "--d2", str(tmp_path / "d2.csv"), "--model", str(path),
        "--config", str(tmp_path / "cfg.json"),
    ])
    assert result.exit_code == 0, result.output
    assert path.read_bytes() == golden("model_lut.json")


def test_lut_model_save_model_bytes(tmp_path):
    """cascade.save_model writes a LUT model as the CLI does."""
    (tmp_path / "d1.csv").write_text(LUT_D1)
    (tmp_path / "d2.csv").write_text(LUT_D2)
    model = lut.calibrate_lut_cascade(
        cascade.load_dataset_csv(tmp_path / "d1.csv"),
        cascade.load_dataset_csv(tmp_path / "d2.csv"),
        "clamp",
    )
    path = tmp_path / "model_lut.json"
    cascade.save_model(model, path)
    assert path.read_bytes() == golden("model_lut.json")


def test_lut_model_golden_loads():
    doc = json.loads(golden("model_lut.json"))
    model = LutCascade.from_dict(doc)
    assert model.extrapolation == "clamp"
    np.testing.assert_array_equal(model.stage_two.values, [0.0, 0.25, 0.625, 1.0])
    assert model.to_dict() == doc


def test_load_model_reads_lut_model():
    """cascade.load_model picks the LUT kind by the file's method_tag."""
    model = cascade.load_model(GOLDEN / "model_lut.json")
    assert isinstance(model, LutCascade)
    doc = json.loads(golden("model_lut.json"))
    assert model.to_dict() == LutCascade.from_dict(doc).to_dict()


TRUTH = sim.TruthPair(
    sim.SensorTruth([0.01, -0.02], [0.005, 0.0], [3.0, -1.5], 1e-8),
    sim.SensorTruth([0.0], [-0.0125], [2.5], 0.0),
    range=(-0.5, 2.0),
)


def test_truth_bytes(tmp_path):
    path = tmp_path / "truth.json"
    sim.save_truth_pair(TRUTH, path)
    assert path.read_bytes() == golden("truth.json")


def test_truth_golden_loads(tmp_path):
    pair = sim.load_truth_pair(GOLDEN / "truth.json")
    assert pair.range == TRUTH.range
    np.testing.assert_array_equal(pair.sensor1.freqs, TRUTH.sensor1.freqs)
    path = tmp_path / "truth.json"
    sim.save_truth_pair(pair, path)
    assert path.read_bytes() == golden("truth.json")


# Dyadic costs: every sum is exact, so only elementwise arithmetic rounds.
COSTS = [
    (0, 0.125, 0.25, 0.5, None),
    (1, 0.25, 0.375, 0.75, None),
    (2, 0.5, 0.25, 1.0, None),
    (3, 0.0625, 0.125, 0.5, None),
    (4, 0.375, 0.5, 0.25, None),
    (5, float("nan"), float("nan"), float("nan"), "NonMonotonic: redraw"),
]


def test_summary_bytes(tmp_path):
    results = [TrialResult(s, a, b, c, flag=f) for s, a, b, c, f in COSTS]
    path = tmp_path / "summary.json"
    write_json(path, montecarlo.summarize(results, n_bins=4).to_dict())
    assert path.read_bytes() == golden("summary.json")


# CSV files.  Floats are written as their shortest repr, so the costs and
# readings below are chosen to need all 17 significant digits or an
# exponent.  The flagged trial's flag holds a comma and a quote, which the
# writer must quote.
NAN = float("nan")
TRIALS = [
    TrialResult(0, 8.794e-05, 0.1 + 0.2, 6.179e-04),
    TrialResult(1, NAN, NAN, NAN, flag='ValueError: x = "0.5", not a reading'),
]


def test_trials_csv_bytes(tmp_path):
    path = tmp_path / "trials.csv"
    montecarlo.write_trials_csv(TRIALS, path)
    assert path.read_bytes() == golden("trials.csv")


def test_trials_csv_golden_reads(tmp_path):
    results = montecarlo.read_trials_csv(GOLDEN / "trials.csv")
    assert [r.flag for r in results] == [t.flag for t in TRIALS]
    path = tmp_path / "trials.csv"
    montecarlo.write_trials_csv(results, path)
    assert path.read_bytes() == golden("trials.csv")


DATASET = cascade.CalibrationDataset(
    x=np.array([0.0, 0.1, 1 / 3, 0.7, 1e-05]),
    y=np.array([-2.5e-09, 0.1 + 0.2, 0.5, 1 / 7, 1.0]),
)


def test_dataset_csv_bytes(tmp_path):
    path = tmp_path / "dataset.csv"
    cascade.save_dataset_csv(DATASET, path)
    assert path.read_bytes() == golden("dataset.csv")


def test_dataset_csv_golden_reads(tmp_path):
    ds = cascade.load_dataset_csv(GOLDEN / "dataset.csv")
    np.testing.assert_array_equal(ds.x, DATASET.x)
    np.testing.assert_array_equal(ds.y, DATASET.y)


# The predict and errors files go through the commands that write them.
# Every reading lies at least 9 length scales from the bayes model's
# training inputs, so each correction is the prior mean and the signal
# variance to the last bit, whatever BLAS kernel computes the rest.
READINGS = "x\n-2.7\n3.3\n3.3333333333333335\n1000.1\n"


@pytest.mark.parametrize("name, flags", [
    ("predict_bayes.csv", []),
    ("predict_bayes_var.csv", ["--with-variance"]),
])
def test_predict_csv_bytes(tmp_path, name, flags):
    (tmp_path / "in.csv").write_text(READINGS)
    path = tmp_path / name
    result = CliRunner().invoke(main, [
        "predict", "--model", str(GOLDEN / "model_bayes.json"),
        "--input", str(tmp_path / "in.csv"), "--out", str(path), *flags,
    ])
    assert result.exit_code == 0, result.output
    assert path.read_bytes() == golden(name)


def test_errors_csv_bytes(tmp_path):
    path = tmp_path / "errors.csv"
    result = CliRunner().invoke(main, [
        "evaluate", "--model", str(GOLDEN / "model_lut.json"),
        "--truth", str(GOLDEN / "truth.json"), "--n-quad", "9",
        "--errors-csv", str(path),
    ])
    assert result.exit_code == 0, result.output
    assert path.read_bytes() == golden("errors.csv")
