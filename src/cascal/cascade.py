"""Two-stage cascaded calibration.

Stage one regresses reference readings on test-bed readings.  Its posterior
is then evaluated at the test-bed readings paired with the device under
calibration, and — crucially — the posterior covariance at those points is
carried along as the observation covariance of the stage-two fit.  The
diagonal-only variant (``calibrate_alternative1``) replaces that matrix
with the stage-one noise estimate times the identity, which is the usual
shortcut this toolkit exists to improve on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gp
from ._record import (Record, finite, read_json, read_table, set_vectors,
                      write_json, write_table)
from .errors import DatasetFormatError
from .kernels import PriorMean
from .gp import GPPosterior, OptimizerConfig, TrainingSet

METHOD_BAYES = "bayes"
METHOD_ALT1 = "alt1"


@dataclass(frozen=True)
class CalibrationDataset:
    """Paired readings of two sensors observing the same positions.

    ``x`` holds the less accurate sensor's readings, ``y`` the paired
    readings of the more accurate one (meters).
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        set_vectors(self, "x", "y")

    @property
    def n(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class CascadeConfig(Record):
    """Settings shared by both calibration stages.

    ``stage2_learned_noise`` adds a learned diagonal noise term on top of
    the propagated covariance in stage two.  Disabling it reproduces the
    strict formulation: stage two's noise is pinned at 0, and its target
    covariance is that of a noisy test-bed reading, the propagated
    covariance plus stage one's noise variance on the diagonal.
    """

    optimizer: OptimizerConfig = OptimizerConfig()
    stage2_learned_noise: bool = True
    prior_mean: PriorMean = PriorMean.identity()


@dataclass(frozen=True)
class CascadeModel(Record):
    """A fitted two-stage calibration map."""

    stage_one: GPPosterior
    stage_two: GPPosterior
    method_tag: str
    config: CascadeConfig

    @classmethod
    def from_dict(cls, d: dict) -> "CascadeModel":
        if d["method_tag"] not in (METHOD_BAYES, METHOD_ALT1):
            raise ValueError(f"not a cascade model: method_tag={d['method_tag']!r}")
        return super().from_dict(d)

    def apply(self, y1: np.ndarray) -> np.ndarray:
        """Transform raw readings into corrected positions."""
        return gp.predict_mean(self.stage_two, y1)

    def apply_variance(self, y1: np.ndarray) -> np.ndarray:
        """Posterior variance of the corrected positions; ``bench/tracing.py`` wraps it."""
        return self.apply_with_variance(y1)[1]

    def apply_with_variance(self, y1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Corrected positions and their posterior variance, from one pass."""
        return gp.predict_mean_var(self.stage_two, y1)


def _fit(ts: TrainingSet, cfg: CascadeConfig, stage_two: bool = True) -> GPPosterior:
    """Evidence-maximized fit; only stage two may pin its noise at 0."""
    fix_noise = 0.0 if stage_two and not cfg.stage2_learned_noise else None
    hp0 = gp.default_hp0(ts, cfg.prior_mean)
    hp = gp.optimize_hyperparameters(ts, hp0, cfg.optimizer, cfg.prior_mean, fix_noise)
    return gp.fit(ts, hp, cfg.prior_mean)


def calibrate_stage_one(
    d2: CalibrationDataset, cfg: CascadeConfig = CascadeConfig()
) -> GPPosterior:
    """Fit the test-bed-to-reference model on its calibration dataset."""
    return _fit(TrainingSet.exact(d2.x, d2.y), cfg, stage_two=False)


def propagate(d1: CalibrationDataset, stage_one: GPPosterior) -> TrainingSet:
    """Push the paired dataset through stage one, keeping its uncertainty.

    Returns a training set whose targets are the stage-one posterior mean
    at ``d1.y`` and whose target covariance is the full posterior
    covariance there — not just its diagonal.
    """
    targets = gp.predict_mean(stage_one, d1.y)
    cov = gp.predict_cov(stage_one, d1.y)
    return TrainingSet(inputs=d1.x, targets=targets, target_cov=cov)


def calibrate_cascaded(
    d1: CalibrationDataset,
    d2: CalibrationDataset,
    cfg: CascadeConfig = CascadeConfig(),
    stage_one: GPPosterior | None = None,
) -> CascadeModel:
    """Full cascaded calibration with propagated covariance.

    ``stage_one`` may be passed in to share a previously fitted first stage
    (the fit is deterministic, so this changes nothing but runtime).
    """
    if stage_one is None:
        stage_one = calibrate_stage_one(d2, cfg)
    propagated = propagate(d1, stage_one)
    if not cfg.stage2_learned_noise:  # stage two takes the reading noise stage one learned
        cov = propagated.target_cov + stage_one.hp.noise_variance * np.eye(d1.n)
        propagated = TrainingSet(d1.x, propagated.targets, cov)
    stage_two = _fit(propagated, cfg)
    return CascadeModel(stage_one, stage_two, METHOD_BAYES, cfg)


def calibrate_alternative1(
    d1: CalibrationDataset,
    d2: CalibrationDataset,
    cfg: CascadeConfig = CascadeConfig(),
    stage_one: GPPosterior | None = None,
) -> CascadeModel:
    """Same pipeline, but stage two sees only a diagonal noise covariance.

    The propagated covariance matrix is replaced by sigma_n^2 * I, where
    sigma_n^2 is the noise variance learned by the stage-one evidence
    maximization.  Stage one is identical to the cascaded method.
    """
    if stage_one is None:
        stage_one = calibrate_stage_one(d2, cfg)
    targets = gp.predict_mean(stage_one, d1.y)
    cov = stage_one.hp.noise_variance * np.eye(d1.n)
    propagated = TrainingSet(inputs=d1.x, targets=targets, target_cov=cov)
    stage_two = _fit(propagated, cfg)
    return CascadeModel(stage_one, stage_two, METHOD_ALT1, cfg)


# ---------------------------------------------------------------------------
# dataset CSV format
# ---------------------------------------------------------------------------


def load_dataset_csv(path) -> CalibrationDataset:
    """Read a dataset from the ``x`` and ``y`` columns of a CSV file.

    Raises DatasetFormatError naming the offending (1-based) file line, or
    the file if it holds fewer than 2 rows.
    """
    rows = [cells for _, cells in read_table(path, {"x": finite, "y": finite})]
    if len(rows) < 2:
        raise DatasetFormatError(f"{path}: a dataset needs at least 2 rows, got {len(rows)}")
    xy = np.array(rows, dtype=float).reshape(-1, 2)
    return CalibrationDataset(x=xy[:, 0], y=xy[:, 1])


def save_dataset_csv(ds: CalibrationDataset, path) -> None:
    write_table(path, ["x", "y"], zip(ds.x.tolist(), ds.y.tolist()))


# ---------------------------------------------------------------------------
# model JSON envelope
# ---------------------------------------------------------------------------


#: Kept because ``bench/tracing.py`` wraps it by name for its load timing;
#: ``load_model`` looks it up on every call.
model_from_dict = CascadeModel.from_dict


def save_model(model: Record, path) -> None:
    """Write any fitted model, cascade or lookup table, as its JSON document."""
    write_json(path, model.to_dict())


def load_model(path) -> Record:
    """Read any model file, picking its kind by ``method_tag``."""
    return read_json(path, "model file", _model_from_doc)


def _model_from_doc(doc: dict) -> Record:
    from . import lut  # lut imports this module
    if doc["method_tag"] == lut.METHOD_LUT:
        return lut.LutCascade.from_dict(doc)
    return model_from_dict(doc)
