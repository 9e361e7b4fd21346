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

import csv
import json
from dataclasses import dataclass

import numpy as np

from . import gp
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
        x = np.asarray(self.x, dtype=float).ravel()
        y = np.asarray(self.y, dtype=float).ravel()
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"{x.shape[0]} x values but {y.shape[0]} y values")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("dataset values must be finite")

    @property
    def n(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class CascadeConfig:
    """Settings shared by both calibration stages.

    ``stage2_learned_noise`` adds a learned diagonal noise term on top of
    the propagated covariance in stage two.  Disabling it reproduces the
    strict formulation where the propagated covariance is the only
    observation uncertainty.
    """

    optimizer: OptimizerConfig = OptimizerConfig()
    stage2_learned_noise: bool = True
    prior_mean: PriorMean = PriorMean.identity()

    def to_dict(self) -> dict:
        return {
            "optimizer": self.optimizer.to_dict(),
            "stage2_learned_noise": bool(self.stage2_learned_noise),
            "prior_mean": self.prior_mean.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CascadeConfig":
        return cls(
            optimizer=OptimizerConfig.from_dict(d["optimizer"]),
            stage2_learned_noise=bool(d["stage2_learned_noise"]),
            prior_mean=PriorMean.from_dict(d["prior_mean"]),
        )


@dataclass(frozen=True)
class CascadeModel:
    """A fitted two-stage calibration map."""

    stage_one: GPPosterior
    stage_two: GPPosterior
    method_tag: str
    config: CascadeConfig

    def apply(self, y1: np.ndarray) -> np.ndarray:
        """Transform raw readings into corrected positions."""
        return gp.predict_mean(self.stage_two, y1)

    def apply_variance(self, y1: np.ndarray) -> np.ndarray:
        """Posterior variance of the corrected positions."""
        return gp.predict_var(self.stage_two, y1)


def calibrate_stage_one(
    d2: CalibrationDataset, cfg: CascadeConfig = CascadeConfig()
) -> GPPosterior:
    """Fit the test-bed-to-reference model on its calibration dataset."""
    ts = TrainingSet.exact(d2.x, d2.y)
    hp0 = gp.default_hp0(ts, cfg.prior_mean)
    hp = gp.optimize_hyperparameters(ts, hp0, cfg.optimizer, cfg.prior_mean)
    return gp.fit(ts, hp, cfg.prior_mean)


def propagate(d1: CalibrationDataset, stage_one: GPPosterior) -> TrainingSet:
    """Push the paired dataset through stage one, keeping its uncertainty.

    Returns a training set whose targets are the stage-one posterior mean
    at ``d1.y`` and whose target covariance is the full posterior
    covariance there — not just its diagonal.
    """
    targets = gp.predict_mean(stage_one, d1.y)
    cov = gp.predict_cov(stage_one, d1.y)
    return TrainingSet(inputs=d1.x, targets=targets, target_cov=cov)


def _fit_stage_two(
    propagated: TrainingSet, cfg: CascadeConfig
) -> GPPosterior:
    fix_noise = None if cfg.stage2_learned_noise else 0.0
    hp0 = gp.default_hp0(propagated, cfg.prior_mean)
    hp = gp.optimize_hyperparameters(
        propagated, hp0, cfg.optimizer, cfg.prior_mean, fix_noise=fix_noise
    )
    return gp.fit(propagated, hp, cfg.prior_mean)


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
    stage_two = _fit_stage_two(propagated, cfg)
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
    stage_two = _fit_stage_two(propagated, cfg)
    return CascadeModel(stage_one, stage_two, METHOD_ALT1, cfg)


# ---------------------------------------------------------------------------
# dataset CSV format
# ---------------------------------------------------------------------------


def load_dataset_csv(path) -> CalibrationDataset:
    """Read a dataset from CSV with header ``x,y``.

    Raises DatasetFormatError naming the offending (1-based) file row.
    """
    xs: list[float] = []
    ys: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row_no, row in enumerate(reader, start=1):
            if row_no == 1:
                if [c.strip() for c in row] != ["x", "y"]:
                    raise DatasetFormatError(
                        f"{path}: row 1: expected header 'x,y', got {','.join(row)!r}"
                    )
                continue
            if not row:
                continue
            if len(row) != 2:
                raise DatasetFormatError(
                    f"{path}: row {row_no}: expected 2 columns, got {len(row)}"
                )
            try:
                xs.append(float(row[0]))
                ys.append(float(row[1]))
            except ValueError:
                raise DatasetFormatError(
                    f"{path}: row {row_no}: non-numeric cell"
                ) from None
    try:
        return CalibrationDataset(x=np.array(xs), y=np.array(ys))
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None


def save_dataset_csv(ds: CalibrationDataset, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("x,y\n")
        for x, y in zip(ds.x, ds.y):
            fh.write(f"{float(x)!r},{float(y)!r}\n")


# ---------------------------------------------------------------------------
# model JSON envelope
# ---------------------------------------------------------------------------


def model_to_dict(model: CascadeModel) -> dict:
    return {
        "method_tag": model.method_tag,
        "stage_one": gp.posterior_to_dict(model.stage_one),
        "stage_two": gp.posterior_to_dict(model.stage_two),
        "config": model.config.to_dict(),
    }


def model_from_dict(d: dict) -> CascadeModel:
    if d["method_tag"] not in (METHOD_BAYES, METHOD_ALT1):
        raise ValueError(f"not a cascade model: method_tag={d['method_tag']!r}")
    return CascadeModel(
        stage_one=gp.posterior_from_dict(d["stage_one"]),
        stage_two=gp.posterior_from_dict(d["stage_two"]),
        method_tag=d["method_tag"],
        config=CascadeConfig.from_dict(d["config"]),
    )


def save_model(model: CascadeModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> CascadeModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
