"""Cascaded position-sensor calibration toolkit.

Fits a chain of two Gaussian-process regressions in which the posterior
covariance of the first stage becomes the observation covariance of the
second, plus a lookup-table baseline and a seeded Monte Carlo benchmark
harness comparing the approaches.
"""

from .cascade import (
    CalibrationDataset,
    CascadeConfig,
    CascadeModel,
    calibrate_alternative1,
    calibrate_cascaded,
    calibrate_stage_one,
    propagate,
)
from .errors import (
    CascalError,
    ConfigError,
    DatasetFormatError,
    DegenerateTable,
    DimensionMismatch,
    EmptyCampaign,
    NonMonotonic,
    NotPositiveDefinite,
    OptimizationFailed,
)
from .gp import (
    GPPosterior,
    OptimizerConfig,
    TrainingSet,
    fit,
    log_marginal_likelihood,
    optimize_hyperparameters,
    predict_cov,
    predict_mean,
    predict_var,
)
from .kernels import Hyperparameters, PriorMean, eval_prior_mean, kernel_matrix, se_kernel
from .lut import LookupTable, LutCascade, build_lut, calibrate_lut_cascade, lut_eval
from .montecarlo import (
    CampaignSummary,
    TrialConfig,
    TrialResult,
    run_campaign,
    run_trial,
    summarize,
)
from .numerics import PsdFactor, factor_psd, log_det, solve_psd
from .sim import (
    SensorTruth,
    TruthPair,
    cost_j,
    generate_d1,
    generate_d2,
    invert_sensor,
    sample_truth,
    sample_truth_pair,
    sensor_eval,
    sensor_read,
    true_f13,
)

__version__ = "0.1.0"
