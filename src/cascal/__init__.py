"""Cascaded position-sensor calibration toolkit.

Fits a chain of two Gaussian-process regressions in which the posterior
covariance of the first stage becomes the observation covariance of the
second, plus a lookup-table baseline and a seeded Monte Carlo benchmark
harness comparing the approaches.

The names below, and the modules that hold them, load on first use, so
``import cascal`` loads no numpy: the ``cascal`` command can still pin BLAS
threads first.
"""

import sys

_EXPORTS = {
    "cascade": ("CalibrationDataset", "CascadeConfig", "CascadeModel",
                "calibrate_alternative1", "calibrate_cascaded",
                "calibrate_stage_one", "propagate"),
    "errors": ("CascalError", "ConfigError", "DatasetFormatError", "DegenerateTable",
               "DimensionMismatch", "EmptyCampaign", "NonMonotonic",
               "NotPositiveDefinite", "OptimizationFailed", "ScipyIncompatible"),
    "gp": ("GPPosterior", "OptimizerConfig", "TrainingSet", "fit",
           "log_marginal_likelihood", "optimize_hyperparameters", "predict_cov",
           "predict_mean", "predict_var"),
    "kernels": ("Hyperparameters", "PriorMean", "eval_prior_mean", "kernel_matrix",
                "se_kernel"),
    "lut": ("LookupTable", "LutCascade", "build_lut", "calibrate_lut_cascade",
            "lut_eval"),
    "montecarlo": ("CampaignSummary", "TrialConfig", "TrialResult", "run_campaign",
                   "run_trial", "summarize"),
    "numerics": ("PsdFactor", "factor_psd", "log_det", "solve_psd"),
    "sim": ("SensorTruth", "TruthPair", "cost_j", "generate_d1", "generate_d2",
            "invert_sensor", "sample_truth", "sample_truth_pair", "sensor_eval",
            "sensor_read", "true_f13"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def _submodule(name: str):
    # The command's `from . import` lands here: load the module on first use.
    full = f"{__name__}.{name}"
    __import__(full)
    return sys.modules[full]


def __getattr__(name: str):
    if name in _EXPORTS:
        return _submodule(name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(_HOME[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))
