"""Seeded benchmark campaigns comparing the three calibration methods.

Each trial draws a fresh pair of synthetic sensors, generates one shared
pair of calibration datasets, runs the covariance-propagating method, the
diagonal-covariance variant, and the lookup-table baseline on identical
data, and scores each with the simulation cost oracle.  Campaigns are pure
functions of (base seed, trial count, config), regardless of parallelism.

Building a ``TrialConfig`` checks every trial setting: the problem sizes
(as ``sim.Problem``), the lookup-table mode and the optimizer settings, so
no config fault can arise inside a trial.  ``check_campaign`` checks a
trial count and base seed, and ``check_n_bins`` a bin count.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import cascade, lut, sim
from ._record import Record, integer, number, read_table, write_json, write_table
from .cascade import CascadeConfig
from .errors import (CascalError, ConfigError, DatasetFormatError, EmptyCampaign,
                     ScipyIncompatible)
from .gp import OptimizerConfig
from .kernels import Hyperparameters

METHODS = ("bayes", "alt1", "alt2")

#: Default number of histogram bins in a campaign summary.
N_BINS = 60


@dataclass(frozen=True)
class TrialConfig(sim.Problem):
    """Everything one trial needs besides its seed: the simulated problem's
    sizes, and the settings from which ``cascade`` builds the config of both
    calibration stages."""

    lut_extrapolation: str = "slope"
    strict_paper: bool = not CascadeConfig.stage2_learned_noise
    opt_max_iters: int = OptimizerConfig.max_iters
    opt_rel_tol: float = OptimizerConfig.rel_tol

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.lut_extrapolation not in lut.EXTRAPOLATION_MODES:
            raise ConfigError(
                f"lut_extrapolation must be one of {lut.EXTRAPOLATION_MODES}"
            )
        if self.opt_max_iters < 1:
            raise ConfigError(f"opt_max_iters must be >= 1, got {self.opt_max_iters}")
        if not self.opt_rel_tol >= 0.0:
            raise ConfigError(f"opt_rel_tol must be >= 0, got {self.opt_rel_tol}")

    @property
    def cascade(self) -> CascadeConfig:
        return CascadeConfig(
            OptimizerConfig(max_iters=self.opt_max_iters, rel_tol=self.opt_rel_tol),
            stage2_learned_noise=not self.strict_paper,
        )


@dataclass(frozen=True)
class TrialResult:
    """Costs and diagnostics for one seed."""

    seed: int
    j_bayes: float
    j_alt1: float
    j_alt2: float
    hp_stage_one: Hyperparameters | None = None
    hp_stage_two: Hyperparameters | None = None
    rejected_draws: int = 0
    flag: str | None = None
    d1_checksum: str | None = None
    d2_checksum: str | None = None

    @property
    def ok(self) -> bool:
        return self.flag is None

    def j_for(self, method: str) -> float:
        return {"bayes": self.j_bayes, "alt1": self.j_alt1, "alt2": self.j_alt2}[
            method
        ]


def dataset_checksum(ds: cascade.CalibrationDataset) -> str:
    """SHA-256 over the raw bytes of the dataset arrays."""
    h = hashlib.sha256()
    h.update(ds.x.tobytes())
    h.update(ds.y.tobytes())
    return h.hexdigest()


def run_trial(seed: int, cfg: TrialConfig = TrialConfig()) -> TrialResult:
    """Run all three methods on one seeded problem.

    Any method failure flags the whole trial (costs become NaN) so that
    summaries only ever compare methods on identical draws.  An installed
    scipy that rejects the search's call (``ScipyIncompatible``) would fail
    every trial alike, so it propagates instead.
    """
    costs: dict[str, float] = {}
    rejected, d1, d2, hp1, hp2, flag = 0, None, None, None, None, None
    try:
        pair, rejected = sim.sample_truth_pair(
            seed, cfg.n_terms, cfg.coeff_var, cfg.freq_var, cfg.noise_var
        )
        d1 = sim.generate_d1(pair, cfg.n1, sim.substream(seed, 1))
        d2 = sim.generate_d2(
            pair, cfg.n_grid, cfg.edge_remove, cfg.center_remove, sim.substream(seed, 2)
        )
        stage_one = cascade.calibrate_stage_one(d2, cfg.cascade)
        models = {
            "bayes": cascade.calibrate_cascaded(d1, d2, cfg.cascade, stage_one=stage_one),
            "alt1": cascade.calibrate_alternative1(d1, d2, cfg.cascade, stage_one=stage_one),
            "alt2": lut.calibrate_lut_cascade(d1, d2, cfg.lut_extrapolation),
        }

        def stacked(grid):  # one truth inversion scores all three maps
            return np.stack([models[m].apply(grid) for m in METHODS])

        costs = dict(zip(METHODS, sim.cost_j(stacked, pair, cfg.n_quad).tolist()))
        hp1, hp2 = stage_one.hp, models["bayes"].stage_two.hp
    except ScipyIncompatible:
        raise
    except (CascalError, ValueError) as exc:
        flag = f"{type(exc).__name__}: {exc}"

    return TrialResult(
        seed=seed,
        j_bayes=costs.get("bayes", math.nan),
        j_alt1=costs.get("alt1", math.nan),
        j_alt2=costs.get("alt2", math.nan),
        hp_stage_one=hp1,
        hp_stage_two=hp2,
        rejected_draws=rejected,
        flag=flag,
        d1_checksum=None if d1 is None else dataset_checksum(d1),
        d2_checksum=None if d2 is None else dataset_checksum(d2),
    )


def check_campaign(n_trials: int, base_seed: int) -> None:
    if n_trials < 1:
        raise ConfigError(f"n_trials must be >= 1, got {n_trials}")
    if base_seed < 0:
        raise ConfigError(f"seed must be >= 0, got {base_seed}")


def ProcessPoolExecutor(max_workers: int):
    """``concurrent.futures``' process pool, imported on the first call.

    Importing it loads multiprocessing, socket and logging, which only a
    parallel campaign needs.
    """
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


def run_campaign(
    n_trials: int,
    base_seed: int,
    cfg: TrialConfig = TrialConfig(),
    max_parallel: int = 1,
) -> list[TrialResult]:
    """Run trials for seeds base_seed .. base_seed + n_trials - 1.

    Results are returned in seed order and are identical for any
    ``max_parallel``.
    """
    check_campaign(n_trials, base_seed)
    seeds = range(base_seed, base_seed + n_trials)
    if max_parallel <= 1:
        return [run_trial(s, cfg) for s in seeds]
    with ProcessPoolExecutor(max_workers=min(max_parallel, n_trials)) as pool:
        return list(pool.map(run_trial, seeds, [cfg] * n_trials))


@dataclass(frozen=True)
class MethodSummary(Record):
    median: float
    mean: float
    q05: float
    q25: float
    q75: float
    q95: float
    win_rate: dict[str, float]
    density: np.ndarray
    cdf_values: np.ndarray
    cdf_fractions: np.ndarray


@dataclass(frozen=True)
class CampaignSummary(Record):
    n_trials: int
    n_flagged: int
    bin_edges: np.ndarray
    methods: dict[str, MethodSummary]


def check_n_bins(n_bins: int) -> None:
    if n_bins < 1:
        raise ConfigError(f"n_bins must be >= 1, got {n_bins}")


def summarize(results: list, n_bins: int = N_BINS) -> CampaignSummary:
    """Aggregate a campaign into per-method statistics.

    Histograms share common bin edges spanning [0, 99.5th percentile of the
    pooled costs] and are normalized to unit area over the binned range;
    win rates count strict wins (ties favor neither side).
    """
    check_n_bins(n_bins)
    ok = [r for r in results if r.ok]
    if not ok:
        raise EmptyCampaign("no unflagged trials to summarize")
    n_flagged = len(results) - len(ok)

    js = {m: np.array([r.j_for(m) for r in ok]) for m in METHODS}
    pooled = np.concatenate(list(js.values()))
    hi = float(np.percentile(pooled, 99.5))
    if hi <= 0.0:
        hi = 1e-12
    edges = np.linspace(0.0, hi, n_bins + 1)
    widths = np.diff(edges)

    methods = {}
    for m in METHODS:
        j = js[m]
        counts, _ = np.histogram(j, bins=edges)
        total = counts.sum()
        density = counts / (total * widths) if total else np.zeros(n_bins)
        order = np.sort(j)
        fractions = np.arange(1, len(order) + 1) / len(order)
        win_rate = {
            other: float(np.mean(j < js[other]))
            for other in METHODS
            if other != m
        }
        q05, q25, q75, q95 = np.percentile(j, [5, 25, 75, 95]).tolist()
        methods[m] = MethodSummary(
            median=float(np.median(j)),
            mean=float(np.mean(j)),
            q05=q05,
            q25=q25,
            q75=q75,
            q95=q95,
            win_rate=win_rate,
            density=density,
            cdf_values=order,
            cdf_fractions=fractions,
        )
    return CampaignSummary(
        n_trials=len(ok), n_flagged=n_flagged, bin_edges=edges, methods=methods
    )


# ---------------------------------------------------------------------------
# results export
# ---------------------------------------------------------------------------

#: The columns of trials.csv and the type of each cell.
TRIALS_COLUMNS = {
    "seed": integer, "j_bayes": number, "j_alt1": number, "j_alt2": number, "flag": str,
}


def write_trials_csv(results: list, path) -> None:
    write_table(path, list(TRIALS_COLUMNS), [
        (int(r.seed), float(r.j_bayes), float(r.j_alt1), float(r.j_alt2), r.flag or "")
        for r in results
    ])


def read_trials_csv(path) -> list:
    """Read a trials.csv back; raises DatasetFormatError naming the file line.

    Each seed appears once.  An unflagged row's three costs must be finite
    and nonnegative, as ``cost_j`` makes them; a flagged row's are ``nan``.
    """
    results, seen = [], {}
    for line, (seed, j_bayes, j_alt1, j_alt2, flag) in read_table(path, TRIALS_COLUMNS):
        if seed in seen:
            raise DatasetFormatError(
                f"{path}: row {line}: seed {seed} repeats row {seen[seed]}"
            )
        seen[seed] = line
        result = TrialResult(seed, j_bayes, j_alt1, j_alt2, flag=flag or None)
        if result.ok and not all(0 <= result.j_for(m) < math.inf for m in METHODS):
            raise DatasetFormatError(
                f"{path}: row {line}: an unflagged trial's costs must be finite and >= 0"
            )
        results.append(result)
    return results


def write_summary_json(summary: CampaignSummary, path) -> None:
    write_json(path, summary.to_dict())
