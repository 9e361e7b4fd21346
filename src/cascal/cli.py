"""Command-line interface: simulate, calibrate, predict, evaluate, summarize.

Every command is deterministic given its flags, input files, and --seed;
nothing is ever derived from the clock.  Values come from built-in
defaults, overridden by a flat JSON config file (--config), overridden by
command-line flags, in that order.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, fields, replace

import click
import numpy as np

from . import cascade, lut, montecarlo, sim
from .cascade import CascadeConfig, CascadeModel
from .errors import CascalError, ConfigError, DatasetFormatError
from .gp import OptimizerConfig
from .lut import LutCascade
from .montecarlo import TrialConfig


@dataclass(frozen=True)
class RunConfig:
    """Tunable values with their defaults.

    Simulation defaults match the benchmark setup: 10 Fourier terms with
    coefficient variance 1e-4 and frequency variance 6, reading noise
    variance 1e-8, a 100-point reference grid with 8 points removed per
    edge and 20 in the center (leaving 64 pairs), and 100 device-grid
    points.
    """

    n_terms: int = 10
    coeff_var: float = 1e-4
    freq_var: float = 6.0
    noise_var: float = 1e-8
    n_grid: int = 100
    edge_remove: int = 8
    center_remove: int = 20
    n1: int = 100
    n_quad: int = 2001
    n_bins: int = 60
    trials: int = 200
    seed: int = 0
    parallel: int = 1
    strict_paper: bool = False
    opt_max_iters: int = 400
    opt_rel_tol: float = 1e-9
    lut_extrapolation: str = "slope"

    def cascade_config(self) -> CascadeConfig:
        return CascadeConfig(
            optimizer=OptimizerConfig(
                max_iters=self.opt_max_iters, rel_tol=self.opt_rel_tol
            ),
            stage2_learned_noise=not self.strict_paper,
        )

    def trial_config(self) -> TrialConfig:
        return TrialConfig(
            n_terms=self.n_terms,
            coeff_var=self.coeff_var,
            freq_var=self.freq_var,
            noise_var=self.noise_var,
            n_grid=self.n_grid,
            edge_remove=self.edge_remove,
            center_remove=self.center_remove,
            n1=self.n1,
            n_quad=self.n_quad,
            cascade=self.cascade_config(),
            lut_extrapolation=self.lut_extrapolation,
        )


class _RuntimeFail(click.ClickException):
    exit_code = 1


class _ConfigFail(click.ClickException):
    exit_code = 2


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def build_config(config_path: str | None, **overrides) -> RunConfig:
    """Layer defaults, config file, and CLI overrides (None = not given)."""
    cfg = RunConfig()
    if config_path:
        try:
            with open(config_path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _ConfigFail(f"cannot read config {config_path}: {exc}")
        if not isinstance(data, dict):
            raise _ConfigFail(f"{config_path}: config must be a JSON object")
        unknown = set(data) - set(_FIELD_TYPES)
        if unknown:
            raise _ConfigFail(
                f"{config_path}: unknown config keys: {', '.join(sorted(unknown))}"
            )
        coerced = {}
        for key, value in data.items():
            want = type(getattr(cfg, key))
            if (want is bool) != isinstance(value, bool):
                raise _ConfigFail(
                    f"{config_path}: {key} must be of type {want.__name__}"
                )
            try:
                coerced[key] = want(value)
            except (TypeError, ValueError):
                raise _ConfigFail(
                    f"{config_path}: {key} must be of type {want.__name__}"
                )
        cfg = replace(cfg, **coerced)
    given = {k: v for k, v in overrides.items() if v is not None}
    if given:
        cfg = replace(cfg, **given)
    if cfg.lut_extrapolation not in lut.EXTRAPOLATION_MODES:
        raise _ConfigFail(
            f"lut_extrapolation must be one of {lut.EXTRAPOLATION_MODES}"
        )
    return cfg


def _load_any_model(path: str):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _ConfigFail(f"cannot read model {path}: {exc}")
    try:
        tag = doc["method_tag"]
        if tag == lut.METHOD_LUT:
            return LutCascade.from_dict(doc)
        return cascade.model_from_dict(doc)
    except (KeyError, ValueError, TypeError, CascalError) as exc:
        raise _ConfigFail(f"{path}: not a valid model file: {exc}")


@click.group()
@click.version_option(package_name="cascal")
def main() -> None:
    """Cascaded sensor calibration and its simulation benchmark."""


_common = [
    click.option("--config", "config_path", type=click.Path(), default=None,
                 help="Flat JSON config file; flags override it."),
    click.option("--strict-paper", "strict_paper", is_flag=True, default=None,
                 help="Disable the learned stage-two noise term (the propagated "
                      "covariance is then the only stage-two uncertainty)."),
]


def _with(options):
    def wrap(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return wrap


@main.command()
@click.option("--trials", type=int, default=None, help="Number of trials [default: 200].")
@click.option("--seed", type=int, default=None, help="Base seed; trial k uses seed+k [default: 0].")
@click.option("--out", "out_dir", type=click.Path(), required=True,
              help="Output directory for trials.csv and summary.json.")
@click.option("--parallel", type=int, default=None, help="Max worker processes [default: 1].")
@click.option("--bins", "n_bins", type=int, default=None, help="Histogram bins [default: 60].")
@click.option("--full-scale", is_flag=True, default=False,
              help="Run the full 12000-trial campaign (overrides --trials).")
@click.option("--dump-truth", is_flag=True, default=False,
              help="Also write truth_<seed>.json for every trial.")
@click.option("--n-grid", type=int, default=None, help="Reference grid size [default: 100].")
@click.option("--edge-remove", type=int, default=None,
              help="Points removed from each grid edge [default: 8].")
@click.option("--center-remove", type=int, default=None,
              help="Consecutive points removed from the grid center [default: 20].")
@click.option("--n1", type=int, default=None, help="Device grid size [default: 100].")
@click.option("--n-terms", type=int, default=None, help="Fourier terms per sensor [default: 10].")
@click.option("--coeff-var", type=float, default=None,
              help="Variance of the Fourier coefficients [default: 1e-4].")
@click.option("--freq-var", type=float, default=None,
              help="Variance of the Fourier frequencies [default: 6].")
@click.option("--noise-var", type=float, default=None,
              help="Sensor reading noise variance [default: 1e-8].")
@click.option("--n-quad", type=int, default=None,
              help="Quadrature points for the cost integral [default: 2001].")
@_with(_common)
def simulate(trials, seed, out_dir, parallel, n_bins, full_scale, dump_truth,
             n_grid, edge_remove, center_remove, n1, n_terms, coeff_var,
             freq_var, noise_var, n_quad, config_path, strict_paper) -> None:
    """Run a benchmark campaign and write trials.csv plus summary.json."""
    cfg = build_config(
        config_path,
        trials=trials, seed=seed, parallel=parallel, n_bins=n_bins,
        n_grid=n_grid, edge_remove=edge_remove, center_remove=center_remove,
        n1=n1, n_terms=n_terms, coeff_var=coeff_var, freq_var=freq_var,
        noise_var=noise_var, n_quad=n_quad, strict_paper=strict_paper,
    )
    if full_scale:
        cfg = replace(cfg, trials=12000)
    out = _ensure_dir(out_dir)
    try:
        results = montecarlo.run_campaign(
            cfg.trials, cfg.seed, cfg.trial_config(), cfg.parallel
        )
        summary = montecarlo.summarize(results, cfg.n_bins)
    except (ConfigError, ValueError) as exc:
        raise _ConfigFail(str(exc))
    except CascalError as exc:
        raise _RuntimeFail(str(exc))
    montecarlo.write_trials_csv(results, out / "trials.csv")
    montecarlo.write_summary_json(summary, out / "summary.json")
    if dump_truth:
        for r in results:
            pair, _ = sim.sample_truth_pair(
                r.seed, cfg.n_terms, cfg.coeff_var, cfg.freq_var, cfg.noise_var
            )
            sim.save_truth_pair(pair, out / f"truth_{r.seed}.json")
    _print_summary(summary)


def _print_summary(summary: montecarlo.CampaignSummary) -> None:
    click.echo(f"trials: {summary.n_trials} ok, {summary.n_flagged} flagged")
    for name in montecarlo.METHODS:
        m = summary.methods[name]
        click.echo(f"median J ({name}): {m.median:.6e}")
    wr = summary.methods["bayes"].win_rate
    click.echo(f"win rate bayes vs alt1: {wr['alt1']:.3f}")
    click.echo(f"win rate bayes vs alt2: {wr['alt2']:.3f}")


def _ensure_dir(path_str: str):
    from pathlib import Path

    path = Path(path_str)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _ConfigFail(f"cannot create output directory {path}: {exc}")
    return path


@main.command()
@click.option("--d1", "d1_path", type=click.Path(), required=True,
              help="CSV of device vs test-bed readings (header x,y).")
@click.option("--d2", "d2_path", type=click.Path(), required=True,
              help="CSV of test-bed vs reference readings (header x,y).")
@click.option("--method", type=click.Choice(["bayesian", "alt1", "lut"]),
              default="bayesian", show_default=True,
              help="Calibration method to fit.")
@click.option("--model", "model_path", type=click.Path(), required=True,
              help="Where to write the fitted model JSON.")
@_with(_common)
def calibrate(d1_path, d2_path, method, model_path, config_path, strict_paper) -> None:
    """Fit a calibration model from two dataset CSVs."""
    cfg = build_config(config_path, strict_paper=strict_paper)
    try:
        d1 = cascade.load_dataset_csv(d1_path)
        d2 = cascade.load_dataset_csv(d2_path)
    except DatasetFormatError as exc:
        raise _ConfigFail(str(exc))
    try:
        if method == "lut":
            model = lut.calibrate_lut_cascade(d1, d2, cfg.lut_extrapolation)
            doc = model.to_dict()
        else:
            ccfg = cfg.cascade_config()
            if method == "bayesian":
                fitted = cascade.calibrate_cascaded(d1, d2, ccfg)
            else:
                fitted = cascade.calibrate_alternative1(d1, d2, ccfg)
            doc = cascade.model_to_dict(fitted)
    except (CascalError, ValueError) as exc:
        raise _RuntimeFail(str(exc))
    with open(model_path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    click.echo(f"wrote {model_path}")


@main.command()
@click.option("--model", "model_path", type=click.Path(), required=True,
              help="Fitted model JSON.")
@click.option("--input", "input_path", type=click.Path(), required=True,
              help="CSV with an x column of raw readings.")
@click.option("--out", "out_path", type=click.Path(), required=True,
              help="Where to write the x,y_hat CSV.")
@click.option("--with-variance", is_flag=True, default=False,
              help="Add a var column (regression models only).")
def predict(model_path, input_path, out_path, with_variance) -> None:
    """Correct raw readings with a fitted model."""
    model = _load_any_model(model_path)
    if with_variance and not isinstance(model, CascadeModel):
        raise _ConfigFail("--with-variance requires a regression model; "
                          "lookup tables carry no variance")
    xs = _read_x_column(input_path)
    y_hat = model.apply(xs)
    var = model.apply_variance(xs) if with_variance else None
    with open(out_path, "w", newline="") as fh:
        fh.write("x,y_hat,var\n" if with_variance else "x,y_hat\n")
        for i, (x, y) in enumerate(zip(xs, y_hat)):
            row = f"{float(x)!r},{float(y)!r}"
            if var is not None:
                row += f",{float(var[i])!r}"
            fh.write(row + "\n")
    click.echo(f"wrote {out_path}")


def _read_x_column(path: str) -> np.ndarray:
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "x" not in reader.fieldnames:
                raise _ConfigFail(f"{path}: expected a CSV with an 'x' column")
            xs = []
            for row_no, row in enumerate(reader, start=2):
                try:
                    x = float(row["x"])
                except (TypeError, ValueError):
                    raise _ConfigFail(f"{path}: row {row_no}: non-numeric x")
                if not math.isfinite(x):
                    raise _ConfigFail(f"{path}: row {row_no}: non-finite x")
                xs.append(x)
    except OSError as exc:
        raise _ConfigFail(f"cannot read {path}: {exc}")
    return np.array(xs)


@main.command()
@click.option("--model", "model_path", type=click.Path(), required=True,
              help="Fitted model JSON.")
@click.option("--truth", "truth_path", type=click.Path(), required=True,
              help="Truth pair JSON to evaluate against.")
@click.option("--errors-csv", "errors_path", type=click.Path(), default=None,
              help="Optional per-point error CSV.")
@click.option("--n-quad", type=int, default=None,
              help="Quadrature points [default: 2001].")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Flat JSON config file; flags override it.")
def evaluate(model_path, truth_path, errors_path, n_quad, config_path) -> None:
    """Print the accuracy cost of a model against a known truth."""
    cfg = build_config(config_path, n_quad=n_quad)
    model = _load_any_model(model_path)
    try:
        pair = sim.load_truth_pair(truth_path)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise _ConfigFail(f"cannot read truth {truth_path}: {exc}")
    try:
        j = sim.cost_j(model.apply, pair, cfg.n_quad)
    except ConfigError as exc:
        raise _ConfigFail(str(exc))
    except CascalError as exc:
        raise _RuntimeFail(str(exc))
    if errors_path:
        lo, hi = pair.range
        y1_lo = float(sim.sensor_eval(pair.sensor1, lo))
        y1_hi = float(sim.sensor_eval(pair.sensor1, hi))
        grid = np.linspace(y1_lo, y1_hi, cfg.n_quad)
        err = np.asarray(model.apply(grid)) - sim.true_f13(pair, grid)
        with open(errors_path, "w", newline="") as fh:
            fh.write("y1,error\n")
            for g, e in zip(grid, err):
                fh.write(f"{float(g)!r},{float(e)!r}\n")
    click.echo(f"J = {j:.9e}")


@main.command()
@click.option("--trials", "trials_path", type=click.Path(), required=True,
              help="Existing trials.csv to re-summarize.")
@click.option("--out", "out_path", type=click.Path(), required=True,
              help="Where to write summary.json.")
@click.option("--bins", "n_bins", type=int, default=None,
              help="Histogram bins [default: 60].")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Flat JSON config file; flags override it.")
def summarize(trials_path, out_path, n_bins, config_path) -> None:
    """Recompute summary statistics from a trials.csv file."""
    cfg = build_config(config_path, n_bins=n_bins)
    try:
        results = montecarlo.read_trials_csv(trials_path)
    except (OSError, ValueError, ConfigError) as exc:
        raise _ConfigFail(f"cannot read trials {trials_path}: {exc}")
    try:
        summary = montecarlo.summarize(results, cfg.n_bins)
    except ConfigError as exc:
        raise _ConfigFail(str(exc))
    except CascalError as exc:
        raise _RuntimeFail(str(exc))
    montecarlo.write_summary_json(summary, out_path)
    _print_summary(summary)


if __name__ == "__main__":
    sys.exit(main())
