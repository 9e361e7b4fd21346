"""Command-line interface: simulate, calibrate, predict, evaluate, summarize.

Every command is deterministic given its flags, input files, and --seed;
nothing is ever derived from the clock.  Values come from built-in
defaults, overridden by a flat JSON config file (--config), overridden by
command-line flags, in that order.

``build_config`` builds the ``RunConfig``, which checks every value
(``sim.Problem`` the simulated problem's sizes, ``TrialConfig`` the rest of
a trial's, ``RunConfig`` the campaign's), so a bad value exits 2 before a
command reads or writes any file.

The command runs on one BLAS thread unless the environment sets another
count: the Gram matrices are small, so threads cost time, and a different
count changes the last bits of the results.  The variables are set before
numpy loads, and ``--parallel``'s workers inherit them.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import click

# Before numpy loads: the BLAS reads its thread count once, when it loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from . import cascade, lut, montecarlo, sim
from ._record import finite, read_json, read_table, table_line, write_json, write_table
from .cascade import CascadeModel
from .errors import CascalError, ConfigError, DatasetFormatError, NonMonotonic
from .montecarlo import TrialConfig


@dataclass(frozen=True)
class RunConfig(TrialConfig):
    """A campaign: its trials' settings, size, base seed, workers and bins."""

    trials: int = 200
    seed: int = 0
    parallel: int = 1
    n_bins: int = montecarlo.N_BINS

    def __post_init__(self) -> None:
        super().__post_init__()
        montecarlo.check_campaign(self.trials, self.seed)
        montecarlo.check_n_bins(self.n_bins)
        if self.parallel < 1:
            raise ConfigError(f"parallel must be >= 1, got {self.parallel}")


def _config_from_doc(doc) -> RunConfig:
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    defaults = RunConfig().to_dict()
    unknown = set(doc) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return RunConfig.from_dict({**defaults, **doc})


def build_config(config_path: str | None, **overrides) -> RunConfig:
    """Layer defaults, config file, and CLI overrides (None = not given)."""
    cfg = RunConfig()
    if config_path:
        cfg = read_json(config_path, "config file", _config_from_doc)
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def _exit(code: int, error: Exception) -> click.ClickException:
    fail = click.ClickException(str(error))
    fail.exit_code = code
    return fail


class _Cascal(click.Group):
    """The one place where an error from a command becomes its exit code.

    Exit 2: input that cannot be used as given, that is a config, dataset,
    readings, model, truth or trials file that does not parse
    (ConfigError or DatasetFormatError), a model and truth whose J is not
    finite, or a path that cannot be read or written (an OSError naming a
    file).
    Exit 1: any other toolkit error or ValueError, such as an all-flagged
    campaign or a non-invertible truth.
    """

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ConfigError, DatasetFormatError) as error:
            raise _exit(2, error)
        except OSError as error:
            if error.filename is None:
                raise
            raise _exit(2, error)
        except (CascalError, ValueError) as error:
            raise _exit(1, error)


@click.group(cls=_Cascal)
@click.version_option(package_name="cascal")
def main() -> None:
    """Cascaded sensor calibration and its simulation benchmark."""


_config = click.option("--config", "config_path", type=click.Path(), default=None,
                       help="Flat JSON config file; flags override it.")
_common = [
    _config,
    click.option("--strict-paper", "strict_paper", is_flag=True, default=None,
                 help="Pin the stage-two noise at 0 (stage two then sees the "
                      "propagated covariance plus stage one's noise variance)."),
]


def _with(options):
    def wrap(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return wrap


def _value_option(name: str, text: str, flag: str | None = None):
    """A flag overriding RunConfig.<name>; its help shows the default."""
    default = getattr(RunConfig, name)
    return click.option(
        flag or "--" + name.replace("_", "-"), name, type=type(default),
        default=None, help=f"{text} [default: {default:g}]",
    )


_n_bins = _value_option("n_bins", "Histogram bins.", flag="--bins")
_n_quad = _value_option("n_quad", "Quadrature points for the cost integral.")

_simulate_values = [
    _value_option("trials", "Number of trials."),
    _value_option("seed", "Base seed; trial k uses seed+k."),
    _value_option("parallel", "Max worker processes."),
    _n_bins,
    _value_option("n_grid", "Reference grid size."),
    _value_option("edge_remove", "Points removed from each grid edge."),
    _value_option("center_remove", "Consecutive points removed from the grid center."),
    _value_option("n1", "Device grid size."),
    _value_option("n_terms", "Fourier terms per sensor."),
    _value_option("coeff_var", "Variance of the Fourier coefficients."),
    _value_option("freq_var", "Variance of the Fourier frequencies."),
    _value_option("noise_var", "Sensor reading noise variance."),
    _n_quad,
]


#: Campaign size of ``simulate --full-scale``.
FULL_SCALE_TRIALS = 12000


@main.command()
@click.option("--out", "out_dir", type=click.Path(), required=True,
              help="Output directory for trials.csv and summary.json.")
@click.option("--full-scale", is_flag=True, default=False,
              help=f"Run the full {FULL_SCALE_TRIALS}-trial campaign "
                   "(overrides --trials).")
@click.option("--dump-truth", is_flag=True, default=False,
              help="Also write truth_<seed>.json for every trial.")
@_with(_simulate_values + _common)
def simulate(out_dir, full_scale, dump_truth, config_path, strict_paper,
             **values) -> None:
    """Run a benchmark campaign and write trials.csv plus summary.json."""
    if full_scale:
        values["trials"] = FULL_SCALE_TRIALS
    cfg = build_config(config_path, strict_paper=strict_paper, **values)
    out = Path(out_dir)
    made = [p for p in (out, *out.parents) if not p.exists()]  # deepest first
    out.mkdir(parents=True, exist_ok=True)
    try:
        results = montecarlo.run_campaign(cfg.trials, cfg.seed, cfg, cfg.parallel)
    except BaseException:
        # A campaign that stops, say on ScipyIncompatible, leaves no
        # directory behind that this run made.
        for p in made:
            p.rmdir()
        raise
    # trials.csv first: its flags explain an all-flagged campaign.
    montecarlo.write_trials_csv(results, out / "trials.csv")
    _summarize(out / "trials.csv", out / "summary.json", cfg.n_bins)
    if dump_truth:
        for r in results:
            try:
                pair, _ = sim.sample_truth_pair(
                    r.seed, cfg.n_terms, cfg.coeff_var, cfg.freq_var, cfg.noise_var
                )
            except NonMonotonic:  # no truth: its trials.csv row is flagged
                continue
            sim.save_truth_pair(pair, out / f"truth_{r.seed}.json")


def _summarize(trials_path, out_path, n_bins: int) -> None:
    """summary.json from a trials.csv as read back, and its medians printed."""
    summary = montecarlo.summarize(montecarlo.read_trials_csv(trials_path), n_bins)
    write_json(out_path, summary.to_dict())
    click.echo(f"trials: {summary.n_trials} ok, {summary.n_flagged} flagged")
    for name in montecarlo.METHODS:
        m = summary.methods[name]
        click.echo(f"median J ({name}): {m.median:.6e}")
    wr = summary.methods["bayes"].win_rate
    click.echo(f"win rate bayes vs alt1: {wr['alt1']:.3f}")
    click.echo(f"win rate bayes vs alt2: {wr['alt2']:.3f}")


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
    d1 = cascade.load_dataset_csv(d1_path)
    d2 = cascade.load_dataset_csv(d2_path)
    if method == "lut":
        model = lut.calibrate_lut_cascade(d1, d2, cfg.lut_extrapolation)
    elif method == "bayesian":
        model = cascade.calibrate_cascaded(d1, d2, cfg.cascade)
    else:
        model = cascade.calibrate_alternative1(d1, d2, cfg.cascade)
    cascade.save_model(model, model_path)
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
    model = cascade.load_model(model_path)
    if with_variance and not isinstance(model, CascadeModel):
        raise ConfigError("--with-variance requires a regression model; "
                          "lookup tables carry no variance")
    xs = np.array(read_table(input_path, {"x": finite})[0])
    columns = {"x": xs}
    with np.errstate(over="ignore"):  # an overflow is reported below
        if with_variance:
            columns["y_hat"], columns["var"] = model.apply_with_variance(xs)
        else:
            columns["y_hat"] = model.apply(xs)
    for name, values in columns.items():
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            i = int(bad[0])
            raise DatasetFormatError(
                f"{input_path}: row {table_line(input_path, i)}: "
                f"x = {float(xs[i])!r} gives a non-finite {name}"
            )
    write_table(out_path, columns)
    click.echo(f"wrote {out_path}")


@main.command()
@click.option("--model", "model_path", type=click.Path(), required=True,
              help="Fitted model JSON.")
@click.option("--truth", "truth_path", type=click.Path(), required=True,
              help="Truth pair JSON to evaluate against.")
@click.option("--errors-csv", "errors_path", type=click.Path(), default=None,
              help="Optional per-point error CSV.")
@_n_quad
@_config
def evaluate(model_path, truth_path, errors_path, n_quad, config_path) -> None:
    """Print the accuracy cost of a model against a known truth."""
    cfg = build_config(config_path, n_quad=n_quad)
    model = cascade.load_model(model_path)
    pair = sim.load_truth_pair(truth_path)
    with np.errstate(all="ignore"):  # a non-finite J is reported below
        grid, err, j = sim.score(model.apply, pair, cfg.n_quad)
    if not np.isfinite(j):
        raise DatasetFormatError(f"{truth_path}: the model's J against this truth "
                                 f"is not finite ({j})")
    if errors_path:
        write_table(errors_path, {"y1": grid, "error": err})
    click.echo(f"J = {j:.9e}")


@main.command()
@click.option("--trials", "trials_path", type=click.Path(), required=True,
              help="Existing trials.csv to re-summarize.")
@click.option("--out", "out_path", type=click.Path(), required=True,
              help="Where to write summary.json.")
@_n_bins
@_config
def summarize(trials_path, out_path, n_bins, config_path) -> None:
    """Recompute summary statistics from a trials.csv file."""
    _summarize(trials_path, out_path, build_config(config_path, n_bins=n_bins).n_bins)


if __name__ == "__main__":
    sys.exit(main())
