"""The benchmark's workloads: what one run sets up, times and checks.

Every workload is a closed loop in one process: an operation starts only
when the one before it has finished.  The loop runs whole rounds until the
requested number of seconds has passed, and always runs at least one.

``campaign`` and ``campaign-sparse``
    A round is a serial ``montecarlo.run_campaign`` over the next trial seed
    plus ``montecarlo.summarize`` of it, then one mean-only and one
    ``--with-variance`` ``cascal predict`` call on a file of fresh readings.
    Every run starts with the same ``ACCURACY_TRIALS`` trials (seeds 0, 1,
    ...), over which the cost medians are taken, so those medians change
    only when the program's accuracy does; the trials after them come from
    ``--seed``.
``predict``
    A round is one mean-only and one ``--with-variance`` call on a file of
    fresh readings, several thousand long.  The same fixed trials run first,
    as a prelude inside the timed loop, and give the campaign figures.

Set-up, repeated and timed, fits the model the predict calls use: stage one
and the covariance-propagating stage two on the truth drawn from
``MODEL_SEED``, saved as model JSON.  Trial seeds and reading files come
from ``--seed``; the model does not, so set-up does the same work in every
run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import checks
import tracing

#: Truth seed of the model fitted during set-up.
MODEL_SEED = 0

#: Trials every campaign run starts with; the cost medians are taken over them.
ACCURACY_TRIALS = 8

#: Seeded trials of a run start at ``(seed + 1) * TRIAL_SEED_STRIDE``.
TRIAL_SEED_STRIDE = 100_000

#: How many times set-up is repeated; ``setup_s`` uses the median.
SETUP_REPEATS = 3

#: Readings of each file whose outputs are compared with the explicit-inverse posterior.
ORACLE_SAMPLE = 8

#: Cost-grid points per trial whose truth map is compared with Brent's root.
TRUTH_SAMPLE = 16


@dataclass(frozen=True)
class Workload:
    name: str
    trial_sizes: dict
    campaign: bool  # one trial per round, or none
    readings_per_file: int


WORKLOADS = {
    w.name: w
    for w in (
        # 64 reference pairs (100-point grid less 2x8 edge and 20 center points), 100 device pairs
        Workload("campaign", {}, True, 1000),
        # 26 reference pairs (40 - 2x3 - 8), 30 device pairs: the limited-data regime
        Workload(
            "campaign-sparse",
            {"n_grid": 40, "edge_remove": 3, "center_remove": 8, "n1": 30},
            True, 1000,
        ),
        Workload("predict", {}, False, 4000),
    )
}


@dataclass
class Op:
    kind: str  # "trial", "mean" or "var"
    seconds: float
    count: int  # 1 trial, or the readings of a call
    failed: int = 0


class Run:
    """One run of one workload, with everything needed to check it."""

    def __init__(self, m, workload: Workload, seed: int, workdir) -> None:
        self.m = m
        self.w = workload
        self.seed = seed
        self.dir = workdir
        self.cfg = m.montecarlo.TrialConfig(**workload.trial_sizes)
        self.model_path = workdir / "model.json"
        self.ops: list[Op] = []
        self.trials: list = []
        self.predictions: list[tuple] = []
        self.setup_seconds: list[float] = []
        self.tracer = None

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        """Fit and save the model the predict calls use."""
        m, cfg = self.m, self.cfg
        t0 = time.perf_counter()
        pair, _ = m.sim.sample_truth_pair(
            MODEL_SEED, cfg.n_terms, cfg.coeff_var, cfg.freq_var, cfg.noise_var
        )
        d1 = m.sim.generate_d1(pair, cfg.n1, m.sim.substream(MODEL_SEED, 1))
        d2 = m.sim.generate_d2(
            pair, cfg.n_grid, cfg.edge_remove, cfg.center_remove,
            m.sim.substream(MODEL_SEED, 2),
        )
        stage_one = m.cascade.calibrate_stage_one(d2, cfg.cascade)
        model = m.cascade.calibrate_cascaded(d1, d2, cfg.cascade, stage_one=stage_one)
        m.cascade.save_model(model, self.model_path)
        self.setup_seconds.append(time.perf_counter() - t0)
        self.pair = pair

    def prelude(self) -> None:
        """The predict workload's fixed trials, run before its rounds."""
        if not self.w.campaign:
            for k in range(ACCURACY_TRIALS):
                self.trial(k)

    # -- rounds --------------------------------------------------------------

    def round(self, k: int) -> None:
        if self.w.campaign:
            self.trial(k)
        xs = self._readings(k)
        inp = self.dir / "readings.csv"
        with open(inp, "w") as fh:
            fh.write("x\n")
            fh.writelines(f"{float(x)!r}\n" for x in xs)
        outputs = []
        for kind in ("mean", "var"):
            out = self.dir / f"out-{kind}.csv"
            outputs.append(self._predict(kind, inp, out, xs.size))
        if all(o is not None for o in outputs):
            self.predictions.append((xs, *outputs))

    def trial(self, k: int) -> None:
        """The run's k-th trial, as a one-seed campaign and its summary."""
        if k < ACCURACY_TRIALS:
            seed = k
        else:
            seed = (self.seed + 1) * TRIAL_SEED_STRIDE + k - ACCURACY_TRIALS
        t0 = time.perf_counter()
        results = self.m.montecarlo.run_campaign(1, seed, self.cfg, max_parallel=1)
        self.m.montecarlo.summarize(results)
        elapsed = time.perf_counter() - t0
        self.ops.append(Op("trial", elapsed, 1, sum(not r.ok for r in results)))
        self.trials.extend(results)

    def accuracy_trials(self) -> list:
        """The fixed trials the cost medians are taken over."""
        return self.trials[:ACCURACY_TRIALS]

    def _readings(self, k: int) -> np.ndarray:
        """Raw device readings spread over the model's calibrated range."""
        grid = checks.cost_grid(self.pair, 2)
        rng = np.random.default_rng([self.seed, k])
        return rng.uniform(grid[0], grid[1], self.w.readings_per_file)

    def _predict(self, kind: str, inp, out, n: int):
        args = ["predict", "--model", str(self.model_path), "--input", str(inp), "--out", str(out)]
        if kind == "var":
            args.append("--with-variance")
        echo = io.StringIO()
        span = self.tracer.span("cli.predict") if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(echo):
                self.m.cli.main.main(args=args, standalone_mode=False)
        except Exception:  # a failed call is counted and reported, not fatal to the run
            self.ops.append(Op(kind, time.perf_counter() - t0, n, 1))
            traceback.print_exc(file=sys.stderr)
            return None
        self.ops.append(Op(kind, time.perf_counter() - t0, n))
        return read_rows(out)

    def loop(self, seconds: float) -> int:
        """Run the prelude, then whole rounds until ``seconds`` have passed.

        A campaign runs at least its ``ACCURACY_TRIALS`` rounds.  Returns the
        number of rounds run.
        """
        deadline = time.perf_counter() + seconds
        self.prelude()
        k = 0
        while self._more_rounds(k, deadline):
            self.round(k)
            k += 1
        return k

    def _more_rounds(self, done: int, deadline: float) -> bool:
        least = ACCURACY_TRIALS if self.w.campaign else 1
        return done < least or time.perf_counter() < deadline

    def traced_run(self, seconds: float, checker: checks.Checker, spans_path) -> dict:
        """Run every step twice, plain and then traced, for ``seconds``.

        Set-up, the prelude's trials and each round run back to back in both
        forms on identical inputs, so the overhead (the median over
        operations of traced time over plain time) is measured on the same
        work at nearly the same moment.
        Counts cover the traced set-up, prelude and first round.  Returns
        the per-layer metrics; the trials kept for checking are the plain
        ones, which the traced ones must equal.
        """
        tracer = tracing.Tracer()
        plain = ([], [])
        traced = ([], [])

        def both(step, *args):
            for record in (plain, traced):
                self.ops, self.trials = record
                if record is traced:
                    tracer.install(self.m)
                    self.tracer = tracer
                try:
                    step(*args)
                finally:
                    tracer.uninstall()
                    self.tracer = None

        deadline = time.perf_counter() + seconds
        both(self.setup)
        if not self.w.campaign:
            for k in range(ACCURACY_TRIALS):
                both(self.trial, k)
        both(self.round, 0)
        count_mark = tracer.mark()
        k = 1
        while self._more_rounds(k, deadline):
            both(self.round, k)
            k += 1
        tracer.save(spans_path)

        self.ops = plain[0] + traced[0]
        self.trials = plain[1]
        checker.run("tracing leaves trials unchanged", checks.check_trials_equal,
                    plain[1], traced[1])
        metrics = tracing.layer_metrics(tracer, count_mark)
        ratios = [t.seconds / p.seconds for p, t in zip(plain[0], traced[0])]
        metrics["trace.overhead_pct"] = 100.0 * (float(np.median(ratios)) - 1.0)
        return metrics

    # -- checks --------------------------------------------------------------

    def check(self, checker: checks.Checker) -> None:
        """Check every prediction file and every trial."""
        for name, fn, args in self.all_checks():
            checker.run(name, fn, *args)

    def all_checks(self):
        """Every check of the run, as (name, function, arguments)."""
        model = self.m.cascade.load_model(self.model_path)
        s2 = model.stage_two
        reference = checks.Posterior(
            s2.train.inputs, s2.train.targets, s2.train.target_cov, s2.hp, s2.mean
        )
        for xs, mean_rows, var_rows in self.predictions:
            yield ("prediction files", checks.check_prediction_files,
                   (xs, mean_rows, var_rows, model.apply(xs)))
            yield ("variance range", checks.check_variance_range,
                   (var_rows[:, 2], s2.hp.signal_variance))
            pick = np.linspace(0, xs.size - 1, ORACLE_SAMPLE).astype(int)
            yield ("posterior sample", checks.check_posterior_sample,
                   (reference, xs[pick], var_rows[pick, 1], var_rows[pick, 2]))
        yield ("costs valid", checks.check_costs_valid, (self.trials,))
        if self.w.campaign:
            yield ("bayes beats lookup tables", checks.check_bayes_beats_lut, (self.trials,))
        for r in self.trials:
            if r.ok:
                yield from self.trial_checks(r)

    def trial_checks(self, r):
        """Recompute one trial's bayes cost, evidence and truth map by reference."""
        m, cfg = self.m, self.cfg
        pair, _ = m.sim.sample_truth_pair(
            r.seed, cfg.n_terms, cfg.coeff_var, cfg.freq_var, cfg.noise_var
        )
        d1 = m.sim.generate_d1(pair, cfg.n1, m.sim.substream(r.seed, 1))
        d2 = m.sim.generate_d2(
            pair, cfg.n_grid, cfg.edge_remove, cfg.center_remove, m.sim.substream(r.seed, 2)
        )
        mean = cfg.cascade.prior_mean
        cost, stage_one, stage_two = checks.bayes_cost(
            pair, d1, d2, r.hp_stage_one, r.hp_stage_two, mean, cfg.n_quad
        )
        yield ("bayes cost", checks.check_cost_matches, (r.seed, r.j_bayes, cost))
        for label, chosen in (("stage one", stage_one), ("stage two", stage_two)):
            hp0 = m.gp.default_hp0(m.gp.TrainingSet.exact(chosen.inputs, chosen.targets), mean)
            start = checks.Posterior(chosen.inputs, chosen.targets, chosen.target_cov, hp0, mean)
            yield ("evidence", checks.check_lml_not_below_start,
                   (f"seed {r.seed} {label}", chosen, start))
        grid = checks.cost_grid(pair, cfg.n_quad)
        pick = grid[np.linspace(0, grid.size - 1, TRUTH_SAMPLE).astype(int)]
        lo, hi = pair.range
        yield ("truth map", checks.check_truth_map,
               (pair.sensor1, pick, m.sim.true_f13(pair, pick), lo - 0.05, hi + 0.05))


def read_rows(path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return np.array([[float(v) for v in row] for row in reader])
