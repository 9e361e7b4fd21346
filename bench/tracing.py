"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into the package's layers by replacing
each function under the name its callers look it up by.  ``gp`` binds
``factor_psd`` and ``kernel_matrix`` at import, so those are replaced in
``gp``'s namespace as well as in their home modules; methods are replaced
on the class.  Nothing in the package is edited: :meth:`Tracer.uninstall`
puts every original back.

A span holds its name, start, end and the index of its parent span.  The
arrays stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: dict[str, int] = {}
        self._stack = [-1]
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    # -- installing wrappers -----------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(self, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self, cascal_modules) -> None:
        for owner, attr, name, on_result in layer_table(cascal_modules):
            self.wrap(owner, attr, name, on_result)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def mark(self) -> tuple:
        """Position in the record, for counts over a fixed block of work."""
        return len(self.names), dict(self.counters)

    # -- reading back ------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=object),
            "parents": np.array(self.parents, dtype=np.int64),
            "durations": np.array(self.ends) - np.array(self.starts),
        }

    def save(self, path) -> None:
        """Write the spans as arrays; ``names`` indexes into ``layers``."""
        layers = sorted(set(self.names))
        code = {name: i for i, name in enumerate(layers)}
        np.savez(
            path,
            layers=np.array(layers),
            names=np.array([code[n] for n in self.names], dtype=np.int32),
            parents=np.array(self.parents, dtype=np.int64),
            starts=np.array(self.starts),
            ends=np.array(self.ends),
        )


def _count_jitter(tracer: Tracer, factor) -> None:
    if factor.jitter_used > 0:
        tracer.count("numerics.jittered_factors")


def _count_rejected(tracer: Tracer, result) -> None:
    tracer.count("sim.truth_draws_rejected", result[1])


def layer_table(m) -> list:
    """(owner, attribute, span name, result hook) for every traced layer."""
    return [
        (m.montecarlo, "run_trial", "montecarlo.run_trial", None),
        (m.montecarlo, "summarize", "montecarlo.summarize", None),
        (m.sim, "sample_truth_pair", "sim.sample_truth_pair", _count_rejected),
        (m.sim, "generate_d1", "sim.generate_d1", None),
        (m.sim, "generate_d2", "sim.generate_d2", None),
        (m.sim, "cost_j", "sim.cost_j", None),
        (m.sim, "invert_sensor", "sim.invert_sensor", None),
        (m.lut, "calibrate_lut_cascade", "lut.calibrate_lut_cascade", None),
        (m.cascade, "calibrate_stage_one", "cascade.calibrate_stage_one", None),
        (m.cascade, "propagate", "cascade.propagate", None),
        (m.cascade, "calibrate_cascaded", "cascade.calibrate_cascaded", None),
        (m.cascade, "calibrate_alternative1", "cascade.calibrate_alternative1", None),
        (m.cascade, "model_from_dict", "cascade.load_model", None),
        (m.cascade.CascadeModel, "apply", "cascade.apply", None),
        (m.cascade.CascadeModel, "apply_variance", "cascade.apply_variance", None),
        (m.gp, "optimize_hyperparameters", "gp.optimize_hyperparameters", None),
        (m.gp, "log_marginal_likelihood", "gp.log_marginal_likelihood", None),
        (m.gp, "predict_mean", "gp.predict_mean", None),
        (m.gp, "predict_cov", "gp.predict_cov", None),
        (m.gp, "factor_psd", "numerics.factor_psd", _count_jitter),
        (m.numerics, "factor_psd", "numerics.factor_psd", _count_jitter),
        (m.gp, "kernel_matrix", "kernels.kernel_matrix", None),
        (m.kernels, "kernel_matrix", "kernels.kernel_matrix", None),
    ]


#: Per-layer time metrics read straight off one kind of span.
SPAN_TIMES = {
    "gp.optimize_hyperparameters_ms": "gp.optimize_hyperparameters",
    "numerics.factor_psd_ms": "numerics.factor_psd",
    "kernels.kernel_matrix_ms": "kernels.kernel_matrix",
    "cascade.calibrate_stage_one_ms": "cascade.calibrate_stage_one",
    "cascade.propagate_ms": "cascade.propagate",
    "sim.sample_truth_pair_ms": "sim.sample_truth_pair",
    "sim.generate_d1_ms": "sim.generate_d1",
    "sim.generate_d2_ms": "sim.generate_d2",
    "sim.cost_j_ms": "sim.cost_j",
    "lut.calibrate_lut_cascade_ms": "lut.calibrate_lut_cascade",
    "montecarlo.run_trial_ms": "montecarlo.run_trial",
    "montecarlo.summarize_ms": "montecarlo.summarize",
    "gp.predict_mean_ms": "gp.predict_mean",
    "gp.predict_cov_ms": "gp.predict_cov",
    "cascade.apply_ms": "cascade.apply",
    "cascade.apply_variance_ms": "cascade.apply_variance",
    "cascade.load_model_ms": "cascade.load_model",
}

#: Per-layer counts of one kind of span.
SPAN_COUNTS = {
    "numerics.factor_psd_calls": "numerics.factor_psd",
    "kernels.kernel_matrix_calls": "kernels.kernel_matrix",
    "sim.invert_sensor_calls": "sim.invert_sensor",
}


def _mean_ms(durations: np.ndarray) -> float:
    """Busy time per call: a layer called at several sizes gets a weighted figure."""
    return float(np.mean(durations)) * 1e3 if durations.size else 0.0


def layer_metrics(tracer: Tracer, count_mark: tuple) -> dict:
    """Per-layer figures from the recorded spans.

    Times are the mean per call over every span.  Counts cover the spans
    recorded before ``count_mark``, a block of work fixed by the seed, so
    they repeat exactly from run to run.
    """
    a = tracer.arrays()
    names, parents, dur = a["names"], a["parents"], a["durations"]

    def children(child_name=None):
        """Summed duration of each span's direct children (optionally of one kind)."""
        mask = parents >= 0
        if child_name is not None:
            mask &= names == child_name
        return np.bincount(parents[mask], weights=dur[mask], minlength=len(names))

    def self_ms(name, child_name=None):
        spans = names == name
        return _mean_ms(dur[spans] - children(child_name)[spans])

    bound, counters = count_mark
    scoped = names[:bound]
    fits = int(np.sum(scoped == "gp.optimize_hyperparameters"))
    lml_calls = int(np.sum(scoped == "gp.log_marginal_likelihood"))

    metrics = {key: _mean_ms(dur[names == span]) for key, span in SPAN_TIMES.items()}
    metrics.update({key: int(np.sum(scoped == span)) for key, span in SPAN_COUNTS.items()})
    metrics.update({
        "gp.lml_evals_per_fit": lml_calls / fits if fits else 0.0,
        "gp.lml_eval_us": 1e3 * _mean_ms(dur[names == "gp.log_marginal_likelihood"]),
        "numerics.jittered_factors": counters.get("numerics.jittered_factors", 0),
        "sim.truth_draws_rejected": counters.get("sim.truth_draws_rejected", 0),
        "cascade.stage_two_bayes_ms": self_ms("cascade.calibrate_cascaded", "cascade.propagate"),
        "cascade.stage_two_alt1_ms": self_ms("cascade.calibrate_alternative1", "gp.predict_mean"),
        "cli.predict_self_ms": self_ms("cli.predict"),
    })
    return metrics
