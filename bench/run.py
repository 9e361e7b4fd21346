"""End-to-end and per-layer benchmark of cascal.

Run from the repository root:

    python3 bench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see README.md in this directory).  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; metric names and units come from BENCHMARK.json.  Details of
the run (every operation's time, and the spans of a traced run) are written
to ``.bench_results/`` at the repository root.

BLAS threads are pinned to one, so runs on different machines compare the
package's code and not the BLAS's threading.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be >= 0")
    return args


def import_package():
    """Import cascal from this checkout's source tree; returns (modules, seconds).

    BLAS threads are pinned to one first, as they must be before numpy loads.
    """
    if not (SRC / "cascal" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'cascal'}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    cli = importlib.import_module("cascal.cli")
    elapsed = time.perf_counter() - t0
    import cascal

    if Path(cascal.__file__).resolve().parent != SRC / "cascal":
        raise SystemExit(f"error: imported cascal from {cascal.__file__}, not {SRC}")
    names = ("cascade", "gp", "kernels", "lut", "montecarlo", "numerics", "sim")
    modules = {n: importlib.import_module(f"cascal.{n}") for n in names}
    return types.SimpleNamespace(cli=cli, **modules), elapsed


def declared_metrics() -> dict:
    path = ROOT / "BENCHMARK.json"
    spec = json.loads(path.read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def environment() -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
    }


def median_rate(ops, kind) -> float:
    """Median over calls of units handled per second."""
    rates = [o.count / o.seconds for o in ops if o.kind == kind and not o.failed]
    return statistics.median(rates) if rates else 0.0


def end_to_end(run, import_s, peak_rss_mb) -> dict:
    ops = run.ops
    trial_ops = [o for o in ops if o.kind == "trial"]
    trials = run.accuracy_trials()
    return {
        "setup_s": import_s + statistics.median(run.setup_seconds),
        "trials_per_s": len(trial_ops) / sum(o.seconds for o in trial_ops),
        "j_bayes_median": statistics.median(r.j_bayes for r in trials),
        "j_alt1_median": statistics.median(r.j_alt1 for r in trials),
        "predict_readings_per_s": median_rate(ops, "mean"),
        "predict_var_readings_per_s": median_rate(ops, "var"),
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    units = declared_metrics()[args.trace]
    m, import_s = import_package()

    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="work-") as tmp:
        run = workloads.Run(m, workload, args.seed, Path(tmp))
        checker = checks.Checker()
        if args.trace:
            metrics = run.traced_run(args.seconds, checker, RESULTS / f"{tag}-spans.npz")
        else:
            for _ in range(workloads.SETUP_REPEATS):
                run.setup()
            run.loop(args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = end_to_end(run, import_s, peak_rss_mb)
        run.check(checker)

    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(units))} "
                         "do not match BENCHMARK.json")
    for failure in checker.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    attempted = len(run.ops)
    failed = sum(o.failed for o in run.ops)
    result = {
        "correct": checker.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    detail = dict(
        result=result,
        environment=environment(),
        import_s=import_s,
        setup_s=run.setup_seconds,
        checks_passed=checker.passed,
        ops=[vars(o) for o in run.ops],
    )
    (RESULTS / f"{tag}.json").write_text(json.dumps(detail))
    print(json.dumps(result))
    return 0 if checker.ok else 1


if __name__ == "__main__":
    sys.exit(main())
