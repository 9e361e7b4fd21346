"""Self-test of the benchmark: its checks pass, and fail on perturbed input.

Run from the repository root (takes about ten seconds):

    python3 bench/selftest.py

Each workload runs one round at its own size.  Every check the run makes
must pass on the real outputs; then, for each kind of check, one input is
perturbed and the check must reject it.  Last, the benchmark must refuse to
run, printing no result, in a directory that holds no package source.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import run as bench
import workloads

ROOT = bench.ROOT


def offset_one(a, column=None, amount=1e-6):
    a = a.copy()
    if column is None:
        a[len(a) // 2] += amount
    else:
        a[len(a) // 2, column] += amount
    return a


def replace_first(results, **changes):
    return [dataclasses.replace(results[0], **changes)] + list(results[1:])


#: For each kind of check, ways to perturb its arguments that it must reject.
PERTURBATIONS = {
    "prediction files": [
        ("offset on one mean-only prediction",
         lambda xs, mr, vr, exp: (xs, offset_one(mr, 1), vr, exp)),
        ("offset on one with-variance prediction",
         lambda xs, mr, vr, exp: (xs, mr, offset_one(vr, 1), exp)),
        ("both files off from the in-memory result",
         lambda xs, mr, vr, exp: (xs, mr, vr, offset_one(exp))),
        ("one reading echoed wrong",
         lambda xs, mr, vr, exp: (xs, offset_one(mr, 0), vr, exp)),
        ("a row missing", lambda xs, mr, vr, exp: (xs, mr[:-1], vr, exp)),
    ],
    "variance range": [
        ("one negative variance", lambda var, sv: (offset_one(var, amount=-2 * var.max() - 1e-30), sv)),
        ("one variance above the prior", lambda var, sv: (offset_one(var, amount=sv), sv)),
    ],
    "posterior sample": [
        ("offset on one predicted mean",
         lambda ref, y, mean, var: (ref, y, offset_one(mean, amount=1e-9), var)),
        ("offset on one predicted variance",
         lambda ref, y, mean, var: (ref, y, mean, offset_one(var, amount=1e-6 * ref.hp.signal_variance))),
    ],
    "costs valid": [
        ("a flagged trial", lambda rs: (replace_first(rs, flag="ValueError: injected"),)),
        ("a NaN cost", lambda rs: (replace_first(rs, j_alt1=math.nan),)),
        ("a zero cost", lambda rs: (replace_first(rs, j_bayes=0.0),)),
    ],
    "bayes beats lookup tables": [
        ("bayes and lookup-table costs swapped",
         lambda rs: ([dataclasses.replace(r, j_bayes=r.j_alt2, j_alt2=r.j_bayes) for r in rs],)),
    ],
    "bayes cost": [
        ("reported cost off by 1e-6 of itself",
         lambda seed, j, ref: (seed, j * (1 + 1e-6), ref)),
    ],
    "evidence": [
        ("start and chosen hyperparameters swapped",
         lambda label, chosen, start: (label, start, chosen)),
    ],
    "truth map": [
        ("one mapped position off by 1 nm",
         lambda t, y, mapped, lo, hi: (t, y, offset_one(mapped, amount=1e-9), lo, hi)),
    ],
}


def run_workload(m, name: str, workdir: Path):
    run = workloads.Run(m, workloads.WORKLOADS[name], seed=0, workdir=workdir)
    run.setup()
    if not run.w.campaign:
        run.trial(0)
    run.round(0)
    return run


def check_perturbations(run, seen: set) -> list[str]:
    """Every check passes on the run's output and rejects each perturbation."""
    problems = []
    tried = set()
    for name, fn, args in run.all_checks():
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            problems.append(f"{run.w.name}: {name} fails on real output: {exc}")
            continue
        if name in tried:
            continue
        tried.add(name)
        for label, perturb in PERTURBATIONS[name]:
            try:
                fn(*perturb(*args))
            except checks.CheckFailed:
                print(f"ok   {run.w.name:16s} {name}: rejects {label}")
            else:
                problems.append(f"{run.w.name}: {name} accepts {label}")
    seen |= tried
    return problems


def check_tracing_equality(run) -> list[str]:
    changed = replace_first(run.trials, j_alt1=run.trials[0].j_alt1 * (1 + 1e-12))
    try:
        checks.check_trials_equal(run.trials, changed)
    except checks.CheckFailed:
        print(f"ok   {run.w.name:16s} tracing equality: rejects one changed cost")
        return []
    return ["tracing equality accepts a changed cost"]


def check_refuses_without_source() -> list[str]:
    """The benchmark must fail, printing no result, without the package."""
    with tempfile.TemporaryDirectory(dir=bench.RESULTS, prefix="bare-") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "campaign", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    if proc.returncode == 0 or "{" in proc.stdout:
        return [f"run without package source exited {proc.returncode} "
                f"and printed {proc.stdout!r}"]
    print(f"ok   without package source: exit {proc.returncode}, no result")
    return []


def main() -> int:
    m, _ = bench.import_package()
    bench.RESULTS.mkdir(exist_ok=True)
    problems = []
    seen: set = set()
    with tempfile.TemporaryDirectory(dir=bench.RESULTS, prefix="selftest-") as tmp:
        for name in ("campaign", "campaign-sparse", "predict"):
            workdir = Path(tmp) / name
            workdir.mkdir()
            run = run_workload(m, name, workdir)
            problems += check_perturbations(run, seen)
            problems += check_tracing_equality(run)
    problems += [f"check {n!r} never ran" for n in sorted(set(PERTURBATIONS) - seen)]
    problems += check_refuses_without_source()
    for p in problems:
        print(f"FAIL {p}")
    print(json.dumps({"selftest": "pass" if not problems else "fail", "problems": len(problems)}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
