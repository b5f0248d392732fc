"""Benchmark of one ``poincare-chaos run``, measured from outside the package.

Usage (from the repository root):

    python3 perfbench/run.py --workload toy-boot --seed 1 --seconds 40 --trace 0

Every workload in turn:

    for w in toy-boot flood-val flood-pool; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 40 --trace 0; done

Every timed run calls the public ``run_experiment`` in a fresh interpreter
with a fresh output directory, so no in-process cache (the runner's basis
cache, a test fixture cache) carries an eigensolve from one run to the next.
Runs repeat until ``--seconds`` is used up; timings are medians over runs.
Run i of seed s uses the experiment seed 1000 * s + i.  Each run is followed
by an interpreter that only imports the package and loads the config, so
``setup_s`` is the median of twice as many set-ups as there are runs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half of
``--seconds`` on such untraced runs, then makes one sequential traced run and
prints the per-layer metrics (see ``layers.py``).  Every run's outputs are
checked; the per-run timings, environment and produced numbers (median
errors per method and design size, total Sobol' indices, the oracle) are
written to ``.perfbench_out/`` in the repository root.  The last stdout line
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
MIN_RUNS = 3        # accuracy metrics use exactly the first MIN_RUNS runs
# One BLAS thread per process: workers x threads <= nproc on two cores, and a
# second BLAS thread made run_s and peak RSS noisier on a 2-core host.
BLAS_THREADS = 1
EIGEN_ORACLE_TOL = 1e-3

END_TO_END = {
    "run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "fit_ok_ratio": "ratio",
}
# Seed-dependent accuracy of the fits: reported, not gated (see CHANGES.md).
ACCURACY = {"l2_err_combined": "mse", "sobol_err_max": "abs"}
PER_LAYER = {
    "spectral.build_basis_s": "s", "spectral.build_basis_calls": "count",
    "spectral.basis_reuse_ratio": "ratio",
    "spectral.eval_s": "s", "spectral.eval_calls": "count", "spectral.eval_points": "count",
    "weights.wlin_s": "s", "weights.wlin_calls": "count",
    "weights.existence_s": "s", "weights.existence_calls": "count",
    "chaos.design_s": "s", "chaos.design_calls": "count", "chaos.design_cells": "count",
    "chaos.predict_s": "s", "chaos.predict_rows": "count", "chaos.predict_fits": "count",
    "chaos.predict_union_cols": "count",
    "regression.lars_loo_s": "s", "regression.lars_loo_calls": "count",
    "regression.path_steps": "count", "regression.selected_over_path": "ratio",
    "regression.cap_hit_ratio": "ratio",
    "gsa.indices_s": "s", "gsa.indices_calls": "count",
    "bench.model_s": "s", "bench.model_rows": "count", "bench.oracle_s": "s",
    "measures.sample_s": "s", "measures.sample_rows": "count",
    "cli.self_s": "s", "cli.prologue_s": "s", "cli.output_bytes": "B",
    "trace.run_s": "s", "trace.overhead_s": "s",
    "check.bound_violations": "count", "check.eigen_oracle_rel_err": "ratio",
    **{f"result.{k}": u for k, u in ACCURACY.items()},
}


@dataclass(frozen=True)
class Workload:
    config: dict
    workers: int                 # POINCARE_CHAOS_WORKERS of the timed runs
    max_l2_err: float            # ceilings of the output check, well above the values seen
    max_sobol_err: float = 0.1


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "toy-boot": Workload(
        config=dict(model="toy", model_options={"d": 4}, weight="wlin", degree=8,
                    ed_sizes=[50, 200], n_replications=1, n_bootstrap=1,
                    validation_size=5_000, mesh_size=1000, reference_n_mc=10_000),
        workers=1, max_l2_err=1e-3),
    "flood-val": Workload(
        config=dict(model="flood", weight="wlin", degree=5, ed_sizes=[40],
                    n_replications=1, n_bootstrap=0, validation_size=10_000,
                    mesh_size=800, reference_n_mc=10_000),
        workers=1, max_l2_err=1e-3, max_sobol_err=0.3),
    "flood-pool": Workload(
        config=dict(model="flood", weight="unweighted", degree=5, ed_sizes=[30, 60],
                    n_replications=2, n_bootstrap=1, validation_size=5_000,
                    mesh_size=600, reference_n_mc=10_000),
        workers=2, max_l2_err=1e-3, max_sobol_err=0.3),
}


def git_sha(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def fits_attempted(config: dict) -> int:
    from poincare_chaos import cli

    return len(config["ed_sizes"]) * config["n_replications"] * len(cli.METHODS) \
        * (1 + config["n_bootstrap"])


def expected_rows(config: dict) -> int:
    """results.csv data rows of a run in which every fit succeeds."""
    from poincare_chaos import get_model

    d = get_model(config["model"], **config.get("model_options", {})).dimension
    return fits_attempted(config) * (2 + 2 * d) + d


def _finite_numbers(obj) -> bool:
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_numbers(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def check_outputs(out_dir: Path, workload: Workload, config: dict) -> tuple[list[str], dict]:
    """Problems found in one run's outputs, and the numbers the run produced."""
    from poincare_chaos import cli

    csv_path, summary_path = out_dir / "results.csv", out_dir / "summary.json"
    if not csv_path.is_file() or not summary_path.is_file():
        return ["results.csv or summary.json missing"], {}
    problems = []
    with open(csv_path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = list(reader)
    if header != list(cli.CSV_COLUMNS):
        return [f"results.csv header {header}"], {}
    try:
        with open(summary_path) as fh:
            summary = json.load(fh)
    except json.JSONDecodeError as exc:
        return [f"summary.json unreadable: {exc}"], {}
    if not _finite_numbers(summary):
        problems.append("summary.json holds a non-finite number")
    if len(rows) != expected_rows(config):
        problems.append(f"{len(rows)} result rows, expected {expected_rows(config)}")

    groups: dict[tuple, list[float]] = {}
    reference = {}
    for method, ed, _, _, metric, var, value in rows:
        v = float(value)
        if not math.isfinite(v):
            problems.append(f"non-finite {metric} for {method} ed={ed}")
            continue
        if method == "reference":
            reference[var] = v
        else:
            groups.setdefault((method, int(ed), metric, var), []).append(v)
    med = {k: statistics.median(v) for k, v in groups.items()}
    top = config["ed_sizes"][-1]
    produced = {
        "l2_error": {f"{m}:{ed}": v for (m, ed, metric, _), v in med.items() if metric == "l2_error"},
        "h1_error": {f"{m}:{ed}": v for (m, ed, metric, _), v in med.items() if metric == "h1_error"},
        "total_sobol": {f"{m}:{var}": v for (m, ed, metric, var), v in med.items()
                        if metric == "total_sobol" and ed == top},
        "reference": reference,
    }
    l2 = produced["l2_error"].get(f"combined:{top}", math.inf)
    sobol = max((abs(produced["total_sobol"].get(f"combined:{var}", math.inf) - ref)
                 for var, ref in reference.items()), default=math.inf)
    produced.update(l2_err_combined=l2, sobol_err_max=sobol)
    if not l2 <= workload.max_l2_err:
        problems.append(f"combined L2 error {l2:.3g} above {workload.max_l2_err:g}")
    if not sobol <= workload.max_sobol_err:
        problems.append(f"total Sobol' error {sobol:.3g} above {workload.max_sobol_err:g}")
    return problems, produced


def run_child(root: Path, work: Path, config: dict, job: dict, workers: int,
              timeout: float) -> list[str]:
    """Run child.py on ``job`` in a new interpreter; the problems it had, if any.

    ``job`` gets the paths of its config (written here), the package source
    and the result file ``work/result.json``.
    """
    (work / "config.json").write_text(json.dumps(config))
    job = dict(job, config=str(work / "config.json"), src=str(root / "src"),
               result=str(work / "result.json"))
    (work / "job.json").write_text(json.dumps(job))
    threads = str(BLAS_THREADS)
    env = dict(os.environ, POINCARE_CHAOS_WORKERS=str(workers),
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "child.py"), str(work / "job.json")]
    spawn = time.perf_counter()
    # A session of its own, so a timeout also stops the run's pool workers.
    proc = subprocess.Popen(cmd + [repr(spawn)], env=env, cwd=root, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return [f"timed out after {timeout:.0f} s"]
    if proc.returncode != 0:
        return [f"exit {proc.returncode}"] + err.strip().splitlines()[-3:]
    return []


def setup_time(root: Path, workload: Workload, timeout: float) -> float | None:
    """setup_s of a new interpreter that stops once the config is loaded."""
    work = Path(tempfile.mkdtemp(prefix="setup-", dir=root / OUT_DIR))
    try:
        config = dict(workload.config, seed=0, output_dir=str(work / "out"))
        if run_child(root, work, config, {"setup_only": True}, 1, timeout):
            return None
        with open(work / "result.json") as fh:
            return json.load(fh)["setup_s"]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def cold_run(root: Path, workload: Workload, seed: int, trace: bool, timeout: float) -> dict:
    """One run_experiment in a new interpreter; returns its record."""
    work = Path(tempfile.mkdtemp(prefix="run-", dir=root / OUT_DIR))
    try:
        config = dict(workload.config, seed=seed, output_dir=str(work / "out"))
        (work / "rss").mkdir()
        workers = 1 if trace else workload.workers
        record = {"seed": seed, "trace": trace, "workers": workers}
        job = {"rss_dir": str(work / "rss"), "trace": trace}
        problems = run_child(root, work, config, job, workers, timeout)
        if problems:
            return {**record, "ok": False, "problems": problems}
        with open(work / "result.json") as fh:
            record.update(json.load(fh))
        problems, produced = check_outputs(work / "out", workload, config)
        if workers > 1 and not 1 <= record["pool_workers_reported"] <= workers:
            problems.append(f"{record['pool_workers_reported']} of {workers} workers reported RSS")
        if trace:
            if record["bound_violations"]:
                problems.append(f"{record['bound_violations']} S_tot <= C_P nu/Var violations")
            eig = record["eigen_oracle_rel_err"]
            if eig is not None and not eig <= EIGEN_ORACLE_TOL:
                problems.append(f"eigenvalue oracle error {eig:.3g}")
        record.update(ok=not problems, problems=problems, produced=produced)
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def timed_runs(root: Path, workload: Workload, seed: int, budget: float, deadline: float) -> list:
    """Cold runs until the next one would overrun ``budget`` seconds (at least MIN_RUNS).

    Each run is followed by a setup-only interpreter (``setup_probe_s``), which
    doubles the setup samples for the price of an import.
    """
    runs = []
    start = time.perf_counter()
    while True:
        runs.append(cold_run(root, workload, 1000 * seed + len(runs), False,
                             deadline - time.perf_counter()))
        runs[-1]["setup_probe_s"] = setup_time(root, workload, deadline - time.perf_counter())
        elapsed = time.perf_counter() - start
        if len(runs) >= MIN_RUNS and elapsed * (len(runs) + 1) / len(runs) > budget:
            return runs
        if "run_s" not in runs[-1]:  # crashed or timed out: more runs would too
            return runs


def end_to_end(runs: list, workload: Workload) -> dict:
    """Medians over the runs that passed the check; a run that wrote no
    result (crashed or timed out) counts every one of its fits as failed."""
    good = [r for r in runs if r["ok"]]
    per_run = fits_attempted(workload.config)
    failures = sum(len(r["failures"]) if "failures" in r else per_run for r in runs)
    attempted = per_run * len(runs)
    setups = [r["setup_s"] for r in good] + [
        r["setup_probe_s"] for r in runs if r.get("setup_probe_s") is not None]
    return {
        "run_s": statistics.median(r["run_s"] for r in good),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        "fit_ok_ratio": 1.0 - failures / attempted,
    }


def accuracy(runs: list) -> dict:
    first = [r.get("produced", {}) for r in runs[:MIN_RUNS]]
    return {k: statistics.median(p.get(k, math.inf) for p in first) for k in ACCURACY}


def per_layer(traced: dict, untraced_run_s: float, acc: dict) -> dict:
    """Per-layer metrics of the traced run, its overhead and its extra checks."""
    eig = traced["eigen_oracle_rel_err"]
    return {
        **traced["layers"],
        "trace.run_s": traced["run_s"],
        "trace.overhead_s": traced["run_s"] - untraced_run_s,
        "check.bound_violations": traced["bound_violations"],
        "check.eigen_oracle_rel_err": 0.0 if eig is None else eig,
        **{f"result.{k}": v for k, v in acc.items()},
    }


def environment(root: Path, workload: Workload, runs: list) -> dict:
    child = next((r for r in runs if "numpy" in r), {})
    return {
        "nproc": len(os.sched_getaffinity(0)), "workers": workload.workers,
        "blas_threads_per_process": BLAS_THREADS,
        "start_method": multiprocessing.get_start_method(),
        "python": platform.python_version(), "numpy": child.get("numpy"),
        "scipy": child.get("scipy"), "git_sha": git_sha(root),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "poincare_chaos" / "__init__.py").is_file():
        print("run from the repository root: src/poincare_chaos not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    (root / OUT_DIR).mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    deadline = time.perf_counter() + 170.0

    budget = args.seconds / 2 if args.trace else args.seconds
    # Untimed: warms the file cache and writes the package's bytecode cache,
    # so the first timed run does not pay for either.
    setup_time(root, workload, deadline - time.perf_counter())
    runs = timed_runs(root, workload, args.seed, budget, deadline)
    if args.trace:
        runs.append(cold_run(root, workload, 1000 * args.seed, True,
                             deadline - time.perf_counter()))
    timed = [r for r in runs if not r["trace"]]
    if not any(r["ok"] for r in timed) or (args.trace and "layers" not in runs[-1]):
        for r in runs:
            print(f"run seed={r['seed']} failed: {r['problems']}", file=sys.stderr)
        return 1

    e2e = end_to_end(timed, workload)
    acc = accuracy(timed)
    if args.trace:
        metrics, units = per_layer(runs[-1], e2e["run_s"], acc), PER_LAYER
    else:
        metrics, units = e2e, END_TO_END

    env = environment(root, workload, runs)
    failed = sum(not r["ok"] for r in runs)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "end_to_end": e2e, "accuracy": acc,
              "metrics": metrics,
              "runs": [{k: v for k, v in r.items() if k != "spans"} for r in runs]}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(root / OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace and "spans" in runs[-1]:
        with open(root / OUT_DIR / f"{stem}-spans.json", "w") as fh:
            json.dump(runs[-1]["spans"], fh)

    print(f"workload {args.workload}  seed {args.seed}  runs {len(runs)}  env {json.dumps(env)}")
    for r in runs:
        status = "ok" if r["ok"] else "FAILED " + "; ".join(r["problems"])
        times = f"setup {r['setup_s']:.3f} s  run {r['run_s']:.3f} s" if "run_s" in r else ""
        if r.get("setup_probe_s") is not None:
            times += f"  setup-only {r['setup_probe_s']:.3f} s"
        print(f"  {'traced' if r['trace'] else 'timed '} seed {r['seed']}  {times}  {status}")
    for name, value in e2e.items():
        print(f"{name:>18} {value:.6g} {END_TO_END[name]}")
    for name, value in acc.items():
        print(f"{name:>18} {value:.6g} {ACCURACY[name]}  (not gated)")
    if args.trace:
        for name, value in metrics.items():
            print(f"{name:>30} {value:.6g} {PER_LAYER[name]}")
    print(f"correct: {failed == 0}   details in {OUT_DIR}/{stem}.json")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(runs), "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
