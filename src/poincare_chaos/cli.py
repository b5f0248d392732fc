"""Batch experiment runner and command-line interface.

Subcommands
-----------
``run <config.json>``
    Build the univariate bases for the configured weight setting, sample
    designs of each requested size, fit the three expansion variants,
    evaluate validation errors and sensitivity indices with bootstrap
    resampling, and write ``results.csv`` (long format) plus
    ``summary.json`` (boxplot statistics and seed lineage).
``basis <spec.json>``
    Export eigenfunction curves and eigenvalues of a single basis.
``report <results-dir>``
    Aggregate a results file into per-method medians, including the two
    cost-equivalence views (one gradient = 1 model call, or = d calls).

Config schema (JSON)
--------------------
{
  "model": "toy" | "flood",            "model_options": {"d": 4},
  "weight": "unweighted" | "wlin",
  "degree": 8,
  "ed_sizes": [25, 50, 100, 200],
  "n_replications": 1,
  "n_bootstrap": 30,
  "validation_size": 100000,
  "mesh_size": 2000,
  "seed": 0,
  "output_dir": "results",
  "max_terms": 200,
  "reference_n_mc": 100000
}

Input distributions inside a basis spec use the same keys as
``measures.make_measure``: {"family": ..., "params": {...},
"truncation": [lo, hi]}.

Every worker task derives its random streams from the root seed through
``numpy.random.SeedSequence`` spawning, so a rerun with the same config is
bit-identical regardless of the worker count (set via the environment
variable ``POINCARE_CHAOS_WORKERS``) and of the process start method: pool
workers receive the task context through their initializer, never through
inherited module state.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .bench import BenchmarkModel, get_model, reference_sobol
from .chaos import ChaosBasis, ChaosExpansion, predict_many, total_degree_set
from .errors import PoincareChaosError
from .gsa import dgsm, total_sobol, variance
from .measures import make_measure
from .regression import (
    DesignData,
    FitMethod,
    fit_combined,
    fit_deriv_aggregated,
    fit_standard,
)
from .spectral import build_basis, export_basis_csv, export_eigenvalues_json
from .weights import constant_weight, wlin_compute

METHODS = (FitMethod.STANDARD, FitMethod.DERIV_AGGREGATED, FitMethod.COMBINED)
CSV_COLUMNS = ("method", "ed_size", "replicate", "bootstrap_id", "metric", "variable", "value")


@dataclass
class ExperimentConfig:
    model: str
    weight: str
    degree: int
    ed_sizes: list[int]
    n_replications: int = 1
    n_bootstrap: int = 30
    validation_size: int = 100_000
    mesh_size: int = 2000
    seed: int = 0
    output_dir: str = "results"
    model_options: dict = field(default_factory=dict)
    max_terms: int = 200
    reference_n_mc: int = 100_000

    def validate(self) -> None:
        if self.weight not in ("unweighted", "wlin"):
            raise ValueError("weight must be 'unweighted' or 'wlin'")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if not self.ed_sizes or any(s < 2 for s in self.ed_sizes):
            raise ValueError("ed_sizes must be positive (>= 2 rows per design)")
        if sorted(self.ed_sizes) != list(self.ed_sizes):
            raise ValueError("ed_sizes must be sorted ascending")
        for name in ("n_replications", "n_bootstrap", "validation_size", "mesh_size",
                     "max_terms", "reference_n_mc"):
            if getattr(self, name) < 0 or (name != "n_bootstrap" and getattr(self, name) == 0):
                raise ValueError(f"{name} must be positive")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        cfg = cls(**raw)
        cfg.validate()
        return cfg


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[tuple]
    reference: dict[str, float]
    failures: list[str]
    results_csv: str
    summary_json: str

    @property
    def ok(self) -> bool:
        return not self.failures


def _seed_int(ss: np.random.SeedSequence) -> int:
    lo, hi = ss.generate_state(2)
    return int(hi) << 32 | int(lo)


def build_weight(measure, setting: str):
    """The weight of one input for a config or basis-spec weight setting."""
    if setting in ("constant", "unweighted"):
        return constant_weight(1.0)
    if setting == "wlin":
        return wlin_compute(measure)
    raise ValueError("weight must be 'constant', 'unweighted' or 'wlin'")


def build_chaos_basis(model: BenchmarkModel, weight_setting: str, degree: int,
                      mesh_size: int) -> ChaosBasis:
    """One univariate eigensolve per distinct input measure; repeated
    components (e.g. i.i.d. inputs) share a single build."""
    components = model.input_measure.components
    built = {m: build_basis(m, build_weight(m, weight_setting), n_modes=degree,
                            mesh_size=mesh_size)
             for m in dict.fromkeys(components)}
    return ChaosBasis(total_degree_set(model.dimension, degree),
                      tuple(built[m] for m in components))


def _validation_errors(basis: ChaosBasis, coeffs: np.ndarray, X_val, y_val, G_val,
                       w_val) -> list[tuple[float, float]]:
    """(h1, l2) per coefficient row: l2 = mean((y - yhat)^2), h1 adds the
    weighted gradient mismatch sum_k mean(w_k (g_k - ghat_k)^2)."""
    values, grads = predict_many(basis, coeffs, X_val, with_grad=True)
    out = []
    for i in range(coeffs.shape[0]):
        l2 = float(np.mean((y_val - values[:, i]) ** 2))
        h1 = l2
        for k in range(basis.dimension):
            h1 += float(np.mean(w_val[k] * (G_val[:, k] - grads[:, k, i]) ** 2))
        out.append((h1, l2))
    return out


_FITTERS = {
    FitMethod.STANDARD: fit_standard,
    FitMethod.DERIV_AGGREGATED: fit_deriv_aggregated,
    FitMethod.COMBINED: fit_combined,
}

# Per-process task context, filled by ``_init_context``: once in the parent
# for a sequential run (and cleared when it ends), once in each pool worker
# as its initializer.
_TASK_CONTEXT: dict = {}


def _init_context(model, basis, config, X_val, y_val, G_val, w_val) -> None:
    _TASK_CONTEXT.clear()
    _TASK_CONTEXT.update(
        model=model, basis=basis, config=config,
        X_val=X_val, y_val=y_val, G_val=G_val, w_val=w_val,
    )


def _run_task(task: tuple[int, int, int]) -> tuple[list[tuple], list[str]]:
    """One (ed_size, replicate) unit: design, fits, bootstraps, metrics."""
    ed, rep, seed = task
    ctx = _TASK_CONTEXT
    model: BenchmarkModel = ctx["model"]
    basis: ChaosBasis = ctx["basis"]
    config: ExperimentConfig = ctx["config"]

    ss = np.random.SeedSequence(seed)
    ss_design, ss_boot = ss.spawn(2)
    X = model.input_measure.sample(ed, _seed_int(ss_design))
    data = DesignData(X, model.eval(X), model.grad(X))

    rows: list[tuple] = []
    failures: list[str] = []
    coeff_rows: list[np.ndarray] = []
    coeff_tags: list[tuple[str, int]] = []  # (method, bootstrap_id)

    boot_rng = np.random.default_rng(_seed_int(ss_boot))
    resamples = [data.resample_rows(boot_rng) for _ in range(config.n_bootstrap)]

    for method in METHODS:
        fitter = _FITTERS[method]
        try:
            fit = fitter(basis, data, max_terms=config.max_terms)
        except PoincareChaosError as exc:
            failures.append(f"{method.value} ed={ed} rep={rep}: {exc}")
            continue
        coeff_rows.append(fit.coefficients)
        coeff_tags.append((method.value, 0))
        for bid, bdata in enumerate(resamples, start=1):
            try:
                bfit = fitter(basis, bdata, max_terms=config.max_terms)
            except PoincareChaosError as exc:
                failures.append(f"{method.value} ed={ed} rep={rep} boot={bid}: {exc}")
                continue
            coeff_rows.append(bfit.coefficients)
            coeff_tags.append((method.value, bid))

    if coeff_rows:
        coeffs = np.vstack(coeff_rows)
        errors = _validation_errors(basis, coeffs, ctx["X_val"], ctx["y_val"],
                                    ctx["G_val"], ctx["w_val"])
        for (method, bid), (h1, l2), crow in zip(coeff_tags, errors, coeffs):
            rows.append((method, ed, rep, bid, "h1_error", "", h1))
            rows.append((method, ed, rep, bid, "l2_error", "", l2))
            try:
                exp = ChaosExpansion(basis, crow)
                if variance(exp) > 0:
                    st = total_sobol(exp)
                    nu = dgsm(exp)
                    for k, name in enumerate(model.variable_names):
                        rows.append((method, ed, rep, bid, "total_sobol", name, float(st[k])))
                        rows.append((method, ed, rep, bid, "dgsm", name, float(nu[k])))
            except PoincareChaosError as exc:
                failures.append(f"{method} ed={ed} rep={rep} boot={bid} indices: {exc}")
    return rows, failures


def _boxplot_stats(values: list[float]) -> dict:
    q = np.percentile(values, [0, 25, 50, 75, 100])
    return {"min": q[0], "q1": q[1], "median": q[2], "q3": q[3], "max": q[4],
            "count": len(values)}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the full protocol for one weight setting; see the module docstring."""
    config.validate()
    t_start = time.time()
    model = get_model(config.model, **config.model_options)
    basis = build_chaos_basis(model, config.weight, config.degree, config.mesh_size)

    root = np.random.SeedSequence(config.seed)
    ss_val, ss_ref, ss_designs = root.spawn(3)

    X_val = model.input_measure.sample(config.validation_size, _seed_int(ss_val))
    y_val = model.eval(X_val)
    G_val = model.grad(X_val)
    w_val = [basis.bases[k].weight(X_val[:, k]) for k in range(basis.dimension)]

    reference = reference_sobol(model, config.reference_n_mc, _seed_int(ss_ref))
    ref_map = {name: float(v) for name, v in zip(model.variable_names, reference)}

    tasks = []
    design_seeds: dict[str, int] = {}
    task_seeds = ss_designs.spawn(len(config.ed_sizes) * config.n_replications)
    i = 0
    for ed in config.ed_sizes:
        for rep in range(config.n_replications):
            seed = _seed_int(task_seeds[i])
            design_seeds[f"{ed}:{rep}"] = seed
            tasks.append((ed, rep, seed))
            i += 1

    context = (model, basis, config, X_val, y_val, G_val, w_val)
    workers = int(os.environ.get("POINCARE_CHAOS_WORKERS", "1"))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_context,
                                 initargs=context) as pool:
            outcomes = list(pool.map(_run_task, tasks))
    else:
        _init_context(*context)
        try:
            outcomes = [_run_task(t) for t in tasks]
        finally:
            _TASK_CONTEXT.clear()

    rows: list[tuple] = []
    failures: list[str] = []
    for task_rows, task_failures in outcomes:
        rows.extend(task_rows)
        failures.extend(task_failures)
    for name, val in ref_map.items():
        rows.append(("reference", "", "", "", "total_sobol", name, float(val)))

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results_csv = out_dir / "results.csv"
    with open(results_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([row[0], row[1], row[2], row[3], row[4], row[5], repr(float(row[6]))])

    groups: dict[tuple, list[float]] = {}
    for method, ed, rep, bid, metric, var, value in rows:
        if method == "reference":
            continue
        groups.setdefault((method, ed, metric, var), []).append(float(value))
    summary = {
        "config": asdict(config),
        "reference_total_sobol": ref_map,
        "seed_lineage": {
            "root": config.seed,
            "validation": _seed_int(ss_val),
            "reference": _seed_int(ss_ref),
            "designs": design_seeds,
        },
        "failures": failures,
        "runtime_seconds": time.time() - t_start,
        "boxplots": [
            {"method": m, "ed_size": ed, "metric": metric, "variable": var,
             **_boxplot_stats(vals)}
            for (m, ed, metric, var), vals in sorted(groups.items())
        ],
    }
    summary_json = out_dir / "summary.json"
    with open(summary_json, "w") as fh:
        json.dump(summary, fh, indent=2)

    return ExperimentResult(
        config=config,
        rows=rows,
        reference=ref_map,
        failures=failures,
        results_csv=str(results_csv),
        summary_json=str(summary_json),
    )


# ---------------------------------------------------------------------------
# basis export
# ---------------------------------------------------------------------------

def export_basis(measure_spec: dict, weight_spec: str, n_modes: int, output_dir,
                 mesh_size: int = 2000) -> tuple[str, str]:
    """Write eigenfunction curves (constant mode omitted, matching the usual
    plotting convention) and eigenvalues for one (measure, weight) pair."""
    measure = make_measure(
        measure_spec["family"], measure_spec["params"], measure_spec.get("truncation"),
    )
    basis = build_basis(measure, build_weight(measure, weight_spec),
                        n_modes=n_modes, mesh_size=mesh_size)
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "basis.csv"
    json_path = out_dir / "eigenvalues.json"
    export_basis_csv(basis, csv_path, include_constant=False)
    export_eigenvalues_json(basis, json_path)
    return str(csv_path), str(json_path)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def aggregate_results(results_dir) -> list[dict]:
    """Medians per (method, ed_size, metric, variable) with cost-equivalence
    columns: gradient-based methods consume 2*ed (1 gradient = 1 call) or
    (1+d)*ed (1 gradient = d calls) model evaluations."""
    results_csv = Path(results_dir) / "results.csv"
    summary_path = Path(results_dir) / "summary.json"
    with open(summary_path) as fh:
        summary = json.load(fh)
    d = len(summary["reference_total_sobol"])

    groups: dict[tuple, list[float]] = {}
    with open(results_csv) as fh:
        for rec in csv.DictReader(fh):
            if rec["method"] == "reference":
                continue
            key = (rec["method"], int(rec["ed_size"]), rec["metric"], rec["variable"])
            groups.setdefault(key, []).append(float(rec["value"]))

    out = []
    for (method, ed, metric, var), vals in sorted(groups.items()):
        uses_gradients = method in (FitMethod.DERIV_AGGREGATED.value, FitMethod.COMBINED.value)
        out.append({
            "method": method, "ed_size": ed, "metric": metric, "variable": var,
            "median": float(np.median(vals)),
            "cost_grad_eq_1": ed * 2 if uses_gradients else ed,
            "cost_grad_eq_d": ed * (1 + d) if uses_gradients else ed,
        })
    return out


# ---------------------------------------------------------------------------
# argparse entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="poincare-chaos",
                                     description="gradient-enhanced chaos experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")

    p_basis = sub.add_parser("basis", help="export one basis to CSV/JSON")
    p_basis.add_argument("spec", help="path to a JSON basis spec")

    p_report = sub.add_parser("report", help="aggregate a results directory")
    p_report.add_argument("results_dir")
    p_report.add_argument("--output", default=None, help="write the table as CSV here")

    args = parser.parse_args(argv)

    if args.command == "run":
        config = ExperimentConfig.from_json(args.config)
        result = run_experiment(config)
        print(f"wrote {result.results_csv} and {result.summary_json}")
        if result.failures:
            print(f"{len(result.failures)} fit failures:", file=sys.stderr)
            for msg in result.failures:
                print("  " + msg, file=sys.stderr)
            return 1
        return 0

    if args.command == "basis":
        with open(args.spec) as fh:
            spec = json.load(fh)
        csv_path, json_path = export_basis(
            spec["measure"], spec.get("weight", "constant"),
            spec.get("n_modes", 4), spec.get("output", "basis_export"),
            spec.get("mesh_size", 2000),
        )
        print(f"wrote {csv_path} and {json_path}")
        return 0

    if args.command == "report":
        table = aggregate_results(args.results_dir)
        cols = list(table[0].keys()) if table else []
        if args.output:
            with open(args.output, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=cols)
                writer.writeheader()
                writer.writerows(table)
            print(f"wrote {args.output}")
        else:
            for row in table:
                print(",".join(str(row[c]) for c in cols))
        return 0

    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
