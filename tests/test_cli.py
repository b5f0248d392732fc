import csv
import functools
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from poincare_chaos import ExperimentConfig, cli, run_experiment
from poincare_chaos.cli import CSV_COLUMNS, aggregate_results, export_basis, main


@pytest.fixture(scope="module")
def tiny_result(tmp_path_factory):
    cfg = ExperimentConfig(
        model="toy", model_options={"d": 2}, weight="unweighted", degree=3,
        ed_sizes=[15, 30], n_replications=2, n_bootstrap=2,
        validation_size=1500, mesh_size=300, seed=21,
        output_dir=str(tmp_path_factory.mktemp("run")),
        reference_n_mc=10**4,
    )
    return run_experiment(cfg)


def test_config_validation():
    good = dict(model="toy", weight="wlin", degree=2, ed_sizes=[10, 20])
    ExperimentConfig(**good).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "weight": "both"}).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "ed_sizes": [20, 10]}).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "ed_sizes": []}).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "validation_size": 0}).validate()


def test_csv_schema_and_content(tiny_result):
    with open(tiny_result.results_csv) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert tuple(header) == CSV_COLUMNS
    methods = {r[0] for r in rows}
    assert methods == {"standard", "deriv_aggregated", "combined", "reference"}
    metrics = {r[4] for r in rows}
    assert metrics == {"h1_error", "l2_error", "total_sobol", "dgsm"}
    bids = {int(r[3]) for r in rows if r[0] != "reference"}
    assert bids == {0, 1, 2}  # point estimate plus two bootstrap replicates
    for r in rows:
        float(r[6])  # every value parses


def test_summary_contents(tiny_result):
    with open(tiny_result.summary_json) as fh:
        summary = json.load(fh)
    assert summary["failures"] == []
    assert set(summary["reference_total_sobol"]) == {"x1", "x2"}
    assert summary["seed_lineage"]["root"] == 21
    assert set(summary["seed_lineage"]["designs"]) == {"15:0", "15:1", "30:0", "30:1"}
    box = summary["boxplots"][0]
    assert {"min", "q1", "median", "q3", "max", "count"} <= set(box)


def test_replay_bit_identical(tiny_result, tmp_path):
    cfg = ExperimentConfig(**{**tiny_result.config.__dict__, "output_dir": str(tmp_path)})
    res2 = run_experiment(cfg)
    assert open(tiny_result.results_csv).read() == open(res2.results_csv).read()


def test_h1_decomposition_consistency(tiny_result):
    """h1_error >= l2_error for every record (the gradient part is nonnegative)."""
    by_key = {}
    with open(tiny_result.results_csv) as fh:
        for rec in csv.DictReader(fh):
            if rec["metric"] in ("h1_error", "l2_error"):
                key = (rec["method"], rec["ed_size"], rec["replicate"], rec["bootstrap_id"])
                by_key.setdefault(key, {})[rec["metric"]] = float(rec["value"])
    assert by_key
    for vals in by_key.values():
        assert vals["h1_error"] >= vals["l2_error"] - 1e-15


def test_report_view(tiny_result):
    import os
    table = aggregate_results(os.path.dirname(tiny_result.results_csv))
    assert table
    row = next(r for r in table if r["method"] == "combined" and r["metric"] == "h1_error")
    assert row["cost_grad_eq_1"] == 2 * row["ed_size"]
    assert row["cost_grad_eq_d"] == 3 * row["ed_size"]  # d = 2
    row = next(r for r in table if r["method"] == "standard")
    assert row["cost_grad_eq_1"] == row["ed_size"]


@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_worker_pool_matches_sequential(tiny_result, tmp_path, monkeypatch, method):
    """Pool workers get their context under every process start method."""
    monkeypatch.setenv("POINCARE_CHAOS_WORKERS", "2")
    monkeypatch.setattr(cli, "ProcessPoolExecutor", functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context(method)))
    cfg = ExperimentConfig(**{**tiny_result.config.__dict__, "output_dir": str(tmp_path)})
    res = run_experiment(cfg)
    assert open(tiny_result.results_csv).read() == open(res.results_csv).read()


def test_sequential_run_clears_task_context(tiny_result, tmp_path, monkeypatch):
    """A sequential run releases the model, the bases and the validation
    arrays when it returns, and also when a task raises."""
    monkeypatch.delenv("POINCARE_CHAOS_WORKERS", raising=False)
    cfg = ExperimentConfig(**{**tiny_result.config.__dict__, "output_dir": str(tmp_path)})
    run_experiment(cfg)
    assert cli._TASK_CONTEXT == {}

    def failing_task(task):
        assert cli._TASK_CONTEXT
        raise RuntimeError("task failed")

    monkeypatch.setattr(cli, "_run_task", failing_task)
    with pytest.raises(RuntimeError, match="task failed"):
        run_experiment(cfg)
    assert cli._TASK_CONTEXT == {}


def test_export_basis_files(tmp_path):
    csv_path, json_path = export_basis(
        {"family": "uniform", "params": {"a": 0, "b": 1}},
        "constant", 4, tmp_path, mesh_size=400,
    )
    header = open(csv_path).readline().strip()
    assert header.startswith("node,psi_1")  # constant mode excluded
    assert "psi_0" not in header
    eig = json.load(open(json_path))
    lam = eig["eigenvalues"]
    assert len(lam) == 5
    assert lam[1] == pytest.approx(np.pi**2, rel=1e-3)


def test_export_basis_rejects_unknown_weight(tmp_path):
    with pytest.raises(ValueError, match="weight must be"):
        export_basis({"family": "uniform", "params": {"a": 0, "b": 1}},
                     "linear", 4, tmp_path, mesh_size=400)
    assert not (tmp_path / "basis.csv").exists()


def test_cli_main_subcommands(tmp_path):
    cfg = dict(
        model="toy", model_options={"d": 2}, weight="unweighted", degree=2,
        ed_sizes=[12], n_replications=1, n_bootstrap=0,
        validation_size=500, mesh_size=200, seed=3,
        output_dir=str(tmp_path / "out"), reference_n_mc=10**4,
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path)]) == 0

    spec = {"measure": {"family": "truncated_exponential", "params": {"rate": 1},
                        "truncation": [0, 3]},
            "weight": "wlin", "n_modes": 3, "mesh_size": 300,
            "output": str(tmp_path / "basis_out")}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["basis", str(spec_path)]) == 0

    assert main(["report", str(tmp_path / "out"),
                 "--output", str(tmp_path / "report.csv")]) == 0
    assert (tmp_path / "report.csv").exists()
