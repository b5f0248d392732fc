"""Tests of the benchmark harness itself (run from the repository root):

    python3 -m pytest perfbench/tests -q
"""

import csv
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402

TINY = run.Workload(
    config=dict(model="toy", model_options={"d": 2}, weight="unweighted", degree=3,
                ed_sizes=[15, 30], n_replications=1, n_bootstrap=1,
                validation_size=1500, mesh_size=300, reference_n_mc=10_000),
    workers=1, max_l2_err=1.0, max_sobol_err=1.0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["paths"] == ["perfbench"]


def test_expected_rows_per_workload():
    # 3 methods x (1 + B) fits per task, 2 errors + 2 indices per variable, + d oracle rows
    assert run.expected_rows(TINY.config) == 2 * 3 * 2 * (2 + 4) + 2
    assert run.expected_rows(run.WORKLOADS["flood-pool"].config) == 4 * 3 * 2 * (2 + 16) + 8


@pytest.fixture(scope="module")
def tiny_outputs(tmp_path_factory):
    from poincare_chaos import ExperimentConfig, run_experiment

    out = tmp_path_factory.mktemp("tiny") / "out"
    run_experiment(ExperimentConfig(**TINY.config, seed=5, output_dir=str(out)))
    return out


def _rewrite_rows(src: Path, dst: Path, edit) -> Path:
    dst.mkdir()
    (dst / "summary.json").write_text((src / "summary.json").read_text())
    with open(src / "results.csv") as fh:
        rows = list(csv.reader(fh))
    with open(dst / "results.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(edit(rows))
    return dst


def test_check_accepts_a_good_run(tiny_outputs):
    problems, produced = run.check_outputs(tiny_outputs, TINY, TINY.config)
    assert problems == []
    assert set(produced["reference"]) == {"x1", "x2"}
    assert math.isfinite(produced["l2_err_combined"])
    assert math.isfinite(produced["sobol_err_max"])
    assert "standard:15" in produced["h1_error"]


def test_check_rejects_missing_rows(tiny_outputs, tmp_path):
    bad = _rewrite_rows(tiny_outputs, tmp_path / "short", lambda rows: rows[:-3])
    problems, _ = run.check_outputs(bad, TINY, TINY.config)
    assert any("result rows" in p for p in problems)


def test_check_rejects_non_finite_values(tiny_outputs, tmp_path):
    def poison(rows):
        rows[1][-1] = "nan"
        return rows
    problems, _ = run.check_outputs(_rewrite_rows(tiny_outputs, tmp_path / "nan", poison),
                                    TINY, TINY.config)
    assert any("non-finite" in p for p in problems)


def test_check_rejects_missing_summary(tiny_outputs, tmp_path):
    bad = _rewrite_rows(tiny_outputs, tmp_path / "nosummary", lambda rows: rows)
    (bad / "summary.json").unlink()
    problems, _ = run.check_outputs(bad, TINY, TINY.config)
    assert problems


def test_check_rejects_inaccurate_fits(tiny_outputs):
    strict = run.Workload(TINY.config, workers=1, max_l2_err=0.0, max_sobol_err=0.0)
    problems, _ = run.check_outputs(tiny_outputs, strict, TINY.config)
    assert any("L2 error" in p for p in problems)
    assert any("Sobol" in p for p in problems)


def test_self_times_subtract_direct_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    assert layers.self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}


@pytest.fixture(scope="module")
def cold_pair(tmp_path_factory):
    (ROOT / run.OUT_DIR).mkdir(exist_ok=True)
    return [run.cold_run(ROOT, TINY, 7, trace, timeout=120.0) for trace in (False, True)]


def test_every_run_is_cold(cold_pair):
    plain, traced = cold_pair
    assert plain["ok"] and traced["ok"], (plain["problems"], traced["problems"])
    assert plain["pid"] != traced["pid"]
    # the second process rebuilt its basis instead of reusing the first one's
    assert traced["layers"]["spectral.build_basis_calls"] == 1


def test_setup_only_interpreter_reports_its_setup_time():
    (ROOT / run.OUT_DIR).mkdir(exist_ok=True)
    setup = run.setup_time(ROOT, TINY, timeout=60.0)
    assert setup is not None and 0 < setup < 60


def test_a_run_without_result_counts_all_its_fits_as_failed(cold_pair):
    plain = cold_pair[0]
    crashed = {"seed": 8, "trace": False, "workers": 1, "ok": False,
               "problems": ["exit 1"]}
    e2e = run.end_to_end([plain, crashed], TINY)
    assert e2e["fit_ok_ratio"] == pytest.approx(0.5)
    assert e2e["run_s"] == plain["run_s"]


def test_traced_layers_add_up_to_the_run(cold_pair):
    traced = cold_pair[1]
    lay = traced["layers"]
    total = sum(lay[f"{name}_s"] for name in layers.LAYERS) + lay["cli.self_s"]
    assert total == pytest.approx(traced["run_s"], abs=1e-9)
    assert all(lay[f"{name}_s"] >= 0 for name in layers.LAYERS)
    assert lay["cli.self_s"] >= 0
    assert traced["bound_violations"] == 0
    # U(-1,1) under unit weight: lambda_j = (j pi / 2)^2
    assert traced["eigen_oracle_rel_err"] < run.EIGEN_ORACLE_TOL


def test_traced_metrics_cover_per_layer_names(cold_pair):
    plain, traced = cold_pair
    metrics = run.per_layer(traced, plain["run_s"], run.accuracy([plain]))
    assert set(metrics) == set(run.PER_LAYER)


def test_outside_a_checkout_it_fails_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "toy-boot", "--seed", "1", "--seconds", "1"]) != 0
    assert "correct" not in capsys.readouterr().out


def test_pool_workers_report_their_peak_rss():
    pooled = run.Workload(dict(TINY.config, n_replications=2), workers=2,
                          max_l2_err=1.0, max_sobol_err=1.0)
    record = run.cold_run(ROOT, pooled, 9, False, timeout=120.0)
    assert record["ok"], record["problems"]
    assert record["workers"] == 2
    assert record["pool_workers_reported"] == 2
