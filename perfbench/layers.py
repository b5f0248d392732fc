"""Outside-in layer trace for one ``run_experiment`` call.

Each layer's public functions are wrapped at the module attribute its
caller resolves, so the package itself is untouched.  Every wrapped call
records a span (name, start, end, parent) in memory; counters are updated
at the same boundary.  ``summarize`` turns the spans into per-layer self
times (span duration minus the time covered by its direct children).

Spans recorded inside forked pool workers never reach this process, so a
traced run must be sequential.
"""

from __future__ import annotations

import dataclasses
import functools
import time

import numpy as np

# Span names; everything a traced run spends outside them is ``cli.self_s``.
LAYERS = (
    "spectral.build_basis", "spectral.eval", "weights.wlin", "weights.existence",
    "chaos.design", "chaos.predict", "regression.lars_loo", "gsa.indices",
    "bench.model", "bench.oracle", "measures.sample",
)


class Tracer:
    """In-memory span recorder with a call stack for parent links."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent_index]
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.bases: list = []          # every PoincareBasis1D built
        self.expansions: list = []     # ChaosExpansion objects made by the runner

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        setattr(owner, attr, self.traced(getattr(owner, attr), name, on_result))

    def traced(self, fn, name: str, on_result=None):
        """``fn`` wrapped to record one span per call, then ``on_result``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if on_result is not None:
                on_result(args, kwargs, out)
            return out

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary that ``cli.run_experiment`` reaches."""
    from poincare_chaos import cli, regression, spectral
    from poincare_chaos.measures import ProductMeasure
    from poincare_chaos.spectral import PoincareBasis1D

    t = tracer

    def on_build(args, kwargs, basis):
        t.count("build_basis_calls")
        t.bases.append(basis)

    def on_eval(args, kwargs, out):
        t.count("eval_calls")
        t.count("eval_points", out.shape[0])

    def on_design(args, kwargs, out):
        t.count("design_calls")
        t.count("design_cells", out.size)

    def on_predict(args, kwargs, out):
        coeffs = np.atleast_2d(args[1])
        t.count("predict_rows", np.atleast_2d(args[2]).shape[0])
        t.count("predict_fits", coeffs.shape[0])
        t.count("predict_union_cols", int(np.count_nonzero(np.any(coeffs != 0.0, axis=0))))

    def on_lars(args, kwargs, fit):
        m, P = np.shape(args[0])
        steps = fit.diagnostics["path_length"]
        t.count("lars_loo_calls")
        t.count("path_steps", steps)
        t.count("selected", len(fit.active_set))
        t.count("cap_hits", steps == min(m - 1, P, kwargs.get("max_terms", 200)))

    def on_sample(args, kwargs, out):
        t.count("sample_rows", out.shape[0])

    t.wrap(cli, "build_basis", "spectral.build_basis", on_build)
    t.wrap(spectral, "check_existence", "weights.existence",
           lambda a, k, o: t.count("existence_calls"))
    t.wrap(cli, "wlin_compute", "weights.wlin", lambda a, k, o: t.count("wlin_calls"))
    t.wrap(PoincareBasis1D, "eval_all", "spectral.eval", on_eval)
    t.wrap(PoincareBasis1D, "eval_deriv_all", "spectral.eval", on_eval)
    t.wrap(regression, "basis_matrix", "chaos.design", on_design)
    t.wrap(regression, "deriv_matrix", "chaos.design", on_design)
    t.wrap(cli, "predict_many", "chaos.predict", on_predict)
    t.wrap(regression, "lars_loo", "regression.lars_loo", on_lars)
    for fn in ("total_sobol", "dgsm", "variance"):
        t.wrap(cli, fn, "gsa.indices", lambda a, k, o: t.count("indices_calls"))
    t.wrap(cli, "reference_sobol", "bench.oracle")
    t.wrap(ProductMeasure, "sample", "measures.sample", on_sample)

    # The model's callables live on the instance get_model returns.
    get_model = cli.get_model

    def traced_get_model(*args, **kwargs):
        model = get_model(*args, **kwargs)
        t.count("input_components", model.dimension)
        on_rows = lambda a, k, o: t.count("model_rows", np.atleast_2d(a[0]).shape[0])
        return dataclasses.replace(model, eval=t.traced(model.eval, "bench.model", on_rows),
                                   grad=t.traced(model.grad, "bench.model", on_rows))

    cli.get_model = traced_get_model

    # Keep every expansion the runner builds for the post-run bound check.
    make_expansion = cli.ChaosExpansion

    def recording_expansion(*args, **kwargs):
        exp = make_expansion(*args, **kwargs)
        t.expansions.append(exp)
        return exp

    cli.ChaosExpansion = recording_expansion


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name: duration minus direct children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), kids in zip(spans, child_time):
        out[name] = out.get(name, 0.0) + (end - start) - kids
    return out


def summarize(tracer: Tracer, run_start: float, run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run (values only; units live in run.py)."""
    selfs = self_times(tracer.spans)
    c = tracer.counts.get
    builds = c("build_basis_calls", 0)
    steps = c("path_steps", 0)
    lars_calls = c("lars_loo_calls", 0)
    first_lars = min((s[1] for s in tracer.spans if s[0] == "regression.lars_loo"),
                     default=run_start + run_s)
    m = {
        "spectral.build_basis_s": selfs.get("spectral.build_basis", 0.0),
        "spectral.build_basis_calls": builds,
        "spectral.basis_reuse_ratio": c("input_components", 0) / builds if builds else 0.0,
        "spectral.eval_s": selfs.get("spectral.eval", 0.0),
        "spectral.eval_calls": c("eval_calls", 0),
        "spectral.eval_points": c("eval_points", 0),
        "weights.wlin_s": selfs.get("weights.wlin", 0.0),
        "weights.wlin_calls": c("wlin_calls", 0),
        "weights.existence_s": selfs.get("weights.existence", 0.0),
        "weights.existence_calls": c("existence_calls", 0),
        "chaos.design_s": selfs.get("chaos.design", 0.0),
        "chaos.design_calls": c("design_calls", 0),
        "chaos.design_cells": c("design_cells", 0),
        "chaos.predict_s": selfs.get("chaos.predict", 0.0),
        "chaos.predict_rows": c("predict_rows", 0),
        "chaos.predict_fits": c("predict_fits", 0),
        "chaos.predict_union_cols": c("predict_union_cols", 0),
        "regression.lars_loo_s": selfs.get("regression.lars_loo", 0.0),
        "regression.lars_loo_calls": lars_calls,
        "regression.path_steps": steps,
        "regression.selected_over_path": c("selected", 0) / steps if steps else 0.0,
        "regression.cap_hit_ratio": c("cap_hits", 0) / lars_calls if lars_calls else 0.0,
        "gsa.indices_s": selfs.get("gsa.indices", 0.0),
        "gsa.indices_calls": c("indices_calls", 0),
        "bench.model_s": selfs.get("bench.model", 0.0),
        "bench.model_rows": c("model_rows", 0),
        "bench.oracle_s": selfs.get("bench.oracle", 0.0),
        "measures.sample_s": selfs.get("measures.sample", 0.0),
        "measures.sample_rows": c("sample_rows", 0),
        "cli.prologue_s": first_lars - run_start,
    }
    m["cli.self_s"] = run_s - sum(selfs.get(name, 0.0) for name in LAYERS)
    return m


def bound_violations(expansions) -> tuple[int, int]:
    """(checked, violated) for S_tot <= C_P * nu / Var over non-constant fits."""
    from poincare_chaos import make_report, sobol_dgsm_bound, variance

    checked = violated = 0
    for exp in expansions:
        if variance(exp) <= 0:
            continue
        holds, _ = sobol_dgsm_bound(make_report(exp))
        checked += 1
        violated += int(not holds.all())
    return checked, violated


def eigen_oracle_error(bases) -> float | None:
    """Largest relative eigenvalue error over the uniform inputs' bases.

    Analytic spectra: a uniform law on [a, b] has lambda_j = j (j + 1) / 2
    under its linear-preserving weight (Legendre polynomials, whatever the
    interval), and lambda_j = c (j pi / (b - a))^2 under a constant weight c
    (cosines).  Returns None when no input is uniform.
    """
    from poincare_chaos.measures import Family
    from poincare_chaos.weights import WeightKind

    worst = None
    for basis in bases:
        mu, w = basis.measure, basis.weight
        if mu.family is not Family.UNIFORM:
            continue
        j = np.arange(1, basis.eigenvalues.size)
        if w.kind is WeightKind.CONSTANT:
            exact = w.constant_value * (j * np.pi / (mu.b - mu.a)) ** 2
        else:
            exact = j * (j + 1) / 2.0
        err = float(np.max(np.abs(basis.eigenvalues[1:] - exact) / exact))
        worst = err if worst is None else max(worst, err)
    return worst
