"""One timed ``run_experiment`` in a fresh interpreter.

Usage: python3 child.py JOB_JSON SPAWN_TIME

JOB_JSON names the experiment config, the package source directory, the
result file to write and whether to trace, or to stop once the config is
loaded (``setup_only``).  SPAWN_TIME is the parent's
``time.perf_counter()`` just before it started this process; the clock is
system-wide on Linux, so ``setup_s`` spans interpreter start, imports and
config loading.
"""

import json
import os
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import util


def _write_peak_rss(rss_dir: str) -> None:
    with open(os.path.join(rss_dir, f"{os.getpid()}.kb"), "w") as fh:
        fh.write(str(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))


def _init_worker(rss_dir: str, initializer, initargs) -> None:
    """Pool-worker initializer: report peak RSS at exit, then run the caller's own."""
    util.Finalize(None, _write_peak_rss, args=(rss_dir,), exitpriority=0)
    if initializer is not None:
        initializer(*initargs)


class _PeakReportingPool(ProcessPoolExecutor):
    """The runner's pool with a per-worker peak-RSS report.

    RUSAGE_CHILDREN keeps only the largest child's peak, not their sum.
    """

    rss_dir = ""

    def __init__(self, *args, initializer=None, initargs=(), **kwargs):
        super().__init__(*args, initializer=_init_worker,
                         initargs=(self.rss_dir, initializer, initargs), **kwargs)


def main(job_path: str, spawn_time: float) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import poincare_chaos
    from poincare_chaos import cli

    config = cli.ExperimentConfig.from_json(job["config"])
    setup_s = time.perf_counter() - spawn_time

    pkg_dir = os.path.dirname(os.path.abspath(poincare_chaos.__file__))
    if pkg_dir != os.path.join(os.path.abspath(job["src"]), "poincare_chaos"):
        print(f"imported poincare_chaos from {pkg_dir}, not from {job['src']}", file=sys.stderr)
        return 3

    out = {"pid": os.getpid(), "setup_s": setup_s}
    if job.get("setup_only"):
        with open(job["result"], "w") as fh:
            json.dump(out, fh)
        return 0

    tracer = None
    if job["trace"]:
        import layers
        tracer = layers.Tracer()
        layers.install(tracer)
    _PeakReportingPool.rss_dir = job["rss_dir"]
    cli.ProcessPoolExecutor = _PeakReportingPool

    t0 = time.perf_counter()
    result = cli.run_experiment(config)
    run_s = time.perf_counter() - t0

    worker_kb = 0
    for name in os.listdir(job["rss_dir"]):
        with open(os.path.join(job["rss_dir"], name)) as fh:
            worker_kb += int(fh.read())
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.update(
        run_s=run_s,
        peak_rss_mb=(self_kb + worker_kb) / 1024.0,
        pool_workers_reported=len(os.listdir(job["rss_dir"])),
        failures=result.failures,
        numpy=sys.modules["numpy"].__version__,
        scipy=sys.modules["scipy"].__version__,
    )
    if tracer is not None:
        layer = layers.summarize(tracer, t0, run_s)
        checked, violated = layers.bound_violations(tracer.expansions)
        layer["cli.output_bytes"] = sum(
            os.path.getsize(p) for p in (result.results_csv, result.summary_json))
        out.update(layers=layer, bound_checks=checked, bound_violations=violated,
                   eigen_oracle_rel_err=layers.eigen_oracle_error(tracer.bases),
                   spans=tracer.spans)

    with open(job["result"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
