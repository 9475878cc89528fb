"""Run a list of tpaopt CLI jobs in this process, in a closed loop.

    python3 bench/worker.py SPEC.json RESULT.json

SPEC holds ``src`` (the directory that contains the ``tpaopt`` package),
``jobs`` (each with ``argv`` and ``out``), ``seconds`` (stop starting jobs
once this much time has passed, or null) and ``max_jobs`` (or null), and
``spans`` (a path: trace the run and write the spans there, or null).
Each job starts when the previous one ends and calls ``tpaopt.cli.main``
directly, while the host-speed probe (speed.py) samples its kernel.
RESULT receives one record per job started (with its wall time and that
time scaled to the reference speed), the peak RSS of this process, the
environment, and the per-layer metrics of a traced run.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback


def run_jobs(jobs, seconds=None, max_jobs=None, tracer=None):
    """Call tpaopt.cli.main for each job until the time or job budget is spent."""
    from tpaopt import cli

    records = []
    begin = time.perf_counter()
    for index, job in enumerate(jobs):
        if max_jobs is not None and index >= max_jobs:
            break
        if seconds is not None and time.perf_counter() - begin >= seconds:
            break
        if tracer is not None:
            tracer.job = index
        error = None
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(job["argv"]) + ["--out", job["out"]])
        except SystemExit as exc:  # argparse rejects arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # one failing job must not end the run
            rc, error = None, traceback.format_exc()
        t1 = time.perf_counter()
        records.append({"index": index, "rc": rc, "t0": t0, "wall_s": t1 - t0,
                        "error": error})
    return records


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "TPAOPT_THREADS": os.environ.get("TPAOPT_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import tpaopt.cli  # noqa: F401  (import before the clock starts)

    from speed import SpeedProbe

    tracer = None
    if spec.get("spans"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        with SpeedProbe() as probe:
            records = run_jobs(spec["jobs"], spec.get("seconds"), spec.get("max_jobs"), tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    for rec in records:
        rec["scaled_s"] = rec["wall_s"] * probe.factor(rec["t0"], rec["t0"] + rec["wall_s"])
    result = {
        "jobs": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(spec["spans"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
