"""Benchmark of the tpaopt CLI: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this directory.
The seed draws the job list (see workloads.py).  A fresh worker process
imports ``tpaopt.cli`` from ``src/`` and calls ``main(argv)`` for one job
after another until S seconds have passed; every output is then checked
(checker.py).  Times are scaled to the reference host speed measured by
speed.py.  With ``--trace 1`` the same jobs run again in a second fresh
process with the outside-in tracer installed, and the per-layer metrics
are reported instead of the end-to-end ones.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` whose metric names and
units are those of BENCHMARK.json.  A full record (argv of every job,
timings, key outputs, CSV digests, environment) goes to
``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # for the speed probe, as in the worker
import checker  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe, pin_to_one_cpu  # noqa: E402

REFERENCE_SEED = 0
REFERENCE_FILE = BENCH / "reference.json"
SETUP_REPEATS = 15
RUN_BUDGET_S = 170.0  # a run must end inside 180 s


def worker_env() -> dict:
    """Single process, one BLAS thread, TPAOPT_THREADS unset."""
    env = dict(os.environ)
    env.pop("TPAOPT_THREADS", None)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(env):
    """Wall times of fresh interpreters importing tpaopt.cli (after one warm-up).

    Returns the median of the times scaled to the reference speed, and the
    raw times.
    """
    cmd = [sys.executable, "-c", "import tpaopt.cli"]
    spans = []
    with SpeedProbe() as probe:
        for i in range(SETUP_REPEATS + 1):
            t0 = time.perf_counter()
            subprocess.run(cmd, env=env, check=True, timeout=60, capture_output=True)
            if i:
                spans.append((t0, time.perf_counter()))
    scaled = [(t1 - t0) * probe.factor(t0, t1) for t0, t1 in spans]
    return statistics.median(scaled), [t1 - t0 for t0, t1 in spans]


def run_worker(jobs, out_dir: Path, env, deadline, seconds=None, max_jobs=None, trace=False):
    """Run jobs in a fresh worker process; its result dict, or None if it failed."""
    out_dir.mkdir(parents=True)
    spec = {
        "src": str(SRC),
        "jobs": [{"argv": job["argv"], "out": str(out_dir / f"job{i:04d}")}
                 for i, job in enumerate(jobs)],
        "seconds": seconds,
        "max_jobs": max_jobs,
        "spans": str(out_dir / "spans.json") if trace else None,
    }
    spec_path, result_path = out_dir / "spec.json", out_dir / "result.json"
    spec_path.write_text(json.dumps(spec))
    cmd = [sys.executable, str(BENCH / "worker.py"), str(spec_path), str(result_path)]
    with open(out_dir / "worker.log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(cmd, env=env, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"worker in {out_dir} ran out of time", file=sys.stderr)
            return None
    if proc.returncode != 0:
        print(f"worker in {out_dir} exited with {proc.returncode}; see its worker.log",
              file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def check_pass(jobs, result, out_dir: Path, reference):
    """Check every job a worker ran; one record per job."""
    records = []
    for rec in result["jobs"]:
        i = rec["index"]
        job = jobs[i]
        ref = None
        problems = []
        if reference is not None and i < len(reference):
            if reference[i]["argv"] == job["argv"]:
                ref = reference[i]["key"]
            else:
                problems.append("stored reference was made for another job list")
        job_dir = out_dir / f"job{i:04d}"
        check = checker.check_job(job, str(job_dir), rec["rc"], ref)
        check["problems"] = problems + check["problems"]
        if problems:
            check["failed"] = job["points"]
        if rec["error"]:
            check["problems"].append(rec["error"])
        out_bytes = sum(p.stat().st_size for p in job_dir.iterdir()) if job_dir.is_dir() else 0
        records.append({"argv": job["argv"], "points": job["points"], "rc": rec["rc"],
                        "wall_s": rec["wall_s"], "scaled_s": rec["scaled_s"],
                        "out_bytes": out_bytes, **check})
    return records


def end_to_end(records, result, setup_s):
    """End-to-end metrics, with job times scaled to the reference speed."""
    walls = [r["scaled_s"] for r in records]
    attempted = sum(r["points"] for r in records)
    failed = sum(r["failed"] for r in records)
    return {
        "setup_s": setup_s,
        "points_per_s": attempted / sum(walls),
        "job_s_p50": statistics.median(walls),
        "job_s_max": max(walls),
        "peak_rss_mb": result["peak_rss_mb"],
        "pass_frac": (attempted - failed) / attempted,
    }


def source_info():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def load_reference(workload, seed):
    if seed != REFERENCE_SEED or not REFERENCE_FILE.exists():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(workload)


def write_reference(workload, records):
    data = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    data[workload] = [{"argv": r["argv"], "key": r["key"]} for r in records]
    parts = []
    for name in sorted(data):  # one job per line
        jobs = ",\n".join(json.dumps(job, sort_keys=True) for job in data[name])
        parts.append(f"{json.dumps(name)}: [\n{jobs}\n]")
    REFERENCE_FILE.write_text("{\n" + ",\n".join(parts) + "\n}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help=f"store this run's key outputs as the seed-{REFERENCE_SEED} reference")
    args = ap.parse_args(argv)
    if args.write_reference and args.seed != REFERENCE_SEED:
        ap.error(f"--write-reference needs --seed {REFERENCE_SEED}")
    if not (SRC / "tpaopt" / "cli.py").is_file():
        print(f"error: no tpaopt sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    env = worker_env()
    pin_to_one_cpu()
    setup_s, setup_times = measure_setup(env)
    jobs = workloads.WORKLOADS[args.workload](args.seed)
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    reference = load_reference(args.workload, args.seed)

    plain = run_worker(jobs, work / "plain", env, deadline, seconds=args.seconds)
    if plain is None:
        return 1
    records = check_pass(jobs, plain, work / "plain", reference)
    metrics = end_to_end(records, plain, setup_s)
    attempted = sum(r["points"] for r in records)
    failed = sum(r["failed"] for r in records)
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": {**plain["env"], **source_info()},
            "setup_times_s": setup_times, "metrics": metrics, "jobs": records}

    if args.trace:
        traced = run_worker(jobs, work / "traced", env, deadline,
                            max_jobs=len(records), trace=True)
        if traced is None:
            return 1
        traced_records = check_pass(jobs, traced, work / "traced", reference)
        for rec, base in zip(traced_records, records):
            if rec["digests"] != base["digests"]:
                rec["problems"].append("CSV digests differ from the untraced run")
                rec["failed"] = rec["points"]
        attempted += sum(r["points"] for r in traced_records)
        failed += sum(r["failed"] for r in traced_records)
        layers = traced["layers"]
        plain_wall = sum(r["scaled_s"] for r in records)
        traced_wall = sum(r["scaled_s"] for r in traced_records)
        layers["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
        layers["cli.out_bytes"] = sum(r["out_bytes"] for r in traced_records)
        full["layers"] = layers
        full["traced_jobs"] = traced_records
        metrics = layers

    if args.write_reference:
        write_reference(args.workload, records)
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1))

    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    report = {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
              for m in wanted}
    print(f"{args.workload} seed {args.seed}: {len(records)} jobs, {attempted} points "
          f"attempted, {failed} failed (fail_frac {failed / attempted:.6g}), "
          f"trace {'on' if args.trace else 'off'}")
    for name, m in report.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    for rec in records + full.get("traced_jobs", []):
        for problem in rec["problems"]:
            print(f"  problem: {' '.join(rec['argv'])}: {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
