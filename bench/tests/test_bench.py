"""Self-tests of the benchmark: seeded job lists, digests, checker, tracer, speed probe.

    python3 -m pytest bench/tests -q
"""

import csv
import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import PACKAGE, Tracer  # noqa: E402
from worker import run_jobs  # noqa: E402


def cheap_jobs():
    """The first shaping_io jobs of one seed plus two small schmidt jobs."""
    jobs = workloads.shaping_io(3)[:6]
    jobs.append({"argv": ["schmidt", "--delta", "5", "--dev", "-1.8", "--rank", "12"],
                 "points": 1})
    jobs.append({"argv": ["schmidt", "--sweep", "delta", "1", "3", "2", "--dev", "-1.75",
                          "--rank", "12"], "points": 2})
    return jobs


def run_into(out_dir, jobs, tracer=None):
    specs = [{"argv": j["argv"], "out": str(out_dir / f"job{i}")} for i, j in enumerate(jobs)]
    records = run_jobs(specs, tracer=tracer)
    assert [r["rc"] for r in records] == [0] * len(jobs)
    return [checker.check_job(job, spec["out"], 0) for job, spec in zip(jobs, specs)]


def _devs(argv):
    """Every deviation a job evaluates, derived from its argv alone."""
    if argv[0] == "figure":
        p = int(argv[argv.index("--points") + 1])
        if argv[1].startswith("fig8"):
            return np.linspace(-1.9, 0.0, max(2, p - 1))
        if argv[1] in ("fig5a", "fig6b"):
            return [-1.0]
        return np.linspace(-1.9, 2.0, p)
    if "--sweep" in argv:
        k = argv.index("--sweep")
        if argv[k + 1] == "dev":
            return np.linspace(float(argv[k + 2]), float(argv[k + 3]), int(argv[k + 4]))
    return [float(argv[argv.index("--dev") + 1])]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_job_list(name):
    make = workloads.WORKLOADS[name]
    assert make(7) == make(7)
    assert make(7) != make(8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_jobs_share_no_deviation(name):
    seen = set()
    for job in workloads.WORKLOADS[name](0):
        devs = {round(float(d), 9) for d in _devs(job["argv"])}
        assert not devs & seen, job["argv"]
        seen |= devs


def test_same_seed_same_digests_traced_or_not(tmp_path):
    jobs = cheap_jobs()
    first = run_into(tmp_path / "a", jobs)
    second = run_into(tmp_path / "b", jobs)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_into(tmp_path / "t", jobs, tracer)
    finally:
        tracer.uninstall()
    assert all(c["failed"] == 0 and not c["problems"] for c in first), first
    digests = [c["digests"] for c in first]
    assert all(digests)
    assert digests == [c["digests"] for c in second]
    assert digests == [c["digests"] for c in traced]
    layers = tracer.layer_metrics()
    assert layers["cli.main.calls"] == len(jobs)
    assert layers["schmidt.decompose.truncated.calls"] == 6
    assert layers["schmidt.asymptotic_bounds.calls"] == 3
    # the two points of the delta sweep repeat one bounds input
    assert layers["schmidt.asymptotic_bounds.unique_ratio"] == pytest.approx(2 / 3)


def _perturb(path, row, column, factor):
    with open(path, encoding="ascii", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row + 1][col] = format(float(rows[row + 1][col]) * factor, ".9g")
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("".join(",".join(r) + "\n" for r in rows))


@pytest.mark.parametrize("which,table,column", [
    (2, "slm_sweep.csv", "e_opt"),
    (3, "pump_sweep.csv", "p_unshaped"),
    (0, None, None),  # a figure table; its first value column is perturbed
    (7, "schmidt_sweep.csv", "quantum_enhancement"),
])
def test_checker_rejects_output_perturbed_by_1e3(tmp_path, which, table, column):
    jobs = cheap_jobs()
    job = jobs[which]
    check = run_into(tmp_path, [job])[0]
    reference = check["key"]
    out = tmp_path / "job0"
    assert checker.check_job(job, str(out), 0, reference)["failed"] == 0
    if table is None:
        table = f"{job['argv'][1]}.csv"
        with open(out / table, encoding="ascii") as fh:
            column = fh.readline().strip().split(",")[1]
    _perturb(out / table, 0, column, 1 + 1e-3)
    result = checker.check_job(job, str(out), 0, reference)
    assert result["failed"] >= 1
    assert any(column in p for p in result["problems"])


def test_reference_ignores_roundoff_in_residual(tmp_path):
    job = cheap_jobs()[4]  # a shape-slm single point, which reports the residual
    check = run_into(tmp_path, [job])[0]
    reference = check["key"]
    assert all("residual" not in row for row in reference.values())
    report = tmp_path / "job0" / "report.json"
    data = json.loads(report.read_text())
    data["results"]["residual"] = 5e-9
    report.write_text(json.dumps(data))
    assert checker.check_job(job, str(tmp_path / "job0"), 0, reference)["failed"] == 0
    data["results"]["residual"] = 2e-8
    report.write_text(json.dumps(data))
    assert checker.check_job(job, str(tmp_path / "job0"), 0, reference)["failed"] == 1


@pytest.mark.parametrize("row", [
    {"e_opt": "0.99", "p_shaped": "1", "p_unshaped": "1", "residual": "0"},
    {"e_opt": "1.2", "p_shaped": "0.1", "p_unshaped": "0.2", "residual": "0"},
    {"e_opt": "1.2", "p_shaped": "0.2", "p_unshaped": "0.1", "residual": "1e-6"},
    {"r1_squared": "1.5", "quantum_enhancement": "0.67"},
    {"r1_squared": "0.5", "quantum_enhancement": "2", "e_inf": "1.5"},
    {"entropy_bits": "nan"},
])
def test_invariants_reject_bad_rows(row):
    assert checker.row_problems(row)


def test_tracer_restores_every_name():
    importlib.import_module(PACKAGE + ".cli")

    def snapshot():
        return {(name, attr): id(value) for name, mod in list(sys.modules.items())
                if name == PACKAGE or name.startswith(PACKAGE + ".")
                for attr, value in vars(mod).items()}

    before = snapshot()
    decompose = sys.modules[PACKAGE + ".schmidt"].decompose
    tracer = Tracer()
    tracer.install()
    try:
        assert sys.modules[PACKAGE + ".schmidt"].decompose is not decompose
        assert sys.modules[PACKAGE + ".cli"].decompose is not decompose
    finally:
        tracer.uninstall()
    assert snapshot() == before


def test_speed_probe_scales_by_the_samples_in_an_interval():
    with speed.SpeedProbe() as probe:
        time.sleep(0.35)
    assert len(probe.samples) >= 3
    probe.times, probe.samples = [1.0, 2.0, 3.0], [0.001, 0.002, 0.004]
    assert probe.factor(1.5, 3.5) == pytest.approx(speed.REFERENCE_S / 0.003)
    assert probe.factor(3.6, 3.7) == pytest.approx(speed.REFERENCE_S / 0.004)  # nearest
