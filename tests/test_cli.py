import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tpaopt import (LevelSystem, choose_solver, decompose, default_grid, grids,
                    optimal_state_kernel, schmidt, solver_rank)
from tpaopt import cli
from tpaopt.cli import main
from tpaopt.schmidt import DEFAULT_RANK, DENSE_MAX_NODES


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


def test_schmidt_separable_point(tmp_path):
    out = str(tmp_path)
    assert main(["schmidt", "--delta", "0", "--dev", "0", "--out", out, "--rank", "8",
                 "--grid-half-width", "200", "--step", "0.5", "--grid-center", "0"]) == 0
    rep = read_report(out)
    assert rep["schema_version"] == 2
    assert set(rep["timing"]) == {"solve", "bounds", "write"}
    assert rep["results"]["entropy_bits"] <= 0.02
    assert rep["results"]["quantum_enhancement"] <= 1.01
    assert rep["grid"]["points"] == 801
    assert (tmp_path / "schmidt_coefficients.csv").exists()
    assert (tmp_path / "schmidt_modes.csv").exists()


def test_schmidt_default_grid_echoed(tmp_path):
    out = str(tmp_path)
    assert main(["schmidt", "--delta", "5", "--dev", "-1.9", "--out", out]) == 0
    rep = read_report(out)
    assert rep["grid"] == {"min": -17.5, "max": 22.5, "step": 0.2, "points": 201}


def test_schmidt_rejects_bad_deviation(tmp_path):
    assert main(["schmidt", "--dev", "-2", "--out", str(tmp_path)]) == 2


def test_schmidt_sweep_rejects_unknown_param(tmp_path):
    assert main(["schmidt", "--sweep", "sigma", "1", "2", "3",
                 "--out", str(tmp_path)]) == 2
    assert main(["schmidt", "--sweep", "delta", "5", "1", "3",
                 "--out", str(tmp_path)]) == 2  # from >= to


def test_unknown_figure_name_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["figure", "fig99", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_figure_fig2b_columns_and_determinism(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["figure", "fig2b", "--points", "3", "--out", out1]) == 0
    assert main(["figure", "fig2b", "--points", "3", "--out", out2]) == 0
    csv1 = open(os.path.join(out1, "fig2b.csv"), "rb").read()
    csv2 = open(os.path.join(out2, "fig2b.csv"), "rb").read()
    assert csv1 == csv2
    header = csv1.decode().splitlines()[0]
    assert header == "detuning,entropy_bits,quantum_enhancement"
    rep1, rep2 = read_report(out1), read_report(out2)
    for rep in (rep1, rep2):  # the run-to-run fields
        rep.pop("wall_time_ms")
        rep.pop("timing")
    assert rep1 == rep2


def test_report_schema_keys(tmp_path):
    out = str(tmp_path)
    assert main(["shape-slm", "--delta", "2", "--sigma", "1", "--out", out]) == 0
    rep = read_report(out)
    assert set(rep) == {"schema_version", "command", "params", "grid",
                        "results", "diagnostics", "timing", "wall_time_ms"}
    assert rep["command"] == "shape-slm"
    assert isinstance(rep["wall_time_ms"], int)
    assert set(rep["timing"]) == {"shape", "write"}
    assert all(ms >= 0.0 for ms in rep["timing"].values())


def test_stage_clock_keeps_every_update_under_threads(monkeypatch):
    # each thread's clock advances 0.5 s per reading, so every block lasts exactly 500 ms
    local = threading.local()

    def fake_perf_counter():
        local.t = getattr(local, "t", -0.5) + 0.5
        return local.t

    monkeypatch.setattr(cli.time, "perf_counter", fake_perf_counter)
    clock = cli._StageClock()

    def work(_):
        for _ in range(500):
            with clock("solve"):
                pass

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(work, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert clock.ms == {"solve": 8 * 500 * 500.0}


def test_figure_fig2c_enhancement_limit_decreases_with_final_width(tmp_path):
    out = str(tmp_path)
    assert main(["figure", "fig2c", "--points", "2", "--rank", "60", "--out", out]) == 0
    rows = open(os.path.join(out, "fig2c.csv")).read().splitlines()[1:]
    vals = [float(r.split(",")[2]) for r in rows]
    assert vals[0] > vals[-1]  # steep toward vanishing final width


SIGMA_HEADER = "e_opt_sigma_0.5,e_opt_sigma_1,e_opt_sigma_5"
FIGURE_CASES = [
    ("fig5a", ["--points", "3"], "detuning," + SIGMA_HEADER, 3),
    ("fig6b", ["--points", "3"], "detuning,p_shaped_over_n,p_unshaped_over_n", 3),
    ("fig7a", ["--points", "3"], "delta_deviation," + SIGMA_HEADER, 3),
    ("fig7b", ["--points", "4"], "delta_deviation," + SIGMA_HEADER, 4),
    ("fig8a", ["--points", "2", "--rank", "8"],
     "detuning,delta_deviation,quantum_enhancement", 2 * 2),
    ("fig8b", ["--points", "2", "--rank", "8"], "detuning,delta_deviation,e_q_shaped", 2 * 2),
    ("fig8c", ["--points", "2", "--rank", "8"], "detuning,delta_deviation,e_q_unshaped", 2 * 2),
]


@pytest.mark.parametrize("name, extra, header, n_rows", FIGURE_CASES,
                         ids=[case[0] for case in FIGURE_CASES])
def test_figure_preset(tmp_path, name, extra, header, n_rows):
    out = str(tmp_path)
    assert main(["figure", name, "--out", out] + extra) == 0
    lines = open(os.path.join(out, f"{name}.csv")).read().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + n_rows
    assert read_report(out)["diagnostics"]["columns"] == header.split(",")


def test_shape_slm_zero_detuning(tmp_path):
    out = str(tmp_path)
    assert main(["shape-slm", "--delta", "0", "--sigma", "1", "--out", out]) == 0
    rep = read_report(out)
    assert rep["results"]["e_opt"] == pytest.approx(1.0, abs=1e-6)
    assert (tmp_path / "slm_phase.csv").exists()


def test_shape_slm_sigma_sweep_saturates(tmp_path):
    out = str(tmp_path)
    assert main(["shape-slm", "--delta", "5", "--sweep", "sigma", "0.05", "50", "6",
                 "--log", "--out", out]) == 0
    rows = read_report(out)["results"]["rows"]
    e = [r["e_opt"] for r in rows]
    assert e[0] < 1.05  # sigma far below the detuning: nothing to gain
    assert e[-1] > 1.5
    assert e[-1] >= e[-2] - 1e-6  # saturation at large bandwidth


def test_shape_pump_requires_zeta_or_flag(tmp_path):
    assert main(["shape-pump", "--sigma", "1", "--out", str(tmp_path)]) == 2


def test_shape_pump_auto_parameters(tmp_path):
    out = str(tmp_path)
    assert main(["shape-pump", "--dev", "-1.9", "--delta", "5", "--phi", "1",
                 "--sigma", "auto", "--zeta", "auto", "--out", out]) == 0
    rep = read_report(out)
    assert rep["params"]["sigma_resolved"] == pytest.approx(0.3)   # 3 gamma_f
    assert rep["params"]["zeta_resolved"] == pytest.approx(7.0)    # gamma_e (2 + Delta)
    assert rep["results"]["e_opt"] >= 1.0


def test_shape_pump_narrow_limit(tmp_path):
    out = str(tmp_path)
    assert main(["shape-pump", "--phi", "0", "--sigma", "0.02", "--infinite-pm",
                 "--out", out]) == 0
    assert read_report(out)["results"]["e_opt"] <= 1.01


def test_config_layering(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta = 3\nsigma = 2  # trailing comment\n")
    out = str(tmp_path / "o1")
    assert main(["shape-slm", "--config", str(cfg), "--out", out]) == 0
    rep = read_report(out)
    assert rep["params"]["delta"] == 3.0
    assert rep["params"]["sigma_resolved"] == 2.0
    # explicit flags win over config values
    out2 = str(tmp_path / "o2")
    assert main(["shape-slm", "--config", str(cfg), "--delta", "5", "--out", out2]) == 0
    assert read_report(out2)["params"]["delta"] == 5.0


def test_config_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert main(["shape-slm", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_thread_pool_does_not_change_output(tmp_path, monkeypatch):
    out1, out2 = str(tmp_path / "serial"), str(tmp_path / "pool")
    args = ["shape-slm", "--delta", "4", "--sweep", "sigma", "0.5", "8", "5"]
    assert main(args + ["--out", out1]) == 0
    monkeypatch.setenv("TPAOPT_THREADS", "3")
    assert main(args + ["--out", out2]) == 0
    a = open(os.path.join(out1, "slm_sweep.csv"), "rb").read()
    b = open(os.path.join(out2, "slm_sweep.csv"), "rb").read()
    assert a == b


def test_csv_format_only(tmp_path):
    out = str(tmp_path)
    assert main(["shape-slm", "--delta", "2", "--sigma", "1", "--format", "csv",
                 "--out", out]) == 0
    assert (tmp_path / "slm_phase.csv").exists()
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv, grid", [
    (["shape-slm", "--delta", "5", "--sigma", "2", "--grid-half-width", "40"],
     {"min": -40, "max": 40, "step": 0.04, "points": 2001}),
    (["shape-pump", "--delta", "3", "--sigma", "0.5", "--zeta", "2", "--step", "0.01",
      "--grid-half-width", "8"],
     {"min": -5, "max": 11, "step": 0.01, "points": 1601}),
])
def test_shaping_grid_overrides_echoed(tmp_path, argv, grid):
    out = str(tmp_path)
    assert main(argv + ["--out", out]) == 0
    assert read_report(out)["grid"] == pytest.approx(grid)


def test_solver_failure_exits_3(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    assert main(["schmidt", "--grid-half-width", "20", "--step", "0.5",
                 "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure:")


@pytest.mark.parametrize("flag, value, field", [
    ("--delta", "nan", "delta_detuning"),
    ("--dev", "inf", "delta_deviation"),
])
@pytest.mark.parametrize("command", [["schmidt", "--rank", "4"], ["shape-slm", "--sigma", "1"]])
def test_non_finite_parameters_exit_2(tmp_path, capsys, command, flag, value, field):
    assert main(command + [flag, value, "--out", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
def test_bad_thread_count_exits_2(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("TPAOPT_THREADS", value)
    assert main(["shape-slm", "--delta", "4", "--sweep", "sigma", "0.5", "8", "3",
                 "--out", str(tmp_path)]) == 2
    assert "TPAOPT_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--step", "1e-4"],        # 8,000,001-node point grid
    ["--dev", "-1.9999999"],   # 1,600,000,001-node bounds grid
])
def test_infeasible_dense_grid_fails_fast(tmp_path, capsys, argv):
    t0 = time.perf_counter()
    assert main(["schmidt", "--rank", "4", "--out", str(tmp_path)] + argv) == 2
    assert time.perf_counter() - t0 < 5.0
    assert "physical memory" in capsys.readouterr().err


@pytest.mark.parametrize("n, rank, vectors, expected", [
    (801, None, False, ("dense_values", None)),      # bounds and sweep rows: full spectrum
    (801, None, True, ("dense", None)),              # single point writing modes
    (801, 300, False, ("arpack", 300)),              # explicit rank: truncated solver
    (4001, None, False, ("arpack", 300)),            # default rank beyond the dense crossover
    (4001, None, True, ("arpack", 300)),
    (3061, 16, True, ("arpack", 16)),
    (90, 16, True, ("arpack", 16)),
    (100, 99, False, ("dense_values", 99)),          # ARPACK needs k < n - 1: dense, cut to k
    (100, 98, True, ("arpack", 98)),
    (4001, 0, True, ("dense", None)),                # rank < 1: full spectrum at any size
    (4001, -3, False, ("dense_values", None)),
])
def test_solver_policy(n, rank, vectors, expected):
    k = solver_rank(n, rank)
    assert (choose_solver(n, k, vectors), k) == expected


@pytest.mark.parametrize("vectors", [False, True])
def test_solver_policy_crossover(vectors):
    assert solver_rank(DENSE_MAX_NODES) is None
    assert choose_solver(DENSE_MAX_NODES, None, vectors).startswith("dense")
    assert solver_rank(DENSE_MAX_NODES + 1) == DEFAULT_RANK
    assert choose_solver(DENSE_MAX_NODES + 1, DEFAULT_RANK, vectors) == "arpack"


def test_large_grid_solved_without_sampling(tmp_path, monkeypatch):
    argv = ["schmidt", "--dev", "0", "--step", "0.1", "--rank", "16", "--format", "json"]
    sys_ = LevelSystem(delta_detuning=0.0, delta_deviation=0.0)
    grid = default_grid(sys_, step=0.1)
    assert grid.count == 8001

    def refuse(*args, **kwargs):
        raise AssertionError("sample_kernel called")

    with monkeypatch.context() as m:
        m.setattr(grids, "sample_kernel", refuse)
        m.setattr(schmidt, "sample_kernel", refuse)
        assert main(argv + ["--out", str(tmp_path)]) == 0
    rep = read_report(str(tmp_path))
    assert rep["grid"]["points"] == 8001
    diag = rep["diagnostics"]
    assert (diag["method"], diag["n"], diag["k"]) == ("hankel_arpack", 8001, 16)
    # oracle: the same truncated solve on the sampled dense matrix (1 GB)
    r1 = decompose(optimal_state_kernel(sys_, grid), rank=16, vectors=False).coefficients[0]
    assert rep["results"]["r"][0] == pytest.approx(r1, rel=0, abs=1e-12)


def test_solver_stats_reported(tmp_path):
    out = str(tmp_path)
    assert main(["schmidt", "--dev", "-1.5", "--sweep", "delta", "1", "3", "3",
                 "--out", out]) == 0
    for row in read_report(out)["results"]["rows"]:
        assert row["method"] == "dense_values" and row["k"] == row["n"] == 1001
        assert row["rank"] is None and 0.99 < row["captured_norm"] <= 1.0
    single = str(tmp_path / "single")
    assert main(["schmidt", "--dev", "-1.5", "--rank", "8", "--out", single]) == 0
    diag = read_report(single)["diagnostics"]
    assert (diag["method"], diag["n"], diag["k"], diag["rank"]) == ("hankel_arpack", 1001, 8, 8)
    kept = diag["coefficient_norm_sq"]
    assert diag["captured_norm"] == pytest.approx(
        kept / (kept + diag["truncation_residual"] ** 2), rel=1e-12)
    assert not diag["dense"]
