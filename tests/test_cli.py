import json
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from tpaopt import (LevelSystem, auto_grid, choose_solver, decompose, grids, make_grid,
                    optimal_state_kernel, optimal_state_operator, optimal_state_schmidt, schmidt,
                    solver_rank)
from tpaopt import cli
from tpaopt.cli import main
from tpaopt.schmidt import DEFAULT_RANK, DENSE_MAX_NODES, HankelKernel


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


def test_schmidt_separable_point(tmp_path):
    out = str(tmp_path)
    assert main(["schmidt", "--delta", "0", "--dev", "0", "--out", out, "--rank", "8",
                 "--grid-half-width", "200", "--step", "0.5", "--grid-center", "0",
                 "--modes", "4"]) == 0
    rep = read_report(out)
    assert rep["schema_version"] == 2
    assert set(rep["timing"]) == {"solve", "bounds", "write"}
    assert rep["results"]["entropy_bits"] <= 0.02
    assert rep["results"]["quantum_enhancement"] <= 1.01
    assert rep["grid"]["points"] == 801
    assert (tmp_path / "schmidt_coefficients.csv").exists()
    # Phi has rank 1 here: the modes of the roundoff coefficients are not written
    rows = (tmp_path / "schmidt_modes.csv").read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {"1"}


def test_schmidt_default_grid_echoed(tmp_path):
    out = str(tmp_path)
    assert main(["schmidt", "--delta", "5", "--dev", "-1.9", "--out", out]) == 0
    rep = read_report(out)
    assert rep["grid"] == {"min": -17.5, "max": 22.5, "step": 0.2, "points": 201}


def test_step_override_keeps_both_lines_on_the_grid(tmp_path):
    # a --step override keeps the large-detuning widening; [100, 900] would miss both lines
    out = str(tmp_path)
    assert main(["schmidt", "--delta", "1000", "--step", "1", "--rank", "8", "--out", out]) == 0
    rep = read_report(out)
    assert rep["grid"]["min"] < 0.0 and rep["grid"]["max"] > 1000.0  # the lines at 0 and omega_f
    assert rep["results"]["quantum_enhancement"] == pytest.approx(2.461, rel=0.02)


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


def test_stage_clock_sums_each_stage(monkeypatch):
    # the clock advances 0.25 s per reading, so a block spans 250 ms, or more if it reads
    # the clock inside; blocks of one stage add up
    ticks = iter(np.arange(100) * 0.25)
    monkeypatch.setattr(cli.time, "perf_counter", lambda: float(next(ticks)))
    clock = cli._StageClock()
    assert clock.start == 0.0
    for stage in ("solve", "write", "solve"):
        with clock(stage):
            pass
    with clock("solve"):
        cli.time.perf_counter()  # one extra reading: this block lasts 500 ms
    with clock("write"):
        pass
    assert clock.ms == {"solve": 250.0 + 250.0 + 500.0, "write": 250.0 + 250.0}


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
    # a comment-only line and a blank line are skipped
    cfg.write_text("# a shaping point\ndelta = 3\n\nsigma = 2  # trailing comment\n")
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


@pytest.mark.parametrize("line", ["help = 1", "config = other.cfg"])
def test_config_cannot_hold_help_or_config(tmp_path, capsys, line):
    # help would print the usage and run nothing; a nested config would be dropped unread
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"delta = 3\n{line}\n")
    out = tmp_path / "out"
    assert main(["shape-slm", "--config", str(cfg), "--out", str(out)]) == 2
    key = line.split()[0]
    assert capsys.readouterr().err == f"error: {cfg}:2: unknown config key {key!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, line, message", [
    ("shape-slm", "delta 3", "expected key=value, got 'delta 3'"),
    ("shape-pump", "infinite_pm = maybe", "boolean value expected for 'infinite_pm'"),
], ids=["no_equals", "boolean"])
def test_config_line_errors_exit_2(tmp_path, capsys, command, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:1: {message}\n"
    assert not out.exists()


def test_config_sweep_matches_flags(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("delta = 4\nsweep = sigma 0.5 8 3\nlog = yes\n")
    out1, out2 = str(tmp_path / "flags"), str(tmp_path / "config")
    assert main(["shape-slm", "--delta", "4", "--sweep", "sigma", "0.5", "8", "3", "--log",
                 "--out", out1]) == 0
    assert main(["shape-slm", "--config", str(cfg), "--out", out2]) == 0
    a = open(os.path.join(out1, "slm_sweep.csv"), "rb").read()
    b = open(os.path.join(out2, "slm_sweep.csv"), "rb").read()
    assert a == b


def test_csv_format_only(tmp_path):
    out = str(tmp_path)
    assert main(["shape-slm", "--delta", "2", "--sigma", "1", "--format", "csv",
                 "--out", out]) == 0
    assert (tmp_path / "slm_phase.csv").exists()
    assert not (tmp_path / "report.json").exists()


def test_figure_json_format_writes_rows_to_report(tmp_path):
    # --format json writes no CSV; the report holds the CSV's rows in header order
    base = ["figure", "fig7b", "--points", "3", "--out"]
    assert main(base + [str(tmp_path / "csv"), "--format", "csv"]) == 0
    assert main(base + [str(tmp_path / "json"), "--format", "json"]) == 0
    assert os.listdir(tmp_path / "json") == ["report.json"]
    rep = read_report(tmp_path / "json")
    lines = (tmp_path / "csv" / "fig7b.csv").read_text().splitlines()
    assert lines[0] == ",".join(rep["diagnostics"]["columns"])
    assert [",".join(grids.CSV_FORMAT % x for x in row)
            for row in rep["results"]["rows"]] == lines[1:]


def test_no_step_loads_scipy(tmp_path):
    # in a fresh interpreter: the import, the Schmidt points (dense values-only, with modes,
    # the bare command's rank-300 Lanczos solve, --rank 8 with its truncated bounds), both
    # shapers (Gaussian phase matching under --zeta auto) and a fig8b figure load no scipy
    script = f"""
import sys
from tpaopt.cli import main
def loaded():
    return [m for m in sys.modules if m.split(".")[0] == "scipy"]
steps = [loaded()]
out = ["--out", {str(tmp_path)!r}]
point = ["schmidt", "--delta", "5", "--dev", "-1.9"]
for argv in (point + ["--format", "json"], point + ["--format", "csv"], ["schmidt"],
             point + ["--rank", "8", "--format", "json"], ["shape-slm", "--delta", "5"],
             ["shape-pump", "--delta", "5", "--zeta", "auto"],
             ["figure", "fig8b", "--points", "2"]):
    assert main(argv + out) == 0
    steps.append(loaded())
print(steps)
"""
    proc = subprocess.run([sys.executable, "-c", script], env=_fresh_env(), capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines()[-1] == str([[]] * 8)


def _fresh_env():
    """The environment of a fresh interpreter that imports this tpaopt."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _run_cli(out, *argv):
    """`python -m tpaopt.cli ARGV --out out` in a fresh interpreter, so that its stderr shows
    warnings as a user sees them (pytest records them in process)."""
    return subprocess.run([sys.executable, "-m", "tpaopt.cli", *argv, "--out", str(out)],
                          env=_fresh_env(), capture_output=True, text=True)


UNDER_RESOLVED = "warning: the grid step "


def test_oversized_rank_solves_every_coefficient_and_reports_that_rank(tmp_path):
    proc = _run_cli(tmp_path, "schmidt", "--delta", "5", "--dev", "-1.9", "--rank", "250")
    assert proc.returncode == 0
    rep = read_report(str(tmp_path))
    assert rep["diagnostics"]["rank"] == rep["diagnostics"]["k"] == 201
    assert len(rep["results"]["r"]) == 201
    assert "RuntimeWarning" not in proc.stderr and "schmidt.py" not in proc.stderr
    # delta = -1.9 is under-resolved on the default step: its one line is all of stderr
    assert [line[:len(UNDER_RESOLVED)] for line in proc.stderr.splitlines()] == [UNDER_RESOLVED]


@pytest.mark.parametrize("argv, lines", [
    # a step of 100 gamma_e: r1^2 = 253.6 and S < 0, numbers no state has
    (["schmidt", "--delta", "1e6", "--step", "100", "--rank", "4"], 1),
    (["figure", "fig2b", "--points", "3"], 1),  # three rows at delta = -1.9: one line
    (["schmidt", "--dev", "-0.5"], 0),
    (["schmidt", "--delta", "5", "--dev", "-1.8"], 0),  # step 0.2 = gamma_f up to roundoff
], ids=["step_100", "fig2b", "dev_-0.5", "dev_-1.8"])
def test_under_resolved_grid_warns_in_one_line(tmp_path, argv, lines):
    proc = _run_cli(tmp_path, *argv)
    assert proc.returncode == 0 and proc.stdout
    err = proc.stderr.splitlines()
    assert len(err) == lines and all(line.startswith(UNDER_RESOLVED) for line in err)
    assert all("exceeds min(gamma_e, gamma_f)" in line for line in err)


def test_main_restores_the_warning_format(tmp_path):
    before = warnings.formatwarning
    assert main(["schmidt", "--dev", "-2", "--out", str(tmp_path)]) == 2
    assert warnings.formatwarning is before
    with pytest.raises(SystemExit):
        main(["figure", "fig99", "--out", str(tmp_path)])
    assert warnings.formatwarning is before
    assert cli._warning_line(RuntimeWarning("a b"), RuntimeWarning, "x.py", 3) == "warning: a b\n"


@pytest.mark.parametrize("argv, grid", [
    (["shape-slm", "--delta", "5", "--sigma", "2", "--grid-half-width", "40"],
     {"min": -40.00801773, "max": 40.00801773, "step": 0.16739756, "points": 479}),
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


def test_lanczos_breakdown_exits_3(tmp_path, monkeypatch, capsys):
    # a non-finite product raises LinAlgError inside the truncated solve of Phi, the
    # complex-symmetric tridiagonalization
    monkeypatch.setattr(HankelKernel, "_apply", lambda self, v, transpose: np.full_like(v, np.nan))
    assert main(["schmidt", "--grid-half-width", "20", "--step", "0.5", "--rank", "8",
                 "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: Lanczos tridiagonalization broke down at step 1\n"


def test_bounds_eigensolver_failure_exits_3(tmp_path, monkeypatch, capsys):
    # the point's solve is an SVD; only its bounds reach the Gram eigensolver
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    assert main(["schmidt", "--delta", "5", "--dev", "-1.8", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "Traceback" not in err


@pytest.mark.parametrize("flag, value, field", [
    ("--delta", "nan", "delta_detuning"),
    ("--dev", "inf", "delta_deviation"),
    ("--grid-half-width", "inf", "half_width"),
    ("--step", "1e-310", "half_width"),
    ("--delta", "1e308", "half_width"),  # the grid holding both lines overflows
])
@pytest.mark.parametrize("command", [["schmidt", "--rank", "4"], ["shape-slm", "--sigma", "1"]])
def test_non_finite_parameters_exit_2(tmp_path, capsys, command, flag, value, field):
    assert main(command + [flag, value, "--out", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("argv, field", [
    (["schmidt", "--grid-center", "nan"], "center"),
    (["shape-slm", "--sigma", "inf"], "sigma"),
    (["shape-pump", "--sigma", "inf", "--infinite-pm"], "sigma"),
    (["shape-pump", "--sigma", "1", "--zeta", "inf"], "zeta"),
    (["shape-pump", "--phi", "nan", "--zeta", "1"], "phi"),
])
def test_non_finite_grid_and_shaping_values_exit_2(tmp_path, capsys, argv, field):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["figure", "fig7a", "--points", "0"], "--points"),
    (["figure", "fig8a", "--points", "-2"], "--points"),
    (["schmidt", "--modes", "-3"], "--modes"),
    (["schmidt", "--rank", "-3", "--grid-half-width", "10", "--step", "0.5"], "--rank"),
    (["figure", "fig8a", "--rank", "-1"], "--rank"),
])
def test_bad_count_exits_2(tmp_path, capsys, argv, flag):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert flag in capsys.readouterr().err
    assert not os.listdir(tmp_path)  # rejected before anything is computed or written


@pytest.mark.parametrize("argv", [
    ["schmidt", "--rank", "4", "--step", "1e-4"],       # 8,000,001-node point grid
    ["schmidt", "--rank", "4", "--dev", "-1.9999999"],  # 1,600,000,001-node bounds grid
    ["schmidt", "--grid-half-width", "1e300"],  # a node count whose byte count overflows
    # a sweep of 1e15 rows, about 1 EiB of values and rows
    ["shape-slm", "--sweep", "delta", "1", "2", "1000000000000000"],
    # shaping grids of 6e13 and 4e13 nodes (hundreds of TiB), and of 5e301 nodes
    ["shape-slm", "--step", "1e-12"],
    ["shape-pump", "--sigma", "1", "--infinite-pm", "--step", "1e-12"],
    ["shape-slm", "--grid-half-width", "1e300"],
])
def test_infeasible_dense_grid_fails_fast(tmp_path, capsys, argv):
    t0 = time.perf_counter()
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error:")
    # a grid or sweep is refused before any allocation
    assert "physical memory" in err
    assert not re.search(r"\d{20}", err)  # huge node counts to 3 significant digits


@pytest.mark.parametrize("name", ["fig8a", "fig2c"])
def test_figure_beyond_memory_exits_2_naming_points(tmp_path, capsys, name):
    # 1e12 x (1e12 - 1) rows of fig8a and 1e12 of fig2c, refused before any point is built
    t0 = time.perf_counter()
    assert main(["figure", name, "--points", "1000000000000", "--out", str(tmp_path)]) == 2
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error: a figure grid of 1e+12 ")
    assert "points (--points) needs" in err and "physical memory" in err
    assert not os.listdir(tmp_path)


def test_sweep_beyond_memory_exits_2_before_any_point(tmp_path, capsys, monkeypatch):
    # 1e6 rows against 64 MiB of physical memory: refused before the values are built
    pages, sysconf = {"SC_PHYS_PAGES": 2**14, "SC_PAGE_SIZE": 2**12}, os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: pages.get(name) or sysconf(name))

    def point(args, delta, dev, sigma):
        pytest.fail("a sweep beyond physical memory ran a point")

    monkeypatch.setitem(cli.COMMANDS, "shape-slm", (point, *cli.COMMANDS["shape-slm"][1:]))
    argv = ["shape-slm", "--sweep", "delta", "1", "2", "1000000", "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a sweep grid of 1000000 points (--sweep POINTS) needs ")
    assert "than the 0.0625 GiB of physical memory" in err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv, flag", [
    (["figure", "fig2a", "--points"], "--points"),
    (["shape-slm", "--sweep", "delta", "1", "2"], "--sweep POINTS"),
])
def test_count_beyond_float_range_exits_2_naming_the_flag(tmp_path, capsys, argv, flag):
    assert main(argv + ["1" + "0" * 400, "--out", str(tmp_path)]) == 2
    assert f"of inf points ({flag}) needs inf GiB" in capsys.readouterr().err


def test_memory_error_without_text_prints_a_message(tmp_path, capsys, monkeypatch):
    def no_memory(n):
        raise MemoryError()

    header, _, values = cli.FIGURES["fig8a"]
    monkeypatch.setitem(cli.FIGURES, "fig8a", (header, no_memory, values))
    assert main(["figure", "fig8a", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


def test_dump_kernel_writes_the_matrix_solved(tmp_path):
    # at delta = 0 the sampled kernel has exact zeros where the solved one has roundoff
    argv = ["schmidt", "--delta", "0", "--dev", "1", "--grid-half-width", "60", "--step", "0.25",
            "--format", "csv", "--dump-kernel", "--out", str(tmp_path)]
    assert main(argv) == 0
    sys_ = LevelSystem(delta_detuning=0.0, delta_deviation=1.0)
    grid = auto_grid(sys_, half=60.0, step=0.25)
    assert grid.count == 481
    dense = optimal_state_operator(sys_, grid).to_dense().entries.view(np.float64)
    rows = (tmp_path / "kernel.csv").read_text().splitlines()[3:]
    assert rows == [",".join("%.9g" % x for x in row) for row in dense]


@pytest.mark.parametrize("n, rank, vectors, expected", [
    (801, None, False, ("dense_values", None)),      # bounds and sweep rows: full spectrum
    (801, None, True, ("dense", None)),              # a library decompose with vectors
    (801, 300, False, ("lanczos", 300)),             # explicit rank: truncated solver, values only
    (4001, None, False, ("lanczos", 300)),           # default rank beyond the dense crossover
    (4001, None, True, ("lanczos", 300)),
    (3061, 16, True, ("lanczos", 16)),
    (90, 16, True, ("lanczos", 16)),
    (100, 99, False, ("dense_values", 99)),          # truncated needs k < n - 1: dense, cut to k
    (100, 98, True, ("lanczos", 98)),
    (4001, 0, True, ("dense", None)),                # rank < 1: full spectrum at any size
    (4001, -3, False, ("dense_values", None)),
])
def test_solver_policy(n, rank, vectors, expected):
    k = solver_rank(n, rank)
    assert (choose_solver(n, k, vectors), k) == expected


@pytest.mark.parametrize("vectors", [False, True])
def test_solver_policy_crossover(monkeypatch, vectors):
    assert solver_rank(DENSE_MAX_NODES) is None
    assert choose_solver(DENSE_MAX_NODES, None, vectors).startswith("dense")
    assert solver_rank(DENSE_MAX_NODES + 1) == DEFAULT_RANK
    assert choose_solver(DENSE_MAX_NODES + 1, DEFAULT_RANK, vectors) == "lanczos"
    # the system-level entry is the values-only policy applied to Phi on auto_grid, on both
    # sides of a crossover patched down to this 201-node grid
    sys_ = LevelSystem(delta_detuning=5.0, delta_deviation=-1.9)
    grid = auto_grid(sys_)
    monkeypatch.setattr(schmidt, "DEFAULT_RANK", 16)
    for crossover, method in ((grid.count, "dense"), (grid.count - 1, "hankel_lanczos")):
        monkeypatch.setattr(schmidt, "DENSE_MAX_NODES", crossover)
        d = optimal_state_schmidt(sys_)
        ref = decompose(optimal_state_operator(sys_, grid), rank=solver_rank(grid.count),
                        vectors=False)
        assert d.method.startswith(method) and d.grid1 == grid
        for a, b in ((d.coefficients, ref.coefficients), (d.modes_1, ref.modes_1),
                     (d.modes_2, ref.modes_2), (d.residual, ref.residual)):
            np.testing.assert_array_equal(a, b)


def test_large_grid_solved_without_sampling(tmp_path, monkeypatch):
    argv = ["schmidt", "--dev", "0", "--step", "0.1", "--rank", "16", "--format", "json"]
    sys_ = LevelSystem(delta_detuning=0.0, delta_deviation=0.0)
    grid = make_grid(sys_.omega_f / 2.0, 200.0 * sys_.gamma_f, 0.1)
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
    assert (diag["method"], diag["n"], diag["k"]) == ("hankel_lanczos", 8001, 16)
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
    assert (diag["method"], diag["n"], diag["k"], diag["rank"]) == ("hankel_lanczos", 1001, 8, 8)
    kept = diag["coefficient_norm_sq"]
    assert diag["captured_norm"] == pytest.approx(
        kept / (kept + diag["truncation_residual"] ** 2), rel=1e-12)
    assert not diag["dense"]


@pytest.mark.parametrize("argv, flags", [
    (["shape-pump", "--infinite-pm", "--sweep", "zeta", "1", "5", "3"],
     ("--infinite-pm", "--sweep zeta")),
    (["shape-pump", "--infinite-pm", "--zeta", "5"], ("zeta", "infinite_pm")),
    (["schmidt", "--sweep", "delta", "1", "2", "2", "--dump-kernel"],
     ("--dump-kernel", "--sweep")),
])
def test_sweep_with_a_flag_it_would_ignore_exits_2(tmp_path, capsys, argv, flags):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and all(flag in err for flag in flags)
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv", [
    ["schmidt", "--sweep", "delta", "1", "inf", "3"],
    ["shape-slm", "--sweep", "sigma", "1", "inf", "3"],
    ["schmidt", "--sweep", "delta", "1", "inf", "3", "--log"],
    ["shape-slm", "--sweep", "delta", "nan", "1", "3"],
])
def test_non_finite_sweep_ends_exit_2(tmp_path, capsys, recwarn, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--sweep" in err and "RuntimeWarning" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv, message", [
    (["schmidt", "--sweep", "delta", "1", "2", "1"], "sweep needs at least 2 points, got 1"),
    (["shape-slm", "--sweep", "sigma", "0", "1", "3", "--log"],
     "log-spaced sweep requires a positive start"),
], ids=["one_point", "log_from_zero"])
def test_sweep_spacing_errors_exit_2(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("command, ends, bad", [
    ("schmidt", ["1", "2", "3.5"], "3.5"),
    ("schmidt", ["one", "2", "3"], "one"),
    ("shape-slm", ["1", "2e", "3"], "2e"),
])
def test_malformed_sweep_numbers_exit_2(tmp_path, capsys, command, ends, bad):
    assert main([command, "--sweep", "delta", *ends, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --sweep needs numbers FROM, TO and an integer POINTS:")
    assert repr(bad) in err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv, message", [
    (["shape-slm", "--sigma", "abc"], "--sigma takes a number or 'auto', got 'abc'"),
    (["shape-pump", "--sigma", "1", "--zeta", "xyz"],
     "--zeta takes a number or 'auto', got 'xyz'"),
    (["shape-pump", "--delta", "-3", "--zeta", "auto"],  # gamma_e (2 + Delta) = -1
     "--zeta auto needs a detuning above -2 (zeta = gamma_e (2 + Delta))"),
    (["shape-slm", "--delta", "-1", "--sigma", "auto"],  # sigma = Delta gamma_e = -1
     "--sigma auto needs a positive detuning (sigma = Delta gamma_e)"),
], ids=["sigma_text", "zeta_text", "zeta_auto_delta", "sigma_auto_delta"])
def test_bad_sigma_or_zeta_exits_2_naming_the_flag(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv, field", [
    (["shape-pump", "--zeta", "1e-200", "--sigma", "1"], "zeta=1e-200"),  # (pi zeta^2)^1/4 = 0
    (["shape-pump", "--phi", "1e308", "--zeta", "1"], "phi=1e+308"),  # the chirp overflows
    (["shape-slm", "--sigma", "1e-200", "--grid-half-width", "10", "--step", "0.1"],
     "sigma=1e-200"),
])
def test_shaping_response_beyond_float_range_exits_2(tmp_path, capsys, recwarn, argv, field):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the effective response of") and "is not finite" in err
    assert field in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv, keys", [
    (["schmidt", "--grid-half-width", "10", "--step", "0.5"],
     "delta dev grid_center grid_half_width modes rank step"),
    (["shape-slm"], "delta dev grid_half_width sigma sigma_resolved step"),
    (["shape-pump", "--zeta", "1"],
     "delta dev grid_half_width infinite_pm phi sigma sigma_resolved step zeta zeta_resolved"),
    (["schmidt", "--grid-half-width", "10", "--step", "0.5", "--sweep", "delta", "1", "2", "2"],
     "delta dev grid_center grid_half_width modes rank step sweep"),
    (["shape-slm", "--sweep", "delta", "1", "2", "2"],
     "delta dev grid_half_width sigma step sweep"),
    (["shape-pump", "--zeta", "1", "--sweep", "delta", "1", "2", "2"],
     "delta dev grid_half_width infinite_pm phi sigma step sweep zeta"),
    (["figure", "fig7a", "--points", "2"], "name points rank"),
])
def test_report_params_are_the_command_flags(tmp_path, argv, keys):
    # every flag but --out, --format, --config, --dump-kernel and --sweep/--log (as sweep)
    assert main(argv + ["--format", "json", "--out", str(tmp_path)]) == 0
    assert " ".join(sorted(read_report(tmp_path)["params"])) == keys


def test_presets_equal_the_commands_at_their_points(tmp_path):
    def nine(values):
        return [grids.CSV_FORMAT % x for x in values]

    def figure_rows(name):
        out = tmp_path / name
        assert main(["figure", name, "--points", "2", "--format", "json", "--out", str(out)]) == 0
        return read_report(out)["results"]["rows"]

    def command(argv, keys):
        out = tmp_path / "command"
        assert main(argv + ["--format", "json", "--out", str(out)]) == 0
        return [read_report(out)["results"][k] for k in keys]

    for delta, *populations in figure_rows("fig6b"):
        assert nine(populations) == nine(command(
            ["shape-slm", "--delta", repr(delta), "--dev", "-1", "--sigma", "auto"],
            ("p_shaped", "p_unshaped")))
    for dev, *gains in figure_rows("fig7a"):
        assert nine(gains) == nine(
            command(["shape-pump", "--delta", "0", "--phi", "0", "--dev", repr(dev),
                     "--infinite-pm", "--sigma", repr(sigma)], ("e_opt",))[0]
            for sigma in cli.SIGMAS)
    # the bounds ignore the detuning and the point's grid; a small grid keeps the solve cheap
    for dev, s_inf, e_inf in figure_rows("fig2c"):
        assert nine((e_inf, s_inf)) == nine(command(
            ["schmidt", "--delta", "3", "--dev", repr(dev), "--grid-half-width", "20", "--step",
             "0.5"], ("e_inf", "s_inf")))
    # fig8 at its own default rank, 16: E_q, and the shaped population over the point's r1^2
    for (delta, dev, e_q), (*_, e_q_shaped) in zip(figure_rows("fig8a"), figure_rows("fig8b")):
        point = ["--delta", repr(delta), "--dev", repr(dev)]
        q, r_squared = command(["schmidt", *point, "--rank", "16"],
                               ("quantum_enhancement", "r_squared"))
        p_shaped, = command(["shape-pump", *point, "--sigma", "auto", "--phi", "1", "--zeta",
                             "auto"], ("p_shaped",))
        assert nine((e_q, e_q_shaped)) == nine((q, p_shaped / r_squared[0]))


@pytest.mark.parametrize("flags, solves", [
    ([], [(None, False), (2, True)]),  # dense values, then the two pairs written
    (["--modes", "0"], [(None, False)]),
    (["--format", "json"], [(None, False)]),  # no schmidt_modes.csv, no modes
    (["--rank", "8"], [(8, False), (2, True)]),  # the same rule at an explicit rank
    (["--rank", "8", "--modes", "0"], [(8, False)]),
])
def test_a_point_solves_only_for_the_modes_it_writes(tmp_path, monkeypatch, flags, solves):
    calls = []
    solve = schmidt.decompose

    def counted(kernel, rank=None, renormalize=False, vectors=True):
        if kernel.symmetric:  # Phi; an explicit rank also sends the bounds' Q here
            calls.append((rank, vectors))
        return solve(kernel, rank, renormalize, vectors)

    monkeypatch.setattr(schmidt, "decompose", counted)
    argv = ["schmidt", "--delta", "3", "--dev", "-1.5", "--grid-half-width", "40", "--step",
            "0.25", "--out", str(tmp_path)]
    assert main(argv + flags) == 0
    assert calls == solves
    modes = tmp_path / "schmidt_modes.csv"
    if "json" not in flags:
        written = {row.split(",")[0] for row in modes.read_text().splitlines()[1:]}
        assert len(written) == (0 if "0" in flags else 2)


@pytest.mark.parametrize("sweep, solves", [(["delta", "1", "3", "3"], 1),
                                           (["dev", "-1.6", "-1.4", "3"], 3)])
def test_a_run_solves_the_bounds_once_per_deviation(tmp_path, monkeypatch, sweep, solves):
    calls = []
    bounds = cli.asymptotic_bounds

    def counted(sys, grid=None, rank=None):
        calls.append(sys.delta_deviation)
        return bounds(sys, grid, rank)

    monkeypatch.setattr(cli, "asymptotic_bounds", counted)
    flags = ["--grid-half-width", "40", "--step", "0.25", "--rank", "8", "--format", "json"]
    out = tmp_path / "sweep"
    assert main(["schmidt", "--sweep", *sweep, "--dev", "-1.5", *flags, "--out", str(out)]) == 0
    assert len(calls) == solves
    report = read_report(out)
    values = [float(v) for v in np.linspace(float(sweep[1]), float(sweep[2]), 3)]
    assert report["params"] == {"delta": 0.0, "dev": -1.5, "grid_center": None,
                                "grid_half_width": 40.0, "modes": 2, "rank": 8, "step": 0.25,
                                "sweep": {"param": sweep[0], "values": values}}
    for row in report["results"]["rows"]:  # each row's bounds are a single point's, bit for bit
        point = {"delta": 0.0, "dev": -1.5, sweep[0]: row["value"]}
        out = tmp_path / "point"
        assert main(["schmidt", "--delta", repr(point["delta"]), "--dev", repr(point["dev"]),
                     *flags, "--out", str(out)]) == 0
        results = read_report(out)["results"]
        assert (row["e_inf"], row["s_inf"]) == (results["e_inf"], results["s_inf"])


def test_rank_one_point_writes_one_mode(tmp_path):
    # the dense default at the separable point: one coefficient above the floor, one pair
    assert main(["schmidt", "--delta", "0", "--dev", "0", "--grid-half-width", "40", "--step",
                 "0.5", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "schmidt_modes.csv").read_text().splitlines()[1:]
    assert len(rows) == 161 and {row.split(",")[0] for row in rows} == {"1"}
    assert read_report(str(tmp_path))["diagnostics"]["method"] == "dense_values"


@pytest.mark.parametrize("value", ["-1e-1", "-1E+3", "-.5e2", "-2.5e-1", "-inf", "-nan",
                                   "-Infinity", "-1.5", "-2"])
def test_negative_values_in_exponent_form_parse_as_values(value):
    parser, _ = cli.build_parser()
    args = parser.parse_args(["shape-slm", "--dev", value, "--sweep", "delta", value, "1", "3"])
    for got in (args.dev, float(args.sweep[1])):
        assert repr(got) == repr(float(value))


def test_negative_exponent_form_runs_the_commands(tmp_path, capsys):
    # the same numbers as the plain decimal form
    def e_opt(argv, out):
        assert main(argv + ["--format", "json", "--out", str(tmp_path / out)]) == 0
        return read_report(str(tmp_path / out))["results"]

    point = ["shape-slm", "--delta", "5", "--dev"]
    assert e_opt(point + ["-1e-1"], "a") == e_opt(point + ["-0.1"], "b")
    sweep = ["shape-slm", "--delta", "5", "--sweep", "dev"]
    assert e_opt(sweep + ["-1e-1", "1e-1", "3"], "c") == e_opt(sweep + ["-0.1", "0.1", "3"], "d")
    capsys.readouterr()
    # non-finite values reach the checks that name them
    for argv, message in ((["shape-slm", "--delta", "-inf"], "delta_detuning must be finite"),
                          (["schmidt", "--sweep", "dev", "-inf", "1", "3"], "--sweep needs")):
        assert main(argv + ["--out", str(tmp_path / "e")]) == 2
        assert message in capsys.readouterr().err
