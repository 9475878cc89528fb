"""Command-line driver: single evaluations, parameter sweeps, figure tables.

Subcommands
-----------
schmidt     Schmidt analysis of the optimal pair amplitude for one (Delta,
            delta) point or a parameter sweep.
shape-slm   Optimal identical modulators for a cw-SPDC pair.
shape-pump  Optimal pump shaper for chirped-pump down-conversion.
figure      Deterministic CSV tables for the bundled sweep presets
            (fig2a..fig8c).

Outputs are CSV tables plus a JSON run report with a fixed schema
{schema_version, command, params, grid, results, diagnostics, timing,
wall_time_ms}; timing holds the milliseconds spent per stage (solve, bounds,
shape, write), summed over points, and like wall_time_ms varies run to run.
Numbers are printed with 9 significant digits so identical inputs produce
byte-identical tables.  Exit codes: 0 success, 2 argument errors (non-finite
system, grid or shaping values, --points < 1, --modes < 0, grids whose dense
kernel, and figures and sweeps whose rows, would exceed physical memory, and
allocations that fail among them), 3 solver failures
(numpy.linalg.LinAlgError).  While `main` runs, a library warning (such as
`schmidt_point`'s on a grid step above min(gamma_e, gamma_f)) prints as one
line, `warning: <message>`, on stderr, and changes no exit code, stdout or
file.  Sweep and figure points run one after another, in parameter order.

A Schmidt point is one library call, `schmidt.schmidt_point`, given the grid
flags and --rank as they are; it returns the row (r1, r1^2, S, E_q, the rank
solved, which `solver_rank` clips to the node count, and the solver that ran),
and the --modes pairs schmidt_modes.csv holds when a single point writes CSV
(sweeps and --format json ask for none).  The pairs come from
a solve of their own on the point's kernel, so a point reports the same
numbers whatever its --format, and as a sweep row.  `asymptotic_bounds`
reads the same --rank on its own grid, so --rank also moves S_inf.  The bounds
do not depend on Delta, so a run solves them once per deviation: a Delta sweep
solves them once.  kernel.csv is written after the bounds.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import re
import sys
import time
import warnings
from contextlib import contextmanager
from functools import partial
from operator import itemgetter

import numpy as np

from .grids import CSV_FORMAT, check_fits, write_csv, write_kernel_csv
from .response import LevelSystem
from .schmidt import asymptotic_bounds, optimal_state_operator, pairing_check, schmidt_point
from .schmidt import decompose  # noqa: F401  (bench/tests patch tpaopt.cli.decompose)
from .shaping import (CwSpdc, PumpShaped, auto_pump_sigma, auto_pump_zeta, auto_slm_sigma,
                      optimal_pump_shaper, optimal_slm, pump_plus_grid, slm_grid)

SCHEMA_VERSION = 2
EXIT_BAD_ARGS = 2
EXIT_NUMERICAL = 3
# Values argparse must not take for options: its own pattern matches -1, -1.5 and -.5 only,
# so "--dev -1e-1" or "--sweep dev -inf 1 3" would lose their negative values.
NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$|^-(inf(inity)?|nan)$",
                             re.IGNORECASE)
# Flags that say how to run a command, and the run's own state (its stage clock and bounds
# memo): every other parsed flag goes into the report's params.
RUN_FLAGS = ("command", "func", "timed", "bounds", "out", "format", "config", "sweep", "log",
             "dump_kernel")


def _fmt(x) -> str:
    return CSV_FORMAT % float(x)


def _grid_dict(grid):
    return {"min": grid.min, "max": grid.max, "step": grid.step, "points": grid.count}


class _StageClock:
    """The run's start time and wall milliseconds per stage, summed over points.

    `with clock("solve"): ...` adds the block's duration to that stage.
    """

    def __init__(self):
        self.start = time.perf_counter()
        self.ms = {}

    @contextmanager
    def __call__(self, stage):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.ms[stage] = self.ms.get(stage, 0.0) + (time.perf_counter() - t0) * 1000.0


def _write_report(args, command, params, grid, results, diagnostics):
    report = {"schema_version": SCHEMA_VERSION, "command": command, "params": params,
              "grid": grid, "results": results, "diagnostics": diagnostics,
              "timing": {k: round(v, 3) for k, v in args.timed.ms.items()},
              "wall_time_ms": int(round((time.perf_counter() - args.timed.start) * 1000))}
    if args.format in ("json", "both"):
        with open(os.path.join(args.out, "report.json"), "w", encoding="ascii") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")


# A sweep is refused before its values are built if this many bytes per row exceed physical
# memory: tracemalloc peaks of finished sweeps (values, rows, CSV and report) of 1e4 and 4e4
# rows, with the one bounds solve stubbed out, were 0.80-0.83 kB per row for shape-slm and
# 1.02-1.13 kB for schmidt, whose rows are the widest.
SWEEP_BYTES_PER_ROW = 1130


def _space(lo, hi, n, log=False):
    if log:
        return np.logspace(np.log10(lo), np.log10(hi), n)
    return np.linspace(lo, hi, n)


def _sweep_values(args, sweepable):
    name, lo, hi, points = args.sweep
    try:
        lo, hi, points = float(lo), float(hi), int(points)
    except ValueError as exc:
        raise ValueError(f"--sweep needs numbers FROM, TO and an integer POINTS: {exc}") from None
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"--sweep needs finite FROM < TO, got FROM={lo}, TO={hi}")
    if points < 2:
        raise ValueError(f"sweep needs at least 2 points, got {points}")
    if args.log and lo <= 0:
        raise ValueError("log-spaced sweep requires a positive start")
    if name not in sweepable:
        raise ValueError(f"cannot sweep {name!r} for {args.command}; choose from {sweepable}")
    if name == "zeta" and args.infinite_pm:
        raise ValueError("--sweep zeta has no effect with --infinite-pm (flat phase matching)")
    if getattr(args, "dump_kernel", False):
        raise ValueError("--dump-kernel writes a single point's kernel; it cannot go with --sweep")
    check_fits("a sweep grid of {} points (--sweep POINTS)", SWEEP_BYTES_PER_ROW, points)
    return name, _space(lo, hi, points, args.log)


def _resolve(flag, value, auto, sys_):
    """A --sigma or --zeta value: 'auto' takes the library's standard value, None stays None."""
    if value == "auto":
        return auto(sys_)
    try:
        return None if value is None else float(value)
    except ValueError:
        raise ValueError(f"--{flag} takes a number or 'auto', got {value!r}") from None


def _solve_at(args, delta, dev, rank, modes=0):
    """`schmidt_point` (d, row) at (delta, dev), on the grid of the flags."""
    sys_ = LevelSystem(delta_detuning=delta, delta_deviation=dev)
    with args.timed("solve"):
        return schmidt_point(sys_, rank, modes, half=args.grid_half_width, step=args.step,
                             center=args.grid_center)


def _bounds_at(args, dev):
    """(E_inf, S_inf) at deviation dev, solved at Delta = 0: the bounds are detuning-free.

    They are solved once per deviation in a run (--rank is fixed for the run) and kept in
    args.bounds, so the rows of a Delta sweep share one solve."""
    if dev not in args.bounds:
        with args.timed("bounds"):
            args.bounds[dev] = asymptotic_bounds(LevelSystem(delta_deviation=dev), rank=args.rank)
    return args.bounds[dev]


# ---------------------------------------------------------------------------
# commands


def _schmidt_point(args, delta, dev):
    writes_modes = not args.sweep and args.format in ("csv", "both")  # schmidt_modes.csv
    d, row = _solve_at(args, delta, dev, args.rank, args.modes if writes_modes else 0)
    row["e_inf"], row["s_inf"] = _bounds_at(args, dev)
    return dict(row, grid=_grid_dict(d.grid1)), d


def _schmidt_single(args, params, row, d):
    r = d.coefficients
    results = {"r": [float(x) for x in r], "r_squared": [float(x) ** 2 for x in r],
               "pairing_gap": pairing_check(d),
               **{k: row[k] for k in ("entropy_bits", "quantum_enhancement", "e_inf", "s_inf")}}
    diagnostics = {"dense": d.method.startswith("dense"), "truncation_residual": d.residual,
                   "coefficient_norm_sq": float(np.sum(r**2)),
                   **{k: row[k] for k in ("rank", "method", "n", "k", "captured_norm")}}
    if args.format in ("csv", "both"):
        write_csv(os.path.join(args.out, "schmidt_coefficients.csv"), "k,r,r_squared",
                  [(k + 1, r[k], r[k] ** 2) for k in range(len(r))])
        # one row per (mode k, node), k major: the columns broadcast over a (modes, nodes) grid
        columns = np.broadcast_arrays(np.arange(1, len(d.modes_1) + 1)[:, None], d.grid1.nodes,
                                      d.modes_1.real, d.modes_1.imag,
                                      d.modes_2.real, d.modes_2.imag)
        write_csv(os.path.join(args.out, "schmidt_modes.csv"),
                  "k,omega,mode1_re,mode1_im,mode2_re,mode2_im",
                  np.stack(columns, axis=-1).reshape(-1, len(columns)))
    if args.dump_kernel:
        sys_ = LevelSystem(delta_detuning=args.delta, delta_deviation=args.dev)
        write_kernel_csv(optimal_state_operator(sys_, d.grid1).to_dense(),  # the matrix solved
                         os.path.join(args.out, "kernel.csv"))
    summary = (f"r1={_fmt(row['r1'])} r1^2={_fmt(row['r1_squared'])} "
               f"S={_fmt(row['entropy_bits'])} E_q={_fmt(row['quantum_enhancement'])}")
    return results, diagnostics, summary


SHAPING_COLUMNS = ("e_opt", "p_shaped", "p_unshaped", "residual")


def _shaping_row(sol, **resolved):
    row = dict(resolved, grid=_grid_dict(sol.grid))
    row.update((k, getattr(sol, k)) for k in SHAPING_COLUMNS)
    return row, sol


def _slm_point(args, delta, dev, sigma):
    sys_ = LevelSystem(delta_detuning=delta, delta_deviation=dev)
    state = CwSpdc(sigma=_resolve("sigma", sigma, auto_slm_sigma, sys_))
    grid = slm_grid(sys_, state, args.grid_half_width, args.step)
    with args.timed("shape"):  # the row reads the residual, computed on first read
        return _shaping_row(optimal_slm(sys_, state, grid), sigma=state.sigma)


def _pump_point(args, delta, dev, sigma, phi, zeta):
    sys_ = LevelSystem(delta_detuning=delta, delta_deviation=dev)
    sigma = _resolve("sigma", sigma, auto_pump_sigma, sys_)
    zeta = _resolve("zeta", zeta, auto_pump_zeta, sys_)
    state = PumpShaped(sigma=sigma, phi=phi, zeta=zeta, infinite_pm=args.infinite_pm)
    grid = pump_plus_grid(sys_, state, args.grid_half_width, args.step)
    with args.timed("shape"):
        return _shaping_row(optimal_pump_shaper(sys_, state, grid), sigma=sigma, zeta=zeta)


def _shaping_single(csv_name, columns, args, params, row, sol):
    params.update((f"{k}_resolved", row[k]) for k in ("sigma", "zeta") if k in row)
    if args.format in ("csv", "both"):
        write_csv(os.path.join(args.out, csv_name), ",".join(columns),
                  np.column_stack((sol.grid.nodes, sol.phase_nodes, np.abs(sol.response_nodes))))
    summary = (f"E_opt={_fmt(sol.e_opt)} p_shaped={_fmt(sol.p_shaped)} "
               f"p_unshaped={_fmt(sol.p_unshaped)} residual={_fmt(sol.residual)}")
    return {k: row[k] for k in SHAPING_COLUMNS}, {"nodes": sol.grid.count}, summary


# name -> (point(args, **values) -> (sweep row, state), each parameter after args sweepable,
#          (sweep CSV name, row keys written after the swept value),
#          single(args, params, row, state) -> (results, diagnostics, summary))
COMMANDS = {
    "schmidt": (
        _schmidt_point,
        ("schmidt_sweep.csv", ("r1", "r1_squared", "entropy_bits", "quantum_enhancement")),
        _schmidt_single),
    "shape-slm": (
        _slm_point, ("slm_sweep.csv", SHAPING_COLUMNS),
        partial(_shaping_single, "slm_phase.csv", ("omega_offset", "phase", "abs_response"))),
    "shape-pump": (
        _pump_point, ("pump_sweep.csv", SHAPING_COLUMNS),
        partial(_shaping_single, "pump_phase.csv", ("omega_plus", "phase", "abs_xi"))),
}


def cmd_run(args) -> int:
    point, (csv_name, columns), single = COMMANDS[args.command]
    os.makedirs(args.out, exist_ok=True)
    params = {k: v for k, v in vars(args).items() if k not in RUN_FLAGS}
    values = {k: getattr(args, k) for k in tuple(inspect.signature(point).parameters)[1:]}
    if not args.sweep:
        row, state = point(args, **values)
        with args.timed("write"):
            results, diagnostics, summary = single(args, params, row, state)
        _write_report(args, args.command, params, row["grid"], results, diagnostics)
        print(summary)
        return 0

    name, swept = _sweep_values(args, tuple(values))
    params["sweep"] = {"param": name, "values": [float(v) for v in swept]}

    rows = [{"value": float(v), **point(args, **{**values, name: v})[0]} for v in swept]
    if args.format in ("csv", "both"):
        with args.timed("write"):
            write_csv(os.path.join(args.out, csv_name), ",".join((name,) + columns),
                      [[r["value"]] + [r[c] for c in columns] for r in rows])
    _write_report(args, args.command, params, None, {"rows": rows}, {"points": len(rows)})
    return 0


# ---------------------------------------------------------------------------
# figure presets


SIGMAS = (0.5, 1.0, 5.0)
SIGMA_COLUMNS = tuple(f"e_opt_sigma_{s:g}" for s in SIGMAS)
# A figure is refused before its points are built if this many bytes per row exceed physical
# memory: tracemalloc peaks, at 1e5 to 1e6 rows, of the points and rows of fig2a and fig8a
# (200-209) and of fig5a, whose four columns are the widest (232).
FIGURE_BYTES_PER_ROW = 232
FIGURE_ROWS = "a figure grid of {} points (--points)"


def _line(lo, hi, default, log=False):
    def points(n):
        n = n or default
        check_fits(FIGURE_ROWS, FIGURE_BYTES_PER_ROW, n)
        return [(float(v),) for v in _space(lo, hi, n, log)]
    return points


def _fig8_points(n):
    nd = n or 8
    nd2 = max(2, nd - 1)
    check_fits(FIGURE_ROWS, FIGURE_BYTES_PER_ROW, nd, nd2)
    return [(float(D), float(d)) for D in np.linspace(0.1, 5.0, nd)
            for d in np.linspace(-1.9, 0.0, nd2)]


def _schmidt_values(args, delta, dev):
    row = _solve_at(args, delta, dev, args.rank)[1]
    return row["entropy_bits"], row["quantum_enhancement"]


def _flat_pump_gains(phi):
    """E_opt at Delta = 0 under flat phase matching, per sigma in SIGMAS, at deviation p[0]."""
    def values(args, p):
        flat = argparse.Namespace(**{**vars(args), "infinite_pm": True})
        return tuple(_pump_point(flat, 0.0, p[0], s, phi, None)[0]["e_opt"] for s in SIGMAS)
    return values


def _fig8_ratio(column, args, point):
    """1 (column 0: E_q), or p_shaped or p_unshaped of the auto-coupled pump, over r1^2."""
    row = _solve_at(args, *point, 16 if args.rank is None else args.rank)[1]
    if column == 0:
        return (row["quantum_enhancement"],)
    pump = _pump_point(args, *point, "auto", 1.0, "auto")[0]
    return (pump[("p_shaped", "p_unshaped")[column - 1]] / row["r1_squared"],)


# name -> (header, points(--points or None) -> leading columns of each row,
#          values(args, point) -> the remaining columns, from the commands' point functions)
FIGURES = {
    "fig2a": (("delta_deviation", "entropy_bits", "quantum_enhancement"), _line(-1.9, 2.0, 24),
              lambda args, p: _schmidt_values(args, 5.0, p[0])),
    "fig2b": (("detuning", "entropy_bits", "quantum_enhancement"), _line(0.1, 100.0, 25, log=True),
              lambda args, p: _schmidt_values(args, p[0], -1.9)),
    "fig2c": (("delta_deviation", "entropy_limit_bits", "enhancement_limit"), _line(-1.9, 2.0, 24),
              lambda args, p: _bounds_at(args, p[0])[::-1]),
    "fig5a": (("detuning",) + SIGMA_COLUMNS, _line(0.1, 50.0, 21, log=True),
              lambda args, p: tuple(_slm_point(args, p[0], -1.0, s)[0]["e_opt"] for s in SIGMAS)),
    "fig6b": (("detuning", "p_shaped_over_n", "p_unshaped_over_n"),
              _line(0.1, 100.0, 25, log=True),
              lambda args, p: itemgetter("p_shaped", "p_unshaped")(
                  _slm_point(args, p[0], -1.0, "auto")[0])),
    "fig7a": (("delta_deviation",) + SIGMA_COLUMNS, _line(-1.9, 2.0, 40), _flat_pump_gains(0.0)),
    "fig7b": (("delta_deviation",) + SIGMA_COLUMNS, _line(-1.9, 2.0, 40), _flat_pump_gains(1.0)),
    "fig8a": (("detuning", "delta_deviation", "quantum_enhancement"), _fig8_points,
              partial(_fig8_ratio, 0)),
    "fig8b": (("detuning", "delta_deviation", "e_q_shaped"), _fig8_points,
              partial(_fig8_ratio, 1)),
    "fig8c": (("detuning", "delta_deviation", "e_q_unshaped"), _fig8_points,
              partial(_fig8_ratio, 2)),
}


def cmd_figure(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    header, make_points, values = FIGURES[args.name]
    points = make_points(args.points)
    rows = [p + tuple(values(args, p)) for p in points]
    path = os.path.join(args.out, f"{args.name}.csv")
    results = {"csv": os.path.basename(path), "rows": len(rows)}
    if args.format == "json":  # the rows, each in header order, go into the report instead
        path, results = os.path.join(args.out, "report.json"), {"rows": [list(r) for r in rows]}
    else:
        with args.timed("write"):
            write_csv(path, ",".join(header), rows)
    _write_report(args, f"figure {args.name}",
                  {"name": args.name, "points": args.points, "rank": args.rank},
                  None, results, {"columns": header})
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p):
    p.add_argument("--out", default=".", help="output directory (default: current)")
    p.add_argument("--format", choices=("csv", "json", "both"), default="both")
    p.add_argument("--config", default=None, help="flat key=value file; flags override it")


def build_parser():
    parser = argparse.ArgumentParser(prog="tpaopt", description="Optimal two-photon states "
                                     "and pulse shaping for a three-level ladder")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (("schmidt", "Schmidt analysis of the optimal pair amplitude"),
                        ("shape-slm", "optimal identical modulators for a cw-SPDC pair"),
                        ("shape-pump", "optimal pump shaper for down-conversion")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--delta", type=float, default=0.0, help="detuning Delta")
        p.add_argument("--dev", type=float, default=0.0, help="deviation delta (> -2)")
        p.add_argument("--grid-half-width", type=float, default=None)
        p.add_argument("--step", type=float, default=None)
        _add_common(p)
        p.add_argument("--sweep", nargs=4, metavar=("PARAM", "FROM", "TO", "POINTS"),
                       default=None, help="sweep PARAM over [FROM, TO] with POINTS values")
        p.add_argument("--log", action="store_true", help="log-spaced sweep values")
        p.set_defaults(func=cmd_run)

    p = sub.choices["schmidt"]
    p.add_argument("--grid-center", type=float, default=None,
                   help="grid centre (default: omega_f / 2)")
    p.add_argument("--rank", type=int, default=None,
                   help="coefficients to compute, also for the large-detuning bounds; a rank "
                   "above the node count gives all of them (default: the full spectrum on "
                   "small grids, 300 on large ones; 0: the full spectrum at any size)")
    p.add_argument("--modes", type=int, default=2,
                   help="mode pairs written to CSV, at most one per coefficient above 1e-12")
    p.add_argument("--dump-kernel", action="store_true",
                   help="also write the kernel matrix solved (large!) to kernel.csv")

    sub.choices["shape-slm"].add_argument(
        "--sigma", default="1", help="photon bandwidth, or 'auto' for sigma = Delta")

    p = sub.choices["shape-pump"]
    p.add_argument("--sigma", default="1", help="pump bandwidth, or 'auto' for 3 gamma_f")
    p.add_argument("--phi", type=float, default=0.0, help="quadratic spectral phase (chirp)")
    p.add_argument("--zeta", default=None,
                   help="phase-matching width, or 'auto' for gamma_e (2 + Delta)")
    p.add_argument("--infinite-pm", action="store_true", help="flat phase matching")

    p = sub.add_parser("figure", help="emit a bundled figure preset as CSV")
    p.add_argument("name", choices=FIGURES)
    p.add_argument("--points", type=int, default=None, help="sweep density override")
    p.add_argument("--rank", type=int, default=None,
                   help="Schmidt coefficients per point, read by fig2a-c and fig8a-c "
                   "(default: the schmidt default; 16 for fig8a-c)")
    _add_common(p)
    p.set_defaults(func=cmd_figure, grid_half_width=None, step=None, grid_center=None,
                   infinite_pm=False)  # the presets run the commands' points at their defaults

    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = NEGATIVE_NUMBER
    return parser, sub.choices


def _load_config_tokens(path, subparser):
    """Read key=value lines as CLI tokens for the given subcommand, each value split on spaces."""
    actions = subparser._option_string_actions
    tokens = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            opt = "--" + key.replace("_", "-")
            if opt not in actions or opt in ("--help", "--config"):
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if isinstance(actions[opt], argparse._StoreTrueAction):
                if value.lower() in ("1", "true", "yes", "on"):
                    tokens.append(opt)
                elif value.lower() not in ("0", "false", "no", "off"):
                    raise ValueError(f"{path}:{lineno}: boolean value expected for {key!r}")
            else:
                tokens.extend([opt, *value.split()])
    return tokens


def _warning_line(message, category, filename, lineno, line=None) -> str:
    """A library warning as `main` prints it: one line, naming no file or source line."""
    return f"warning: {message}\n"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, parsers = build_parser()
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        args = parser.parse_args(argv)
        if args.config:
            tokens = _load_config_tokens(args.config, parsers[argv[0]])
            # config values come first so explicit flags take precedence
            args = parser.parse_args([argv[0]] + tokens + argv[1:])
        args.timed, args.bounds = _StageClock(), {}
        for flag, least in (("points", 1), ("modes", 0), ("rank", 0)):  # figure and schmidt counts
            value = getattr(args, flag, None)
            if value is not None and value < least:
                raise ValueError(f"--{flag} must be >= {least}, got {value}")
        return args.func(args)
    except np.linalg.LinAlgError as exc:  # a ValueError subclass, so it comes first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:  # an impossible allocation; a bare MemoryError has no text
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    finally:  # outside main, warnings keep the caller's format
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
