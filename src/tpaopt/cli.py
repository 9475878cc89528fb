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
system parameters, a bad TPAOPT_THREADS and grids whose dense kernel exceeds
physical memory among them), 3 solver failures (numpy.linalg.LinAlgError).
TPAOPT_THREADS = N >= 1 (clamped to the CPU count) evaluates sweep points in
a thread pool; results are gathered in parameter order, so output is
unchanged.  Pair it with OPENBLAS_NUM_THREADS=1, or the BLAS threads
oversubscribe the cores.

The Schmidt solver is the library's choice: `schmidt.solver_rank` turns
--rank (passed through unchanged) and the node count into the rank handed to
`decompose`, which runs a dense SVD (values-only where no modes are written)
or ARPACK on the matrix-free Hankel kernel; the report's diagnostics and sweep
rows name the one that ran.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import partial

import numpy as np

from .grids import auto_grid, default_grid, write_kernel_csv
from .response import LevelSystem
from .schmidt import (asymptotic_bounds, bounds_grid, decompose, entropy, optimal_state_kernel,
                      optimal_state_operator, pairing_check, quantum_enhancement,
                      solver_rank)
from .shaping import (CwSpdc, PumpShaped, auto_pump_sigma, auto_pump_zeta, auto_slm_sigma,
                      optimal_pump_shaper, optimal_slm, pump_plus_grid, slm_grid)

SCHEMA_VERSION = 2
EXIT_BAD_ARGS = 2
EXIT_NUMERICAL = 3


def _fmt(x) -> str:
    return format(float(x), ".9g")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _grid_dict(grid):
    return {"min": grid.min, "max": grid.max, "step": grid.step, "points": grid.count}


class _StageClock:
    """Wall milliseconds per stage, summed over points; pool threads share one clock.

    `with clock("solve"): ...` adds the block's duration to that stage.
    """

    def __init__(self):
        self.ms = {}
        self._lock = threading.Lock()

    @contextmanager
    def __call__(self, stage):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            ms = (time.perf_counter() - t0) * 1000.0
            with self._lock:
                self.ms[stage] = self.ms.get(stage, 0.0) + ms


def _write_report(args, command, params, grid, results, diagnostics, t0):
    report = {"schema_version": SCHEMA_VERSION, "command": command, "params": params,
              "grid": grid, "results": results, "diagnostics": diagnostics,
              "timing": {k: round(v, 3) for k, v in args.timed.ms.items()},
              "wall_time_ms": int(round((time.perf_counter() - t0) * 1000))}
    if args.format in ("json", "both"):
        with open(os.path.join(args.out, "report.json"), "w", encoding="ascii") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _map_points(fn, values):
    """Evaluate sweep points, optionally in a thread pool, keeping input order."""
    raw = os.environ.get("TPAOPT_THREADS") or "1"
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"TPAOPT_THREADS must be an integer >= 1, got {raw!r}")
    workers = min(int(raw), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, values))
    return [fn(v) for v in values]


def _space(lo, hi, n, log=False):
    if log:
        return np.logspace(np.log10(lo), np.log10(hi), n)
    return np.linspace(lo, hi, n)


def _sweep_values(args, sweepable):
    name, lo, hi, points = args.sweep
    lo, hi, points = float(lo), float(hi), int(points)
    if not lo < hi:
        raise ValueError(f"sweep start must be below end, got [{lo}, {hi}]")
    if points < 2:
        raise ValueError(f"sweep needs at least 2 points, got {points}")
    if args.log and lo <= 0:
        raise ValueError("log-spaced sweep requires a positive start")
    if name not in sweepable:
        raise ValueError(f"cannot sweep {name!r} for {args.command}; choose from {sweepable}")
    return name, _space(lo, hi, points, args.log)


def _resolve(value, auto, sys_):
    """A coupling flag: 'auto' takes the library's standard value, None stays None."""
    if value == "auto":
        return auto(sys_)
    return None if value is None else float(value)


def _decompose_at(timed, delta, dev, rank, vectors=False, half=None, step=None, center=None,
                  dump_path=None):
    """(system, rank used, decomposition) on `auto_grid`, or on `default_grid` if overridden."""
    sys_ = LevelSystem(delta_detuning=delta, delta_deviation=dev)
    if half is None and step is None and center is None:
        grid = auto_grid(sys_)
    else:
        grid = default_grid(sys_, half, step, center)
    rank = solver_rank(grid.count, rank)
    if dump_path is not None:
        with timed("write"):
            write_kernel_csv(optimal_state_kernel(sys_, grid), dump_path)
    with timed("solve"):
        return sys_, rank, decompose(optimal_state_operator(sys_, grid), rank=rank,
                                     vectors=vectors)


def _bounds(timed, sys_, rank):
    """(E_inf, S_inf) on the library's bounds grid."""
    grid = bounds_grid(sys_)
    with timed("bounds"):
        return asymptotic_bounds(sys_, grid, rank=solver_rank(grid.count, rank))


def _solver_stats(d):
    """Which solver ran, on how many nodes, for how many coefficients, capturing what norm."""
    kept = float(np.sum(d.coefficients**2))
    return {"method": d.method, "n": d.grid1.count, "k": len(d.coefficients),
            "captured_norm": kept / (kept + d.residual**2)}


# ---------------------------------------------------------------------------
# commands


def _schmidt_point(args, delta, dev):
    single = not args.sweep  # only a single point writes modes (and the kernel)
    sys_, rank, d = _decompose_at(args.timed, delta, dev, args.rank, single,
                                  args.grid_half_width, args.step, args.grid_center,
                                  os.path.join(args.out, "kernel.csv")
                                  if single and args.dump_kernel else None)
    e_inf, s_inf = _bounds(args.timed, sys_, args.rank)
    r1 = float(d.coefficients[0])
    row = {"r1": r1, "r1_squared": r1**2, "entropy_bits": entropy(d),
           "quantum_enhancement": quantum_enhancement(d), "e_inf": e_inf, "s_inf": s_inf,
           "grid": _grid_dict(d.grid1), "rank": rank, **_solver_stats(d)}
    return row, d


def _schmidt_single(args, params, row, d):
    r = d.coefficients
    results = {"r": [float(x) for x in r], "r_squared": [float(x) ** 2 for x in r],
               "pairing_gap": pairing_check(d),
               **{k: row[k] for k in ("entropy_bits", "quantum_enhancement", "e_inf", "s_inf")}}
    diagnostics = {"rank": row["rank"], "dense": d.method.startswith("dense"),
                   "truncation_residual": d.residual, "coefficient_norm_sq": float(np.sum(r**2)),
                   **_solver_stats(d)}
    if args.format in ("csv", "both"):
        _write_csv(os.path.join(args.out, "schmidt_coefficients.csv"), ["k", "r", "r_squared"],
                   [(k + 1, r[k], r[k] ** 2) for k in range(len(r))])
        _write_csv(os.path.join(args.out, "schmidt_modes.csv"),
                   ["k", "omega", "mode1_re", "mode1_im", "mode2_re", "mode2_im"],
                   [(k + 1, *x) for k in range(min(args.modes, len(r)))
                    for x in zip(d.grid1.nodes, d.modes_1[k].real, d.modes_1[k].imag,
                                 d.modes_2[k].real, d.modes_2[k].imag)])
    summary = (f"r1={_fmt(r[0])} r1^2={_fmt(r[0]**2)} S={_fmt(row['entropy_bits'])} "
               f"E_q={_fmt(row['quantum_enhancement'])}")
    return results, diagnostics, summary


SHAPING_COLUMNS = ("e_opt", "p_shaped", "p_unshaped", "residual")


def _shaping_row(sol, **resolved):
    row = dict(resolved, grid=_grid_dict(sol.grid))
    row.update((k, getattr(sol, k)) for k in SHAPING_COLUMNS)
    return row, sol


def _slm_point(args, delta, dev, sigma):
    sys_ = LevelSystem(delta_detuning=delta, delta_deviation=dev)
    state = CwSpdc(sigma=_resolve(sigma, auto_slm_sigma, sys_))
    grid = slm_grid(sys_, state, args.grid_half_width, args.step)
    with args.timed("shape"):
        sol = optimal_slm(sys_, state, grid)
    return _shaping_row(sol, sigma=state.sigma)


def _pump_point(args, delta, dev, sigma, phi, zeta):
    if zeta is None and not args.infinite_pm:
        raise ValueError("shape-pump needs --zeta (or --infinite-pm)")
    sys_ = LevelSystem(delta_detuning=delta, delta_deviation=dev)
    sigma = _resolve(sigma, auto_pump_sigma, sys_)
    zeta = _resolve(zeta, auto_pump_zeta, sys_)
    if args.infinite_pm:
        zeta = None
    state = PumpShaped(sigma=sigma, phi=phi, zeta=zeta, infinite_pm=args.infinite_pm)
    grid = pump_plus_grid(sys_, state, args.grid_half_width, args.step)
    with args.timed("shape"):
        sol = optimal_pump_shaper(sys_, state, grid)
    return _shaping_row(sol, sigma=sigma, zeta=zeta)


def _shaping_single(csv_name, columns, args, params, row, sol):
    params.update((f"{k}_resolved", row[k]) for k in ("sigma", "zeta") if k in row)
    if args.format in ("csv", "both"):
        _write_csv(os.path.join(args.out, csv_name), columns,
                   zip(sol.grid.nodes, sol.phase_nodes, np.abs(sol.response_nodes)))
    summary = (f"E_opt={_fmt(sol.e_opt)} p_shaped={_fmt(sol.p_shaped)} "
               f"p_unshaped={_fmt(sol.p_unshaped)} residual={_fmt(sol.residual)}")
    return {k: row[k] for k in SHAPING_COLUMNS}, {"nodes": sol.grid.count}, summary


# name -> (args echoed into the report's params,
#          args passed to point(args, **values) -> (sweep row, state), each sweepable,
#          point, (sweep CSV name, row keys written after the swept value),
#          single(args, params, row, state) -> (results, diagnostics, summary))
COMMANDS = {
    "schmidt": (
        ("delta", "dev", "rank", "grid_half_width", "step", "grid_center", "modes"),
        ("delta", "dev"), _schmidt_point,
        ("schmidt_sweep.csv", ("r1", "r1_squared", "entropy_bits", "quantum_enhancement")),
        _schmidt_single),
    "shape-slm": (
        ("delta", "dev", "sigma", "grid_half_width", "step"),
        ("delta", "dev", "sigma"), _slm_point,
        ("slm_sweep.csv", SHAPING_COLUMNS),
        partial(_shaping_single, "slm_phase.csv", ("omega_offset", "phase", "abs_response"))),
    "shape-pump": (
        ("delta", "dev", "sigma", "phi", "zeta", "infinite_pm", "grid_half_width", "step"),
        ("delta", "dev", "sigma", "phi", "zeta"), _pump_point,
        ("pump_sweep.csv", SHAPING_COLUMNS),
        partial(_shaping_single, "pump_phase.csv", ("omega_plus", "phase", "abs_xi"))),
}


def cmd_run(args) -> int:
    t0 = time.perf_counter()
    echoed, sweepable, point, (csv_name, columns), single = COMMANDS[args.command]
    os.makedirs(args.out, exist_ok=True)
    params = {k: getattr(args, k) for k in echoed}
    values = {k: getattr(args, k) for k in sweepable}
    if not args.sweep:
        row, state = point(args, **values)
        with args.timed("write"):
            results, diagnostics, summary = single(args, params, row, state)
        _write_report(args, args.command, params, row["grid"], results, diagnostics, t0)
        print(summary)
        return 0

    name, swept = _sweep_values(args, sweepable)
    params["sweep"] = {"param": name, "values": [float(v) for v in swept]}

    def sweep_row(v):
        return {"value": float(v), **point(args, **{**values, name: v})[0]}

    rows = _map_points(sweep_row, swept)
    if args.format in ("csv", "both"):
        with args.timed("write"):
            _write_csv(os.path.join(args.out, csv_name), (name,) + columns,
                       ([r["value"]] + [r[c] for c in columns] for r in rows))
    _write_report(args, args.command, params, None, {"rows": rows}, {"points": len(rows)}, t0)
    return 0


# ---------------------------------------------------------------------------
# figure presets


SIGMAS = (0.5, 1.0, 5.0)
SIGMA_COLUMNS = tuple(f"e_opt_sigma_{s:g}" for s in SIGMAS)


def _line(lo, hi, default, log=False):
    return lambda n: [(float(v),) for v in _space(lo, hi, n or default, log)]


def _fig8_points(n):
    nd = n or 8
    return [(float(D), float(d)) for D in np.linspace(0.1, 5.0, nd)
            for d in np.linspace(-1.9, 0.0, max(2, nd - 1))]


def _schmidt_values(timed, delta, dev, rank):
    d = _decompose_at(timed, delta, dev, rank)[2]
    return entropy(d), quantum_enhancement(d)


def _slm_gains(timed, delta):
    sys_ = LevelSystem(delta_detuning=delta, delta_deviation=-1.0)
    with timed("shape"):
        return tuple(optimal_slm(sys_, CwSpdc(sigma=s)).e_opt for s in SIGMAS)


def _matched_slm_populations(timed, delta):
    sys_ = LevelSystem(delta_detuning=delta, delta_deviation=-1.0)
    with timed("shape"):
        sol = optimal_slm(sys_, CwSpdc(sigma=auto_slm_sigma(sys_)))
    return sol.p_shaped, sol.p_unshaped


def _pump_gains(timed, dev, phi):
    sys_ = LevelSystem(delta_detuning=0.0, delta_deviation=dev)
    states = [PumpShaped(sigma=s, phi=phi, infinite_pm=True) for s in SIGMAS]
    with timed("shape"):
        return tuple(optimal_pump_shaper(sys_, state).e_opt for state in states)


def _fig8_ratio(column, point, rank, timed):
    """1 (column 0: E_q), or p_shaped or p_unshaped of the auto-coupled pump, over r1^2."""
    sys_, _, d = _decompose_at(timed, *point, 16 if rank is None else rank)
    lam1 = float(d.coefficients[0] ** 2)
    if column == 0:
        return (1.0 / lam1,)
    state = PumpShaped(sigma=auto_pump_sigma(sys_), phi=1.0, zeta=auto_pump_zeta(sys_))
    with timed("shape"):
        sol = optimal_pump_shaper(sys_, state)
    return ((sol.p_shaped, sol.p_unshaped)[column - 1] / lam1,)


# name -> (header, points(--points or None) -> leading columns of each row,
#          values(point, rank, stage clock) -> the remaining columns)
FIGURES = {
    "fig2a": (("delta_deviation", "entropy_bits", "quantum_enhancement"), _line(-1.9, 2.0, 24),
              lambda p, rank, timed: _schmidt_values(timed, 5.0, p[0], rank)),
    "fig2b": (("detuning", "entropy_bits", "quantum_enhancement"), _line(0.1, 100.0, 25, log=True),
              lambda p, rank, timed: _schmidt_values(timed, p[0], -1.9, rank)),
    "fig2c": (("delta_deviation", "entropy_limit_bits", "enhancement_limit"), _line(-1.9, 2.0, 24),
              lambda p, rank, timed:
              _bounds(timed, LevelSystem(delta_deviation=p[0]), rank)[::-1]),
    "fig5a": (("detuning",) + SIGMA_COLUMNS, _line(0.1, 50.0, 21, log=True),
              lambda p, rank, timed: _slm_gains(timed, p[0])),
    "fig6b": (("detuning", "p_shaped_over_n", "p_unshaped_over_n"),
              _line(0.1, 100.0, 25, log=True),
              lambda p, rank, timed: _matched_slm_populations(timed, p[0])),
    "fig7a": (("delta_deviation",) + SIGMA_COLUMNS, _line(-1.9, 2.0, 40),
              lambda p, rank, timed: _pump_gains(timed, p[0], 0.0)),
    "fig7b": (("delta_deviation",) + SIGMA_COLUMNS, _line(-1.9, 2.0, 40),
              lambda p, rank, timed: _pump_gains(timed, p[0], 1.0)),
    "fig8a": (("detuning", "delta_deviation", "quantum_enhancement"), _fig8_points,
              partial(_fig8_ratio, 0)),
    "fig8b": (("detuning", "delta_deviation", "e_q_shaped"), _fig8_points,
              partial(_fig8_ratio, 1)),
    "fig8c": (("detuning", "delta_deviation", "e_q_unshaped"), _fig8_points,
              partial(_fig8_ratio, 2)),
}


def cmd_figure(args) -> int:
    t0 = time.perf_counter()
    os.makedirs(args.out, exist_ok=True)
    header, make_points, values = FIGURES[args.name]
    points = make_points(args.points)
    computed = _map_points(lambda p: values(p, args.rank, args.timed), points)
    rows = [p + tuple(v) for p, v in zip(points, computed)]
    csv_path = os.path.join(args.out, f"{args.name}.csv")
    with args.timed("write"):
        _write_csv(csv_path, header, rows)
    _write_report(args, f"figure {args.name}",
                  {"name": args.name, "points": args.points, "rank": args.rank},
                  None, {"csv": os.path.basename(csv_path), "rows": len(rows)},
                  {"columns": header}, t0)
    print(f"wrote {csv_path} ({len(rows)} rows)")
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
                   help="coefficients to compute (default: the full spectrum on small "
                   "grids, 300 on large ones; 0: the full spectrum at any size)")
    p.add_argument("--modes", type=int, default=2, help="mode pairs written to CSV")
    p.add_argument("--dump-kernel", action="store_true",
                   help="also write the sampled kernel matrix (large!) to kernel.csv")

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
    p.add_argument("--rank", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_figure)

    return parser, sub.choices


def _load_config_tokens(path, subparser):
    """Read key=value lines and convert to CLI tokens for the given subcommand."""
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
            if opt not in actions:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if isinstance(actions[opt], argparse._StoreTrueAction):
                if value.lower() in ("1", "true", "yes", "on"):
                    tokens.append(opt)
                elif value.lower() not in ("0", "false", "no", "off"):
                    raise ValueError(f"{path}:{lineno}: boolean value expected for {key!r}")
            else:
                tokens.extend([opt, value])
    return tokens


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, parsers = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            tokens = _load_config_tokens(args.config, parsers[argv[0]])
            # config values come first so explicit flags take precedence
            args = parser.parse_args([argv[0]] + tokens + argv[1:])
        args.timed = _StageClock()
        return args.func(args)
    except np.linalg.LinAlgError as exc:  # a ValueError subclass, so it comes first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
