"""Output gate: run a fixed list of CLI commands and record what each one writes.

    python tools/output_gate.py OUT_DIR [--src SRC]   # run, write OUT_DIR/manifest.json
    python tools/output_gate.py --compare A B         # list the differences of two runs

Each command runs in a fresh interpreter (``python -m tpaopt.cli``, the
package taken from SRC, by default this checkout's ``src``) with
OPENBLAS_NUM_THREADS=1, inside its own output directory, after the CONFIGS
file it reads is written there.
The manifest holds, per command, the exit code, the stdout, the stderr (its
error message, or the one-line warnings of a command that succeeds) and the
sha256 of every file in that directory; ``report.json`` is hashed with its
run-dependent ``wall_time_ms`` and ``timing`` removed.  The demo scripts
beside SRC (``../demos``) run the same way, and the manifest holds the sha256
of their stdout and the stderr of a demo that fails (Python's own warning
format names the installed file, so a demo's warnings differ between
checkouts).  A manifest without stderr (an older run, on a command that
succeeded) compares as empty stderr.  Run it on two checkouts and compare the
manifests (or the two output directories holding them) to show that a change
leaves every output byte-identical.  For a CSV or ``report.json`` that
differs and is on both sides, it names the cell or key with the largest
absolute difference, relative to the file's largest magnitude: roundoff
drift shows as about 1e-16, a real change as more.
The whole list takes about 50 s on one core of a 2-core x86-64 VM, about
6 s of it in the demos (5.5 s in ``schmidt_entanglement.py``), about 9 s in
``fig2c_full``, the 24 rows of the large-detuning bounds, and under 1 s in
``bare_default``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs the CLI with every SVD failing, to reach the solver-failure exit code 3.
FAILING_SVD = """import sys
import numpy as np
def fail(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")
np.linalg.svd = fail
from tpaopt.cli import main
sys.exit(main(sys.argv[1:]))
"""

# name -> CLI argv (without --out); the entries named exit3* run under FAILING_SVD.
COMMANDS = {
    "point_default": ["schmidt", "--delta", "5", "--dev", "-1.9"],
    "point_default_1001": ["schmidt", "--delta", "3", "--dev", "-1.5"],
    # Delta = 0 (a centro-Hermitian kernel) on 2201 nodes: the default-rank truncated solve
    "point_default_2201": ["schmidt", "--dev", "-0.9"],
    "point_rank8": ["schmidt", "--delta", "5", "--dev", "-1.5", "--rank", "8"],
    "point_rank16": ["schmidt", "--delta", "5", "--dev", "-1.9", "--rank", "16"],
    "point_rank200": ["schmidt", "--delta", "5", "--dev", "-1.9", "--rank", "200"],
    "point_rank250": ["schmidt", "--delta", "5", "--dev", "-1.9", "--rank", "250"],
    "point_rank0": ["schmidt", "--delta", "2", "--dev", "-1.8", "--rank", "0"],
    "delta0_default": ["schmidt", "--delta", "0", "--dev", "-1.9"],
    "delta0_rank0": ["schmidt", "--delta", "0", "--dev", "-1.5", "--rank", "0"],
    "delta0_rank8": ["schmidt", "--delta", "0", "--dev", "0", "--rank", "8"],
    "dump_kernel": ["schmidt", "--delta", "1", "--dev", "-0.5", "--grid-half-width", "20",
                    "--step", "0.5", "--dump-kernel"],
    "dump_kernel_delta0": ["schmidt", "--delta", "0", "--dev", "-0.5", "--grid-half-width",
                           "20", "--step", "0.5", "--dump-kernel"],
    "modes4": ["schmidt", "--delta", "3", "--dev", "-1.8", "--modes", "4"],
    "half_width": ["schmidt", "--delta", "5", "--dev", "-1.9", "--grid-half-width", "30"],
    "step": ["schmidt", "--delta", "5", "--dev", "-1.9", "--step", "0.25"],
    "center": ["schmidt", "--delta", "5", "--dev", "-1.9", "--grid-center", "3"],
    "sweep_delta": ["schmidt", "--dev", "-1.8", "--sweep", "delta", "1", "5", "3"],
    "sweep_dev": ["schmidt", "--delta", "4", "--sweep", "dev", "-1.9", "-1.7", "3"],
    "fig2a": ["figure", "fig2a", "--points", "2", "--rank", "8"],
    "fig2b": ["figure", "fig2b", "--points", "3"],
    "fig2c": ["figure", "fig2c", "--points", "2"],
    # all 24 rows of the large-detuning bounds, pinned byte for byte
    "fig2c_full": ["figure", "fig2c"],
    "fig5a": ["figure", "fig5a", "--points", "3"],
    "fig6b": ["figure", "fig6b", "--points", "3"],
    "fig7a": ["figure", "fig7a", "--points", "3"],
    "fig7b": ["figure", "fig7b", "--points", "3"],
    "fig8a": ["figure", "fig8a", "--points", "2", "--rank", "8"],
    "fig8b": ["figure", "fig8b", "--points", "2", "--rank", "8"],
    "fig8c": ["figure", "fig8c", "--points", "2", "--rank", "8"],
    "shape_slm_auto": ["shape-slm", "--delta", "5", "--sigma", "auto"],
    "shape_pump_auto": ["shape-pump", "--delta", "5", "--dev", "-1.9", "--phi", "1",
                        "--sigma", "auto", "--zeta", "auto"],
    "exit2": ["schmidt", "--dev", "-2"],
    "exit3": ["schmidt", "--grid-half-width", "20", "--step", "0.5"],
    # the truncated solve: the SVD of its tridiagonal T fails (the rank-one Phi breaks down
    # after 2 products, before any Ritz check)
    "exit3_truncated": ["schmidt", "--grid-half-width", "20", "--step", "0.5", "--rank", "8"],
    "large_delta_step": ["schmidt", "--delta", "1000", "--step", "1", "--rank", "8"],
    "config_bool": ["shape-pump", "--config", "run.cfg", "--phi", "1"],
    "config_sweep": ["shape-slm", "--config", "run.cfg"],
    "format_csv": ["schmidt", "--delta", "5", "--dev", "-1.9", "--format", "csv"],
    "format_json": ["shape-pump", "--delta", "5", "--zeta", "auto", "--format", "json"],
    "figure_json": ["figure", "fig7b", "--points", "3", "--format", "json"],
    "slm_sweep_log": ["shape-slm", "--delta", "5", "--sweep", "sigma", "0.05", "50", "6",
                      "--log"],
    "slm_sweep_delta": ["shape-slm", "--sigma", "auto", "--sweep", "delta", "0.1", "10", "4"],
    "pump_sweep_phi": ["shape-pump", "--delta", "3", "--sigma", "0.5", "--zeta", "2",
                       "--sweep", "phi", "0", "2", "4"],
    "pump_sweep_infinite_pm": ["shape-pump", "--sigma", "1", "--infinite-pm", "--sweep",
                               "dev", "-1.5", "1", "4"],
    "pump_sweep_zeta_log": ["shape-pump", "--delta", "2", "--sigma", "auto", "--sweep",
                            "zeta", "0.5", "50", "4", "--log"],
    "exit2_points": ["figure", "fig7a", "--points", "0"],
    "exit2_modes": ["schmidt", "--delta", "5", "--dev", "-1.9", "--modes", "-3"],
    "exit2_step_overflow": ["schmidt", "--step", "1e-310"],
    "exit2_center_nan": ["schmidt", "--grid-center", "nan"],
    "exit2_sigma_inf": ["shape-slm", "--sigma", "inf"],
    "exit2_zeta_inf": ["shape-pump", "--sigma", "1", "--zeta", "inf"],
    "exit2_phi_nan": ["shape-pump", "--phi", "nan", "--zeta", "1"],
    # 1e15 sweep rows: refused by the sweep's memory guard (numpy's MemoryError before it).
    # No entry may sweep 2e8-1e12 points: a checkout without the guard allocates them.
    "exit2_sweep_size": ["shape-slm", "--sweep", "delta", "1", "2", "1000000000000000"],
    "exit2_pump_no_zeta": ["shape-pump"],
    # shaping grids of 6e13, 4e13 and 5e301 nodes: refused before any node array exists
    "exit2_slm_step_tiny": ["shape-slm", "--step", "1e-12"],
    "exit2_pump_step_tiny": ["shape-pump", "--sigma", "1", "--infinite-pm", "--step", "1e-12"],
    "exit2_slm_half_width_huge": ["shape-slm", "--grid-half-width", "1e300"],
    "dump_kernel_delta0_481": ["schmidt", "--delta", "0", "--dev", "1", "--grid-half-width",
                               "60", "--step", "0.25", "--dump-kernel"],
    "exit2_sweep_zeta_flat": ["shape-pump", "--infinite-pm", "--sweep", "zeta", "1", "5", "3"],
    "exit2_sweep_dump_kernel": ["schmidt", "--sweep", "delta", "1", "2", "2", "--dump-kernel"],
    "exit2_zeta_flat": ["shape-pump", "--infinite-pm", "--zeta", "5"],
    "exit2_rank_negative": ["schmidt", "--rank", "-3", "--grid-half-width", "10", "--step", "0.5"],
    # fig8's own default rank, 16, on grids of up to 4001 nodes
    "fig8b_default_rank": ["figure", "fig8b", "--points", "2"],
    "schmidt_sweep_json": ["schmidt", "--delta", "5", "--sweep", "dev", "-1.6", "-1.5", "2",
                           "--format", "json"],
    "exit2_sweep_inf": ["schmidt", "--sweep", "delta", "1", "inf", "3"],
    # a dense point's modes come from a rank-m solve: near-degenerate pairs at Delta = 0,
    # schmidt_sweep's range, and a report without modes
    "delta0_modes6": ["schmidt", "--delta", "0", "--dev", "-1.5", "--modes", "6"],
    "modes4_delta25": ["schmidt", "--delta", "25", "--dev", "-1.75", "--modes", "4"],
    "point_json": ["schmidt", "--delta", "3", "--dev", "-1.5", "--format", "json"],
    # negative values in exponent form
    "dev_exponent": ["shape-slm", "--delta", "5", "--dev", "-1e-1"],
    "sweep_dev_exponent": ["shape-slm", "--delta", "5", "--sweep", "dev", "-1e-1", "1e-1", "3"],
    "exit2_sweep_points_float": ["schmidt", "--sweep", "delta", "1", "2", "3.5"],
    "exit2_config_help": ["shape-slm", "--config", "run.cfg"],
    # (pi zeta^2)^(1/4) underflows to 0: an effective response of inf and nan
    "exit2_pump_zeta_underflow": ["shape-pump", "--zeta", "1e-200", "--sigma", "1"],
    # values-only truncated solves: a rank-one kernel, ended by breakdown; near-degenerate
    # pairs at Delta = 1000; the default rank 300 on 2241 nodes; and the method of sweep rows
    "delta0_rank16_json": ["schmidt", "--delta", "0", "--dev", "0", "--rank", "16",
                           "--format", "json"],
    "large_delta_rank8_json": ["schmidt", "--delta", "1000", "--step", "1", "--rank", "8",
                               "--format", "json"],
    "point_default_2241_json": ["schmidt", "--delta", "5", "--dev", "-0.88", "--format", "json"],
    "sweep_rank16_json": ["schmidt", "--sweep", "delta", "1", "3", "2", "--dev", "-0.47",
                          "--rank", "16", "--format", "json"],
    # the bare command: Delta = delta = 0 on 4001 nodes, default rank 300 values-only; Phi
    # has rank one there, so the one pair of its 2 modes comes from a rank-1 solve
    "bare_default": ["schmidt"],
    # Gaussian phase matching far from the line centre: w(z) at 665 <= |z| <= 750
    "pump_far_from_line": ["shape-pump", "--delta", "50", "--dev", "-1.9", "--sigma", "auto",
                           "--zeta", "0.05", "--format", "both"],
    # --sigma and --zeta errors name the flag; --zeta auto at Delta <= -2 names its rule
    "exit2_sigma_text": ["shape-slm", "--sigma", "abc"],
    "exit2_zeta_text": ["shape-pump", "--sigma", "1", "--zeta", "xyz"],
    "exit2_zeta_auto_delta": ["shape-pump", "--delta", "-3", "--zeta", "auto"],
    "exit2_sigma_auto_delta": ["shape-slm", "--delta", "-1", "--sigma", "auto"],
    # a figure grid of 1e12 x (1e12 - 1) points: refused before any point is built
    "exit2_points_huge": ["figure", "fig8a", "--points", "1000000000000"],
    # a step of 100 gamma_e misses Phi's lines (r1^2 = 253.6): one warning line on stderr
    "under_resolved_step": ["schmidt", "--delta", "1e6", "--step", "100", "--rank", "4"],
    # the SLM strip step d / 5.97 at d = min(gamma_e, sigma): sigma >> gamma_e sets the
    # largest grid, sigma < gamma_e a step below gamma_e's
    "shape_slm_sigma_wide": ["shape-slm", "--delta", "50", "--sigma", "auto"],
    "shape_slm_sigma_narrow": ["shape-slm", "--delta", "5", "--sigma", "0.2"],
}

DEMOS = ("cw_spdc_modulators.py", "optimal_pair_amplitude.py", "pump_shaping.py",
         "schmidt_entanglement.py")

# name -> text of the run.cfg file written into that command's directory
CONFIGS = {
    "config_bool": "delta = 3\ndev = -1.5\nsigma = 0.5\ninfinite_pm = yes  # a boolean key\n",
    "config_sweep": "delta = 4\nsweep = sigma 0.5 8 3  # a key taking several values\nlog = yes\n",
    "exit2_config_help": "delta = 3\nhelp = 1  # not a config key: it would run nothing\n",
}


def _deterministic(report):
    """report.json without its run-dependent wall_time_ms and timing."""
    return {k: v for k, v in report.items() if k not in ("wall_time_ms", "timing")}


def _digest(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "report.json":
        data = json.dumps(_deterministic(json.loads(data)), indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def run(out_dir, src):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    demos = os.path.join(os.path.dirname(src), "demos")
    # name -> (argv as recorded, the interpreter's arguments)
    jobs = {name: (argv, [*(["-c", FAILING_SVD] if name.startswith("exit3")
                            else ["-m", "tpaopt.cli"]), *argv, "--out", "."])
            for name, argv in COMMANDS.items()}
    jobs.update((f"demo_{demo[:-3]}", ([f"demos/{demo}"], [os.path.join(demos, demo)]))
                for demo in DEMOS)
    manifest = {}
    for name, (argv, args) in jobs.items():
        out = os.path.join(out_dir, name)
        os.makedirs(out, exist_ok=True)
        if name in CONFIGS:
            with open(os.path.join(out, "run.cfg"), "w", encoding="ascii") as fh:
                fh.write(CONFIGS[name])
        t0 = time.perf_counter()
        # run inside the output directory so stdout names the same relative paths on any run
        proc = subprocess.run([sys.executable, *args], cwd=out, env=env, capture_output=True,
                              text=True)
        files = {f: _digest(os.path.join(out, f)) for f in sorted(os.listdir(out))}
        stdout = proc.stdout
        if name.startswith("demo_"):
            stdout = hashlib.sha256(stdout.encode()).hexdigest()
        manifest[name] = {"argv": argv, "exit": proc.returncode, "stdout": stdout,
                          "files": files}
        if proc.returncode or not name.startswith("demo_"):
            manifest[name]["stderr"] = proc.stderr
        print(f"{name}: exit {proc.returncode}, {len(files)} files, "
              f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _numbers(path):
    """label -> value of each number in a CSV, or in report.json without its timings.

    CSV lines starting with '#' (kernel.csv's grid header) are comments; a first row
    holding text is the header row that labels the columns, else columns go by number.
    """
    with open(path, encoding="ascii") as fh:
        if os.path.basename(path) == "report.json":
            out, todo = {}, [("", _deterministic(json.load(fh)))]
            while todo:
                key, x = todo.pop()
                if isinstance(x, dict):
                    todo += [(f"{key}.{k}" if key else k, v) for k, v in x.items()]
                elif isinstance(x, list):
                    todo += [(f"{key}[{i}]", v) for i, v in enumerate(x)]
                elif isinstance(x, (int, float)) and not isinstance(x, bool):
                    out[key] = float(x)
            return out
        rows = [(i, line.split(",")) for i, line in enumerate(fh.read().splitlines(), 1)
                if not line.startswith("#")]
    labels = rows[0][1] if rows and None in map(_float, rows[0][1]) else []
    return {f"line {i}, {labels[j] if j < len(labels) else j + 1}": x
            for i, cells in rows for j, x in enumerate(map(_float, cells)) if x is not None}


def _largest_difference(file_a, file_b):
    """Where two CSV or report.json files differ most, relative to their largest magnitude."""
    if not (file_a.endswith((".csv", "report.json")) and os.path.exists(file_a)
            and os.path.exists(file_b)):
        return ""
    a, b = _numbers(file_a), _numbers(file_b)

    def gap(k):
        x, y = a[k], b[k]
        if x == y or (math.isnan(x) and math.isnan(y)):
            return 0.0
        return abs(x - y) if math.isfinite(x - y) else math.inf

    note = f"; {len(set(a) ^ set(b))} numbers on one side only" if set(a) != set(b) else ""
    k = max(sorted(set(a) & set(b)), key=gap, default=None)  # sorted: ties resolve alike
    if k is None or gap(k) == 0:
        return note or "; no number differs"
    scale = max((abs(x) for x in (*a.values(), *b.values()) if math.isfinite(x)), default=0.0)
    return (f"; largest at {k}: {a[k]!r} -> {b[k]!r}, {gap(k) / (scale or 1.0):.3g} of the "
            f"largest magnitude {scale:.9g}{note}")


def compare(path_a, path_b):
    """Print one line per difference of two manifests; return their count.

    A path may name a run's output directory, which stands for its manifest.json.
    """
    path_a, path_b = (os.path.join(p, "manifest.json") if os.path.isdir(p) else p
                      for p in (path_a, path_b))
    with open(path_a, encoding="ascii") as fh:
        a = json.load(fh)
    with open(path_b, encoding="ascii") as fh:
        b = json.load(fh)
    diffs = [f"{name}: only in {path_a if name in a else path_b}"
             for name in sorted(set(a) ^ set(b))]
    for name in sorted(set(a) & set(b)):
        ra, rb = a[name], b[name]
        for key in ("argv", "exit", "stdout", "stderr"):  # no stderr: none recorded, or empty
            if ra.get(key, "") != rb.get(key, ""):
                diffs.append(f"{name}: {key} {ra.get(key, '')!r} -> {rb.get(key, '')!r}")
        for f in sorted(set(ra["files"]) | set(rb["files"])):
            if ra["files"].get(f) == rb["files"].get(f):
                continue
            if f in ra["files"] and f in rb["files"]:
                diffs.append(f"{name}: {f} differs" + _largest_difference(
                    *(os.path.join(os.path.dirname(p), name, f) for p in (path_a, path_b))))
            else:
                diffs.append(f"{name}: {f} only in {path_a if f in ra['files'] else path_b}")
    print("\n".join(diffs) if diffs else "manifests agree")
    return len(diffs)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="directory for the outputs and manifest.json")
    parser.add_argument("--src", default=SRC, help="directory holding the tpaopt package")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="two manifest.json files, or the run directories holding them")
    args = parser.parse_args(argv)
    if args.compare:
        return 1 if compare(*args.compare) else 0
    if args.out is None:
        parser.error("an output directory is required")
    run(args.out, os.path.abspath(args.src))
    return 0


if __name__ == "__main__":
    sys.exit(main())
