"""Check the outputs of one tpaopt CLI job.

Tables and reports are read by column and key name, so columns and keys
added later are ignored.  Every seed gets the invariant checks; a run on the
reference seed also compares sampled rows against stored values.  A point
fails if its job exited non-zero, if an output is missing or short, or if
one of its values breaks a check; a failed job fails all of its points.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

REL_TOL = 1e-6
# Entropies are compared absolutely: truncation alone moves S (dense versus
# the rank-300 truncated solve differ by 0.017 bits at n = 1601).
ENTROPY_KEYS = ("entropy_bits", "s_inf")
ENTROPY_ABS_TOL = 0.05
RESIDUAL_MAX = 1e-8

# Invariants by column name; a name not listed is not checked.
_LOWER = {  # name -> (lower bound, strict)
    "r1_squared": (0.0, True),
    "quantum_enhancement": (1.0, False),
    "e_inf": (2.0, False),
    "entropy_bits": (0.0, False),
    "s_inf": (0.0, False),
    "e_q_shaped": (0.0, True),
    "e_q_unshaped": (0.0, True),
}
_UPPER = {"r1_squared": 1.0, "residual": RESIDUAL_MAX}
_ORDERED = (("p_shaped", "p_unshaped"), ("p_shaped_over_n", "p_unshaped_over_n"))
# Checked, but not compared with the reference: the stationarity residual is
# roundoff (1e-16 to 1e-13), which any reordering of a floating-point sum moves.
_NO_REFERENCE = {"residual"}


def _key_column(name: str) -> bool:
    return (name in _LOWER or name in _UPPER or name.startswith("e_opt")
            or any(name in pair for pair in _ORDERED))


def row_problems(row: dict) -> list:
    """Invariant violations of one output row (values as strings or numbers)."""
    problems = []
    vals = {}
    for name, raw in row.items():
        if not _key_column(name):
            continue
        try:
            vals[name] = float(raw)
        except (TypeError, ValueError):
            problems.append(f"{name}={raw!r} is not a number")
            continue
        if not math.isfinite(vals[name]):
            problems.append(f"{name}={raw} is not finite")
    for name, x in vals.items():
        # e_opt and the figure columns e_opt_sigma_*
        lo, strict = (1.0, False) if name.startswith("e_opt") else _LOWER.get(name, (None, False))
        if lo is not None and (x <= lo if strict else x < lo):
            problems.append(f"{name}={x!r} below {lo}")
        hi = _UPPER.get(name)
        if hi is not None and x > hi:
            problems.append(f"{name}={x!r} above {hi}")
    for big, small in _ORDERED:
        if big in vals and small in vals and vals[big] < vals[small]:
            problems.append(f"{big}={vals[big]!r} < {small}={vals[small]!r}")
    return problems


def _fmt(x) -> str:
    return format(float(x), ".9g")


def _read_csv(path):
    with open(path, encoding="ascii", newline="") as fh:
        return list(csv.DictReader(fh))


def _read_report(out_dir):
    with open(os.path.join(out_dir, "report.json"), encoding="ascii") as fh:
        return json.load(fh)


def _flag(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def job_rows(argv, out_dir):
    """Output rows of one job, one per parameter point, plus side-file problems."""
    cmd = argv[0]
    if cmd == "figure":
        return _read_csv(os.path.join(out_dir, f"{argv[1]}.csv")), []
    report = _read_report(out_dir)
    if "--sweep" in argv:
        table = {"schmidt": "schmidt_sweep.csv", "shape-slm": "slm_sweep.csv",
                 "shape-pump": "pump_sweep.csv"}[cmd]
        rows = _read_csv(os.path.join(out_dir, table))
        if cmd == "schmidt":
            for row, extra in zip(rows, report["results"]["rows"]):
                row["e_inf"], row["s_inf"] = _fmt(extra["e_inf"]), _fmt(extra["s_inf"])
        return rows, []
    results = report["results"]
    nodes = report["grid"]["points"]
    if cmd == "schmidt":
        coeffs = _read_csv(os.path.join(out_dir, "schmidt_coefficients.csv"))
        row = {"r1_squared": coeffs[0]["r_squared"]}
        row.update({k: _fmt(results[k]) for k in ("quantum_enhancement", "entropy_bits",
                                                    "e_inf", "s_inf")})
        n_modes = min(int(_flag(argv, "--modes", 2)), len(coeffs))
        side, expected = "schmidt_modes.csv", n_modes * nodes
    else:
        row = {k: _fmt(results[k]) for k in ("e_opt", "p_shaped", "p_unshaped", "residual")}
        side = "slm_phase.csv" if cmd == "shape-slm" else "pump_phase.csv"
        expected = nodes
    got = len(_read_csv(os.path.join(out_dir, side)))
    problems = [] if got == expected else [f"{side}: {got} rows, expected {expected}"]
    return [row], problems


def sample_indices(n: int):
    return sorted({0, n // 2, n - 1}) if n else []


def key_outputs(rows) -> dict:
    """9-digit key outputs of the sampled rows, keyed by row index."""
    return {str(i): {k: str(v) for k, v in rows[i].items()
                     if _key_column(k) and k not in _NO_REFERENCE}
            for i in sample_indices(len(rows))}


def compare(got: dict, ref: dict) -> list:
    """(row index, message) for each sampled key output that differs from its reference."""
    problems = []
    for idx, ref_row in ref.items():
        row = got.get(idx, {})
        for name, ref_val in ref_row.items():
            if name not in row:
                problems.append((int(idx), f"{name} missing"))
                continue
            try:
                x, r = float(row[name]), float(ref_val)
            except ValueError:
                x, r = math.nan, math.nan
            tol = ENTROPY_ABS_TOL if name in ENTROPY_KEYS else REL_TOL * abs(r)
            if not abs(x - r) <= tol:
                problems.append((int(idx), f"{name}={row[name]} differs from reference {ref_val}"))
    return problems


def digests(out_dir) -> dict:
    """sha256 of every CSV the job wrote (all CSV output is deterministic)."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_job(job, out_dir, rc, reference=None) -> dict:
    """Failed points, problems, key outputs and CSV digests of one finished job."""
    points = job["points"]
    if rc != 0:
        return {"failed": points, "problems": [f"exit code {rc}"], "key": {}, "digests": {}}
    try:
        rows, problems = job_rows(job["argv"], out_dir)
    except (OSError, KeyError, IndexError, ValueError) as exc:
        return {"failed": points, "problems": [f"unreadable output: {exc!r}"],
                "key": {}, "digests": {}}
    bad_rows = set()
    for i, row in enumerate(rows):
        for p in row_problems(row):
            problems.append(f"row {i}: {p}")
            bad_rows.add(i)
    key = key_outputs(rows)
    if reference is not None:
        for i, p in compare(key, reference):
            problems.append(f"row {i}: {p}")
            bad_rows.add(i)
    failed = len(bad_rows) + max(0, points - len(rows))
    if problems and not bad_rows and failed == 0:
        failed = points  # a side file is wrong: the whole job is suspect
    if len(rows) != points:
        problems.append(f"{len(rows)} rows, expected {points}")
    return {"failed": min(failed, points), "problems": problems, "key": key,
            "digests": digests(out_dir)}
