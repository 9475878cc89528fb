"""Seeded job lists for the benchmark workloads.

A job is one ``tpaopt`` CLI invocation: ``{"argv": [...], "points": n}``,
where ``points`` counts the parameter points it evaluates (sweep rows,
figure rows, or 1 for a single-point job).  The loop runs the jobs in list
order, so each workload is a fixed pattern of job kinds whose parameters
are drawn from narrow ranges: the cost of a run then hardly depends on the
seed, and the slowest job of a run is always the same kind.

Jobs in one list share no deviation value, hence no (Delta, delta) point:
inputs repeat only inside a single sweep, as they do for a real user, so an
in-process cache is credited only with what one invocation would get.
"""

from __future__ import annotations

import random

# Deviation keys are compared at this precision; drawn values carry 6 decimals.
_DEV_DIGITS = 9
# Jobs per list: more than a 60 s run of the cheapest workload starts.
JOB_LIST_LEN = 1000


def _num(x: float) -> str:
    return format(x, ".6f").rstrip("0").rstrip(".")


def _linspace(lo: float, hi: float, n: int):
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def _sweep(param: str, lo: float, hi: float, n: int, log: bool = False):
    argv = ["--sweep", param, _num(lo), _num(hi), str(n)]
    return argv + ["--log"] if log else argv


class _Draw:
    """Random draws plus the bookkeeping that keeps deviations distinct."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.devs = set()

    def u(self, lo: float, hi: float) -> float:
        return float(_num(self.rng.uniform(lo, hi)))

    def i(self, lo: int, hi: int) -> int:
        return self.rng.randint(lo, hi)

    def choice(self, seq):
        return self.rng.choice(seq)

    def claim(self, devs) -> bool:
        """Reserve a job's deviation values; False if any is already used."""
        keys = {round(float(d), _DEV_DIGITS) for d in devs}
        if keys & self.devs:
            return False
        self.devs |= keys
        return True


def _job(draw: _Draw, make):
    """Draw a job until its deviations are unused.  make(draw) -> (argv, devs, points)."""
    while True:
        argv, devs, points = make(draw)
        if draw.claim(devs):
            return {"argv": argv, "points": points}


# ---------------------------------------------------------------------------
# schmidt_sweep: points of the default grid and solver policy, one point per
# job.  Every point recomputes the delta-independent bounds: deviations in
# [-1.80, -1.72] give an 801-node bounds grid solved at rank 300 (about 7 s),
# and a dense point grid of 401-561 nodes, so all jobs cost the same and a
# 20 s run holds two to four of them.  (A 2-point sweep costs 15-20 s, and
# a run would hold one or two jobs depending on the host's speed.)


def _schmidt_point(d: _Draw):
    dev = d.u(-1.80, -1.72)
    argv = ["schmidt", "--delta", _num(d.u(0.1, 25.0)), "--dev", _num(dev)]
    return argv, [dev], 1


def schmidt_sweep(seed: int):
    draw = _Draw(seed)
    return [_job(draw, _schmidt_point) for _ in range(JOB_LIST_LEN)]


# ---------------------------------------------------------------------------
# schmidt_large: explicit ranks on 3001-3121 node grids, where kernel sampling
# and the truncated solve dominate and the bounds are cheap.  After one fig8
# preset (about 7 s), 2-point rank-16..18 sweeps alternate with rank-56..60
# single points that write their modes; both cost about 5 s, and sweeps are
# the majority, so the median job and the points per second hardly change
# with the number of jobs a run holds (3 to 6 at 20 s).  fig8's 4001-node
# grid sets peak_rss_mb.


def _fig8(d: _Draw):
    # --points 2 gives Delta in {0.1, 5} x delta in {-1.9, 0}: 4 rows, two of
    # them on the 4001-node grid at delta = 0.  Its deviations are fixed, so
    # a list holds one fig8 job.
    name = "fig8" + d.choice("abc")
    return ["figure", name, "--points", "2"], [-1.9, 0.0], 4


def _schmidt_modes(d: _Draw):
    dev = d.u(-0.5, -0.44)
    argv = ["schmidt", "--delta", _num(d.u(0.1, 5.0)), "--dev", _num(dev),
            "--rank", str(d.i(56, 60)), "--modes", str(d.i(2, 4))]
    return argv, [dev], 1


def _schmidt_rank_sweep(d: _Draw):
    dev = d.u(-0.5, -0.44)
    argv = (["schmidt"] + _sweep("delta", d.u(0.1, 1.0), d.u(2.0, 5.0), 2)
            + ["--dev", _num(dev), "--rank", str(d.i(16, 18))])
    return argv, [dev], 2


def schmidt_large(seed: int):
    draw = _Draw(seed)
    jobs = [_job(draw, _fig8)]
    kinds = (_schmidt_rank_sweep, _schmidt_modes, _schmidt_rank_sweep)
    jobs += [_job(draw, kinds[k % len(kinds)]) for k in range(JOB_LIST_LEN - 1)]
    return jobs


# ---------------------------------------------------------------------------
# shaping_io: shaping sweeps of hundreds of points, single-point jobs that
# write phase tables, and one figure of each preset family.  schmidt is
# never called.  shape-slm grids grow with sigma = Delta and with the sweep's
# top sigma or Delta, so those ranges are narrow.


def _fig_slm(d: _Draw):
    # fig5a and fig6b both sit at delta = -1, so a run holds only one of them.
    # fig6b is kept: its sigma = Delta reaches 100 and the largest shaping
    # grid (50001 nodes), which then sets peak_rss_mb on every seed.
    p = d.i(55, 60)
    return ["figure", "fig6b", "--points", str(p)], [-1.0], p


def _fig_pump(d: _Draw):
    name, p = d.choice(("fig7a", "fig7b")), d.i(75, 80)
    return ["figure", name, "--points", str(p)], _linspace(-1.9, 2.0, p), p


def _slm_delta_sweep(d: _Draw):
    dev, n = d.u(-1.5, 1.5), d.i(200, 300)
    argv = (["shape-slm", "--dev", _num(dev), "--sigma", "auto"]
            + _sweep("delta", d.u(0.5, 1.0), d.u(40.0, 45.0), n, log=True))
    return argv, [dev], n


def _slm_sigma_sweep(d: _Draw):
    dev, n = d.u(-1.5, 1.5), d.i(200, 300)
    argv = (["shape-slm", "--delta", _num(d.u(4.0, 6.0)), "--dev", _num(dev)]
            + _sweep("sigma", d.u(0.2, 0.25), d.u(40.0, 45.0), n, log=True))
    return argv, [dev], n


def _slm_dev_sweep(d: _Draw):
    lo, hi, n = d.u(-1.6, -1.2), d.u(1.0, 1.6), d.i(200, 300)
    argv = (["shape-slm", "--delta", _num(d.u(4.0, 6.0)), "--sigma", "auto"]
            + _sweep("dev", lo, hi, n))
    return argv, _linspace(lo, hi, n), n


def _pump_delta_sweep(d: _Draw):
    dev, n = d.u(-1.5, 1.5), d.i(200, 300)
    argv = (["shape-pump", "--dev", _num(dev), "--phi", _num(d.u(0.5, 1.5)),
             "--sigma", "auto", "--zeta", "auto"]
            + _sweep("delta", d.u(0.5, 1.0), d.u(10.0, 20.0), n))
    return argv, [dev], n


def _pump_phi_sweep(d: _Draw):
    dev, n = d.u(-1.5, 1.5), d.i(200, 300)
    argv = (["shape-pump", "--delta", _num(d.u(1.0, 10.0)), "--dev", _num(dev),
             "--sigma", "auto", "--infinite-pm"]
            + _sweep("phi", d.u(0.0, 0.3), d.u(2.0, 3.0), n))
    return argv, [dev], n


def _pump_zeta_sweep(d: _Draw):
    dev, n = d.u(-1.5, 1.5), d.i(200, 300)
    argv = (["shape-pump", "--delta", _num(d.u(1.0, 10.0)), "--dev", _num(dev),
             "--phi", _num(d.u(0.5, 1.5)), "--sigma", "auto"]
            + _sweep("zeta", d.u(1.0, 3.0), d.u(30.0, 50.0), n))
    return argv, [dev], n


def _pump_dev_sweep(d: _Draw):
    lo, hi, n = d.u(-1.6, -1.2), d.u(1.0, 1.6), d.i(200, 300)
    argv = (["shape-pump", "--delta", _num(d.u(1.0, 10.0)), "--phi", _num(d.u(0.5, 1.5)),
             "--sigma", "auto", "--zeta", "auto"]
            + _sweep("dev", lo, hi, n))
    return argv, _linspace(lo, hi, n), n


def _slm_point(d: _Draw):
    dev = d.u(-1.5, 1.5)
    argv = ["shape-slm", "--delta", _num(d.u(4.0, 6.0)), "--dev", _num(dev), "--sigma", "auto"]
    return argv, [dev], 1


def _pump_point(d: _Draw):
    dev = d.u(-1.5, 1.5)
    argv = ["shape-pump", "--delta", _num(d.u(1.0, 10.0)), "--dev", _num(dev),
            "--phi", _num(d.u(0.5, 1.5)), "--sigma", "auto", "--zeta", "auto"]
    return argv, [dev], 1


def _pump_point_flat(d: _Draw):
    dev = d.u(-1.5, 1.5)
    argv = ["shape-pump", "--delta", _num(d.u(1.0, 10.0)), "--dev", _num(dev),
            "--phi", _num(d.u(0.5, 1.5)), "--sigma", "auto", "--infinite-pm"]
    return argv, [dev], 1


def shaping_io(seed: int):
    draw = _Draw(seed)
    jobs = [_job(draw, _fig_slm), _job(draw, _fig_pump)]
    kinds = (_slm_delta_sweep, _pump_delta_sweep, _slm_point, _slm_sigma_sweep,
             _pump_phi_sweep, _pump_point, _slm_dev_sweep, _pump_zeta_sweep,
             _pump_point_flat, _pump_dev_sweep)
    jobs += [_job(draw, kinds[k % len(kinds)]) for k in range(JOB_LIST_LEN - 2)]
    return jobs


WORKLOADS = {
    "schmidt_sweep": schmidt_sweep,
    "schmidt_large": schmidt_large,
    "shaping_io": shaping_io,
}

