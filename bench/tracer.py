"""Outside-in tracer for the tpaopt library.

Wraps every function exported by ``tpaopt/__init__.py`` plus
``tpaopt.cli.main`` without touching the library source.  Each wrapper is
put in place of the original in every ``tpaopt.*`` module namespace that
holds it, matched by identity, so calls that resolve the name through a
module's globals (``cli`` imports names directly, ``asymptotic_bounds``
reaches ``decompose`` through ``schmidt``'s globals) are traced too.
Classes are left alone: wrapping them would break ``isinstance`` checks.

Spans (name, start, end, parent, job) are kept in memory and aggregated or
written out when the run ends; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "tpaopt"


def _label(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def targets() -> dict:
    """id -> function for every function tpaopt exports, plus tpaopt.cli.main."""
    pkg = importlib.import_module(PACKAGE)
    cli = importlib.import_module(PACKAGE + ".cli")
    fns = [obj for name, obj in vars(pkg).items()
           if not name.startswith("_") and inspect.isfunction(obj)]
    fns.append(cli.main)
    return {id(fn): fn for fn in fns}


def _matrix_shape(kernel):
    entries = getattr(kernel, "entries", kernel)
    return tuple(getattr(entries, "shape", ()))


def _decompose_kind(bound) -> str:
    """Dense unless an explicit rank below min(shape) - 1 asks for the truncated solver."""
    rank = bound.get("rank")
    shape = bound["shape"]
    if rank is None or not shape or rank >= min(shape) - 1:
        return "dense"
    return "truncated"


class Tracer:
    """Collects spans and layer counters for one run."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent index or -1, job)
        self.job = None
        self._stack = []
        self._patches = []   # (module, attribute, original)
        self.counters = defaultdict(float)   # summed layer counters
        self.truncated_n_max = 0
        self.truncated_captured_min = 0.0     # 0 until a truncated solve is seen
        self.bounds_inputs = set()

    # -- installation -----------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = targets()
        wrappers = {key: self._wrap(fn) for key, fn in originals.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                key = id(value)
                if key in originals and value is originals[key]:
                    setattr(mod, attr, wrappers[key])
                    self._patches.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    # -- spans ------------------------------------------------------------

    def _wrap(self, fn):
        label = _label(fn)
        probe = _PROBES.get(label)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label
            bound = None
            if probe is not None:
                bound = sig.bind(*args, **kwargs).arguments
                if label == "schmidt.decompose":
                    bound["shape"] = _matrix_shape(next(iter(bound.values())))
                    name = f"{label}.{_decompose_kind(bound)}"
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, t0, t1, parent, self.job)
            if probe is not None:
                probe(self, name, bound, result)
            return result

        return traced

    # -- aggregation --------------------------------------------------------

    def layer_metrics(self) -> dict:
        """calls, s and self_s per traced name, plus the layer counters.

        A decompose span counts under ``schmidt.decompose`` and under its
        ``.dense`` or ``.truncated`` variant.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for fn in targets().values():
            label = _label(fn)
            for key in (".calls", ".s", ".self_s"):
                out[label + key] = 0.0
        for kind in ("dense", "truncated"):
            for key in (".calls", ".s", ".self_s"):
                out[f"schmidt.decompose.{kind}{key}"] = 0.0
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            names = [name]
            if name.startswith("schmidt.decompose."):
                names.append("schmidt.decompose")
            for n in names:
                out[n + ".calls"] += 1
                out[n + ".s"] += t1 - t0
                out[n + ".self_s"] += t1 - t0 - child[i]
        out.update(self.counters)
        out["schmidt.decompose.truncated.n_max"] = self.truncated_n_max
        out["schmidt.decompose.truncated.captured_min"] = self.truncated_captured_min
        calls = out["schmidt.asymptotic_bounds.calls"]
        out["schmidt.asymptotic_bounds.unique_ratio"] = (
            len(self.bounds_inputs) / calls if calls else 0.0)
        out["cli.self_s"] = out["cli.main.self_s"]
        return dict(out)

    def write_spans(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"names": names,
                       "columns": ["name", "start", "end", "parent", "job"],
                       "spans": [[index[n], t0, t1, p, j] for n, t0, t1, p, j in self.spans]},
                      fh, separators=(",", ":"))


# -- probes: counters read from a traced call's arguments and result -----------


def _probe_decompose(tr, name, bound, result):
    n1, n2 = bound["shape"]
    tr.counters["schmidt.decompose.bytes"] += n1 * n2 * 16
    if name.endswith(".truncated"):
        tr.counters["schmidt.decompose.truncated.rank_sum"] += bound["rank"]
        first = tr.truncated_n_max == 0
        tr.truncated_n_max = max(tr.truncated_n_max, n1, n2)
        kept = float(np.sum(np.asarray(result.coefficients) ** 2))
        captured = kept / (kept + float(result.residual) ** 2)
        tr.truncated_captured_min = captured if first else min(tr.truncated_captured_min, captured)


def _probe_bounds(tr, name, bound, result):
    # The bounds do not depend on the detuning, so points of a delta sweep
    # repeat one input.
    inputs = dict(bound, sys=dataclasses.replace(bound["sys"], delta_detuning=0.0))
    tr.bounds_inputs.add(repr(sorted(inputs.items())))


def _probe_sample_kernel(tr, name, bound, result):
    grid1 = bound["grid1"]
    grid2 = bound.get("grid2") or grid1
    tr.counters["grids.sample_kernel.bytes"] += grid1.count * grid2.count * 16


def _probe_response(tr, name, bound, result):
    tr.counters["response.response_infinite.evals"] += np.broadcast(
        np.asarray(bound["omega1"]), np.asarray(bound["omega2"])).size


def _probe_solution(tr, name, bound, result):
    tr.counters["shaping.nodes"] += result.grid.count


_PROBES = {
    "schmidt.decompose": _probe_decompose,
    "schmidt.asymptotic_bounds": _probe_bounds,
    "grids.sample_kernel": _probe_sample_kernel,
    "response.response_infinite": _probe_response,
    "shaping.optimal_slm": _probe_solution,
    "shaping.optimal_pump_shaper": _probe_solution,
}
