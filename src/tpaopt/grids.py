"""Uniform frequency grids, trapezoidal quadrature, and kernel sampling.

Two-photon amplitudes are sampled on tensor products of 1D grids into
complex matrices with the square roots of the quadrature weights embedded,
so that the matrix Frobenius inner product equals the continuous L2 inner
product up to quadrature error.  Grids are stored as (min, step, count) and
nodes are always recomputed as min + k * step, never by running summation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain
from math import ceil, inf, isfinite, log, pi, prod

import numpy as np

from .response import LevelSystem

__all__ = [
    "FrequencyGrid",
    "KernelMatrix",
    "make_grid",
    "quadrature_weights",
    "sample_kernel",
    "default_grid",
    "auto_grid",
    "kernel_marginal_single",
    "kernel_marginal_sum",
    "write_kernel_csv",
]

# Rows of a dense kernel built per block, to bound the temporaries of large grids.
ROW_CHUNK = 512
# Every CSV cell: 9 significant digits, so identical inputs give byte-identical tables.
CSV_FORMAT = "%.9g"
# CSV rows formatted by one % operation: few enough to keep the text of a block small.
CSV_BLOCK = 1024
# The trapezoidal error `_strip_step` aims at, below double precision's unit roundoff 1.1e-16.
TRAPEZOID_TOL = 1e-16


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform 1D frequency lattice: nodes are exactly min + k * step."""

    min: float
    step: float
    count: int

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError(f"step must be > 0, got {self.step}")
        if self.count < 2:
            raise ValueError(f"count must be >= 2, got {self.count}")

    @property
    def max(self) -> float:
        return self.min + (self.count - 1) * self.step

    @property
    def nodes(self) -> np.ndarray:
        return self.min + self.step * np.arange(self.count)

    @property
    def center(self) -> float:
        """Middle node (grids from make_grid have odd count, so this is exact)."""
        return self.min + (self.count // 2) * self.step

    def shifted(self, offset: float) -> "FrequencyGrid":
        return FrequencyGrid(self.min + offset, self.step, self.count)


def make_grid(center: float, half_width: float, step: float) -> FrequencyGrid:
    """Symmetric grid about `center` with odd node count, covering +- half_width.

    Examples: make_grid(0, 500, 0.25) has 4001 nodes; make_grid(0, 1, 1)
    has the 3 nodes {-1, 0, 1}.  A non-finite center or node count is a
    ValueError.
    """
    if not half_width > 0:
        raise ValueError(f"half_width must be > 0, got {half_width}")
    if not step > 0:
        raise ValueError(f"step must be > 0, got {step}")
    if not isfinite(center):
        raise ValueError(f"center must be finite, got {center}")
    if step > half_width:
        raise ValueError(f"step must be <= half_width, got step={step}, half_width={half_width}")
    if not isfinite(2.0 * half_width / step):  # the node count, 2 n_side + 1 below
        raise ValueError(f"the node count 2 half_width / step must be finite, got "
                         f"half_width={half_width}, step={step}")
    n_side = int(ceil(half_width / step - 1e-9))
    return FrequencyGrid(center - n_side * step, step, 2 * n_side + 1)


def _strip_step(d: float) -> float:
    """The trapezoidal step h at which 2 exp(-2 pi d / h), the rule's error for an integrand
    analytic in the strip |Im w| < d (Trefethen & Weideman, SIAM Rev. 56:385, 2014, section
    5), is TRAPEZOID_TOL: h = 2 pi d / ln(2 / TRAPEZOID_TOL), about d / 5.97."""
    return 2.0 * pi * d / log(2.0 / TRAPEZOID_TOL)


def quadrature_weights(grid: FrequencyGrid) -> np.ndarray:
    """Trapezoidal weights: step at interior nodes, step/2 at the endpoints."""
    w = np.full(grid.count, grid.step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


@dataclass(frozen=True)
class KernelMatrix:
    """Discretized two-photon amplitude on grid1 x grid2, weights embedded.

    entries[i, j] = f(w_i, v_j) * sqrt(w_i * w_j), so the squared Frobenius
    norm approximates the double integral of |f|^2.
    """

    grid1: FrequencyGrid
    grid2: FrequencyGrid
    entries: np.ndarray

    def __post_init__(self):
        if self.entries.shape != (self.grid1.count, self.grid2.count):
            raise ValueError(
                f"entries shape {self.entries.shape} does not match grids "
                f"({self.grid1.count}, {self.grid2.count})"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    def frobenius_norm2(self) -> float:
        p = np.abs(self.entries)
        p *= p  # in place: one real temporary, half the size of the entries
        return float(np.sum(p))


def check_fits(what: str, bytes_per_node: float, *counts: int) -> None:
    """Raise ValueError, before any allocation, if an array of bytes_per_node times the node
    counts exceeds physical memory; `what` names it, with {} for the counts."""
    sizes = [float(n) if n < 1e308 else inf for n in counts]  # no int beyond float range
    need = prod(sizes, start=float(bytes_per_node))  # a float: inf, not an overflow
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:  # counts beyond 12 digits are written to 3 significant ones
        shape = " x ".join(str(n) if n < 10**12 else f"{x:.3g}" for n, x in zip(counts, sizes))
        raise ValueError(f"{what.format(shape)} needs {need / 2**30:.3g} GiB, more than the "
                         f"{have / 2**30:.3g} GiB of physical memory; use a coarser grid")


def check_dense_fits(n1: int, n2: int) -> None:
    """`check_fits` for a dense n1 x n2 complex matrix, 16 bytes per entry."""
    check_fits("a dense {} kernel", 16, n1, n2)


def sample_kernel(f, grid1: FrequencyGrid, grid2: FrequencyGrid | None = None) -> KernelMatrix:
    """Sample a two-argument complex function on a tensor grid, times sqrt(w_i w_j).

    Parameters
    ----------
    f : callable
        Vectorized function of two broadcastable frequency arrays.
    grid1, grid2 : FrequencyGrid
        Node sets for the two arguments (grid2 defaults to grid1).
    """
    if grid2 is None:
        grid2 = grid1
    check_dense_fits(grid1.count, grid2.count)
    x1, x2 = grid1.nodes, grid2.nodes
    return _weighted_matrix(grid1, grid2, lambda rows: f(x1[rows, None], x2[None, :]))


def _weighted_matrix(grid1: FrequencyGrid, grid2: FrequencyGrid, block) -> KernelMatrix:
    """The `KernelMatrix` of entries block(rows)[i, j] * sqrt(w_i w_j), block(rows) giving the
    unweighted rows `rows` (a slice) on all of grid2's nodes, built ROW_CHUNK rows at a time."""
    sw1, sw2 = np.sqrt(quadrature_weights(grid1)), np.sqrt(quadrature_weights(grid2))
    out = np.empty((grid1.count, grid2.count), dtype=complex)
    for i0 in range(0, grid1.count, ROW_CHUNK):
        rows = slice(i0, i0 + ROW_CHUNK)
        # single fused weight product keeps symmetric samples exactly symmetric
        out[rows] = block(rows) * (sw1[rows, None] * sw2[None, :])
    return KernelMatrix(grid1, grid2, out)


def _reference(sys: LevelSystem) -> tuple[float, float, float]:
    """Centre, half-width and step of the reference grid: omega_f / 2, 200 gamma_f, gamma_e / 5."""
    return sys.omega_f / 2.0, 200.0 * sys.gamma_f, sys.gamma_e / 5.0


def default_grid(sys: LevelSystem) -> FrequencyGrid:
    """Reference photon-frequency grid: +-200 gamma_f about omega_f / 2, step gamma_e / 5."""
    return make_grid(*_reference(sys))


def auto_grid(sys: LevelSystem, half: float | None = None, step: float | None = None,
              center: float | None = None) -> FrequencyGrid:
    """The grid of a Schmidt point: `default_grid` with half, step and center, when
    given, replacing its values, widened if needed.

    Unless half is given, the half-width widens once +-200 gamma_f cannot hold both
    single-photon lines (0, omega_f) with 15 gamma_e to spare, to the farther line's
    distance from the centre plus max(200 gamma_f, 100 gamma_e).
    """
    ref_center, ref_half, ref_step = _reference(sys)
    center = ref_center if center is None else center
    if half is None:
        half = ref_half
        line_offset = max(abs(center), abs(sys.omega_f - center))
        if ref_half < line_offset + 15.0 * sys.gamma_e:
            half = line_offset + max(ref_half, 100.0 * sys.gamma_e)
    return make_grid(center, half, ref_step if step is None else step)


def kernel_marginal_single(kernel: KernelMatrix):
    """Marginal density of |f|^2 over the second photon's frequency.

    Returns (grid1 nodes, density) where density[i] = sum_j w_j |f(w_i, v_j)|^2.
    """
    w1 = quadrature_weights(kernel.grid1)
    w2 = quadrature_weights(kernel.grid2)
    p = np.abs(kernel.entries) ** 2 / (w1[:, None] * w2[None, :])  # the weights stripped
    return kernel.grid1.nodes, p @ w2


def kernel_marginal_sum(kernel: KernelMatrix):
    """Frequency-sum density of |f|^2 from anti-diagonal resummation.

    Requires equal steps on both grids.  Returns (omega_plus, density) on
    the 2*count-1 anti-diagonal sum frequencies; the integral over omega_-
    at fixed omega_+ becomes step * sum over one anti-diagonal (the 1/2
    Jacobian of the rotated coordinates cancels the doubled omega_- spacing).
    """
    g1, g2 = kernel.grid1, kernel.grid2
    if abs(g1.step - g2.step) > 1e-12 * g1.step:
        raise ValueError("kernel_marginal_sum requires equal grid steps")
    p = np.abs(kernel.entries) ** 2
    n1, n2 = p.shape
    # bin i + j collects row i's term in increasing i, as a row-by-row sum would
    acc = np.bincount(np.add.outer(np.arange(n1), np.arange(n2)).ravel(), weights=p.ravel(),
                      minlength=n1 + n2 - 1)
    omega_plus = (g1.min + g2.min) + g1.step * np.arange(n1 + n2 - 1)
    return omega_plus, acc / g1.step


def write_csv(path, header: str, rows) -> None:
    """Write the header line(s), then each row of numbers (a 2D array or equal-length
    sequences) as one CSV line of CSV_FORMAT cells; lines end in a bare newline."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        if len(rows):
            line = ",".join([CSV_FORMAT] * len(rows[0])) + "\n"
            for i0 in range(0, len(rows), CSV_BLOCK):
                block = rows[i0 : i0 + CSV_BLOCK]
                cells = (block.ravel().tolist() if isinstance(block, np.ndarray)
                         else chain.from_iterable(block))
                fh.write(line * len(block) % tuple(cells))


def write_kernel_csv(kernel: KernelMatrix, path) -> None:
    """Dump a kernel as CSV: header lines, then one row per grid1 node with re,im pairs."""
    g1, g2 = kernel.grid1, kernel.grid2
    header = (f"# grid1 min,step,count = {g1.min:.17g},{g1.step:.17g},{g1.count}\n"
              f"# grid2 min,step,count = {g2.min:.17g},{g2.step:.17g},{g2.count}\n"
              "# weight_embedded = True")
    # a complex row viewed as floats is its re,im pairs
    write_csv(path, header, np.ascontiguousarray(kernel.entries, dtype=complex).view(np.float64))
