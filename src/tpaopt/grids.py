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
from math import ceil

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
    has the 3 nodes {-1, 0, 1}.
    """
    if not half_width > 0:
        raise ValueError(f"half_width must be > 0, got {half_width}")
    if not step > 0:
        raise ValueError(f"step must be > 0, got {step}")
    if step > half_width:
        raise ValueError(f"step must be <= half_width, got step={step}, half_width={half_width}")
    n_side = int(ceil(half_width / step - 1e-9))
    return FrequencyGrid(center - n_side * step, step, 2 * n_side + 1)


def quadrature_weights(grid: FrequencyGrid) -> np.ndarray:
    """Trapezoidal weights: step at interior nodes, step/2 at the endpoints."""
    w = np.full(grid.count, grid.step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


@dataclass(frozen=True)
class KernelMatrix:
    """Discretized two-photon amplitude on grid1 x grid2.

    When weight_embedded, entries[i, j] = f(w_i, v_j) * sqrt(w_i * w_j), so
    the squared Frobenius norm approximates the double integral of |f|^2.
    """

    grid1: FrequencyGrid
    grid2: FrequencyGrid
    entries: np.ndarray
    weight_embedded: bool

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


def check_dense_fits(n1: int, n2: int) -> None:
    """Raise ValueError, before any allocation, if a dense n1 x n2 complex matrix exceeds RAM."""
    need = 16 * n1 * n2
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ValueError(f"a dense {n1} x {n2} kernel needs {need / 2**30:.3g} GiB, more than "
                         f"the {have / 2**30:.3g} GiB of physical memory; use a coarser grid")


def sample_kernel(f, grid1: FrequencyGrid, grid2: FrequencyGrid | None = None,
                  embed_weights: bool = True, row_chunk: int = 512) -> KernelMatrix:
    """Sample a two-argument complex function on a tensor grid.

    Parameters
    ----------
    f : callable
        Vectorized function of two broadcastable frequency arrays.
    grid1, grid2 : FrequencyGrid
        Node sets for the two arguments (grid2 defaults to grid1).
    embed_weights : bool
        Multiply entries by sqrt(w_i w_j) of the trapezoidal weights.
    row_chunk : int
        Rows evaluated per block, to bound temporary memory.
    """
    if grid2 is None:
        grid2 = grid1
    check_dense_fits(grid1.count, grid2.count)
    x1 = grid1.nodes
    x2 = grid2.nodes
    out = np.empty((x1.size, x2.size), dtype=complex)
    if embed_weights:
        sw1 = np.sqrt(quadrature_weights(grid1))
        sw2 = np.sqrt(quadrature_weights(grid2))
    for i0 in range(0, x1.size, row_chunk):
        sl = slice(i0, min(i0 + row_chunk, x1.size))
        block = f(x1[sl][:, None], x2[None, :])
        if embed_weights:
            # single fused product keeps symmetric samples exactly symmetric
            block = block * (sw1[sl][:, None] * sw2[None, :])
        out[sl] = block
    return KernelMatrix(grid1, grid2, out, embed_weights)


def default_grid(sys: LevelSystem, half: float | None = None, step: float | None = None,
                 center: float | None = None) -> FrequencyGrid:
    """Reference photon-frequency grid: +-200 gamma_f about omega_f / 2, step gamma_e / 5.

    half, step and center, when given, replace the reference values.
    """
    return make_grid(sys.omega_f / 2.0 if center is None else center,
                     200.0 * sys.gamma_f if half is None else half,
                     sys.gamma_e / 5.0 if step is None else step)


def auto_grid(sys: LevelSystem) -> FrequencyGrid:
    """`default_grid` with a coverage fallback for large detuning.

    The +-200 gamma_f rule cannot contain both single-photon lines once
    half the detuning approaches 200 gamma_f; in that regime the half-width
    widens to |Delta|/2 + max(200 gamma_f, 100 gamma_e) so both lines keep
    a generous tail margin.
    """
    ge = sys.gamma_e
    line_offset = abs(sys.omega_f / 2.0 - sys.omega_e)
    half = 200.0 * sys.gamma_f
    if half < line_offset + 15.0 * ge:
        half = line_offset + max(200.0 * sys.gamma_f, 100.0 * ge)
    return make_grid(sys.omega_f / 2.0, half, ge / 5.0)


def _plain_density(kernel: KernelMatrix):
    """|f(w_i, v_j)|^2 with quadrature weights stripped if embedded."""
    p = np.abs(kernel.entries) ** 2
    if kernel.weight_embedded:
        w1 = quadrature_weights(kernel.grid1)
        w2 = quadrature_weights(kernel.grid2)
        p = p / (w1[:, None] * w2[None, :])
    return p


def kernel_marginal_single(kernel: KernelMatrix, axis: int = 0):
    """Marginal density of |f|^2 over the other photon's frequency.

    Returns (nodes, density) where density[i] = sum_j w_j |f(w_i, v_j)|^2.
    """
    p = _plain_density(kernel)
    if axis == 0:
        w = quadrature_weights(kernel.grid2)
        return kernel.grid1.nodes, p @ w
    if axis == 1:
        w = quadrature_weights(kernel.grid1)
        return kernel.grid2.nodes, w @ p
    raise ValueError(f"axis must be 0 or 1, got {axis}")


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
    if not kernel.weight_embedded:
        w1 = quadrature_weights(g1)
        w2 = quadrature_weights(g2)
        p = p * (w1[:, None] * w2[None, :])
    n1, n2 = p.shape
    # bin i + j collects row i's term in increasing i, as a row-by-row sum would
    acc = np.bincount(np.add.outer(np.arange(n1), np.arange(n2)).ravel(), weights=p.ravel(),
                      minlength=n1 + n2 - 1)
    omega_plus = (g1.min + g2.min) + g1.step * np.arange(n1 + n2 - 1)
    return omega_plus, acc / g1.step


def write_kernel_csv(kernel: KernelMatrix, path) -> None:
    """Dump a kernel as CSV: header lines, then one row per grid1 node with re,im pairs."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# grid1 min,step,count = {:.17g},{:.17g},{}\n".format(
            kernel.grid1.min, kernel.grid1.step, kernel.grid1.count))
        fh.write("# grid2 min,step,count = {:.17g},{:.17g},{}\n".format(
            kernel.grid2.min, kernel.grid2.step, kernel.grid2.count))
        fh.write(f"# weight_embedded = {kernel.weight_embedded}\n")
        # a complex row viewed as floats is its re,im pairs; '%.9g' % x == format(x, '.9g')
        pairs = np.ascontiguousarray(kernel.entries, dtype=complex).view(np.float64)
        line = ",".join(["%.9g"] * pairs.shape[1]) + "\n"
        for row in pairs:
            fh.write(line % tuple(row.tolist()))
