"""Schmidt analysis of discretized two-photon amplitudes.

The singular value decomposition of a weight-embedded kernel matrix yields
the Schmidt coefficients r_k and quadrature-orthonormal mode pairs of the
pair amplitude, from which the entanglement entropy, the quantum
enhancement 1/r_1^2, the optimal separable amplitude, and the
large-detuning bounds (from the one-sided kernel) follow.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, svds

from .grids import (FrequencyGrid, KernelMatrix, check_dense_fits, make_grid,
                    quadrature_weights, sample_kernel)
from .response import LevelSystem, normalization, response_infinite

__all__ = [
    "SchmidtDecomposition",
    "AsymmetricSchmidt",
    "optimal_state_kernel",
    "decompose",
    "entropy",
    "quantum_enhancement",
    "optimal_separable",
    "asymmetric_decomposition",
    "asymptotic_bounds",
    "pairing_check",
    "reconstruct",
]

COEFFICIENT_FLOOR = 1e-12  # coefficients below this are treated as zero


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Ordered Schmidt data of a discretized amplitude.

    coefficients r_k are non-increasing and non-negative; modes_1[k] and
    modes_2[k] hold the mode pair on the grid nodes, orthonormal under the
    trapezoidal inner product.  The amplitude is sum_k r_k conj(modes_1[k])
    x conj(modes_2[k]).  residual is the Frobenius norm of the part of the
    kernel discarded by truncation (0 at full rank, up to roundoff).
    """

    coefficients: np.ndarray
    modes_1: np.ndarray
    modes_2: np.ndarray
    grid1: FrequencyGrid
    grid2: FrequencyGrid
    truncation_rank: int
    residual: float
    renormalized: bool


# Same structure for the one-sided kernel: coefficients s_k, modes alpha_k, beta_k.
AsymmetricSchmidt = SchmidtDecomposition


def optimal_state_kernel(sys: LevelSystem, grid1: FrequencyGrid,
                         grid2: FrequencyGrid | None = None,
                         embed_weights: bool = True) -> KernelMatrix:
    """Sample the normalized optimal pair amplitude Phi = conj(T)/sqrt(N)."""
    scale = 1.0 / np.sqrt(normalization(sys))

    def phi(w1, w2):
        return np.conj(response_infinite(sys, w1, w2)) * scale

    return sample_kernel(phi, grid1, grid2, embed_weights=embed_weights)


def _fix_mode_phases(u: np.ndarray, vh: np.ndarray) -> None:
    """Rotate each singular pair so the largest-magnitude entry of u is real positive."""
    for k in range(u.shape[1]):
        m = np.argmax(np.abs(u[:, k]))
        z = u[m, k]
        if z != 0:
            ph = z / abs(z)
            u[:, k] *= np.conj(ph)
            vh[k, :] *= ph


def decompose(kernel: KernelMatrix, rank: int | None = None,
              renormalize: bool = False) -> SchmidtDecomposition:
    """Schmidt-decompose a weight-embedded kernel matrix.

    Parameters
    ----------
    kernel : KernelMatrix
        Must have weight_embedded set; the singular values of the embedded
        matrix are the Schmidt coefficients.
    rank : int or None
        Number of leading coefficients to compute.  None runs the dense
        reference SVD; a finite rank uses the iterative solver (ARPACK on
        the Gram operator) with a fixed start vector, suitable for grids of
        several thousand nodes.  Ranks beyond the matrix dimension are
        clipped with a warning.
    renormalize : bool
        Rescale the retained coefficients so their squares sum to 1.

    Raises
    ------
    numpy.linalg.LinAlgError
        If the dense or iterative SVD fails to converge.
    """
    if not kernel.weight_embedded:
        raise ValueError("decompose requires a weight-embedded kernel")
    a = kernel.entries
    max_rank = min(a.shape)
    if rank is not None and rank > max_rank:
        warnings.warn(
            f"requested rank {rank} exceeds matrix dimension {max_rank}; clipping",
            RuntimeWarning,
        )
        rank = max_rank

    fro2 = float(np.sum(np.abs(a) ** 2))
    if rank is None or rank >= max_rank - 1:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
        if rank is not None:
            u, s, vh = u[:, :rank], s[:rank], vh[:rank, :]
    else:
        v0 = np.ones(min(a.shape))  # fixed start vector: deterministic output
        try:
            u, s, vh = svds(a, k=rank, v0=v0)
        except ArpackNoConvergence as exc:
            raise np.linalg.LinAlgError(f"truncated SVD did not converge: {exc}") from exc
        except ArpackError as exc:
            raise np.linalg.LinAlgError(f"truncated SVD failed: {exc}") from exc
        order = np.argsort(s)[::-1]
        u, s, vh = u[:, order], s[order], vh[order, :]

    u = np.ascontiguousarray(u)
    vh = np.ascontiguousarray(vh)
    _fix_mode_phases(u, vh)

    residual = float(np.sqrt(max(fro2 - np.sum(s**2), 0.0)))
    if renormalize:
        total = np.sqrt(np.sum(s**2))
        if total == 0:
            raise ValueError("cannot renormalize an identically zero kernel")
        s = s / total

    sw1 = np.sqrt(quadrature_weights(kernel.grid1))
    sw2 = np.sqrt(quadrature_weights(kernel.grid2))
    modes_1 = np.conj(u.T) / sw1[None, :]
    modes_2 = np.conj(vh) / sw2[None, :]
    return SchmidtDecomposition(
        coefficients=s,
        modes_1=modes_1,
        modes_2=modes_2,
        grid1=kernel.grid1,
        grid2=kernel.grid2,
        truncation_rank=len(s),
        residual=residual,
        renormalized=renormalize,
    )


def entropy(d: SchmidtDecomposition) -> float:
    """Entanglement entropy S = -sum_k r_k^2 log2 r_k^2 in bits.

    Coefficients at or below the floor 1e-12 contribute nothing.
    """
    r = d.coefficients[d.coefficients > COEFFICIENT_FLOOR]
    if r.size == 0:
        return 0.0
    p = r**2
    return float(-np.sum(p * np.log2(p)))


def quantum_enhancement(d: SchmidtDecomposition) -> float:
    """Quantum enhancement E_q = 1 / r_1^2 >= 1 of the entangled optimum."""
    if d.coefficients.size == 0 or d.coefficients[0] <= 0:
        raise ValueError("degenerate decomposition: leading coefficient is zero")
    return float(1.0 / d.coefficients[0] ** 2)


def optimal_separable(d: SchmidtDecomposition):
    """Best separable amplitude: the conjugated leading mode pair.

    Returns (mode_1, mode_2) with the separable amplitude given by their
    outer product; it captures a fraction r_1^2 of the optimal yield.
    """
    return np.conj(d.modes_1[0]), np.conj(d.modes_2[0])


def asymmetric_decomposition(sys: LevelSystem, grid: FrequencyGrid,
                             rank: int | None = None,
                             renormalize: bool = False) -> SchmidtDecomposition:
    """Schmidt data of the one-sided kernel Q/sqrt(N/2).

    The grid is read as offsets about each photon's own line center
    (omega_e for photon 1, omega_f - omega_e for photon 2), in which
    coordinates the kernel is exactly independent of the detuning: a change
    of Delta merely translates the second axis.  The stored grids are the
    absolute ones.
    """
    check_dense_fits(grid.count, grid.count)
    offs = grid.nodes - grid.center
    ge, gf = sys.gamma_e, sys.gamma_f
    ce, cf = sys.coupling_e, sys.coupling_f
    scale = 1.0 / np.sqrt(normalization(sys) / 2.0)

    def q_off(x, y):
        return scale * (1j * ce / (x + 1j * ge)) * (1j * cf / (x + y + 1j * gf))

    w = quadrature_weights(grid)
    sw = np.sqrt(w)
    entries = q_off(offs[:, None], offs[None, :]) * (sw[:, None] * sw[None, :])
    grid1 = grid.shifted(sys.omega_e - grid.center)
    grid2 = grid.shifted(sys.omega_f - sys.omega_e - grid.center)
    kernel = KernelMatrix(grid1, grid2, entries, True)
    return decompose(kernel, rank=rank, renormalize=renormalize)


def bounds_grid(sys: LevelSystem) -> FrequencyGrid:
    """Default offset grid for `asymptotic_bounds`.

    The ridge term wants ~200 gamma_f of range, the single-photon line
    ~40 gamma_e; the union is capped at 150 gamma_e to keep wide-line
    systems tractable (costs <~ 2% of captured norm at gamma_f = 4).
    """
    ge = sys.gamma_e
    half = max(40.0 * ge, min(200.0 * sys.gamma_f, 150.0 * ge))
    step = min(ge / 5.0, sys.gamma_f / 2.0)
    return make_grid(0.0, half, step)


def asymptotic_bounds(sys: LevelSystem, grid: FrequencyGrid,
                      rank: int | None = None) -> tuple[float, float]:
    """Large-detuning bounds (E_inf, S_inf) from the one-sided kernel.

    E_inf = 2 / s_1^2 and S_inf = 1 + S_a, where s_k and S_a come from the
    decomposition of Q/sqrt(N/2).  Both are independent of the detuning.
    """
    dq = asymmetric_decomposition(sys, grid, rank=rank)
    if dq.coefficients.size == 0 or dq.coefficients[0] <= 0:
        raise ValueError("degenerate one-sided decomposition")
    e_inf = 2.0 / dq.coefficients[0] ** 2
    s_inf = 1.0 + entropy(dq)
    return float(e_inf), float(s_inf)


def pairing_check(d: SchmidtDecomposition) -> float:
    """Largest relative gap max_k (r_{2k-1} - r_{2k}) / r_{2k-1} over coefficient pairs.

    At large detuning the coefficients of the symmetric kernel come in
    near-degenerate pairs, so the gap tends to zero; at small detuning the
    returned value is merely informational.  An unpaired trailing
    coefficient is excluded, as are pairs whose leading member is zero.
    """
    r = d.coefficients
    n_pairs = r.size // 2
    if n_pairs == 0:
        return 0.0
    lead = r[0 : 2 * n_pairs : 2]
    trail = r[1 : 2 * n_pairs : 2]
    ok = lead > COEFFICIENT_FLOOR
    if not np.any(ok):
        return 0.0
    return float(np.max((lead[ok] - trail[ok]) / lead[ok]))


def reconstruct(d: SchmidtDecomposition) -> np.ndarray:
    """Rebuild the weight-embedded kernel matrix from the retained modes."""
    sw1 = np.sqrt(quadrature_weights(d.grid1))
    sw2 = np.sqrt(quadrature_weights(d.grid2))
    phi_star = np.conj(d.modes_1) * sw1[None, :]
    psi_star = np.conj(d.modes_2) * sw2[None, :]
    return (phi_star.T * d.coefficients) @ psi_star
