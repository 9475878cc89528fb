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
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, svds

from .grids import (FrequencyGrid, KernelMatrix, check_dense_fits, make_grid,
                    quadrature_weights, sample_kernel)
from .response import LevelSystem, lineshape, normalization, response_infinite

__all__ = [
    "SchmidtDecomposition",
    "AsymmetricSchmidt",
    "HankelKernel",
    "optimal_state_kernel",
    "optimal_state_operator",
    "choose_solver",
    "solver_rank",
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
# Largest relative mirror asymmetry of a centro-Hermitian `HankelKernel`; nodes computed as
# min + k * step leave 1e-14 or so on the kernels that are centro-Hermitian in exact arithmetic.
CENTRO_HERMITIAN_RTOL = 1e-12

# Default-rank policy of `solver_rank`, from timings of Phi at delta = -1.5 with one BLAS thread
# on a 2-core x86-64 VM: up to DENSE_MAX_NODES nodes a dense SVD of the full spectrum is faster
# than ARPACK for DEFAULT_RANK coefficients (on the matrix-free kernel); beyond, ARPACK is.
DEFAULT_RANK = 300
DENSE_MAX_NODES = 2100


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Ordered Schmidt data of a discretized amplitude.

    coefficients r_k are non-increasing and non-negative; modes_1[k] and
    modes_2[k] hold the mode pair on the grid nodes, orthonormal under the
    trapezoidal inner product.  The amplitude is sum_k r_k conj(modes_1[k])
    x conj(modes_2[k]).  residual is the Frobenius norm of the part of the
    kernel discarded by truncation: from the discarded singular values after
    a dense SVD (exactly 0 at full rank), from the norm difference, which
    resolves no less than about 1e-8 of the norm, after ARPACK.  Without
    vectors the mode arrays have no rows.  method names the solver that ran
    (see `choose_solver`; "hankel_arpack" is ARPACK on a `HankelKernel`).
    """

    coefficients: np.ndarray
    modes_1: np.ndarray
    modes_2: np.ndarray
    grid1: FrequencyGrid
    grid2: FrequencyGrid
    truncation_rank: int
    residual: float
    renormalized: bool
    method: str = "dense"


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


def _operator(shape, apply, apply_transpose) -> LinearOperator:
    """The matrix with products apply(v) = A v and apply_transpose(v) = A^T v.

    The adjoint is A^H v = conj(A^T conj(v)), so no conjugated copy of A is made.
    """
    def adjoint(v):
        return np.conj(apply_transpose(np.conj(v)))

    return LinearOperator(shape, matvec=apply, rmatvec=adjoint, matmat=apply, rmatmat=adjoint,
                          dtype=complex)


def _mirror_conjugate(x: np.ndarray) -> bool:
    """Whether x reversed equals conj(x) to CENTRO_HERMITIAN_RTOL of max |x|."""
    return np.max(np.abs(x[::-1] - np.conj(x))) <= CENTRO_HERMITIAN_RTOL * np.max(np.abs(x))


class HankelKernel:
    """Weight-embedded kernel D (E H + H E) D, or D E H D if one-sided, kept matrix-free.

    On a uniform n-node grid D = diag(sqrt(w)) holds the trapezoidal
    weights, E = diag(diag) and H[i, j] = hankel[i + j] (2n - 1 values).
    Products with the matrix and its adjoint cost O(n log n) by zero-padded
    FFT and O(n) memory; `to_dense` gathers the matrix for the dense SVD.
    grid2 is grid1 up to a shift, so both axes have the same weights.

    `centro_hermitian` tells whether J A J = conj(A), J reversing the node
    order: diag and hankel are conjugated by reversal (to CENTRO_HERMITIAN_RTOL
    of their largest magnitude) and the weights are mirror-symmetric.  This
    holds for the one-sided kernel on its offset grid and for Phi at zero
    detuning, since both Lorentzian lines obey L(-x) = conj L(x) about their
    centres; the dense SVD of such a kernel runs in real arithmetic.
    """

    weight_embedded = True

    def __init__(self, grid1: FrequencyGrid, grid2: FrequencyGrid, diag: np.ndarray,
                 hankel: np.ndarray, symmetric: bool):
        n = grid1.count
        self.grid1, self.grid2, self.shape = grid1, grid2, (n, n)
        self.diag, self.hankel, self.symmetric = diag, hankel, symmetric
        self._sw = np.sqrt(quadrature_weights(grid1))
        self._fft_size = 1 << (2 * n - 2).bit_length()  # >= 2n - 1: no wrap-around
        self._hankel_fft = np.fft.fft(hankel, self._fft_size)
        self._centro_hermitian = bool(_mirror_conjugate(diag) and _mirror_conjugate(hankel)
                                      and np.array_equal(self._sw, self._sw[::-1]))

    @property
    def centro_hermitian(self) -> bool:
        return self._centro_hermitian

    def _hankel_apply(self, u: np.ndarray) -> np.ndarray:
        """H @ u along axis 0: the tail of the convolution of hankel with reversed u."""
        n = self.shape[0]
        h = self._hankel_fft if u.ndim == 1 else self._hankel_fft[:, None]
        conv = np.fft.ifft(h * np.fft.fft(u[::-1], self._fft_size, axis=0), axis=0)
        return conv[n - 1 : 2 * n - 1]

    def _apply(self, v: np.ndarray, transpose: bool) -> np.ndarray:
        """A @ v, or A.T @ v if transpose, for v of shape (n,) or (n, m)."""
        col = (slice(None),) + (None,) * (v.ndim - 1)
        sw, e = self._sw[col], self.diag[col]
        u = sw * v
        if self.symmetric:
            y = e * self._hankel_apply(u) + self._hankel_apply(e * u)
        elif transpose:
            y = self._hankel_apply(e * u)
        else:
            y = e * self._hankel_apply(u)
        return sw * y

    def as_operator(self) -> LinearOperator:
        return _operator(self.shape, partial(self._apply, transpose=False),
                         partial(self._apply, transpose=True))

    def frobenius_norm2(self) -> float:
        """Squared Frobenius norm from anti-diagonal sums, in O(n log n).

        The anti-diagonal i + j = m holds |hankel[m]|^2 times the sum of
        w_i w_j |e_i + e_j|^2 (one-sided: w_i w_j |e_i|^2), a convolution.
        """
        w = self._sw**2
        we2 = w * np.abs(self.diag) ** 2

        def conv(a, b):
            return np.fft.ifft(np.fft.fft(a, self._fft_size) * np.fft.fft(b, self._fft_size))

        if self.symmetric:
            anti = 2.0 * (conv(we2, w) + conv(w * self.diag, w * np.conj(self.diag))).real
        else:
            anti = conv(we2, w).real
        return float(np.sum(np.abs(self.hankel) ** 2 * anti[: self.hankel.size]))

    def to_dense(self) -> KernelMatrix:
        """The n x n weight-embedded matrix, built in blocks of 512 rows to bound temporaries."""
        n = self.shape[0]
        h = sliding_window_view(self.hankel, n)  # h[i, j] = hankel[i + j], a view
        e, sw = self.diag, self._sw
        out = np.empty(self.shape, dtype=complex)
        for i0 in range(0, n, 512):
            sl = slice(i0, min(i0 + 512, n))
            lines = e[sl, None] + e[None, :] if self.symmetric else e[sl, None]
            out[sl] = lines * h[sl] * (sw[sl, None] * sw[None, :])
        return KernelMatrix(self.grid1, self.grid2, out, True)


def optimal_state_operator(sys: LevelSystem, grid: FrequencyGrid) -> HankelKernel:
    """Phi = conj(T)/sqrt(N) on grid x grid as a `HankelKernel`, without sampling it.

    conj T(w1, w2) = [conj L_e(w1) + conj L_e(w2)] conj L_f(w1 + w2), so E
    holds conj L_e at the nodes and H conj L_f/sqrt(N) at the node sums.
    """
    check_dense_fits(grid.count, grid.count)
    sums = 2.0 * grid.min + grid.step * np.arange(2 * grid.count - 1)
    scale = 1.0 / np.sqrt(normalization(sys))
    return HankelKernel(grid, grid, np.conj(lineshape(sys, "e", grid.nodes)),
                        np.conj(lineshape(sys, "f", sums)) * scale, symmetric=True)


def solver_rank(n: int, rank: int | None = None) -> int | None:
    """The rank to give `decompose` for an n x n kernel when `rank` coefficients are asked for.

    An explicit rank >= 1 is kept; rank < 1 means the full spectrum (None).
    The default, None, is the full spectrum up to DENSE_MAX_NODES nodes and
    DEFAULT_RANK coefficients beyond.
    """
    if rank is None:
        return None if n <= DENSE_MAX_NODES else DEFAULT_RANK
    return rank if rank >= 1 else None


def choose_solver(n: int, rank: int | None = None, vectors: bool = True) -> str:
    """The method `decompose` runs on an n x n kernel for `rank` coefficients.

    "arpack" (the truncated SVD) for a rank below n - 1, otherwise a dense
    SVD cut to rank: "dense", or "dense_values" (no vectors) if not vectors.
    """
    if rank is not None and rank < n - 1:
        return "arpack"
    return "dense" if vectors else "dense_values"


def _fix_mode_phases(u: np.ndarray, vh: np.ndarray) -> None:
    """Rotate each singular pair so the anchor entry of u is real positive.

    The anchor is the lowest index whose magnitude is within a relative 1e-6
    of the column's largest, so entries tied up to roundoff (such as the
    mirror pairs |u_i| = |u_(n-1-i)| of a centro-Hermitian kernel) do not
    let roundoff pick it.
    """
    mag = np.abs(u)
    anchor = np.argmax(mag >= (1.0 - 1e-6) * mag.max(axis=0), axis=0)
    z = u[anchor, np.arange(u.shape[1])]
    ph = np.ones_like(z)
    nonzero = z != 0
    ph[nonzero] = z[nonzero] / np.abs(z[nonzero])
    u *= np.conj(ph)
    vh *= ph[:, None]


def _arpack(a: LinearOperator, k: int, vectors: bool):
    """k leading singular triplets (u, s, vh; u and vh None without vectors), descending."""
    v0 = np.ones(min(a.shape))  # fixed start vector: deterministic output
    try:
        out = svds(a, k=k, v0=v0, return_singular_vectors=vectors)
    except ArpackNoConvergence as exc:
        raise np.linalg.LinAlgError(f"truncated SVD did not converge: {exc}") from exc
    except ArpackError as exc:
        raise np.linalg.LinAlgError(f"truncated SVD failed: {exc}") from exc
    u, s, vh = out if vectors else (None, out, None)
    order = np.argsort(s)[::-1]
    if vectors:
        u, vh = u[:, order], vh[order, :]
    return u, s[order], vh


def _dense_svd(kernel: KernelMatrix | HankelKernel, vectors: bool):
    """Full SVD (u, s, vh; u and vh None without vectors) of the kernel's dense matrix.

    A centro-Hermitian `HankelKernel` A is unitarily similar to the real
    R = Re(Z^H A Z) with Z = (I + iJ)/sqrt(2) (Lee 1980; Hill, Bates & Waters
    1990), so its SVD runs in real arithmetic at under half the cost, and
    A = (Z u_R) s (Z v_R)^H gives the modes.
    """
    structured = isinstance(kernel, HankelKernel)
    a = kernel.to_dense().entries if structured else kernel.entries
    real = structured and kernel.centro_hermitian
    if real:
        # R = (Re A + J Re A J)/2 - (Im A J - J Im A)/2: the projection onto
        # centro-Hermitian matrices drops the roundoff-level asymmetry of A
        # instead of copying it into R, as Re A - Im A J would.
        r = a.real + a.real[::-1, ::-1]
        r -= a.imag[:, ::-1]
        r += a.imag[::-1, :]
        r *= 0.5
        a = r  # the complex matrix is not kept through the SVD
    if not vectors:
        return None, np.linalg.svd(a, compute_uv=False), None
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if real:
        u, vh = (u + 1j * u[::-1]) / np.sqrt(2.0), (vh - 1j * vh[:, ::-1]) / np.sqrt(2.0)
    return u, s, vh


def decompose(kernel: KernelMatrix | HankelKernel, rank: int | None = None,
              renormalize: bool = False, vectors: bool = True) -> SchmidtDecomposition:
    """Schmidt-decompose a weight-embedded kernel.

    Parameters
    ----------
    kernel : KernelMatrix or HankelKernel
        Must have weight_embedded set; the singular values of the embedded
        matrix are the Schmidt coefficients.
    rank : int or None
        Number of leading coefficients to compute.  None runs the dense
        reference SVD; a rank below n - 1 uses the iterative solver (ARPACK
        on the Gram operator) with a fixed start vector, on a `HankelKernel`
        without forming its matrix (see `choose_solver`; `solver_rank` gives
        the default rank for a grid size).  Ranks beyond the matrix
        dimension are clipped with a warning.  The dense SVD of a
        centro-Hermitian `HankelKernel` runs on an equivalent real matrix
        of the same size; its coefficients and modes are those of the
        complex SVD up to roundoff.
    renormalize : bool
        Rescale the retained coefficients so their squares sum to 1.
    vectors : bool
        Compute the modes; without them modes_1 and modes_2 have no rows.

    Raises
    ------
    numpy.linalg.LinAlgError
        If the dense or iterative SVD fails to converge.
    """
    if not kernel.weight_embedded:
        raise ValueError("decompose requires a weight-embedded kernel")
    max_rank = min(kernel.shape)
    if rank is not None and rank > max_rank:
        warnings.warn(
            f"requested rank {rank} exceeds matrix dimension {max_rank}; clipping",
            RuntimeWarning,
        )
        rank = max_rank

    method = choose_solver(max_rank, rank, vectors)
    if method == "arpack":
        structured = isinstance(kernel, HankelKernel)
        a = (kernel.as_operator() if structured
             else _operator(kernel.shape, kernel.entries.dot, kernel.entries.T.dot))
        u, s, vh = _arpack(a, rank, vectors)
        method = "hankel_arpack" if structured else method
        residual = float(np.sqrt(max(kernel.frobenius_norm2() - np.sum(s**2), 0.0)))
    else:
        u, s, vh = _dense_svd(kernel, vectors)
        keep = s.size if rank is None else rank
        residual = float(np.sqrt(np.sum(s[keep:] ** 2)))
        s = s[:keep]
        if vectors:
            u, vh = u[:, :keep], vh[:keep, :]

    n1, n2 = kernel.shape
    if vectors:
        u = np.ascontiguousarray(u)
        vh = np.ascontiguousarray(vh)
        _fix_mode_phases(u, vh)
        modes_1 = np.conj(u.T) / np.sqrt(quadrature_weights(kernel.grid1))[None, :]
        modes_2 = np.conj(vh) / np.sqrt(quadrature_weights(kernel.grid2))[None, :]
    else:
        modes_1, modes_2 = np.empty((0, n1), complex), np.empty((0, n2), complex)

    if renormalize:
        total = np.sqrt(np.sum(s**2))
        if total == 0:
            raise ValueError("cannot renormalize an identically zero kernel")
        s = s / total

    return SchmidtDecomposition(
        coefficients=s,
        modes_1=modes_1,
        modes_2=modes_2,
        grid1=kernel.grid1,
        grid2=kernel.grid2,
        truncation_rank=len(s),
        residual=residual,
        renormalized=renormalize,
        method=method,
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


def _one_sided_kernel(sys: LevelSystem, grid: FrequencyGrid) -> HankelKernel:
    """Q/sqrt(N/2) on the offset grid: D E H D with E = L_e, H = L_f at offset sums."""
    check_dense_fits(grid.count, grid.count)
    offs = grid.nodes - grid.center
    sums = 2.0 * offs[0] + grid.step * np.arange(2 * grid.count - 1)
    scale = 1.0 / np.sqrt(normalization(sys) / 2.0)
    line_e = 1j * sys.coupling_e / (offs + 1j * sys.gamma_e)
    line_f = 1j * sys.coupling_f / (sums + 1j * sys.gamma_f)
    grid1 = grid.shifted(sys.omega_e - grid.center)
    grid2 = grid.shifted(sys.omega_f - sys.omega_e - grid.center)
    return HankelKernel(grid1, grid2, line_e, scale * line_f, symmetric=False)


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
    return decompose(_one_sided_kernel(sys, grid), rank=rank, renormalize=renormalize)


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
    Only the coefficients are computed: rank None takes the full spectrum
    from a values-only dense SVD, a rank below n - 1 the truncated one.
    """
    dq = decompose(_one_sided_kernel(sys, grid), rank=rank, vectors=False)
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
