"""Schmidt analysis of discretized two-photon amplitudes.

The singular value decomposition of a weight-embedded kernel matrix yields
the Schmidt coefficients r_k and quadrature-orthonormal mode pairs of the
pair amplitude, from which the entanglement entropy, the quantum
enhancement 1/r_1^2, the optimal separable amplitude, and the
large-detuning bounds (from the one-sided kernel) follow.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grids import (FrequencyGrid, KernelMatrix, _weighted_matrix, auto_grid,
                    check_dense_fits, make_grid, quadrature_weights, sample_kernel)
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
    "optimal_state_schmidt",
    "solver_stats",
    "entropy",
    "quantum_enhancement",
    "schmidt_point",
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

# Default-rank policy of `solver_rank`, measured against ARPACK, the truncated solver of the
# time, on Phi at delta = -1.5 with one BLAS thread on a 2-core x86-64 VM: up to DENSE_MAX_NODES
# nodes a dense SVD of the full spectrum was faster than ARPACK for DEFAULT_RANK coefficients
# (on the matrix-free kernel); beyond, ARPACK was.  Re-measured for `_lanczos` in its
# one-basis form for Phi (values only, medians of 3 on one CPU of that VM), the crossover lies
# between 601 and 801 nodes at Delta = 5 and near 801 at Delta = 0: on Phi at Delta = 5,
# delta = -1.7, -1.6, -1.5, -1.391, -1.222, -1.052 (601, 801, 1001, 1219, 1557, 1897 nodes)
# k = 300 took 0.21, 0.18, 0.20, 0.24, 0.26, 0.30 s against 0.13, 0.31, 0.62, 1.14, 2.41,
# 4.26 s dense, and at Delta = 0 (real form), 801, 1001, 1557 and 1897 nodes, 0.17, 0.28, 0.36
# and 0.37 s against 0.16, 0.33, 1.18 and 2.02 s; S moved by at most 4.7e-6 bits and r1 by
# 8e-16.  The policy stays until it can read a stated accuracy, since S moves on the rows
# that switch.
DEFAULT_RANK = 300
DENSE_MAX_NODES = 2100
# Stopping rules and basis growth of `_lanczos`.
LANCZOS_RTOL = 1e-14  # a Ritz triplet has converged when its error bound is below this * theta_1
BREAKDOWN_RTOL = 1e-15  # an alpha or beta below this * sqrt(n) * ||B|| ends the solve
LANCZOS_CHUNK = 48  # basis rows beyond k, and the rows the bases grow by
LANCZOS_CHECK = 8  # steps between convergence checks once the basis holds k vectors


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Ordered Schmidt data of a discretized amplitude.

    coefficients r_k are non-increasing and non-negative; modes_1 and
    modes_2 hold the leading len(modes_1) mode pairs, modes_1[k] and
    modes_2[k] on the grid nodes, orthonormal under the trapezoidal inner
    product: from `decompose` with vectors one pair per coefficient it
    reached (a truncated solve that ends before rank, or reaches values at
    roundoff level, leaves the rest exactly 0, with no pair), none without,
    and the pairs a caller asked for from `schmidt_point`.  The amplitude is
    sum_k r_k conj(modes_1[k]) x conj(modes_2[k]) over the pairs held.  residual is
    the Frobenius norm of the part of the kernel discarded by truncation:
    from the discarded singular values after a dense SVD (exactly 0 at full
    rank), after a truncated solve (`_lanczos`) from the difference of the
    exact squared norm and sum r_k^2, which resolves no less than about 1e-8
    of the norm.  method names the solver whose coefficients are returned (see
    `choose_solver`; "hankel_lanczos" is `_lanczos` on a `HankelKernel`,
    "lanczos" `_lanczos` on a sampled matrix).
    """

    coefficients: np.ndarray
    modes_1: np.ndarray
    modes_2: np.ndarray
    grid1: FrequencyGrid
    grid2: FrequencyGrid
    residual: float
    method: str = "dense"


# Same structure for the one-sided kernel: coefficients s_k, modes alpha_k, beta_k.
AsymmetricSchmidt = SchmidtDecomposition


def optimal_state_kernel(sys: LevelSystem, grid: FrequencyGrid) -> KernelMatrix:
    """Sample the normalized optimal pair amplitude Phi = conj(T)/sqrt(N) on grid x grid."""
    scale = 1.0 / np.sqrt(normalization(sys))

    def phi(w1, w2):
        return np.conj(response_infinite(sys, w1, w2)) * scale

    return sample_kernel(phi, grid)


def _smooth_length(m: int) -> int:
    """The least 2^a 3^b 5^c >= m: the lengths pocketfft transforms fastest."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # the least p35 * 2^a >= m
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _mirror_conjugate(x: np.ndarray) -> bool:
    """Whether x reversed equals conj(x) to CENTRO_HERMITIAN_RTOL of max |x|."""
    return np.max(np.abs(x[::-1] - np.conj(x))) <= CENTRO_HERMITIAN_RTOL * np.max(np.abs(x))


class HankelKernel:
    """Weight-embedded kernel D (E H + H E) D, or D E H D if one-sided, kept matrix-free.

    On a uniform n-node grid D = diag(sqrt(w)) holds the trapezoidal
    weights, E = diag(diag) and H[i, j] = hankel[i + j] (2n - 1 values).
    Products with the matrix and its transpose cost O(n log n) and O(n)
    memory: H u is the tail of a circular convolution, by numpy.fft, whose
    length is the least 5-smooth one >= 2n - 1 (the shortest that wraps
    nothing into the rows kept); the symmetric kernel transforms u and E u
    together.  `_apply` gives `_lanczos` its products, `to_dense` the matrix
    for the dense SVD.  The symmetric kernel is its own transpose (A^T = A,
    so A is complex symmetric), and `_lanczos` runs on it the one-basis
    recurrence that calls only A v; the one-sided kernel takes A v and
    A^T v.  grid2 is grid1 up to a shift, so both axes have the
    same weights.  Derived data waits for its first use: the transform of
    hankel for the first product, `centro_hermitian` for a dense solve or the
    Gram route of `asymptotic_bounds`.

    `centro_hermitian` tells whether J A J = conj(A), J reversing the node
    order, from diag and hankel alone: both are conjugated by reversal (to
    CENTRO_HERMITIAN_RTOL of their largest magnitude), and the trapezoidal
    weights are mirror-symmetric by construction.  This holds for the
    one-sided kernel on its offset grid and for Phi at zero detuning, since
    both Lorentzian lines obey L(-x) = conj L(x) about their centres; the
    dense SVD of such a kernel runs in real arithmetic.
    """

    def __init__(self, grid1: FrequencyGrid, grid2: FrequencyGrid, diag: np.ndarray,
                 hankel: np.ndarray, symmetric: bool):
        n = grid1.count
        self.grid1, self.grid2, self.shape = grid1, grid2, (n, n)
        self.diag, self.hankel, self.symmetric = diag, hankel, symmetric
        self._sw = np.sqrt(quadrature_weights(grid1))

    @cached_property
    def centro_hermitian(self) -> bool:
        return bool(_mirror_conjugate(self.diag) and _mirror_conjugate(self.hankel))

    @cached_property
    def _fft_size(self) -> int:
        return _smooth_length(2 * self.shape[0] - 1)

    @cached_property
    def _hankel_fft(self) -> np.ndarray:
        return np.fft.fft(self.hankel, self._fft_size)

    def _hankel_apply(self, x: np.ndarray) -> np.ndarray:
        """H @ x along the last axis: the tail of the convolution of hankel with reversed x."""
        n = self.shape[0]
        c = np.fft.fft(x[..., ::-1], self._fft_size, axis=-1)
        c *= self._hankel_fft
        return np.fft.ifft(c, axis=-1)[..., n - 1 : 2 * n - 1]

    def _apply(self, v: np.ndarray, transpose: bool) -> np.ndarray:
        """A @ v, or A.T @ v if transpose, for v of shape (n,) or (n, m): `_lanczos`'s products.

        The adjoint is A^H v = conj(A^T conj(v)), so no conjugated copy of A is made."""
        e, sw = self.diag, self._sw
        u = sw * v.T  # nodes on the last axis, the one transformed
        if self.symmetric:
            hu, heu = self._hankel_apply(np.stack((u, e * u)))  # one transform pair for both
            y = e * hu + heu
        elif transpose:
            y = self._hankel_apply(e * u)
        else:
            y = e * self._hankel_apply(u)
        return (sw * y).T

    def frobenius_norm2(self) -> float:
        """Squared Frobenius norm from anti-diagonal sums, in O(n log n).

        The anti-diagonal i + j = m holds |hankel[m]|^2 times the sum of
        w_i w_j |e_i + e_j|^2 (one-sided: w_i w_j |e_i|^2), a convolution.
        Since |e_i + e_j|^2 = |e_i|^2 + |e_j|^2 + 2 (Re e_i Re e_j + Im e_i Im e_j),
        the symmetric sums are 2 (a * w + b * b + c * c), * the convolution, of the
        real a = w |e|^2, b = w Re e and c = w Im e: one real-FFT product.
        """
        w, e, size = self._sw**2, self.diag, self._fft_size
        rows = (w * np.abs(e) ** 2, w) + ((w * e.real, w * e.imag) if self.symmetric else ())
        f = np.fft.rfft(np.stack(rows), size)
        spectrum = f[0] * f[1]
        if self.symmetric:
            spectrum = 2.0 * (spectrum + f[2] ** 2 + f[3] ** 2)
        anti = np.fft.irfft(spectrum, size)
        return float(np.sum(np.abs(self.hankel) ** 2 * anti[: self.hankel.size]))

    def to_dense(self) -> KernelMatrix:
        """The n x n weight-embedded matrix, by `grids._weighted_matrix`."""
        h = sliding_window_view(self.hankel, self.shape[0])  # h[i, j] = hankel[i + j], a view
        e = self.diag

        def block(rows):
            return (e[rows, None] + e[None, :] if self.symmetric else e[rows, None]) * h[rows]

        return _weighted_matrix(self.grid1, self.grid2, block)


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

    An explicit rank >= 1 is clipped to n, so a rank above the node count
    gives all n coefficients; rank < 1 means the full spectrum (None).
    The default, None, is the full spectrum up to DENSE_MAX_NODES nodes and
    DEFAULT_RANK coefficients beyond.
    """
    if rank is None:
        return None if n <= DENSE_MAX_NODES else DEFAULT_RANK
    return min(rank, n) if rank >= 1 else None


def choose_solver(n: int, rank: int | None = None, vectors: bool = True) -> str:
    """The method `decompose` runs on an n x n kernel for `rank` coefficients.

    A truncated SVD for a rank below n - 1: "lanczos" (`_lanczos` in numpy:
    complex-symmetric Lanczos on a symmetric `HankelKernel`, Golub-Kahan-Lanczos
    bidiagonalization otherwise), with or without vectors.  Otherwise a
    dense SVD cut to rank: "dense", or "dense_values" (no vectors) if not vectors.
    """
    if rank is not None and rank < n - 1:
        return "lanczos"
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


def _norm(r: np.ndarray) -> float:
    """||r||, summed as np.linalg.norm sums it, real and imaginary parts apart: the same bits,
    without its dispatch."""
    x, y = r.real, r.imag
    return np.sqrt(x @ x + y @ y)


def _orthogonalize(r: np.ndarray, basis: np.ndarray) -> float:
    """Remove from r, in place, its part in the span of basis's orthonormal rows; ||r|| after.

    Classical Gram-Schmidt, with the coefficients basis^H r taken as conj(basis conj(r)) so
    that no conjugated copy of the basis is made, and a second pass only when the first
    removes more than half of the norm (so cancellation may have left r short of orthogonal).
    `_lanczos` calls it only for the vectors that its omega estimates pick (every vector that
    has a basis in a solve with vectors, whose threshold is 0).
    """
    norm = _norm(r)
    for _ in range(2 if len(basis) else 0):
        before = norm
        r -= np.conj(basis @ np.conj(r)) @ basis
        norm = _norm(r)
        if norm > 0.5 * before:
            break
    return norm


def _ritz_update(c, theta, x_last, y_last):
    """(theta, x_last, y_last) of the square c = X diag(theta) Y^H, theta descending, x_last
    and y_last the last rows of X and Y, from the same data of its leading block.

    The leading m0 x m0 block (m0 = theta.size, 0 at the first call) of the tridiagonal or
    bidiagonal c couples to the rest only through its last row and column, so c = diag(X0, I)
    K diag(Y0, I)^H with K = [[diag(theta), conj(x_last) c[m0 - 1, m0:]], [c[m0:, m0 - 1]
    y_last, c[m0:, m0:]]] (outer products), and the last rows of K's singular vectors are those
    of c's.  A triplet whose coupling (its residual when theta was computed) is at most eps
    theta_1 keeps its value and zero last entries, a change of c at roundoff level as in the
    deflation of a divide-and-conquer SVD, so the dense SVD runs only on the rest of K: the
    triplets not yet converged and the rows added since.
    """
    m0 = theta.size
    locked = np.zeros(m0, bool)
    if m0:
        coupling = np.maximum(abs(c[m0 - 1, m0]) * np.abs(x_last),
                              abs(c[m0, m0 - 1]) * np.abs(y_last))
        locked = coupling <= np.finfo(float).eps * theta[0]
    free = ~locked
    na = m0 - np.count_nonzero(locked)
    core = np.zeros((na + c.shape[0] - m0,) * 2, c.dtype)  # K without the locked triplets
    core[:na, :na] = np.diag(theta[free])
    core[:na, na:] = np.outer(np.conj(x_last[free]), c[m0 - 1, m0:])
    core[na:, :na] = np.outer(c[m0:, m0 - 1], y_last[free])
    core[na:, na:] = c[m0:, m0:]
    x, s, yh = np.linalg.svd(core)
    zeros = np.zeros(m0 - na)
    theta = np.concatenate((theta[locked], s))
    order = np.argsort(-theta, kind="stable")
    return (theta[order], np.concatenate((zeros, x[-1]))[order],
            np.concatenate((zeros, np.conj(yh[:, -1])))[order])


def _lanczos(apply, apply_transpose, shape: tuple, k: int, vectors: bool):
    """k leading singular values s, descending, and the vectors (u, vh) of those reached.

    Golub-Kahan-Lanczos bidiagonalization (Golub & Kahan, SIAM J. Numer. Anal. B 2:205,
    1965) on the products apply(v) = A v and apply_transpose(v) = A^T v (the adjoint is
    A^H u = conj(A^T conj(u))).  From the fixed start vector of ones / sqrt(n), step j adds
    u_j and v_(j+1) to bases with A V_j = U_j B_j, B_j upper bidiagonal with alpha_j on its
    diagonal and A^H U_j = V_j B_j^T + beta_j v_(j+1) e_j^T.  For a complex symmetric A
    (A^T = A, signalled by apply_transpose None) it runs the complex-symmetric Lanczos
    recurrence instead (Bunse-Gerstner & Gragg, J. Comput. Appl. Math. 21:41, 1988): one
    basis Q and one product per step, A conj(q_j) = beta_(j-1) q_(j-1) + alpha_j q_j +
    beta_j q_(j+1), so A conj(Q_j) = Q_j T_j + beta_j q_(j+1) e_j^T with T_j = Q_j^H A
    conj(Q_j) complex symmetric tridiagonal, alpha_j complex and beta_j real.  Since A^T = A,
    Q spans the left and the conjugated right singular vectors together, and the k leading
    values converge in about half the products of the bidiagonalization.  Below, B_j stands
    for either matrix.

    The bases are kept semi-orthogonal by partial reorthogonalization (H. D. Simon, Math.
    Comp. 42:115, 1984, in R. M. Larsen's form for the bidiagonalization, DAIMI PB-357,
    1998, sections 3-4).  Each basis takes one `step` per new vector, u_j, v_(j+1) or
    q_(j+1): the omega recurrences estimate |u_j^H u_i|, |v_(j+1)^H v_i| or |q_i^H q_(j+1)|
    (complex, from G_ij = q_i^H A conj(q_j) = G_ji) without computing them, plus the
    roundoff term eps sqrt(n) (||row of B|| + 2 ||B||), signed to grow them, with ||B||
    taken as the largest |alpha| or beta so far.  A vector whose estimate exceeds sqrt(eps)
    is orthogonalized against its whole basis (`_orthogonalize`), and so is the next vector
    (of the other basis, in a bidiagonalization); their estimates then restart at eps
    sqrt(n).  The Ritz values of a semi-orthogonal basis are those of an orthonormal one up
    to roundoff, with no spurious copies.  Their Ritz vectors were up to 2e-11 from
    orthonormal on Phi (481-1001 nodes), above the 1e-12 the modes are held to, so a solve
    with vectors takes the threshold 0, which every estimate passes after the first step:
    each vector with a basis is orthogonalized.

    The SVD B_j = X diag(theta) Y^H gives the Ritz triplets (U_j x_i, theta_i, V_j y_i), or
    (Q_j x_i, theta_i, conj(Q_j) y_i), exact but for the product that leaves the basis, which
    misses by res_i = beta_j |x_i[-1]|.  Once j >= k, every LANCZOS_CHECK steps, the solve
    stops when each of the k leading triplets has converged: with vectors when res_i <=
    LANCZOS_RTOL theta_1, since a mode's error scales as res_i / gap_i; values only when
    min(res_i, res_i^2 / gap_i) is, PROPACK's gap-refined bound on the error of theta_i
    (Larsen, 1998), gap_i being the distance from theta_i to the nearest other theta of B_j.
    The check needs only theta and the last row of X: `_ritz_update` gives them, after the
    first check from a dense SVD of only the triplets not yet converged and the new rows.
    An alpha_j (bidiagonalization) or beta_j of at most BREAKDOWN_RTOL sqrt(n) times the
    largest |alpha| or beta so far (a lower bound on ||B||) ends it too: the bases then span
    invariant subspaces, whose Ritz triplets are singular triplets of A.  s holds the r Ritz
    values above that tolerance that it reached, r <= k, and k - r exact zeros with no pair
    (the rank-one Phi leaves a second Ritz value at roundoff, below 1e-17 r1): u has a
    column and vh a row per value reached; both are None without vectors.  A single start
    vector finds one copy of an exactly repeated value.  The bases, and the estimates with
    them, hold k + LANCZOS_CHUNK rows and grow by LANCZOS_CHUNK.

    Raises numpy.linalg.LinAlgError if an alpha_j or beta_j is not finite.
    """
    m, n = shape
    symmetric = apply_transpose is None
    kind = "tridiagonalization" if symmetric else "bidiagonalization"
    steps = min(m, n)
    size = min(k + LANCZOS_CHUNK, steps)
    us, vs = np.empty((0 if symmetric else size, m), complex), np.empty((size, n), complex)
    # B_j with beta_j in column j + 1 (0-based j), and in row j + 1 of the symmetric T_j
    b = np.zeros((size + 1, size + 1), complex if symmetric else float)
    alphas, betas = b.diagonal(), b.diagonal(1)  # views
    # omega estimates against the basis of the newest u_j and v_j; in the one-basis
    # recurrence those of q_j (nu) and q_(j-1) (mu)
    mu, nu = np.ones(size + 1, b.dtype), np.ones(size + 1, b.dtype)
    eps = np.finfo(float).eps
    eps1, semi = np.sqrt(max(m, n)) * eps, 0.0 if vectors else np.sqrt(eps)
    force = False  # the vector after one that lost orthogonality is orthogonalized too
    v = np.full(n, 1.0 / np.sqrt(n), complex)
    top, scale = 0.0, BREAKDOWN_RTOL * np.sqrt(n)
    ritz = np.empty(0), np.empty(0), np.empty(0)  # `_ritz_update`'s data of the last check

    def step(r, basis, est, w, coef):
        """||r||, r's estimates est against basis updated from their recurrence w and B's coef."""
        nonlocal force, top
        i, norm = len(basis), _norm(r)
        if not np.isfinite(norm):
            raise np.linalg.LinAlgError(f"Lanczos {kind} broke down at step {j + 1}")
        if i and norm:
            grow = eps1 * (math.hypot(norm, coef) + 2.0 * top)
            est[:i] = (w + grow * np.sign(w + (w == 0))) / norm  # a zero w grows as a positive
        if force or (i and abs(est[:i]).max() > semi):
            norm = _orthogonalize(r, basis)
            est[:i], force = eps1, not force
        est[i] = 1.0
        top = max(top, norm)
        return norm

    for j in range(steps):
        if j == size:
            size = min(size + LANCZOS_CHUNK, steps)
            us = np.concatenate((us, np.empty((0 if symmetric else size - j, m), complex)))
            vs = np.concatenate((vs, np.empty((size - j, n), complex)))
            b = np.pad(b, ((0, size - j), (0, size - j)))
            alphas, betas = b.diagonal(), b.diagonal(1)
            mu, nu = np.pad(mu, (0, size - j)), np.pad(nu, (0, size - j))
        vs[j] = v
        beta_prev = betas[j - 1].real if j else 0.0
        if symmetric:
            v = apply(np.conj(v))
            if j:
                v -= beta_prev * vs[j - 1]
            alpha = np.vdot(vs[j], v)
            v -= alpha * vs[j]
            b[j, j], top = alpha, max(top, abs(alpha))
            # beta_j omega_(i,j+1) = alpha_i conj omega_ij - alpha_j omega_ij + beta_i conj
            #   omega_(i+1,j) + beta_(i-1) conj omega_(i-1,j) - beta_(j-1) omega_(i,j-1), with
            # omega_ij the estimates nu of q_j and omega_(i,j-1) those mu of q_(j-1); for i = j
            # only roundoff, since alpha_j takes q_j out of q_(j+1)
            conj_nu = np.conj(nu[: j + 1])
            w = alphas[: j + 1] * conj_nu - alpha * nu[: j + 1]
            w[:j] += betas[:j] * conj_nu[1:] - beta_prev * mu[:j]
            w[1:] += betas[:j] * conj_nu[:j]
            w[j] = 0.0
            beta = step(v, vs[: j + 1], mu, w, math.hypot(abs(alpha), beta_prev))
            mu, nu = nu, mu
        else:
            u = apply(v)
            if j:
                u -= beta_prev * us[j - 1]
            # the omega recurrences: alpha_j mu_i = (B nu)_i - beta_(j-1) mu_i, then
            # beta_j nu_i = (B^T mu)_i - alpha_j nu_i
            w = alphas[:j] * nu[:j] + betas[:j] * nu[1 : j + 1] - beta_prev * mu[:j]
            alpha = step(u, us[:j], mu, w, beta_prev)
            if alpha <= scale * top:  # A V_(j+1) lies in span U_j: B is j x (j + 1)
                c = b[:j, : j + 1]
                break
            np.divide(u, alpha, out=us[j])
            b[j, j] = alpha
            v = apply_transpose(np.conj(us[j]))
            np.conj(v, out=v)
            v -= alpha * vs[j]
            w = alphas[: j + 1] * mu[: j + 1] - alpha * nu[: j + 1]
            w[1:] += betas[:j] * mu[:j]
            beta = step(v, vs[: j + 1], nu, w, alpha)
        c = b[: j + 1, : j + 1]
        if beta <= scale * top or j + 1 == steps:
            break
        v /= beta
        b[j, j + 1] = beta
        if symmetric:
            b[j + 1, j] = beta
        if j + 1 >= k and (j + 1 - k) % LANCZOS_CHECK == 0:
            ritz = _ritz_update(c, *ritz)
            theta, x_last = ritz[:2]
            res, tol_ritz = beta * np.abs(x_last[:k]), LANCZOS_RTOL * theta[0]
            done = res <= tol_ritz
            if not vectors and j:  # B_j has two values or more, so each has a gap
                gaps = -np.diff(theta)
                gap = np.minimum(np.r_[np.inf, gaps], np.r_[gaps, np.inf])[:k]
                done |= res * res <= tol_ritz * gap
            if np.all(done):
                break
    x, s, yh = (np.linalg.svd(c, full_matrices=False) if vectors
                else (None, np.linalg.svd(c, compute_uv=False), None))
    r = min(k, int(np.count_nonzero(s > scale * top)))
    s = np.concatenate((s[:r], np.zeros(k - r)))  # coefficients not reached are 0
    if not vectors:
        return None, s, None
    if symmetric:  # A conj(Q) Y = Q X diag(s): u = Q X, vh = Y^H Q^T, Q's rows being q_j
        return (x[:, :r].T @ vs[: c.shape[0]]).T, s, yh[:r] @ vs[: c.shape[1]]
    # real X and Y times complex bases, as real products on the bases' float view
    u_rows = (x[:, :r].T @ us[: c.shape[0]].view(float)).view(complex)
    v_rows = (yh[:r] @ vs[: c.shape[1]].view(float)).view(complex)
    return u_rows.T, s, np.conj(v_rows)


def _real_form(kernel: HankelKernel) -> np.ndarray:
    """The real R = Re(Z^H A Z), Z = (I + iJ)/sqrt(2), of a centro-Hermitian kernel's matrix A.

    A is unitarily similar to R (Lee 1980; Hill, Bates & Waters 1990), so
    both have the same singular values.  The complex matrix is not kept past
    the return.
    """
    a = kernel.to_dense().entries
    # R = (Re A + J Re A J)/2 - (Im A J - J Im A)/2: the projection onto
    # centro-Hermitian matrices drops the roundoff-level asymmetry of A
    # instead of copying it into R, as Re A - Im A J would.
    r = a.real + a.real[::-1, ::-1]
    r -= a.imag[:, ::-1]
    r += a.imag[::-1, :]
    r *= 0.5
    return r


def _dense_svd(kernel: KernelMatrix | HankelKernel, vectors: bool):
    """Full SVD (u, s, vh; u and vh None without vectors) of the kernel's dense matrix.

    A centro-Hermitian `HankelKernel` runs in real arithmetic at under half
    the cost, on its `_real_form` R, and A = (Z u_R) s (Z v_R)^H gives the modes.
    """
    structured = isinstance(kernel, HankelKernel)
    real = structured and kernel.centro_hermitian
    if real:
        a = _real_form(kernel)
    else:
        a = kernel.to_dense().entries if structured else kernel.entries
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
        The singular values of its weight-embedded matrix are the Schmidt
        coefficients.
    rank : int or None
        Number of leading coefficients to compute.  None runs the dense
        reference SVD; a rank below n - 1 runs `_lanczos` (with partial
        reorthogonalization on values only and full with vectors) from a fixed
        start vector, on a `HankelKernel` without forming its matrix (see
        `choose_solver`; `solver_rank` gives the default rank for a grid size):
        the complex-symmetric recurrence, one product per step, on the symmetric
        kernel of Phi, and Golub-Kahan-Lanczos, two products per step, on the
        one-sided kernel and on a sampled `KernelMatrix`.  It stops on each
        triplet's residual with vectors and on the tighter gap-refined bound
        without (see `_lanczos`).  On the rank-one Phi at Delta = delta = 0 it
        stops after 2 products.
        A rank outside 1 .. min(kernel.shape) is an error (`solver_rank`
        clips an oversized one).
        The dense SVD of a centro-Hermitian `HankelKernel` runs on an
        equivalent real matrix of the same size; its coefficients and modes
        are those of the complex SVD up to roundoff.
    renormalize : bool
        Rescale the retained coefficients so their squares sum to 1.
    vectors : bool
        Compute the modes, one pair per coefficient reached: a truncated
        solve that breaks down at r < rank (a kernel of rank r) returns r
        pairs, and its coefficients r + 1 .. rank are exactly 0, as are values
        at its breakdown tolerance, roundoff of the largest.  Without
        vectors modes_1 and modes_2 have no rows.

    Raises
    ------
    ValueError
        If rank is below 1 or above min(kernel.shape).
    numpy.linalg.LinAlgError
        If the dense or iterative SVD fails to converge.
    """
    max_rank = min(kernel.shape)
    if rank is not None and not 1 <= rank <= max_rank:
        raise ValueError(f"rank must be >= 1 and <= {max_rank}, the smaller matrix dimension "
                         f"(or None for the full spectrum), got {rank}")
    method = choose_solver(max_rank, rank, vectors)
    if method == "lanczos":
        structured = isinstance(kernel, HankelKernel)
        # the symmetric kernel (A^T = A) runs the one-basis recurrence: no transposed product
        products = ((partial(kernel._apply, transpose=False),
                     None if kernel.symmetric else partial(kernel._apply, transpose=True))
                    if structured else (kernel.entries.dot, kernel.entries.T.dot))
        u, s, vh = _lanczos(*products, kernel.shape, rank, vectors)
        method = "hankel_lanczos" if structured else "lanczos"
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
        residual=residual,
        method=method,
    )


def optimal_state_schmidt(sys: LevelSystem, rank: int | None = None, *,
                          half: float | None = None, step: float | None = None,
                          center: float | None = None) -> SchmidtDecomposition:
    """Schmidt coefficients of the optimal pair amplitude Phi by the library's policy.

    `schmidt_point`'s values-only decomposition: the result holds no modes (`schmidt_point`
    with modes adds the leading pairs).
    """
    return schmidt_point(sys, rank, half=half, step=step, center=center)[0]


def solver_stats(d: SchmidtDecomposition) -> dict:
    """method, n, k and captured_norm = sum r^2 / (sum r^2 + residual^2) of a decomposition.

    captured_norm is 1.0 for a zero kernel: kept and discarded norms both 0, nothing discarded.
    """
    kept = float(np.sum(d.coefficients**2))
    total = kept + d.residual**2
    return {"method": d.method, "n": d.grid1.count, "k": len(d.coefficients),
            "captured_norm": kept / total if total else 1.0}


def entropy(d: SchmidtDecomposition) -> float:
    """Entanglement entropy S = -sum_k r_k^2 log2 r_k^2 in bits.

    Coefficients at or below the floor 1e-12 contribute nothing.
    """
    p = d.coefficients[d.coefficients > COEFFICIENT_FLOOR] ** 2
    return float(0.0 - np.sum(p * np.log2(p)))  # +0.0, not -0.0, if no r or a single r = 1


def quantum_enhancement(d: SchmidtDecomposition) -> float:
    """Quantum enhancement E_q = 1 / r_1^2 >= 1 of the entangled optimum."""
    if d.coefficients.size == 0 or d.coefficients[0] <= 0:
        raise ValueError("degenerate decomposition: leading coefficient is zero")
    return float(1.0 / d.coefficients[0] ** 2)


def schmidt_point(sys: LevelSystem, rank: int | None = None, modes: int = 0, *,
                  half: float | None = None, step: float | None = None,
                  center: float | None = None) -> tuple[SchmidtDecomposition, dict]:
    """(d, row): the Schmidt data of Phi by the library's policy and the numbers a point reports.

    One rule, whatever solver the policy picks: on n-node `auto_grid(sys, half, step, center)`
    one matrix-free op = `optimal_state_operator` gives d.coefficients, by values-only
    `decompose(op, rank=solver_rank(n, rank))`, and the leading m = min(modes, coefficients
    above COEFFICIENT_FLOOR) mode pairs, by `decompose(op, rank=m)` (the modes of roundoff
    coefficients are arbitrary vectors).  So a point reports the same numbers with modes or
    without.  row holds r1, r1_squared, entropy_bits, quantum_enhancement, the rank given to
    the values-only `decompose` and the `solver_stats` fields.

    A grid step above the narrower linewidth min(gamma_e, gamma_f), beyond a
    relative 1e-9 of roundoff, under-resolves Phi and gives a RuntimeWarning:
    the default step gamma_e / 5 does so below delta = -1.8, where E_q comes
    out several percent low (8% at delta = -1.9; see README's Conventions).
    """
    if modes < 0:
        raise ValueError(f"modes must be >= 0, got {modes}")
    grid = auto_grid(sys, half, step, center)
    width = min(sys.gamma_e, sys.gamma_f)
    if grid.step > width * (1.0 + 1e-9):
        warnings.warn(f"the grid step {grid.step:.9g} exceeds min(gamma_e, gamma_f) = "
                      f"{width:.9g}: Phi is under-resolved, so its Schmidt numbers may be far "
                      f"off; use a step of at most {width:.9g}", RuntimeWarning, stacklevel=2)
    op, rank = optimal_state_operator(sys, grid), solver_rank(grid.count, rank)
    d = decompose(op, rank=rank, vectors=False)
    m = min(modes, int(np.count_nonzero(d.coefficients > COEFFICIENT_FLOOR)))
    if m:
        lead = decompose(op, rank=m)
        d = replace(d, modes_1=lead.modes_1, modes_2=lead.modes_2)
    r1 = float(d.coefficients[0])
    return d, {"r1": r1, "r1_squared": r1**2, "entropy_bits": entropy(d),
               "quantum_enhancement": quantum_enhancement(d), "rank": rank, **solver_stats(d)}


def optimal_separable(d: SchmidtDecomposition):
    """Best separable amplitude: the conjugated leading mode pair.

    Returns (mode_1, mode_2) with the separable amplitude given by their
    outer product; it captures a fraction r_1^2 of the optimal yield.
    Raises ValueError if d holds no mode pair.
    """
    if len(d.modes_1) == 0:
        raise ValueError("the decomposition lacks the leading mode pair that the separable "
                         "amplitude needs (decompose with vectors, or schmidt_point with modes)")
    return np.conj(d.modes_1[0]), np.conj(d.modes_2[0])


def _one_sided_kernel(sys: LevelSystem, grid: FrequencyGrid) -> HankelKernel:
    """Q/sqrt(N/2) on the offset grid: D E H D with E = L_e, H = L_f at offset sums."""
    check_dense_fits(grid.count, grid.count)
    offs = grid.nodes - grid.center
    sums = 2.0 * offs[0] + grid.step * np.arange(2 * grid.count - 1)
    scale = 1.0 / np.sqrt(normalization(sys) / 2.0)
    line_f = 1j / (sums + 1j * sys.gamma_f)  # L_f about its own centre omega_f
    return HankelKernel(grid.shifted(-grid.center), grid.shifted(sys.omega_f - grid.center),
                        lineshape(sys, "e", offs), scale * line_f, symmetric=False)


def asymmetric_decomposition(sys: LevelSystem, grid: FrequencyGrid,
                             rank: int | None = None) -> SchmidtDecomposition:
    """Schmidt data of the one-sided kernel Q/sqrt(N/2).

    The grid is read as offsets about each photon's own line center
    (0 for photon 1, omega_f for photon 2), in which
    coordinates the kernel is exactly independent of the detuning: a change
    of Delta merely translates the second axis.  The stored grids are the
    absolute ones.
    """
    return decompose(_one_sided_kernel(sys, grid), rank=rank)


def bounds_grid(sys: LevelSystem) -> FrequencyGrid:
    """Default offset grid for `asymptotic_bounds`.

    The ridge term wants ~200 gamma_f of range, the single-photon line
    ~40 gamma_e; the union is capped at 150 gamma_e to keep wide-line
    systems tractable (costs <~ 2% of captured norm at gamma_f = 4).
    The range biases the bounds: doubling it moves S_inf by +0.029 bits
    (+1.3%) and E_inf by -0.43% at delta = 0 (1501 -> 3001 nodes), and by
    +0.117 bits (+2.1%) and -0.08% at delta = -1.9 (1601 -> 3201 nodes).
    """
    ge = sys.gamma_e
    half = max(40.0 * ge, min(200.0 * sys.gamma_f, 150.0 * ge))
    step = min(ge / 5.0, sys.gamma_f / 2.0)
    return make_grid(0.0, half, step)


def asymptotic_bounds(sys: LevelSystem, grid: FrequencyGrid | None = None,
                      rank: int | None = None) -> tuple[float, float]:
    """Large-detuning bounds (E_inf, S_inf) from the one-sided kernel.

    E_inf = 2 / s_1^2 and S_inf = 1 + S_a, where s_k and S_a come from the
    decomposition of Q/sqrt(N/2) on grid (default `bounds_grid(sys)`).
    Both are independent of the detuning.  Only the coefficients are
    computed, at the rank `solver_rank` gives for rank: the truncated
    `decompose` for a rank below n - 1.  The full spectrum is s_k =
    sqrt(lambda_k), from the eigenvalues of the Gram matrix R^T R of Q's
    `_real_form` R (Q is centro-Hermitian on every offset grid), 2.6-2.8x
    faster than the values-only SVD of R at 1501-1601 nodes; a kernel that
    is not centro-Hermitian takes the dense `decompose` instead.

    Squaring leaves an absolute eigenvalue error of about n eps s_1^2, which
    reaches only coefficients far below s_1: E_inf agrees with the SVD to
    about 1e-15 relative and S_inf to about 1e-13 bits, so both keep their
    9-digit strings.  No noise floor is applied to the eigenvalues; the
    1e-12 floor of `entropy` reads the coefficients as before.  Phi does not
    take this route: its spectrum decays fast, and noise of n eps r_1^2 would
    pass that floor (601 nonzero coefficients instead of 1 at Delta = 0,
    delta = 0 on 1201 nodes).
    """
    grid = bounds_grid(sys) if grid is None else grid
    q = _one_sided_kernel(sys, grid)
    rank = solver_rank(grid.count, rank)
    if rank is None and q.centro_hermitian:
        r = _real_form(q)
        s = np.sqrt(np.clip(np.linalg.eigvalsh(r.T @ r), 0.0, None))[::-1]
        empty = np.empty((0, grid.count), complex)
        dq = SchmidtDecomposition(s, empty, empty, q.grid1, q.grid2, residual=0.0,
                                  method="gram_values")
    else:
        dq = decompose(q, rank=rank, vectors=False)
    return 2.0 * quantum_enhancement(dq), 1.0 + entropy(dq)


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
    """Rebuild the weight-embedded kernel matrix from the retained modes.

    Trailing coefficients that are exactly 0 need no mode pair.  Raises
    ValueError if d lacks the mode pair of a nonzero coefficient.
    """
    r = len(d.modes_1)
    if np.any(d.coefficients[r:] != 0):
        raise ValueError(f"the decomposition lacks modes: {r} mode pairs for "
                         f"{d.coefficients.size} coefficients")
    sw1 = np.sqrt(quadrature_weights(d.grid1))
    sw2 = np.sqrt(quadrature_weights(d.grid2))
    phi_star = np.conj(d.modes_1) * sw1[None, :]
    psi_star = np.conj(d.modes_2) * sw2[None, :]
    return (phi_star.T * d.coefficients[:r]) @ psi_star
