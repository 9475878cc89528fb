import json
import math
import warnings
from functools import partial

import numpy as np
import pytest

from conftest import synthetic_decomposition
from tpaopt import (
    KernelMatrix,
    LevelSystem,
    asymmetric_decomposition,
    asymptotic_bounds,
    decompose,
    entropy,
    make_grid,
    normalization,
    optimal_separable,
    optimal_state_kernel,
    optimal_state_operator,
    optimal_state_schmidt,
    pairing_check,
    quadrature_weights,
    quantum_enhancement,
    reconstruct,
    response_asymmetric,
    sample_kernel,
    schmidt_point,
    solver_rank,
    solver_stats,
)
from tpaopt import grids, schmidt
from tpaopt.cli import main
from tpaopt.schmidt import _one_sided_kernel


def small_kernel(delta=2.0, dev=-1.0, half=60.0, step=0.25):
    sys = LevelSystem(delta_detuning=delta, delta_deviation=dev)
    grid = make_grid(sys.omega_f / 2.0, half, step)
    return sys, optimal_state_kernel(sys, grid)


def test_rank_one_kernel_single_coefficient():
    g = make_grid(0.0, 10.0, 0.1)
    k = sample_kernel(lambda a, b: np.exp(-(a**2)) / (b**2 + 1.0) + 0j, g)
    d = decompose(k)
    assert d.coefficients[1] <= 1e-12 * d.coefficients[0]


def test_entropy_trivial_spectra():
    assert entropy(synthetic_decomposition([1.0])) == 0.0
    two = synthetic_decomposition([1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert entropy(two) == pytest.approx(1.0, abs=1e-14)
    with_zero = synthetic_decomposition([1.0, 0.0, 0.0])
    assert entropy(with_zero) == 0.0


@pytest.mark.parametrize("coefficients", [[1.0], [1.0, 0.0], [1e-13]])
def test_entropy_of_a_pure_state_is_positive_zero(coefficients):
    assert math.copysign(1.0, entropy(synthetic_decomposition(coefficients))) == 1.0


def test_enhancement_trivial_spectra():
    two = synthetic_decomposition([1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert quantum_enhancement(two) == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(ValueError):
        quantum_enhancement(synthetic_decomposition([0.0]))


@pytest.mark.parametrize("rank", [0, -3])
def test_rank_below_one_rejected(rank):
    sys = LevelSystem(delta_detuning=2.0, delta_deviation=-1.0)
    grid = make_grid(sys.omega_f / 2.0, 20.0, 0.5)
    for kernel in (optimal_state_operator(sys, grid), optimal_state_kernel(sys, grid)):
        with pytest.raises(ValueError, match="rank must be >= 1"):
            decompose(kernel, rank=rank)
    with pytest.raises(ValueError, match="rank must be >= 1"):
        asymmetric_decomposition(sys, make_grid(0.0, 20.0, 0.5), rank=rank)


def test_rank_above_dimension_raises_and_solver_rank_clips():
    # decompose solves the rank it is given or refuses it; the policy owns the clip
    sys = LevelSystem(delta_detuning=2.0, delta_deviation=-1.0)
    g = make_grid(0.0, 2.0, 0.5)  # 9 nodes
    wide = sample_kernel(lambda a, b: 1.0 / (a + b + 2j), make_grid(0.0, 1.0, 0.5), g)  # 5 x 9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel in (wide, optimal_state_kernel(sys, g), optimal_state_operator(sys, g)):
            n = min(kernel.shape)
            for rank in (n + 1, 99):
                with pytest.raises(ValueError, match="rank must be >= 1"):
                    decompose(kernel, rank=rank)
            assert solver_rank(n, 99) == n
            d = decompose(kernel, rank=solver_rank(n, 99))
            np.testing.assert_array_equal(d.coefficients, decompose(kernel).coefficients)
        with pytest.raises(ValueError, match="rank must be >= 1"):
            asymmetric_decomposition(sys, g, rank=g.count + 1)
    assert [solver_rank(9, k) for k in (1, 8, 9, 10, 250)] == [1, 8, 9, 9, 9]


def test_modes_orthonormal_under_quadrature():
    _, k = small_kernel()
    d = decompose(k, rank=6)
    w = quadrature_weights(d.grid1)
    gram = np.einsum("kn,n,ln->kl", np.conj(d.modes_1), w, d.modes_1)
    assert np.max(np.abs(gram - np.eye(6))) < 1e-8
    gram2 = np.einsum("kn,n,ln->kl", np.conj(d.modes_2), w, d.modes_2)
    assert np.max(np.abs(gram2 - np.eye(6))) < 1e-8


def test_phase_convention_deterministic():
    _, k = small_kernel()
    d1 = decompose(k, rank=4)
    d2 = decompose(k, rank=4)
    np.testing.assert_array_equal(d1.modes_1, d2.modes_1)
    for k_idx in range(4):
        m = np.argmax(np.abs(d1.modes_1[k_idx]))
        lead = d1.modes_1[k_idx][m]
        assert abs(lead.imag) <= 1e-12 * abs(lead)
        assert lead.real > 0


def test_full_rank_reconstruction():
    _, k = small_kernel(half=30.0, step=0.5)
    d = decompose(k)
    rec = reconstruct(d)
    err = np.linalg.norm(rec - k.entries) / np.linalg.norm(k.entries)
    assert err < 1e-6
    assert d.residual == 0.0  # a full dense spectrum discards nothing
    assert decompose(k, vectors=False).residual == 0.0


def test_truncation_residual_and_soundness():
    _, k = small_kernel(half=30.0, step=0.5)
    full = decompose(k)
    total = np.sum(full.coefficients**2)
    r1_values = []
    for m in (2, 4, 8):
        dm = decompose(k, rank=m)
        assert np.sum(dm.coefficients**2) <= total + 1e-12
        assert dm.residual == pytest.approx(
            np.sqrt(total - np.sum(dm.coefficients**2)), abs=1e-9)
        r1_values.append(dm.coefficients[0])
    assert np.all(np.diff(r1_values) >= -1e-10)
    np.testing.assert_allclose(r1_values, full.coefficients[0], rtol=1e-9)


def test_solver_stats_zero_kernel_captures_everything():
    d = decompose(sample_kernel(lambda a, b: 0 * a * b + 0j, make_grid(0.0, 2.0, 0.5)))
    assert d.residual == 0.0 and not np.any(d.coefficients)
    assert solver_stats(d)["captured_norm"] == 1.0  # nothing kept, nothing discarded


def test_spectrum_invariant_under_transpose():
    from tpaopt import KernelMatrix

    _, k = small_kernel(half=30.0, step=0.5)
    kt = KernelMatrix(k.grid2, k.grid1, np.ascontiguousarray(k.entries.T))
    s = decompose(k, rank=12).coefficients
    st = decompose(kt, rank=12).coefficients
    np.testing.assert_allclose(s, st, atol=1e-10)


def test_renormalization_sums_to_one():
    _, k = small_kernel()
    d = decompose(k, rank=8, renormalize=True)
    assert abs(np.sum(d.coefficients**2) - 1.0) < 1e-12


def test_separable_point_is_rank_one():
    sys = LevelSystem()  # Delta = delta = 0: kernel factorizes exactly
    grid = make_grid(0.0, 50.0, 0.25)
    d = decompose(optimal_state_kernel(sys, grid), rank=4, renormalize=True)
    assert d.coefficients[0] ** 2 >= 0.999
    assert entropy(d) <= 0.02
    assert quantum_enhancement(d) <= 1.01


def test_optimal_separable_overlap_and_normalization():
    sys, k = small_kernel()
    d = decompose(k, rank=4)
    m1, m2 = optimal_separable(d)
    w = quadrature_weights(d.grid1)
    assert np.sum(w * np.abs(m1) ** 2) == pytest.approx(1.0, abs=1e-8)
    assert np.sum(w * np.abs(m2) ** 2) == pytest.approx(1.0, abs=1e-8)
    # overlap with the full amplitude equals the leading coefficient
    phi = k.entries / np.sqrt(np.outer(w, w))
    sep = np.outer(m1, m2)
    overlap = np.sum(np.outer(w, w) * np.conj(sep) * phi)
    assert abs(overlap) ** 2 == pytest.approx(d.coefficients[0] ** 2, abs=1e-8)


def test_optimal_separable_matches_state_when_separable():
    sys = LevelSystem()
    grid = make_grid(0.0, 50.0, 0.25)
    k = optimal_state_kernel(sys, grid)
    d = decompose(k, rank=2, renormalize=True)
    m1, m2 = optimal_separable(d)
    w = quadrature_weights(grid)
    phi = k.entries / np.sqrt(np.outer(w, w))
    sep = np.outer(m1, m2)
    norm_phi = np.sum(np.outer(w, w) * np.abs(phi) ** 2)
    overlap = np.abs(np.sum(np.outer(w, w) * np.conj(sep) * phi)) ** 2 / norm_phi
    assert overlap >= 0.999


def test_fig3_anchor_coarse():
    # squared coefficients on the half-resolution validation grid
    sys = LevelSystem(delta_detuning=100.0, delta_deviation=-1.5)
    grid = make_grid(0.0, 500.0, 0.5)
    d = decompose(optimal_state_kernel(sys, grid), rank=8)
    lam = d.coefficients**2
    assert lam[0] == pytest.approx(0.272557, abs=2e-3)
    assert lam[1] == pytest.approx(0.272348, abs=2e-3)


def test_pairing_gap_fig3_scale():
    sys = LevelSystem(delta_detuning=100.0, delta_deviation=-1.5)
    grid = make_grid(0.0, 500.0, 0.5)
    d = decompose(optimal_state_kernel(sys, grid), rank=8)
    r = d.coefficients
    assert (r[0] - r[1]) / r[0] < 1e-3  # leading near-degenerate pair
    assert pairing_check(d) < 5e-3      # all retained pairs stay close


def test_pairing_gap_informational_at_zero_detuning():
    # no pairing claim at small detuning; the operation still reports a gap
    sys = LevelSystem()
    grid = make_grid(0.0, 50.0, 0.25)
    d = decompose(optimal_state_kernel(sys, grid), rank=4)
    gap = pairing_check(d)
    assert 0.0 <= gap <= 1.0  # near 1: the kernel is essentially rank one


def test_pairing_check_synthetic():
    exact = synthetic_decomposition(np.repeat([0.6, 0.3], 2))
    assert pairing_check(exact) == 0.0
    odd = synthetic_decomposition([0.8, 0.5, 0.33])  # trailing value has no partner
    assert pairing_check(odd) == pytest.approx((0.8 - 0.5) / 0.8)
    assert pairing_check(synthetic_decomposition([0.9])) == 0.0


def test_pairing_entropy_identity_exact():
    s = np.array([0.7, 0.5, np.sqrt(1 - 0.49 - 0.25)])
    paired = np.repeat(s / np.sqrt(2.0), 2)
    s_sym = entropy(synthetic_decomposition(paired))
    s_asym = entropy(synthetic_decomposition(s))
    assert abs(s_sym - (1.0 + s_asym)) < 1e-12


def test_asymptotic_bounds_independent_of_detuning():
    grid = make_grid(0.0, 80.0, 0.25)
    a = asymptotic_bounds(LevelSystem(delta_detuning=100.0, delta_deviation=-1.5), grid, rank=40)
    b = asymptotic_bounds(LevelSystem(delta_detuning=37.0, delta_deviation=-1.5), grid, rank=40)
    assert abs(a[0] - b[0]) < 1e-6
    assert abs(a[1] - b[1]) < 1e-6


def test_asymmetric_decomposition_grids_follow_lines():
    sys = LevelSystem(delta_detuning=40.0, delta_deviation=-1.5)
    grid = make_grid(0.0, 30.0, 0.5)
    d = asymmetric_decomposition(sys, grid, rank=4)
    assert d.grid1.center == pytest.approx(0.0)
    assert d.grid2.center == pytest.approx(sys.omega_f)


def test_asymptotic_limits_match_large_detuning_values():
    # light version of the convergence check, on coarse matched grids
    sys = LevelSystem(delta_detuning=100.0, delta_deviation=-1.5)
    grid = make_grid(0.0, 500.0, 0.5)
    d = decompose(optimal_state_kernel(sys, grid), rank=120)
    e_inf, s_inf = asymptotic_bounds(sys, grid, rank=120)
    assert quantum_enhancement(d) == pytest.approx(e_inf, rel=0.03)
    assert entropy(d) == pytest.approx(s_inf, abs=0.08)


def test_enhancement_limit_grows_toward_small_final_width():
    grid = make_grid(0.0, 60.0, 0.1)
    vals = [asymptotic_bounds(LevelSystem(delta_deviation=dev), grid, rank=60)[0]
            for dev in (-1.0, -1.5, -1.9)]
    assert vals[0] < vals[1] < vals[2]


def _structured_and_oracle(one_sided):
    """(HankelKernel, independently sampled KernelMatrix) of Phi or of Q/sqrt(N/2)."""
    sys = LevelSystem(delta_detuning=3.0, delta_deviation=-1.2)
    grid = make_grid(sys.omega_f / 2.0, 30.0, 0.25)
    if not one_sided:
        return optimal_state_operator(sys, grid), optimal_state_kernel(sys, grid)
    op = _one_sided_kernel(sys, grid)
    scale = 1.0 / np.sqrt(normalization(sys) / 2.0)
    return op, sample_kernel(lambda a, b: response_asymmetric(sys, a, b) * scale,
                             op.grid1, op.grid2)


def _products(op):
    """A v and the adjoint conj(A^T conj(v)) of a `HankelKernel`, from its `_apply`."""
    return (partial(op._apply, transpose=False),
            lambda v: np.conj(op._apply(np.conj(v), transpose=True)))


def _max_mode_gap(a, b):
    """Largest entry difference of two mode sets, each mode aligned in phase to its partner."""
    dots = np.sum(np.conj(a) * b, axis=1)
    return float(np.max(np.abs(a * (dots / np.abs(dots))[:, None] - b)))


@pytest.mark.parametrize("one_sided", [False, True], ids=["phi", "q"])
def test_structured_kernel_matches_sampled_oracle(one_sided):
    op, oracle = _structured_and_oracle(one_sided)
    a, (matvec, adjoint) = oracle.entries, _products(op)
    rng = np.random.default_rng(7)
    v = rng.standard_normal((a.shape[1], 3)) + 1j * rng.standard_normal((a.shape[1], 3))
    assert op.shape == a.shape
    assert np.max(np.abs(matvec(v[:, 0]) - a @ v[:, 0])) < 1e-12
    assert np.max(np.abs(matvec(v) - a @ v)) < 1e-12
    assert np.max(np.abs(adjoint(v[:, 1]) - np.conj(a.T) @ v[:, 1])) < 1e-12
    assert np.max(np.abs(adjoint(v) - np.conj(a.T) @ v)) < 1e-12
    assert op.frobenius_norm2() == pytest.approx(oracle.frobenius_norm2(), abs=1e-12)
    assert np.max(np.abs(op.to_dense().entries - a)) < 1e-12
    for rank in (8, None):
        d_op, d_oracle = decompose(op, rank=rank), decompose(oracle, rank=rank)
        assert d_op.method == ("hankel_lanczos" if rank else "dense")
        np.testing.assert_allclose(d_op.coefficients, d_oracle.coefficients, rtol=0, atol=1e-12)
        assert d_op.residual == pytest.approx(d_oracle.residual, abs=1e-12 if rank else 1e-7)
        lead = slice(0, 8)  # trailing full-rank modes are not well defined
        assert _max_mode_gap(d_op.modes_1[lead], d_oracle.modes_1[lead]) < 1e-12
        assert _max_mode_gap(d_op.modes_2[lead], d_oracle.modes_2[lead]) < 1e-12


@pytest.mark.parametrize("one_sided", [False, True], ids=["phi", "q"])
def test_to_dense_is_the_entrywise_formula(one_sided):
    # more than ROW_CHUNK nodes, so the matrix is built in two row blocks
    sys = LevelSystem(delta_detuning=3.0, delta_deviation=-1.2)
    op = (_one_sided_kernel(sys, make_grid(0.0, 80.0, 0.25)) if one_sided
          else optimal_state_operator(sys, make_grid(sys.omega_f / 2.0, 80.0, 0.25)))
    n = op.shape[0]
    assert grids.ROW_CHUNK < n < 2 * grids.ROW_CHUNK
    e, h = op.diag, op.hankel[np.add.outer(np.arange(n), np.arange(n))]
    sw = np.sqrt(quadrature_weights(op.grid1))
    lines = e[:, None] if one_sided else e[:, None] + e[None, :]
    np.testing.assert_array_equal(op.to_dense().entries, lines * h * np.outer(sw, sw))


@pytest.mark.parametrize("n", [13, 41, 63, 241])
@pytest.mark.parametrize("one_sided", [False, True], ids=["phi", "q"])
def test_products_match_own_matrix(one_sided, n):
    # at n = 13, 41 and 63, 2n - 1 is 5-smooth: the transform has no padding
    # that could hide a wrap-around into the rows kept (n = 241 pads 481 to 486)
    sys = LevelSystem(delta_detuning=3.0, delta_deviation=-1.2)
    half = 0.25 * (n - 1) / 2.0
    op = (_one_sided_kernel(sys, make_grid(0.0, half, 0.25)) if one_sided
          else optimal_state_operator(sys, make_grid(sys.omega_f / 2.0, half, 0.25)))
    assert op.shape == (n, n)
    assert op._fft_size == (486 if n == 241 else 2 * n - 1)
    a, (matvec, adjoint) = op.to_dense().entries, _products(op)
    rng = np.random.default_rng(n)
    v = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    assert np.max(np.abs(matvec(v[:, 0]) - a @ v[:, 0])) < 1e-12
    assert np.max(np.abs(matvec(v) - a @ v)) < 1e-12
    assert np.max(np.abs(adjoint(v[:, 1]) - np.conj(a.T) @ v[:, 1])) < 1e-12
    assert np.max(np.abs(adjoint(v) - np.conj(a.T) @ v)) < 1e-12
    assert op.frobenius_norm2() == pytest.approx(np.sum(np.abs(a) ** 2), abs=1e-12)


def test_smooth_length_matches_scipy_next_fast_len():
    from scipy.fft import next_fast_len

    odd = range(1, 60002, 2)
    assert [schmidt._smooth_length(m) for m in odd] == [next_fast_len(m, real=True) for m in odd]


def _scipy_apply(op, v, transpose):
    """`HankelKernel._apply` computed through scipy.fft."""
    from scipy.fft import fft, ifft, next_fast_len

    n = op.shape[0]
    size = next_fast_len(2 * n - 1, real=True)

    def hankel_apply(x):
        c = fft(x[..., ::-1], size, axis=-1)
        c *= fft(op.hankel, size)
        return ifft(c, axis=-1, overwrite_x=True)[..., n - 1 : 2 * n - 1]

    e, sw = op.diag, op._sw
    u = sw * v.T
    if op.symmetric:
        hu, heu = hankel_apply(np.stack((u, e * u)))
        y = e * hu + heu
    else:
        y = hankel_apply(e * u) if transpose else e * hankel_apply(u)
    return (sw * y).T


@pytest.mark.parametrize("one_sided", [False, True], ids=["phi", "q"])
def test_products_bit_identical_to_scipy_fft(one_sided):
    sys = LevelSystem(delta_detuning=5.0, delta_deviation=-0.44)
    op = (_one_sided_kernel(sys, schmidt.bounds_grid(sys)) if one_sided
          else optimal_state_operator(sys, make_grid(sys.omega_f / 2.0, 312.0, 0.2)))
    n = op.shape[0]
    rng = np.random.default_rng(n)
    v = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    for transpose in (False, True):
        for x in (v[:, 0], v):
            assert np.array_equal(op._apply(x, transpose), _scipy_apply(op, x, transpose))


def test_values_only_decomposition_has_no_modes():
    op, _ = _structured_and_oracle(False)
    d = decompose(op, rank=8, vectors=False)
    assert d.modes_1.shape == (0, op.shape[0]) and d.coefficients.size == 8
    full = decompose(op, vectors=False)
    assert full.method == "dense_values" and full.coefficients.size == op.shape[0]


def _engine_kernel(name):
    """Phi at (Delta, delta) = (5, -1.5) or (0.1, 0), or Q at delta = -1.5, on 401-481 nodes."""
    if name == "q":
        return _one_sided_kernel(LevelSystem(delta_deviation=-1.5), make_grid(0.0, 40.0, 0.2))
    delta, dev = {"phi_5": (5.0, -1.5), "phi_0.1": (0.1, 0.0)}[name]
    sys = LevelSystem(delta_detuning=delta, delta_deviation=dev)
    return optimal_state_operator(sys, make_grid(sys.omega_f / 2.0, 60.0, 0.25))


@pytest.mark.parametrize("k", [16, 59])
@pytest.mark.parametrize("name", ["phi_5", "phi_0.1", "q"])
def test_values_only_lanczos_matches_vectors_and_dense(name, k):
    op = _engine_kernel(name)
    d = decompose(op, rank=k, vectors=False)
    assert d.method == "hankel_lanczos" and d.coefficients.size == k
    with_vectors = decompose(op, rank=k)
    assert with_vectors.method == "hankel_lanczos"
    dense = np.linalg.svd(op.to_dense().entries, compute_uv=False)[:k]
    for ref in (with_vectors.coefficients, dense):
        assert np.max(np.abs(d.coefficients - ref)) <= 1e-14 * ref[0]
    assert d.residual == np.sqrt(max(op.frobenius_norm2() - np.sum(d.coefficients**2), 0.0))
    # deterministic: a second solve gives the same bits
    np.testing.assert_array_equal(decompose(op, rank=k, vectors=False).coefficients,
                                  d.coefficients)


def _rank_two_kernel():
    """H[i, j] = a^(i+j) + b^(i+j) on 81 nodes, a one-sided `HankelKernel` of rank two."""
    grid = make_grid(0.0, 20.0, 0.5)
    m = np.arange(2 * grid.count - 1)
    return schmidt.HankelKernel(grid, grid, np.ones(grid.count, complex),
                                0.9**m + 0.5j * 0.7**m, symmetric=False)


def test_sampled_kernel_runs_lanczos_on_its_own_products():
    # the tests' independent oracle: a sampled matrix runs Lanczos on its entries, not on FFTs
    op, oracle = _structured_and_oracle(False)
    d = decompose(oracle, rank=8, vectors=False)
    assert d.method == "lanczos"
    np.testing.assert_allclose(d.coefficients, decompose(op, rank=8, vectors=False).coefficients,
                               rtol=0, atol=1e-12)


# (half-width, step) of the engine tests' grids about omega_f / 2: 481 nodes at Delta = 0
# and 5, 1001 nodes wide enough for both lines at Delta = 100 and 1000
_ENGINE_GRIDS = {0: (60.0, 0.25), 5: (60.0, 0.25), 100: (75.0, 0.15), 1000: (550.0, 1.1)}


@pytest.mark.parametrize("dev", [0.0, -1.5])
@pytest.mark.parametrize("delta", sorted(_ENGINE_GRIDS))
def test_lanczos_matches_dense_svd(delta, dev):
    sys = LevelSystem(delta_detuning=delta, delta_deviation=dev)
    half, step = _ENGINE_GRIDS[delta]
    op = optimal_state_operator(sys, make_grid(sys.omega_f / 2.0, half, step))
    dense = decompose(op)
    r, sw = dense.coefficients, np.sqrt(quadrature_weights(op.grid1))
    for k in (2, 16, 60):
        # values only: stopped by the gap-refined bound, which near-degenerate pairs
        # (Delta = 100 and 1000) leave no tighter than the residual
        values = decompose(op, rank=k, vectors=False)
        assert values.method == "hankel_lanczos"
        assert np.max(np.abs(values.coefficients - r[:k])) <= 1e-13 * r[0]
        d = decompose(op, rank=k)
        assert d.method == "hankel_lanczos"
        assert np.max(np.abs(d.coefficients - r[:k])) <= 1e-13 * r[0]
        for modes, ref in ((d.modes_1, dense.modes_1), (d.modes_2, dense.modes_2)):
            q = modes * sw  # quadrature-orthonormal modes are orthonormal rows here
            # the rank-one Phi (Delta = delta = 0) has one pair, however many are asked for
            assert len(q) == (1 if delta == dev == 0 else k)
            assert np.max(np.abs(np.conj(q) @ q.T - np.eye(len(q)))) <= 1e-12
            if delta < 100:  # phase-fixed leading modes
                assert np.max(np.abs(modes[0] - ref[0])) <= 1e-12
            else:
                # the leading pair is near-degenerate (gap 2e-5 r1 at Delta = 1000), which
                # fixes each mode only to about eps / gap; the pair's span is fixed to roundoff
                q_ref = ref[:2] * sw
                q2 = q[:2]
                assert np.max(np.abs(q2 - (q2 @ np.conj(q_ref).T) @ q_ref)) <= 1e-12
        if delta >= 100:  # every near-degenerate pair as two distinct coefficients
            assert np.all(np.diff(d.coefficients) < 0)


def _count_products(monkeypatch):
    """A list whose length counts `HankelKernel._apply` calls from here on."""
    calls, apply = [], schmidt.HankelKernel._apply

    def counted(self, v, transpose):
        calls.append(transpose)
        return apply(self, v, transpose)

    monkeypatch.setattr(schmidt.HankelKernel, "_apply", counted)
    return calls


@pytest.mark.parametrize("vectors", [False, True], ids=["values", "vectors"])
def test_partial_reorthogonalization_keeps_the_dense_values(monkeypatch, vectors):
    # 300 values of Phi at (5, -1.5) on 1201 nodes, down to 7e-6 r1, and 200 of the one-sided
    # Q on 401 nodes: a ghost copy of a converged value would shift every value after it
    sys = LevelSystem(delta_detuning=5.0, delta_deviation=-1.5)
    phi = optimal_state_operator(sys, make_grid(sys.omega_f / 2.0, 60.0, 0.1))
    products, orthogonalized = _count_products(monkeypatch), []
    orthogonalize = schmidt._orthogonalize

    def counted(r, basis):
        orthogonalized.append(len(basis))
        return orthogonalize(r, basis)

    monkeypatch.setattr(schmidt, "_orthogonalize", counted)
    for op, k in ((phi, 300), (_engine_kernel("q"), 200)):
        dense = np.linalg.svd(op.to_dense().entries, compute_uv=False)
        products.clear()
        orthogonalized.clear()
        d = decompose(op, rank=k, vectors=vectors)
        assert np.max(np.abs(d.coefficients - dense[:k])) <= 1e-13 * dense[0]
        assert 0 not in orthogonalized  # the first vector has no basis
        # Phi's one basis holds q_1 before the first product; the bidiagonalization's
        # u basis is empty at the first product
        first = 0 if op.symmetric else 1
        if vectors:  # threshold 0: each new vector with a basis is orthogonalized
            assert len(orthogonalized) == len(products) - first
        else:  # full reorthogonalization would orthogonalize after each product
            assert len(orthogonalized) < len(products) - first


@pytest.mark.parametrize("kernel, k, rank", [
    ("rank_one", 2, 1), ("rank_one", 16, 1), ("rank_one", 300, 1),
    ("rank_two", 4, 2), ("rank_two", 16, 2),
])
def test_lanczos_ends_by_breakdown_on_low_rank(monkeypatch, kernel, k, rank):
    dense = None
    if kernel == "rank_one":  # Phi at Delta = delta = 0 on its 4001-node auto grid
        sys = LevelSystem()
        op = optimal_state_operator(sys, schmidt.auto_grid(sys))
        assert op.shape == (4001, 4001)
    else:
        op = _rank_two_kernel()
        dense = np.linalg.svd(op.to_dense().entries, compute_uv=False)  # takes no product
    sw = np.sqrt(quadrature_weights(op.grid1))
    calls = _count_products(monkeypatch)
    for vectors in (True, False):
        calls.clear()
        d = decompose(op, rank=k, vectors=vectors)
        assert d.method == "hankel_lanczos" and len(calls) <= 20
        assert d.coefficients.size == k
        assert np.all(d.coefficients[rank:] == 0) and np.all(d.coefficients[:rank] > 0)
        if dense is not None:
            assert np.max(np.abs(d.coefficients[:rank] - dense[:rank])) <= 1e-13 * dense[0]
        # a pair per coefficient reached, none for the exact zeros after it
        for modes in (d.modes_1, d.modes_2) if vectors else ():
            q = modes * sw
            assert q.shape == (rank, op.shape[0])
            assert np.max(np.abs(np.conj(q) @ q.T - np.eye(rank))) <= 1e-12
        if vectors and dense is not None:  # the pairs reached rebuild the whole matrix
            assert np.max(np.abs(reconstruct(d) - op.to_dense().entries)) <= 1e-12


@pytest.mark.parametrize("half", [2.5, 5.0, 10.0], ids=["n11", "n21", "n41"])
def test_lanczos_runs_to_exhaustion_at_rank_n_minus_2(monkeypatch, half):
    # at rank n - 2 the solve neither converges nor breaks down before its last step:
    # it takes all n steps and ends on j + 1 == steps, n products for Phi (one basis)
    # and 2n for the one-sided Q (Golub-Kahan)
    sys = LevelSystem(delta_detuning=5.0, delta_deviation=-1.5)
    phi = optimal_state_operator(sys, make_grid(sys.omega_f / 2.0, half, 0.5))
    q = _one_sided_kernel(sys, make_grid(0.0, half, 0.5))
    calls = _count_products(monkeypatch)
    for op, per_step in ((phi, 1), (q, 2)):
        n = op.shape[0]
        dense = np.linalg.svd(op.to_dense().entries, compute_uv=False)
        sw = np.sqrt(quadrature_weights(op.grid1))
        for vectors in (True, False):
            calls.clear()
            d = decompose(op, rank=n - 2, vectors=vectors)
            assert d.method == "hankel_lanczos" and len(calls) == per_step * n
            assert np.max(np.abs(d.coefficients - dense[: n - 2])) <= 1e-13 * dense[0]
            for modes in (d.modes_1, d.modes_2) if vectors else ():
                q_rows = modes * sw
                assert np.max(np.abs(np.conj(q_rows) @ q_rows.T - np.eye(n - 2))) <= 1e-12


def test_ritz_update_matches_the_dense_svd():
    # the Ritz check's values and last vector entries, grown by blocks of rows as the solve
    # grows them, against a dense SVD of each leading block; rows 0-20 decouple at the
    # 1e-30 entry, so their triplets lock after the first call
    rng = np.random.default_rng(3)
    alpha = rng.standard_normal(90) + 1j * rng.standard_normal(90)
    beta = rng.random(89) + 0.1
    beta[20] = 1e-30
    tridiagonal = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    bidiagonal = np.diag(np.abs(alpha)) + np.diag(beta, 1)
    for c in (tridiagonal, bidiagonal):
        ritz = np.empty(0), np.empty(0), np.empty(0)
        for size in (40, 48, 56, 90):
            ritz = schmidt._ritz_update(c[:size, :size], *ritz)
            x, s, yh = np.linalg.svd(c[:size, :size])
            theta, x_last, y_last = ritz
            assert np.max(np.abs(theta - s)) <= 1e-14 * s[0]
            assert np.max(np.abs(np.abs(x_last) - np.abs(x[-1]))) <= 1e-12
            assert np.max(np.abs(np.abs(y_last) - np.abs(yh[:, -1]))) <= 1e-12


def test_phi_takes_fewer_products_than_golub_kahan(monkeypatch):
    # Phi is complex symmetric: its one-basis recurrence calls one product per step, where
    # Golub-Kahan on the sampled matrix calls two
    sys = LevelSystem(delta_detuning=5.0, delta_deviation=-1.5)
    grid = make_grid(sys.omega_f / 2.0, 50.0, 0.1)
    op, sampled = optimal_state_operator(sys, grid), optimal_state_kernel(sys, grid)
    assert op.shape == (1001, 1001)
    lanczos, calls = schmidt._lanczos, []

    def counted(product):
        def call(v):
            calls.append(product)
            return product(v)
        return None if product is None else call

    monkeypatch.setattr(schmidt, "_lanczos", lambda apply, apply_transpose, *args: lanczos(
        counted(apply), counted(apply_transpose), *args))

    def solve(kernel):
        calls.clear()
        d = decompose(kernel, rank=64)
        return len(calls), d

    (ours, d), (theirs, ref) = solve(op), solve(sampled)
    assert (d.method, ref.method) == ("hankel_lanczos", "lanczos")
    assert ours <= 0.6 * theirs
    dense = np.linalg.svd(op.to_dense().entries, compute_uv=False)
    assert np.max(np.abs(d.coefficients - dense[:64])) <= 1e-13 * dense[0]
    sw = np.sqrt(quadrature_weights(grid))
    for modes in (d.modes_1, d.modes_2):
        q = modes * sw
        assert np.max(np.abs(np.conj(q) @ q.T - np.eye(64))) <= 1e-12


@pytest.mark.parametrize("vectors", [True, False])
def test_lanczos_raises_on_a_non_finite_product(monkeypatch, vectors):
    message = "Lanczos bidiagonalization broke down at step 1"
    # a sampled kernel with one NaN entry: the first product A v is not finite (alpha)
    _, k = small_kernel(half=10.0, step=0.5)
    entries = k.entries.copy()
    entries[3, 5] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match=message):
        decompose(KernelMatrix(k.grid1, k.grid2, entries), rank=4, vectors=vectors)
    # only the adjoint product of the one-sided Q is not finite: A v passes, A^H u does
    # not (beta)
    apply, calls = schmidt.HankelKernel._apply, []

    def nan_after(first, transposed):
        """_apply, which returns NaN for `transposed` products from the first-th call on."""
        def patched(self, v, transpose):
            calls.append(transpose)
            nan = transpose == transposed and len(calls) >= first
            return np.full_like(v, np.nan) if nan else apply(self, v, transpose)
        return patched

    sys = LevelSystem(delta_detuning=5.0, delta_deviation=-1.5)
    monkeypatch.setattr(schmidt.HankelKernel, "_apply", nan_after(1, True))
    with pytest.raises(np.linalg.LinAlgError, match=message):
        decompose(_one_sided_kernel(sys, make_grid(0.0, 10.0, 0.5)), rank=4, vectors=vectors)
    # Phi's recurrence calls only A conj(q): its second product is not finite (beta_2)
    calls.clear()
    monkeypatch.setattr(schmidt.HankelKernel, "_apply", nan_after(2, False))
    op = optimal_state_operator(sys, make_grid(sys.omega_f / 2.0, 10.0, 0.5))
    with pytest.raises(np.linalg.LinAlgError,
                       match="Lanczos tridiagonalization broke down at step 2"):
        decompose(op, rank=4, vectors=vectors)
    assert calls == [False, False]


@pytest.mark.parametrize("structured", [False, True], ids=["sampled", "operator"])
def test_default_rank_is_the_full_spectrum_at_any_size(monkeypatch, structured):
    # the default-rank crossover belongs to solver_rank; decompose(rank=None) never truncates
    monkeypatch.setattr(schmidt, "DENSE_MAX_NODES", 10)
    op, oracle = _structured_and_oracle(False)
    d = decompose(op if structured else oracle)
    assert d.method == "dense" and d.coefficients.size == op.shape[0]
    assert d.coefficients.size > schmidt.DENSE_MAX_NODES


def test_values_only_bounds_match_full_decomposition():
    sys = LevelSystem(delta_detuning=7.0, delta_deviation=-1.5)
    grid = make_grid(0.0, 40.0, 0.2)
    d = asymmetric_decomposition(sys, grid)
    assert d.method == "dense" and d.coefficients.size == grid.count
    e_inf, s_inf = asymptotic_bounds(sys, grid)
    # the defaults: the library's bounds grid at the rank solver_rank gives
    q_grid = schmidt.bounds_grid(sys)
    assert asymptotic_bounds(sys) == asymptotic_bounds(sys, q_grid,
                                                       rank=solver_rank(q_grid.count))
    assert e_inf == pytest.approx(2.0 / d.coefficients[0] ** 2, rel=1e-12)
    assert s_inf == pytest.approx(1.0 + entropy(d), abs=1e-9)
    # the real-arithmetic solve of Q against the complex SVD of its matrix
    c = decompose(_one_sided_kernel(sys, grid).to_dense(), vectors=False)
    assert e_inf == pytest.approx(2.0 / c.coefficients[0] ** 2, rel=1e-12)
    assert s_inf == pytest.approx(1.0 + entropy(c), abs=1e-10)


def _bounds_of(d):
    return 2.0 * quantum_enhancement(d), 1.0 + entropy(d)


@pytest.mark.parametrize("dev", [-1.9, -1.76, 0.0, 2.0])
def test_gram_bounds_match_values_only_decomposition(monkeypatch, dev):
    sys = LevelSystem(delta_detuning=3.0, delta_deviation=dev)
    grid = schmidt.bounds_grid(sys)
    q = _one_sided_kernel(sys, grid)
    with monkeypatch.context() as m:  # the full spectrum comes from the Gram eigenvalues
        m.setattr(schmidt, "decompose", None)
        e_inf, s_inf = asymptotic_bounds(sys, grid)
    e_ref, s_ref = _bounds_of(decompose(q, vectors=False))
    assert e_inf == pytest.approx(e_ref, rel=1e-13, abs=0)
    assert s_inf == pytest.approx(s_ref, rel=0, abs=1e-10)
    assert "%.9g %.9g" % (e_inf, s_inf) == "%.9g %.9g" % (e_ref, s_ref)
    # an explicit rank keeps the truncated solve
    assert asymptotic_bounds(sys, grid, rank=40) == _bounds_of(decompose(q, rank=40,
                                                                         vectors=False))


def test_bounds_of_a_kernel_not_centro_hermitian_take_the_complex_svd(monkeypatch):
    sys = LevelSystem(delta_deviation=-1.76)
    grid = schmidt.bounds_grid(sys)
    e_gram, s_gram = asymptotic_bounds(sys, grid)
    monkeypatch.setattr(schmidt, "CENTRO_HERMITIAN_RTOL", 0.0)
    assert not _one_sided_kernel(sys, grid).centro_hermitian
    solved = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        solved.append((a.dtype, a.shape))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    e_inf, s_inf = asymptotic_bounds(sys, grid)
    assert solved == [(np.dtype(complex), (grid.count, grid.count))]
    assert e_inf == pytest.approx(e_gram, rel=1e-12, abs=0)
    assert s_inf == pytest.approx(s_gram, rel=0, abs=1e-12)


def test_structured_kernel_checks_memory_before_allocating():
    sys = LevelSystem()
    with pytest.raises(ValueError, match="physical memory"):
        optimal_state_operator(sys, make_grid(0.0, 400.0, 1e-4))


@pytest.mark.parametrize("dev", [-1.9, -1.76, -0.5, 1.0])
def test_one_sided_kernel_is_centro_hermitian(dev):
    sys = LevelSystem(delta_detuning=4.0, delta_deviation=dev)
    assert _one_sided_kernel(sys, schmidt.bounds_grid(sys)).centro_hermitian


def test_centro_hermitian_detection():
    sys = LevelSystem(delta_deviation=-1.2)
    grid = make_grid(sys.omega_f / 2.0, 30.0, 0.25)
    assert optimal_state_operator(sys, grid).centro_hermitian  # Delta = 0
    detuned = LevelSystem(delta_detuning=0.1, delta_deviation=-1.2)
    assert not optimal_state_operator(detuned, grid).centro_hermitian
    q = _one_sided_kernel(sys, grid)
    diag = q.diag.copy()
    diag[3] *= 1.0 + 1e-8
    assert not schmidt.HankelKernel(q.grid1, q.grid2, diag, q.hankel, False).centro_hermitian


def _centro_hermitian_kernels():
    """Q/sqrt(N/2) and Phi at zero detuning, both centro-Hermitian, on small grids."""
    sys = LevelSystem(delta_deviation=-1.5)
    q = _one_sided_kernel(sys, make_grid(0.0, 40.0, 0.2))
    phi = optimal_state_operator(sys, make_grid(sys.omega_f / 2.0, 30.0, 0.25))
    return {"q": q, "phi": phi}


@pytest.mark.parametrize("name", ["q", "phi"])
@pytest.mark.parametrize("vectors", [False, True], ids=["values", "vectors"])
def test_real_arithmetic_solve_matches_complex_svd(name, vectors):
    op = _centro_hermitian_kernels()[name]
    assert op.centro_hermitian
    a = op.to_dense().entries
    s = np.linalg.svd(a, compute_uv=False)
    d = decompose(op, vectors=vectors)
    assert d.method == ("dense" if vectors else "dense_values")
    assert np.max(np.abs(d.coefficients - s)) <= 1e-13 * s[0]
    assert d.residual == 0.0  # a full dense spectrum discards nothing
    if vectors:
        assert np.max(np.abs(reconstruct(d) - a)) < 1e-12
        w = quadrature_weights(d.grid1)
        for modes in (d.modes_1, d.modes_2):
            gram = np.einsum("kn,n,ln->kl", np.conj(modes), w, modes)
            assert np.max(np.abs(gram - np.eye(len(s)))) < 1e-10


def test_mirror_tie_phase_anchor_is_stable():
    # two entries of equal magnitude, as every mode of a centro-Hermitian kernel has
    rng = np.random.default_rng(5)
    u = 0.3 * (rng.standard_normal((9, 1)) + 1j * rng.standard_normal((9, 1))) / 2.0
    u[2, 0], u[6, 0] = np.exp(0.3j), np.exp(-1.1j)
    fixed = []
    for sign in (1.0, -1.0):
        up = u.copy()
        up[2, 0] *= 1.0 + sign * 1e-15
        up[6, 0] *= 1.0 - sign * 1e-15
        vh = np.ones((1, 9), complex)
        schmidt._fix_mode_phases(up, vh)
        assert up[2, 0].real > 0 and abs(up[2, 0].imag) <= 1e-15
        fixed.append(up)
    assert np.max(np.abs(fixed[0] - fixed[1])) < 1e-14


@pytest.mark.parametrize("rank, method", [(None, "dense_values"), (8, "hankel_lanczos")])
def test_schmidt_point_row_and_single_report(tmp_path, rank, method):
    sys = LevelSystem(delta_detuning=5.0, delta_deviation=-1.5)
    grid = {"half": 20.0, "step": 0.5}
    d, row = schmidt_point(sys, rank, **grid)
    np.testing.assert_array_equal(optimal_state_schmidt(sys, rank, **grid).coefficients,
                                  d.coefficients)
    auto = schmidt.auto_grid(sys, **grid)  # the values-only solve on the auto grid
    ref = decompose(optimal_state_operator(sys, auto), rank=solver_rank(auto.count, rank),
                    vectors=False)
    np.testing.assert_array_equal(d.coefficients, ref.coefficients)
    assert d.modes_1.shape == d.modes_2.shape == (0, ref.grid1.count)  # modes=0: none
    r1 = float(ref.coefficients[0])
    assert d.method == method and d.grid1 == ref.grid1
    assert row == {"r1": r1, "r1_squared": r1**2, "entropy_bits": entropy(ref),
                   "quantum_enhancement": quantum_enhancement(ref),
                   "rank": solver_rank(ref.grid1.count, rank), **solver_stats(ref)}
    # a single `tpaopt schmidt` point reports the same numbers, with its modes or without
    argv = ["schmidt", "--delta", "5", "--grid-half-width", "20", "--step", "0.5"]
    argv += [] if rank is None else ["--rank", str(rank)]
    reports = {}
    for fmt in ("json", "both"):
        assert main(argv + ["--dev", "-1.5", "--format", fmt, "--out", str(tmp_path / fmt)]) == 0
        with open(tmp_path / fmt / "report.json") as fh:
            reports[fmt] = json.load(fh)
    results, diagnostics = reports["json"]["results"], reports["json"]["diagnostics"]
    assert (results["r"][0], results["r_squared"][0]) == (row["r1"], row["r1_squared"])
    for key in ("entropy_bits", "quantum_enhancement"):
        assert results[key] == row[key]
    for key in ("rank", "method", "n", "k", "captured_norm"):
        assert diagnostics[key] == row[key]
    assert reports["both"]["results"] == results
    assert reports["both"]["diagnostics"] == diagnostics
    table = (tmp_path / "both" / "schmidt_coefficients.csv").read_text().splitlines()[1:]
    assert [line.split(",")[1] for line in table] == ["%.9g" % x for x in results["r"]]
    # and so does the same point as a sweep row
    assert main(argv + ["--sweep", "dev", "-1.5", "-1", "2", "--format", "json", "--out",
                        str(tmp_path / "sweep")]) == 0
    with open(tmp_path / "sweep" / "report.json") as fh:
        swept = json.load(fh)["results"]["rows"][0]
    assert swept["value"] == -1.5
    assert swept["r1"] == results["r"][0]
    for key in ("entropy_bits", "quantum_enhancement"):
        assert swept[key] == results[key]


@pytest.mark.parametrize("delta, rank, modes", [
    (3.0, None, 2),  # a dense point: values-only solve, pairs from a rank-2 solve
    (0.0, None, 6),  # centro-Hermitian: the reference runs in real arithmetic
    (5.0, 8, 4),     # an explicit rank: the same rule, pairs from a rank-4 solve
])
def test_point_modes_are_the_leading_pairs(delta, rank, modes):
    sys = LevelSystem(delta_detuning=delta, delta_deviation=-1.5)
    grid = {"half": 40.0, "step": 0.25}
    d, row = schmidt_point(sys, rank, modes, **grid)
    assert len(d.modes_1) == len(d.modes_2) == modes
    op = optimal_state_operator(sys, d.grid1)
    # bit for bit the solve that produced them
    lead = decompose(op, rank=modes)
    np.testing.assert_array_equal(d.modes_1, lead.modes_1)
    np.testing.assert_array_equal(d.modes_2, lead.modes_2)
    # the full dense SVD's leading pairs, with the same phase convention
    full = decompose(op)
    for got, ref in ((d.modes_1, full.modes_1[:modes]), (d.modes_2, full.modes_2[:modes])):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        gram = np.einsum("kn,n,ln->kl", np.conj(got), quadrature_weights(d.grid1), got)
        assert np.max(np.abs(gram - np.eye(modes))) < 1e-12
    # the row is the values-only solve's, as without modes
    d0, row0 = schmidt_point(sys, rank, **grid)
    np.testing.assert_array_equal(d.coefficients, d0.coefficients)
    assert row == row0


def test_point_writes_no_mode_of_a_roundoff_coefficient():
    # Delta = delta = 0: Phi has rank one, so one pair however many are asked for
    sys = LevelSystem()
    d, _ = schmidt_point(sys, None, 4, half=40.0, step=0.5)
    assert np.sum(d.coefficients > schmidt.COEFFICIENT_FLOOR) == 1
    assert d.modes_1.shape == d.modes_2.shape == (1, 161)
    with pytest.raises(ValueError, match="modes must be >= 0"):
        schmidt_point(sys, None, -1, half=40.0, step=0.5)


def test_point_builds_one_grid_kernel_and_rank(monkeypatch):
    # the values-only solve and the rank-2 mode solve run on the same kernel
    calls = {"auto_grid": 0, "optimal_state_operator": 0, "solver_rank": 0}
    for name in calls:
        def counted(*args, _name=name, _call=getattr(schmidt, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(schmidt, name, counted)
    sys = LevelSystem(delta_detuning=5.0, delta_deviation=-1.5)
    d, row = schmidt_point(sys, None, 2, half=40.0, step=0.25)
    assert calls == {"auto_grid": 1, "optimal_state_operator": 1, "solver_rank": 1}
    assert len(d.modes_1) == 2 and row["rank"] is None and d.method == "dense_values"


def test_truncated_solve_never_scans_for_centro_hermitian_symmetry(monkeypatch):
    scans, mirror = [], schmidt._mirror_conjugate
    monkeypatch.setattr(schmidt, "_mirror_conjugate", lambda x: scans.append(x.size) or mirror(x))
    sys = LevelSystem(delta_deviation=-1.5)  # Delta = 0: centro-Hermitian
    op = optimal_state_operator(sys, make_grid(sys.omega_f / 2.0, 30.0, 0.25))
    for vectors in (False, True):
        assert decompose(op, rank=4, vectors=vectors).method == "hankel_lanczos"
    assert scans == []
    assert op.centro_hermitian and op.centro_hermitian
    assert scans == [op.diag.size, op.hankel.size]  # on the first read only


def test_missing_modes_raise_value_error():
    op, _ = _structured_and_oracle(False)
    d = decompose(op, rank=8, vectors=False)
    with pytest.raises(ValueError, match="lacks the leading mode pair"):
        optimal_separable(d)
    with pytest.raises(ValueError, match="lacks modes: 0 mode pairs for 8 coefficients"):
        reconstruct(d)
    sys = LevelSystem(delta_detuning=5.0, delta_deviation=-1.5)
    d2, _ = schmidt_point(sys, None, 2, half=20.0, step=0.5)
    with pytest.raises(ValueError, match="lacks modes: 2 mode pairs for 81 coefficients"):
        reconstruct(d2)
    optimal_separable(d2)  # the leading pair is all it needs
