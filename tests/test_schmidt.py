import numpy as np
import pytest

from conftest import synthetic_decomposition
from tpaopt import (
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
    pairing_check,
    quadrature_weights,
    quantum_enhancement,
    reconstruct,
    response_asymmetric,
    sample_kernel,
)
from tpaopt import schmidt
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


def test_enhancement_trivial_spectra():
    two = synthetic_decomposition([1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert quantum_enhancement(two) == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(ValueError):
        quantum_enhancement(synthetic_decomposition([0.0]))


def test_requires_weight_embedded_kernel():
    g = make_grid(0.0, 5.0, 0.5)
    k = sample_kernel(lambda a, b: a * b + 0j, g, embed_weights=False)
    with pytest.raises(ValueError):
        decompose(k)


def test_rank_clipping_warns():
    g = make_grid(0.0, 2.0, 0.5)
    k = sample_kernel(lambda a, b: 1.0 / (a + b + 2j), g)
    with pytest.warns(RuntimeWarning):
        d = decompose(k, rank=99)
    assert d.truncation_rank == k.grid1.count


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


def test_spectrum_invariant_under_transpose():
    from tpaopt import KernelMatrix

    _, k = small_kernel(half=30.0, step=0.5)
    kt = KernelMatrix(k.grid2, k.grid1, np.ascontiguousarray(k.entries.T), True)
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
    assert d.grid1.center == pytest.approx(sys.omega_e)
    assert d.grid2.center == pytest.approx(sys.omega_f - sys.omega_e)


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


def _max_mode_gap(a, b):
    """Largest entry difference of two mode sets, each mode aligned in phase to its partner."""
    dots = np.sum(np.conj(a) * b, axis=1)
    return float(np.max(np.abs(a * (dots / np.abs(dots))[:, None] - b)))


@pytest.mark.parametrize("one_sided", [False, True], ids=["phi", "q"])
def test_structured_kernel_matches_sampled_oracle(one_sided):
    op, oracle = _structured_and_oracle(one_sided)
    a, lin = oracle.entries, op.as_operator()
    rng = np.random.default_rng(7)
    v = rng.standard_normal((a.shape[1], 3)) + 1j * rng.standard_normal((a.shape[1], 3))
    assert op.shape == a.shape
    assert np.max(np.abs(lin.matvec(v[:, 0]) - a @ v[:, 0])) < 1e-12
    assert np.max(np.abs(lin.matmat(v) - a @ v)) < 1e-12
    assert np.max(np.abs(lin.rmatvec(v[:, 1]) - np.conj(a.T) @ v[:, 1])) < 1e-12
    assert np.max(np.abs(lin.rmatmat(v) - np.conj(a.T) @ v)) < 1e-12
    assert op.frobenius_norm2() == pytest.approx(oracle.frobenius_norm2(), abs=1e-12)
    assert np.max(np.abs(op.to_dense().entries - a)) < 1e-12
    for rank in (8, None):
        d_op, d_oracle = decompose(op, rank=rank), decompose(oracle, rank=rank)
        assert d_op.method == ("hankel_arpack" if rank else "dense")
        np.testing.assert_allclose(d_op.coefficients, d_oracle.coefficients, rtol=0, atol=1e-12)
        assert d_op.residual == pytest.approx(d_oracle.residual, abs=1e-12 if rank else 1e-7)
        lead = slice(0, 8)  # trailing full-rank modes are not well defined
        assert _max_mode_gap(d_op.modes_1[lead], d_oracle.modes_1[lead]) < 1e-12
        assert _max_mode_gap(d_op.modes_2[lead], d_oracle.modes_2[lead]) < 1e-12


def test_values_only_decomposition_has_no_modes():
    op, _ = _structured_and_oracle(False)
    d = decompose(op, rank=8, vectors=False)
    assert d.modes_1.shape == (0, op.shape[0]) and d.coefficients.size == 8
    full = decompose(op, vectors=False)
    assert full.method == "dense_values" and full.coefficients.size == op.shape[0]


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
    assert e_inf == pytest.approx(2.0 / d.coefficients[0] ** 2, rel=1e-12)
    assert s_inf == pytest.approx(1.0 + entropy(d), abs=1e-9)
    # the real-arithmetic solve of Q against the complex SVD of its matrix
    c = decompose(_one_sided_kernel(sys, grid).to_dense(), vectors=False)
    assert e_inf == pytest.approx(2.0 / c.coefficients[0] ** 2, rel=1e-12)
    assert s_inf == pytest.approx(1.0 + entropy(c), abs=1e-10)


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
