import numpy as np
import pytest
from scipy import integrate

from tpaopt import (
    CwSpdc,
    LevelSystem,
    PumpShaped,
    ResponseOptions,
    asymptotic_bounds,
    default_grid,
    lineshape,
    marginal_single,
    marginal_sum,
    normalization,
    optimal_pump_shaper,
    optimal_slm,
    optimal_state_kernel,
    response_asymmetric,
    response_finite,
    response_infinite,
    schmidt_point,
)


def test_lineshape_on_resonance_real_positive():
    sys = LevelSystem()
    val = lineshape(sys, "e", 0.0)
    assert val.imag == pytest.approx(0.0, abs=1e-15)
    assert val.real == pytest.approx(1.0)  # 1 / gamma_e: unit line strength


def test_lineshape_tail_decays_monotonically():
    sys = LevelSystem()
    offsets = np.array([0.5, 1.0, 3.0, 10.0, 100.0])
    mags = np.abs(lineshape(sys, "e", offsets))
    assert np.all(np.diff(mags) < 0)
    assert mags[-1] < 1e-1 * mags[0]


def test_lineshape_half_width():
    sys = LevelSystem()
    ratio = abs(lineshape(sys, "e", 1.0)) ** 2 / abs(lineshape(sys, "e", 0.0)) ** 2
    assert ratio == pytest.approx(0.5, rel=1e-12)


def test_lineshape_rejects_unknown_level():
    with pytest.raises(ValueError):
        lineshape(LevelSystem(), "g", 0.0)


def test_level_system_validation():
    with pytest.raises(ValueError):
        LevelSystem(gamma_e=0.0)
    with pytest.raises(ValueError):
        LevelSystem(delta_deviation=-2.0)
    for field in ("gamma_e", "delta_detuning", "delta_deviation"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=field):
                LevelSystem(**{field: bad})
    with pytest.raises(ValueError):
        ResponseOptions(t_minus_t0=-1.0)


def test_double_resonance_is_peak():
    sys = LevelSystem()  # Delta = delta = 0
    peak = abs(response_infinite(sys, 0.0, 0.0))
    rng = np.random.default_rng(7)
    pts = rng.uniform(-5, 5, size=(50, 2))
    others = np.abs(response_infinite(sys, pts[:, 0], pts[:, 1]))
    assert np.all(others <= peak + 1e-15)


def test_exchange_symmetry_exact():
    sys = LevelSystem(delta_detuning=2.3, delta_deviation=-0.7)
    rng = np.random.default_rng(11)
    a = rng.uniform(-30, 30, 100)
    b = rng.uniform(-30, 30, 100)
    t_ab = response_infinite(sys, a, b)
    t_ba = response_infinite(sys, b, a)
    assert np.all(t_ab == t_ba)


def test_antidiagonal_concentration():
    # |T|^2 falls off along the frequency sum with the final-state width
    sys = LevelSystem(delta_detuning=5.0, delta_deviation=-1.9)
    wf, gf = sys.omega_f, sys.gamma_f
    on = abs(response_infinite(sys, 0.0, wf)) ** 2
    off_one_width = abs(response_infinite(sys, 0.0, wf + gf)) ** 2
    far = abs(response_infinite(sys, 0.0, wf + 20 * gf)) ** 2
    assert off_one_width / on == pytest.approx(0.5, rel=0.15)
    assert far / on < 0.01


def test_composition_identity():
    sys = LevelSystem(delta_detuning=4.0, delta_deviation=-1.2)
    rng = np.random.default_rng(3)
    a = rng.uniform(-20, 20, 100)
    b = rng.uniform(-20, 20, 100)
    lhs = response_asymmetric(sys, a, b) + response_asymmetric(sys, b, a)
    assert np.all(lhs == response_infinite(sys, a, b))
    # and both agree with the direct product form
    direct = (lineshape(sys, "e", a) + lineshape(sys, "e", b)) * lineshape(sys, "f", a + b)
    np.testing.assert_allclose(lhs, direct, rtol=1e-13)


def test_asymmetric_kernel_not_symmetric():
    sys = LevelSystem(delta_detuning=3.0)
    assert response_asymmetric(sys, 1.0, 2.0) != response_asymmetric(sys, 2.0, 1.0)


def test_asymmetric_kernel_top_left_peak():
    # at large detuning Q occupies only the peak with photon 1 on the e line
    sys = LevelSystem(delta_detuning=100.0, delta_deviation=-1.5)
    top_left = abs(response_asymmetric(sys, 0.0, 100.0))
    bottom_right = abs(response_asymmetric(sys, 100.0, 0.0))
    # the magnitude ratio is |L_e(0) / L_e(Delta)| ~ Delta
    assert top_left > 50 * bottom_right


def test_finite_time_vanishes_at_t0():
    sys = LevelSystem(delta_detuning=1.0, delta_deviation=-0.5)
    opts = ResponseOptions(t_minus_t0=0.0)
    rng = np.random.default_rng(5)
    a = rng.uniform(-10, 10, 20)
    b = rng.uniform(-10, 10, 20)
    np.testing.assert_array_equal(response_finite(sys, opts, a, b), np.zeros(20))


def test_finite_time_reaches_infinite_limit():
    sys = LevelSystem(delta_detuning=2.0, delta_deviation=-1.0)
    opts = ResponseOptions(t_minus_t0=50.0)
    pts = [(0.0, sys.omega_f), (0.3, sys.omega_f - 0.3), (1.0, 1.5)]
    for a, b in pts:
        fin = response_finite(sys, opts, a, b)
        inf = response_infinite(sys, a, b)
        assert abs(fin - inf) / abs(inf) < 1e-6


def test_finite_time_symmetry():
    sys = LevelSystem(delta_detuning=1.7, delta_deviation=0.4)
    opts = ResponseOptions(t_minus_t0=0.8)
    rng = np.random.default_rng(13)
    a = rng.uniform(-5, 5, 50)
    b = rng.uniform(-5, 5, 50)
    np.testing.assert_allclose(response_finite(sys, opts, a, b),
                               response_finite(sys, opts, b, a), rtol=1e-13, atol=1e-18)


def test_normalization_closed_form():
    sys = LevelSystem(delta_deviation=-0.6)
    assert normalization(sys) == pytest.approx(2 * np.pi**2 / 1.4, rel=1e-14)


def test_normalization_independent_of_detuning():
    assert normalization(LevelSystem(delta_detuning=0.0)) == normalization(
        LevelSystem(delta_detuning=7.5))


def test_normalization_scales_with_final_width():
    # N proportional to 1/gamma_f, continuous in the deviation
    devs = np.array([-1.9, -1.0, 0.0, 1.0])
    vals = np.array([normalization(LevelSystem(delta_deviation=d)) for d in devs])
    np.testing.assert_allclose(vals * (2.0 + devs), vals[0] * 0.1, rtol=1e-13)


def test_normalized_outputs_do_not_depend_on_the_unit():
    # gamma_e is the frequency unit: with sigma and zeta in units of gamma_e and phi in
    # units of gamma_e^-2, every normalized output at fixed (Delta, delta) stays put; the
    # point runs the truncated solve on its default 1601-node grid, the bounds the full spectrum
    def outputs(g):
        sys = LevelSystem(gamma_e=g, delta_detuning=3.0, delta_deviation=-1.2)
        row = schmidt_point(sys, rank=16)[1]
        slm = optimal_slm(sys, CwSpdc(sigma=2.0 * g))
        pump = optimal_pump_shaper(sys, PumpShaped(sigma=1.5 * g, phi=0.7 / g**2, zeta=2.5 * g))
        return [row["quantum_enhancement"], row["entropy_bits"], *asymptotic_bounds(sys),
                slm.e_opt, pump.e_opt]

    reference = outputs(1.0)
    for g in (0.5, 2.0):
        np.testing.assert_allclose(outputs(g), reference, rtol=1e-12, atol=0)


def test_normalization_recovered_by_quadrature():
    # default grid captures at least 99 percent for small detuning and deviation in range
    for delta in (0.0, 5.0):
        for dev in (-1.9, -1.0, 0.0):
            sys = LevelSystem(delta_detuning=delta, delta_deviation=dev)
            norm2 = optimal_state_kernel(sys, default_grid(sys)).frobenius_norm2()
            assert norm2 >= 0.99, (delta, dev, norm2)


def test_marginal_sum_normalized_and_peaked():
    sys = LevelSystem(delta_detuning=5.0, delta_deviation=-1.9)
    val, _ = integrate.quad(lambda w: marginal_sum(sys, w), -np.inf, np.inf)
    assert val == pytest.approx(1.0, rel=1e-9)
    assert marginal_sum(sys, sys.omega_f) == pytest.approx(1.0 / (np.pi * sys.gamma_f), rel=1e-14)


def test_marginal_sum_concentrates_near_zero_final_width():
    sys = LevelSystem(delta_deviation=-1.999)
    peak = marginal_sum(sys, sys.omega_f)
    assert peak > 100.0  # 1/(pi gamma_f), gamma_f = 1e-3
    assert marginal_sum(sys, sys.omega_f + 0.5) / peak < 1e-4


def test_marginal_single_normalized():
    sys = LevelSystem(delta_detuning=5.0, delta_deviation=-1.9)
    val, _ = integrate.quad(lambda w: marginal_single(sys, w), -np.inf, np.inf, limit=200)
    assert val == pytest.approx(1.0, rel=1e-8)


def test_marginal_single_lorentzian_at_zero_detuning():
    sys = LevelSystem()
    w = np.linspace(-30, 30, 601)
    lorentz = 1.0 / (np.pi * (w**2 + 1.0))
    np.testing.assert_allclose(marginal_single(sys, w), lorentz, atol=1e-15)


def test_marginal_single_double_peaked():
    sys = LevelSystem(delta_detuning=5.0, delta_deviation=-1.9)
    p_e = marginal_single(sys, 0.0)
    p_f = marginal_single(sys, 5.0)
    valley = marginal_single(sys, 2.5)
    assert p_e > valley and p_f > valley


def test_quad_marginals_match_closed_forms_on_resolving_grid(request):
    # discrete-kernel marginalization is faithful once the grid resolves gamma_f
    from tpaopt import kernel_marginal_single, kernel_marginal_sum, make_grid

    sys = LevelSystem(delta_detuning=5.0, delta_deviation=-1.5)  # gamma_f = 0.5 = 2.5 steps
    grid = make_grid(sys.omega_f / 2.0, 100.0, 0.2)
    kernel = optimal_state_kernel(sys, grid)
    nodes, p1 = kernel_marginal_single(kernel)
    assert np.max(np.abs(p1 - marginal_single(sys, nodes))) < 1e-3
    wp, ps = kernel_marginal_sum(kernel)
    assert np.max(np.abs(ps - marginal_sum(sys, wp))) < 1e-3
