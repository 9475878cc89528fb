import dataclasses
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from conftest import contour_normal_cdf
from tpaopt import (
    CwSpdc,
    LevelSystem,
    PumpShaped,
    chirped_pump_profile,
    complex_normal_cdf,
    effective_response,
    eta_gaussian_pm,
    eta_infinite_pm,
    gaussian_profile,
    make_grid,
    optimal_pump_shaper,
    optimal_slm,
    pump_minus_grid,
    response_infinite,
    sample_kernel,
    shaped_population,
    slm_shaped_population,
    stationarity_residual,
)
from tpaopt import shaping
from tpaopt.grids import _strip_step


# ---------------------------------------------------------------------------
# effective responses


def test_cw_response_is_real_multiple_of_profile_at_zero_detuning():
    sys = LevelSystem()
    state = CwSpdc(sigma=1.0)
    om = np.linspace(-4.0, 4.0, 41)
    w = effective_response(sys, state, om)
    expected_shape = gaussian_profile(1.0)(om) / (om**2 + 1.0)
    ratio = w / expected_shape
    assert np.max(np.abs(w.imag)) < 1e-14 * np.max(np.abs(w))
    assert np.all(w.real > 0)
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)


def test_cw_response_symmetric():
    sys = LevelSystem(delta_detuning=5.0, delta_deviation=-1.0)
    state = CwSpdc(sigma=2.0)
    grid = make_grid(0.0, 20.0, 0.05)
    w = effective_response(sys, state, grid.nodes)
    np.testing.assert_allclose(w, w[::-1], rtol=1e-12, atol=1e-300)


def test_pump_response_reduces_to_half_kernel():
    sys = LevelSystem(delta_detuning=1.0, delta_deviation=-0.3)
    state = PumpShaped(sigma=1.0, infinite_pm=True)
    wp, wm = 2.3, -0.9
    w = effective_response(sys, state, (wp, wm))
    t = response_infinite(sys, (wp + wm) / 2.0, (wp - wm) / 2.0)
    assert w == pytest.approx(0.5 * t * chirped_pump_profile(1.0, 0.0, sys.omega_f)(wp),
                              rel=1e-14)


def test_effective_response_argument_validation():
    sys = LevelSystem()
    with pytest.raises(ValueError):
        effective_response(sys, CwSpdc(sigma=1.0), (0.1, 0.2))
    with pytest.raises(ValueError):
        effective_response(sys, PumpShaped(sigma=1.0, infinite_pm=True), 0.1)
    with pytest.raises(ValueError):
        effective_response(sys, "not a state", 0.1)


def test_input_state_validation():
    with pytest.raises(ValueError):
        CwSpdc(sigma=0.0)
    with pytest.raises(ValueError):
        PumpShaped(sigma=1.0)  # no zeta, no infinite_pm
    with pytest.raises(ValueError):
        PumpShaped(sigma=1.0, zeta=-2.0)
    with pytest.raises(ValueError, match="zeta has no effect with infinite_pm"):
        PumpShaped(sigma=1.0, zeta=5.0, infinite_pm=True)


@pytest.mark.parametrize("gamma_e, delta, zeta", [
    (1.0, 5.0, 2.0),     # the detuning sets the reach, gamma_e the step
    (0.5, 0.0, 100.0),   # a wide phase-matching profile sets the reach
    (1.0, 1.0, 0.3),     # a narrow one sets the step
])
def test_pump_minus_grid_covers_its_documented_range(gamma_e, delta, zeta):
    sys = LevelSystem(gamma_e=gamma_e, delta_detuning=delta)
    reach = max(10.0 * zeta, 20.0 * gamma_e * (2.0 + delta))
    grid = pump_minus_grid(sys, PumpShaped(sigma=1.0, zeta=zeta))
    assert grid.center == pytest.approx(0.0, abs=1e-12 * grid.max)
    assert grid.min == pytest.approx(-grid.max, rel=1e-12)
    assert grid.max >= reach * (1.0 - 1e-12)
    assert grid.step <= min(gamma_e, zeta) / 10.0
    # flat phase matching has no zeta: gamma_e stands in for it
    flat = pump_minus_grid(sys, PumpShaped(sigma=1.0, infinite_pm=True))
    assert flat == pump_minus_grid(sys, PumpShaped(sigma=1.0, zeta=gamma_e))


@pytest.mark.parametrize("delta, state, half, step, count", [
    (3.0, PumpShaped(sigma=1.0, zeta=2.0), 100.0, 0.1, 2001),         # 20 gamma_e (2 + Delta)
    (0.0, PumpShaped(sigma=1.0, infinite_pm=True), 40.0, 0.1, 801),  # gamma_e stands in for zeta
    (-1.5, PumpShaped(sigma=1.0, zeta=0.5), 10.0, 0.05, 401),        # a narrow zeta sets the step
    (-1.9, PumpShaped(sigma=1.0, zeta=1.0), 10.0, 0.1, 201),         # 10 zeta sets the reach
])
def test_pump_minus_grid_pins_its_rule(delta, state, half, step, count):
    grid = pump_minus_grid(LevelSystem(delta_detuning=delta), state)
    assert (grid.min, grid.max, grid.step) == pytest.approx((-half, half, step), rel=1e-12)
    assert grid.count == count


@pytest.mark.parametrize("gamma_e, delta, sigma", [
    (1.0, 5.0, 2.0),   # gamma_e sets the step
    (0.5, 5.0, 0.2),   # a narrow profile sets it
    (2.0, 50.0, 50.0),
])
def test_slm_grid_default_step_is_the_strip_step(gamma_e, delta, sigma):
    sys, state = LevelSystem(gamma_e=gamma_e, delta_detuning=delta), CwSpdc(sigma=sigma)
    grid = shaping.slm_grid(sys, state)
    assert grid.step == _strip_step(min(gamma_e, sigma))
    assert grid.count % 2 == 1 and grid.center == 0.0 and grid.min == -grid.max
    assert grid.max >= max(10.0 * sigma, abs(sys.omega_f / 2.0) + 30.0 * gamma_e)
    # explicit values win
    given = shaping.slm_grid(sys, state, half=40.0, step=0.04)
    assert (given.step, given.count) == (0.04, 2001)


@pytest.mark.parametrize("delta, dev, sigma", [
    (5.0, -1.0, 5.0), (0.5, -1.9, 0.5), (50.0, 0.0, 50.0), (5.0, -1.0, 0.2)])
def test_slm_default_step_matches_a_four_times_finer_grid(delta, dev, sigma):
    sys, state = LevelSystem(delta_detuning=delta, delta_deviation=dev), CwSpdc(sigma=sigma)
    grid = shaping.slm_grid(sys, state)
    coarse = optimal_slm(sys, state)
    fine = optimal_slm(sys, state, shaping.slm_grid(sys, state, step=grid.step / 4.0))
    assert coarse.e_opt == pytest.approx(fine.e_opt, rel=1e-14)
    assert coarse.p_unshaped == pytest.approx(fine.p_unshaped, rel=1e-14)


def test_slm_rejects_off_centre_grid():
    sys = LevelSystem(delta_detuning=2.0)
    with pytest.raises(ValueError, match="zero-centred offset grid"):
        optimal_slm(sys, CwSpdc(sigma=1.0), make_grid(1.0, 5.0, 0.1))


# ---------------------------------------------------------------------------
# optimal identical modulators (cw-SPDC)


def test_slm_nothing_to_optimize_at_zero_detuning():
    sys = LevelSystem()
    for sigma in (0.5, 5.0):
        sol = optimal_slm(sys, CwSpdc(sigma=sigma))
        assert abs(sol.e_opt - 1.0) <= 1e-6


def test_slm_narrow_photons_barely_improve():
    sys = LevelSystem(delta_detuning=5.0)
    sol = optimal_slm(sys, CwSpdc(sigma=0.05))
    assert sol.e_opt <= 1.05


def test_slm_saturates_beyond_detuning_bandwidth():
    sys = LevelSystem(delta_detuning=5.0)
    e = {s: optimal_slm(sys, CwSpdc(sigma=s)).e_opt for s in (1.0, 5.0, 50.0)}
    assert e[5.0] > e[1.0]
    assert e[50.0] >= e[5.0] - 1e-6


def test_slm_ratio_independent_of_deviation():
    vals = []
    for dev in (-1.9, -1.0, 0.5):
        sys = LevelSystem(delta_detuning=5.0, delta_deviation=dev)
        vals.append(optimal_slm(sys, CwSpdc(sigma=5.0)).e_opt)
    assert max(vals) - min(vals) <= 1e-9


def test_phase_condition_identity_mod_2pi():
    # at the optimum F(w1) + F(w2) matches the response phase wherever the
    # response is not negligible (w2 is the mirrored offset here)
    sys = LevelSystem(delta_detuning=4.0, delta_deviation=-0.5)
    sol = optimal_slm(sys, CwSpdc(sigma=3.0))
    w = sol.response_nodes
    keep = np.abs(w) > 1e-12 * np.max(np.abs(w))
    total = sol.phase_nodes + sol.phase_nodes[::-1]
    mismatch = np.angle(np.exp(1j * (total - np.angle(w))))
    assert np.max(np.abs(mismatch[keep])) < 1e-12


def test_slm_shaper_unit_modulus():
    sys = LevelSystem(delta_detuning=5.0)
    sol = optimal_slm(sys, CwSpdc(sigma=5.0))
    assert np.max(np.abs(np.abs(sol.shaper()) - 1.0)) <= 1e-12


def test_slm_populations_ordered():
    sys = LevelSystem(delta_detuning=3.0, delta_deviation=-1.2)
    sol = optimal_slm(sys, CwSpdc(sigma=2.0))
    assert sol.p_shaped >= sol.p_unshaped - 1e-12
    assert sol.e_opt >= 1.0 - 1e-9


def test_hoelder_bound_and_equality_at_optimum():
    rng = np.random.default_rng(42)
    sys = LevelSystem(delta_detuning=4.0, delta_deviation=-0.8)
    sol = optimal_slm(sys, CwSpdc(sigma=3.0))
    grid, w_resp = sol.grid, sol.response_nodes
    for _ in range(20):
        m1 = np.exp(1j * rng.uniform(-np.pi, np.pi, grid.count))
        m2 = np.exp(1j * rng.uniform(-np.pi, np.pi, grid.count))
        p = slm_shaped_population(sys, w_resp, grid, m1, m2)
        assert p <= sol.p_shaped + 1e-9
    m_opt = sol.shaper()
    p_opt = slm_shaped_population(sys, w_resp, grid, m_opt, m_opt)
    assert p_opt == pytest.approx(sol.p_shaped, rel=1e-10)
    p_flat = slm_shaped_population(sys, w_resp, grid, np.ones(grid.count), np.ones(grid.count))
    assert p_flat == pytest.approx(sol.p_unshaped, rel=1e-10)


def test_shaped_population_rejects_non_unitary_samples():
    sys = LevelSystem(delta_detuning=2.0)
    sol = optimal_slm(sys, CwSpdc(sigma=1.0))
    bad = np.full(sol.grid.count, 0.5 + 0j)
    with pytest.raises(ValueError):
        slm_shaped_population(sys, sol.response_nodes, sol.grid, bad, bad)


def test_shaped_population_2d_consistent_with_reduced_pump_form():
    sys = LevelSystem(delta_detuning=1.0, delta_deviation=-0.5)
    state = PumpShaped(sigma=2.0, phi=1.0, zeta=3.0)
    sol = optimal_pump_shaper(sys, state)
    grid_plus = sol.grid
    grid_diff = make_grid(0.0, 60.0, 0.05)
    kernel = sample_kernel(
        lambda wp, wm: effective_response(sys, state, (wp, wm)),
        grid_plus, grid_diff,
    )
    m1 = sol.shaper()
    ones = np.ones(grid_diff.count)
    p2d = shaped_population(sys, kernel, m1, ones)
    assert p2d == pytest.approx(sol.p_shaped, rel=1e-6)
    p2d_flat = shaped_population(sys, kernel, np.ones(grid_plus.count), ones)
    assert p2d_flat == pytest.approx(sol.p_unshaped, rel=1e-6)


# ---------------------------------------------------------------------------
# integrated kernels and the complex distribution function


def test_eta_infinite_pm_matches_quadrature():
    sys = LevelSystem(delta_detuning=3.0, delta_deviation=-0.7)

    def integrand(part, wp):
        def f(y):
            t = response_infinite(sys, (wp + y) / 2.0, (wp - y) / 2.0)
            return getattr(0.5 * t, part)
        return f

    for wp in (sys.omega_f, sys.omega_f + 0.37, sys.omega_f - 2.0):
        re, _ = integrate.quad(integrand("real", wp), -np.inf, np.inf, limit=400)
        im, _ = integrate.quad(integrand("imag", wp), -np.inf, np.inf, limit=400)
        closed = eta_infinite_pm(sys, wp)
        assert abs((re + 1j * im) - closed) < 1e-8 * abs(closed)


def test_eta_gaussian_pm_matches_quadrature():
    sys = LevelSystem(delta_detuning=3.0, delta_deviation=-0.7)
    zeta = 2.5
    y = np.arange(-4000.0, 4000.0001, 0.05)
    w = np.full(y.size, 0.05)
    w[0] = w[-1] = 0.025
    for wp in (sys.omega_f + 0.37, sys.omega_f - 1.1):
        t = response_infinite(sys, (wp + y) / 2.0, (wp - y) / 2.0)
        beta_pk = np.exp(-(y**2) / (2 * zeta**2))
        quad = 0.5 * np.sum(w * beta_pk * t)
        closed = eta_gaussian_pm(sys, wp, zeta, peak_normalized=True)
        assert abs(quad - closed) < 1e-9 * abs(closed)
        closed_l2 = eta_gaussian_pm(sys, wp, zeta)
        assert closed_l2 == pytest.approx(closed / (np.pi * zeta**2) ** 0.25, rel=1e-12)


def test_eta_gaussian_consistent_with_normal_cdf_form():
    sys = LevelSystem(delta_detuning=2.0, delta_deviation=-1.0)
    zeta = 4.0
    wp = np.linspace(sys.omega_f - 5, sys.omega_f + 5, 11)
    chi = wp + 2j * sys.gamma_e
    beta_at_chi = np.exp(-(chi**2) / (2 * zeta**2))
    expected = 2.0 * eta_infinite_pm(sys, wp) * beta_at_chi * complex_normal_cdf(1j * chi / zeta)
    got = eta_gaussian_pm(sys, wp, zeta, peak_normalized=True)
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_eta_converges_to_flat_phase_matching():
    sys = LevelSystem()
    wp = np.linspace(-1.5, 1.5, 7)
    eta_inf = eta_infinite_pm(sys, wp)
    dev = np.abs(eta_gaussian_pm(sys, wp, 1e5, peak_normalized=True) / eta_inf - 1.0)
    assert np.max(dev) < 3e-5  # first-order rate: 2|chi| / (sqrt(2 pi) zeta)


def test_complex_normal_cdf_basics():
    assert complex_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert complex_normal_cdf(30.0).real == pytest.approx(1.0, abs=1e-15)
    assert abs(complex_normal_cdf(-30.0)) < 1e-100
    with pytest.raises(ValueError):
        complex_normal_cdf(1e9)
    with pytest.raises(ValueError):
        complex_normal_cdf(40j)


def test_complex_normal_cdf_against_contour_oracle():
    pts = [1 + 1j, -2 + 0.5j, 0.5 - 4j, 3 + 3j, -1 - 1j, 2 + 20j]
    for z in pts:
        ref = contour_normal_cdf(z)
        got = complex_normal_cdf(z)
        assert abs(got - ref) <= 1e-11 * abs(ref)


def _ring(rng, scale, count):
    """count points of modulus about scale, spread over the upper half-plane."""
    r = scale * np.sqrt(rng.uniform(0.5, 1.5, count))
    return r * np.exp(1j * rng.uniform(0.0, np.pi, count))


def _assert_relative(got, ref, rtol=1e-13):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= rtol * np.abs(ref))


@pytest.mark.parametrize("scale", 10.0 ** np.arange(-3.0, 8.5, 0.5))
def test_faddeeva_matches_scipy_wofz(scale):
    rng = np.random.default_rng(int(100 * np.log10(scale)) + 300)
    upper = _ring(rng, scale, 2000)
    near = upper.real + 1j * scale * 1e-6 * rng.uniform(0.0, 1.0, upper.size)
    for z in (upper, near):  # every caller's argument has Im z >= 0
        _assert_relative(shaping._faddeeva(z), special.wofz(z))
    _assert_relative(shaping._faddeeva(np.array([scale, -scale, 1j * scale])),
                     special.wofz(np.array([scale, -scale, 1j * scale])))


def test_eta_gaussian_pm_matches_scipy_wofz_far_from_the_line():
    sys = LevelSystem(delta_detuning=50.0, delta_deviation=-1.9)
    wp = np.linspace(sys.omega_f - 400.0, sys.omega_f + 400.0, 1601)
    for zeta in (0.05, 1.0, 1e3):
        chi = wp + 2j * sys.gamma_e
        ref = eta_infinite_pm(sys, wp) * special.wofz(chi / (np.sqrt(2.0) * zeta))
        _assert_relative(eta_gaussian_pm(sys, wp, zeta, peak_normalized=True), ref)


def test_complex_normal_cdf_matches_scipy_erfc_on_its_domain():
    rng = np.random.default_rng(36)
    x = rng.choice([-1.0, 1.0], 20000) * 10.0 ** rng.uniform(-3.0, 8.0, 20000)
    y = rng.uniform(-36.0, 36.0, 20000)
    edges = np.array([0.0, 36j, -36j, 1e8, -1e8, 1e8 + 36j, -1e8 - 36j, 5.0 + 36j, -5.0 + 36j])
    z = np.concatenate((x + 1j * y, x, 1j * y, edges))
    _assert_relative(complex_normal_cdf(z), 0.5 * special.erfc(-z / np.sqrt(2.0)))


def test_complex_normal_cdf_returns_python_complex_for_scalars():
    for z in (0.3, 0.3 + 0.2j, np.float64(-2.0), np.array(1.5 - 4j)):
        got = complex_normal_cdf(z)
        assert type(got) is complex
        assert got == pytest.approx(0.5 * special.erfc(-complex(z) / np.sqrt(2.0)), rel=1e-13)
    assert isinstance(complex_normal_cdf([0.3]), np.ndarray)


@pytest.mark.parametrize("z", [36.000001j, -36.000001j, 1.0000001e8, -1.0000001e8 + 1j,
                               np.array([0.0, 40j])])
def test_complex_normal_cdf_refuses_outside_its_domain(z):
    with pytest.raises(ValueError, match=r"outside validated domain \|Im z\| <= 36.0, "
                                         r"\|Re z\| <= 1e\+08"):
        complex_normal_cdf(z)


# ---------------------------------------------------------------------------
# pump shaping


def test_pump_narrow_bandwidth_nothing_to_gain():
    sys = LevelSystem()
    sol = optimal_pump_shaper(sys, PumpShaped(sigma=sys.gamma_f / 100.0, infinite_pm=True))
    assert sol.e_opt <= 1.01


def test_pump_chirp_pays_off_at_large_bandwidth():
    sys = LevelSystem()
    wide = optimal_pump_shaper(sys, PumpShaped(sigma=5.0, phi=1.0, infinite_pm=True))
    narrow = optimal_pump_shaper(sys, PumpShaped(sigma=0.5, phi=1.0, infinite_pm=True))
    assert wide.e_opt > narrow.e_opt > 1.0


@pytest.mark.xfail(strict=True, reason="pump_plus_grid's step min(sigma, gamma_f)/25 ignores "
                   "the chirp, whose local frequency phi x reaches about 5 phi sigma")
def test_default_pump_grid_resolves_a_strong_chirp():
    # (Delta, delta, phi) = (5, 1.5, 3) at sigma = auto_pump_sigma, flat phase matching: the
    # default 1501-node grid is off by 7.0e-2 relative; step/8 and step/16 agree to 1e-13
    sys = LevelSystem(delta_detuning=5.0, delta_deviation=1.5)
    state = PumpShaped(sigma=shaping.auto_pump_sigma(sys), phi=3.0, infinite_pm=True)
    grid = shaping.pump_plus_grid(sys, state)
    fine = shaping.pump_plus_grid(sys, state, step=grid.step / 16.0)
    assert optimal_pump_shaper(sys, state, grid).e_opt == pytest.approx(
        optimal_pump_shaper(sys, state, fine).e_opt, rel=1e-9)


@pytest.mark.parametrize("solve", [
    # a pump grid 200 pump widths off resonance, where the Gaussian amplitude underflows to 0
    lambda sys: optimal_pump_shaper(sys, PumpShaped(sigma=1.0, infinite_pm=True),
                                    make_grid(sys.omega_f + 200.0, 1.0, 0.5)),
], ids=["pump"])
def test_vanishing_amplitude_reports_infinite_ratio(solve):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = solve(LevelSystem(delta_detuning=2.0))
    assert [str(w.message) for w in caught] == [
        "unshaped population vanishes; optimization ratio reported as inf"]
    assert sol.p_shaped == sol.p_unshaped == 0.0
    assert sol.e_opt == np.inf
    assert sol.residual == 0.0  # both sides of the fixed-point equation vanish


# ---------------------------------------------------------------------------
# stationarity


def test_residual_vanishes_at_optimum():
    sys = LevelSystem(delta_detuning=5.0)
    slm = optimal_slm(sys, CwSpdc(sigma=5.0))
    assert slm.residual <= 1e-6
    sys2 = LevelSystem(delta_deviation=-1.0)
    pump = optimal_pump_shaper(sys2, PumpShaped(sigma=2.0, phi=1.0, infinite_pm=True))
    assert pump.residual <= 1e-6


def test_residual_detects_perturbation():
    sys = LevelSystem(delta_detuning=5.0)
    state = CwSpdc(sigma=5.0)
    sol = optimal_slm(sys, state)
    assert sol.residual < 1e-12  # read, so cached, before the copy is made
    phases = sol.phase_nodes.copy()
    phases[np.argmax(np.abs(sol.response_nodes))] += 0.3
    poked = dataclasses.replace(sol, phase_nodes=phases)
    # the copy derives its own residual; a stored one would be the optimum's, about 3.5e-15
    assert poked.residual == stationarity_residual(poked) > 1e-3


def test_residual_detects_pump_perturbation():
    sys = LevelSystem(delta_deviation=-1.0)
    state = PumpShaped(sigma=2.0, phi=1.0, infinite_pm=True)
    sol = optimal_pump_shaper(sys, state)
    assert sol.residual < 1e-12
    phases = sol.phase_nodes.copy()
    phases[np.argmax(np.abs(sol.response_nodes))] += 0.3
    poked = dataclasses.replace(sol, phase_nodes=phases)
    assert poked.residual == stationarity_residual(poked) > 1e-3


def test_solution_is_frozen_and_derives_its_residual():
    sol = optimal_slm(LevelSystem(delta_detuning=5.0), CwSpdc(sigma=5.0))
    assert "residual" not in {f.name for f in dataclasses.fields(sol)}
    with pytest.raises(dataclasses.FrozenInstanceError):
        sol.phase_nodes = sol.phase_nodes + 0.3
