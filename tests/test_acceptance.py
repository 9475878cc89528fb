"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria marked by their number run at their stated tolerances; every
expected value is either an anchored reference number, an independently
computed oracle (brute-force quadrature, contour integration, synthetic
spectra), or a self-consistency identity between two code paths.
"""

import dataclasses

import numpy as np

from conftest import (
    contour_normal_cdf,
    quad_marginal_single,
    quad_marginal_sum,
    synthetic_decomposition,
)
from tpaopt import (
    CwSpdc,
    LevelSystem,
    PumpShaped,
    asymmetric_decomposition,
    auto_grid,
    complex_normal_cdf,
    decompose,
    default_grid,
    entropy,
    eta_gaussian_pm,
    eta_infinite_pm,
    make_grid,
    marginal_single,
    marginal_sum,
    optimal_pump_shaper,
    optimal_slm,
    optimal_state_kernel,
    quantum_enhancement,
    slm_shaped_population,
    stationarity_residual,
)


def _report(number, ok, detail):
    print(f"ACCEPTANCE C{number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_c01_fig3_reproduction():
    # squared Schmidt coefficients on the exact reference grid
    sys = LevelSystem(delta_detuning=100.0, delta_deviation=-1.5)
    grid = make_grid(0.0, 500.0, 0.25)
    d = decompose(optimal_state_kernel(sys, grid), rank=60)
    lam1, lam2 = float(d.coefficients[0] ** 2), float(d.coefficients[1] ** 2)
    ok = abs(lam1 - 0.272557) <= 5e-4 and abs(lam2 - 0.272348) <= 5e-4
    _report(1, ok, f"r1^2={lam1:.6f} (ref 0.272557), r2^2={lam2:.6f} (ref 0.272348), "
                   f"grid [-500, 500] step 0.25, rank 60")


def test_c02_norm_capture():
    worst = (None, 1.0)
    for delta in (0.1, 1.0, 5.0):
        for dev in (-1.9, -1.0, 0.0):
            sys = LevelSystem(delta_detuning=delta, delta_deviation=dev)
            norm2 = optimal_state_kernel(sys, default_grid(sys)).frobenius_norm2()
            if norm2 < worst[1]:
                worst = ((delta, dev), norm2)
            if norm2 < 0.99:
                _report(2, False, f"norm^2={norm2:.4f} at (Delta, delta)={delta, dev}")
    _report(2, True, f"discretized norm^2 >= 0.99 on all 9 points "
                     f"(minimum {worst[1]:.4f} at {worst[0]})")


def test_c03_separable_point():
    sys = LevelSystem(delta_detuning=0.0, delta_deviation=0.0)
    d = decompose(optimal_state_kernel(sys, default_grid(sys)), rank=8, renormalize=True)
    lam1 = float(d.coefficients[0] ** 2)
    s_bits = entropy(d)
    e_q = quantum_enhancement(d)
    ok = lam1 >= 0.999 and s_bits <= 0.02 and e_q <= 1.01
    _report(3, ok, f"renormalized r1^2={lam1:.6f} (>= 0.999), S={s_bits:.4f} bits (<= 0.02), "
                   f"E_q={e_q:.4f} (<= 1.01)")


def test_c04_asymptotic_identities():
    sys = LevelSystem(delta_detuning=100.0, delta_deviation=-1.5)
    grid = make_grid(0.0, 500.0, 0.5)
    # matched truncation: the pairing maps the one-sided kernel's top m
    # coefficients onto the symmetric kernel's top 2m
    d_sym = decompose(optimal_state_kernel(sys, grid), rank=400)
    d_asym = asymmetric_decomposition(sys, grid, rank=200)
    e_q = quantum_enhancement(d_sym)
    e_a = 1.0 / d_asym.coefficients[0] ** 2
    s_sym = entropy(d_sym)
    s_a = entropy(d_asym)
    rel_e = abs(e_q - 2.0 * e_a) / (2.0 * e_a)
    diff_s = abs(s_sym - (1.0 + s_a))

    s_vec = np.array([0.7, 0.5, np.sqrt(1 - 0.49 - 0.25)])
    paired = np.repeat(s_vec / np.sqrt(2.0), 2)
    synth = abs(entropy(synthetic_decomposition(paired))
                - (1.0 + entropy(synthetic_decomposition(s_vec))))

    ok = rel_e <= 0.02 and diff_s <= 0.02 and synth <= 1e-12
    _report(4, ok, f"E_q={e_q:.4f} vs 2 E_a={2 * e_a:.4f} (rel {rel_e:.2e} <= 2e-2), "
                   f"S={s_sym:.4f} vs 1+S_a={1 + s_a:.4f} (|diff| {diff_s:.3f} <= 0.02), "
                   f"synthetic pairing identity {synth:.1e} <= 1e-12")


def test_c05_closed_form_marginals():
    # oracle: brute-force quadrature of |Phi|^2 on wide fine auxiliary grids,
    # evaluated at the reference-grid nodes
    sys = LevelSystem(delta_detuning=5.0, delta_deviation=-1.9)
    grid = default_grid(sys)
    nodes = grid.nodes
    err1 = np.max(np.abs(quad_marginal_single(sys, nodes) - marginal_single(sys, nodes)))
    wp = (2 * grid.min) + grid.step * np.arange(2 * grid.count - 1)
    err_sum = np.max(np.abs(quad_marginal_sum(sys, wp) - marginal_sum(sys, wp)))

    zero = LevelSystem()
    w = np.linspace(-50.0, 50.0, 2001)
    lorentz = zero.gamma_e / (np.pi * (w**2 + zero.gamma_e**2))
    err_l = np.max(np.abs(marginal_single(zero, w) - lorentz))

    ok = err1 <= 1e-3 and err_sum <= 1e-3 and err_l <= 1e-6
    _report(5, ok, f"max |p1 - closed form| = {err1:.2e} (<= 1e-3), "
                   f"max |p_sum - closed form| = {err_sum:.2e} (<= 1e-3), "
                   f"zero-detuning Lorentzian deviation {err_l:.2e} (<= 1e-6)")


def test_c06_slm_anchors():
    flat = [optimal_slm(LevelSystem(), CwSpdc(sigma=s)).e_opt for s in (0.5, 1.0, 5.0)]
    ok_flat = all(abs(e - 1.0) <= 1e-6 for e in flat)

    sys5 = LevelSystem(delta_detuning=5.0)
    narrow = optimal_slm(sys5, CwSpdc(sigma=0.05)).e_opt
    e_match = optimal_slm(sys5, CwSpdc(sigma=5.0)).e_opt
    e_wide = optimal_slm(sys5, CwSpdc(sigma=50.0)).e_opt

    devs = [optimal_slm(LevelSystem(delta_detuning=5.0, delta_deviation=dv),
                        CwSpdc(sigma=5.0)).e_opt for dv in (-1.9, -1.0, 0.0, 0.5)]
    spread = max(devs) - min(devs)

    ok = (ok_flat and narrow <= 1.05 and e_wide >= e_match - 1e-6 and spread <= 1e-9)
    _report(6, ok, f"E_opt(Delta=0)={[f'{e:.8f}' for e in flat]} (= 1 +- 1e-6), "
                   f"narrow-bandwidth E_opt={narrow:.4f} (<= 1.05), "
                   f"saturation {e_wide:.4f} >= {e_match:.4f} - 1e-6, "
                   f"deviation spread {spread:.1e} (<= 1e-9)")


def test_c07_hoelder_optimality():
    rng = np.random.default_rng(2024)
    n_trials = 0
    worst_excess = -np.inf
    worst_eq = 0.0
    for _ in range(10):
        delta = 10 ** rng.uniform(-1, np.log10(50))
        dev = rng.uniform(-1.9, 1.0)
        sigma = 10 ** rng.uniform(np.log10(0.5), np.log10(5.0))
        sys = LevelSystem(delta_detuning=delta, delta_deviation=dev)
        sol = optimal_slm(sys, CwSpdc(sigma=sigma))
        for _ in range(10):
            m1 = np.exp(1j * rng.uniform(-np.pi, np.pi, sol.grid.count))
            m2 = np.exp(1j * rng.uniform(-np.pi, np.pi, sol.grid.count))
            p = slm_shaped_population(sys, sol.response_nodes, sol.grid, m1, m2)
            worst_excess = max(worst_excess, p - sol.p_shaped)
            n_trials += 1
        m_opt = sol.shaper()
        p_opt = slm_shaped_population(sys, sol.response_nodes, sol.grid, m_opt, m_opt)
        worst_eq = max(worst_eq, abs(p_opt - sol.p_shaped) / sol.p_shaped)
    ok = worst_excess <= 1e-9 and worst_eq <= 1e-10
    _report(7, ok, f"{n_trials} random unit-modulus shaper pairs: max excess over the "
                   f"shaped bound {worst_excess:.2e} (<= 1e-9); optimal-phase equality "
                   f"residual {worst_eq:.2e} (<= 1e-10 relative)")


def test_c08_pump_anchors():
    sys0 = LevelSystem()
    narrow = optimal_pump_shaper(sys0, PumpShaped(sigma=sys0.gamma_f / 100.0,
                                                  infinite_pm=True))
    ok_narrow = narrow.e_opt <= 1.01

    ratios = [narrow.e_opt]
    for phi, sigma, zeta in ((0.0, 1.0, None), (1.0, 5.0, None), (1.0, 0.5, 4.0)):
        state = PumpShaped(sigma=sigma, phi=phi, zeta=zeta, infinite_pm=zeta is None)
        ratios.append(optimal_pump_shaper(sys0, state).e_opt)
    ok_floor = all(r >= 1.0 - 1e-9 for r in ratios)

    # pointwise convergence of the Gaussian-phase-matching kernel to the flat
    # one at zeta = 1e3 gamma_e; the first-order Faddeeva term sets a floor
    # 2|chi| / (sqrt(2 pi) zeta) >= 1.6e-3 at this zeta, so the stated 1e-3
    # bound cannot be met (see the convergence check at larger zeta in the
    # unit suite)
    wp = np.linspace(-0.06, 0.06, 13)  # pump bandwidth sigma = gamma_f/100
    dev_eta = np.max(np.abs(eta_gaussian_pm(sys0, wp, 1e3, peak_normalized=True)
                            / eta_infinite_pm(sys0, wp) - 1.0))
    ok_eta = dev_eta <= 1e-3

    cdf_points = [
        0.0, 0.5, -0.5, 1.0, -2.5, 3.0,
        1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j,
        2 + 3j, -2 + 3j, 0.5 - 4j, 3 + 1j, -3 + 0.5j,
        5j, -5j, 2 + 20j, -1 + 10j, 0.25 + 0.75j,
    ]
    worst_cdf = max(abs(complex_normal_cdf(z) - contour_normal_cdf(z))
                    / abs(contour_normal_cdf(z)) for z in cdf_points)
    ok_cdf = worst_cdf <= 1e-10

    ok = ok_narrow and ok_floor and ok_eta and ok_cdf
    _report(8, ok, f"narrow-pump E_opt={narrow.e_opt:.6f} (<= 1.01): {ok_narrow}; "
                   f"E_opt >= 1 - 1e-9 on all solutions: {ok_floor}; "
                   f"eta(zeta=1e3) deviation {dev_eta:.2e} (<= 1e-3): {ok_eta}; "
                   f"distribution function vs contour oracle on {len(cdf_points)} points, "
                   f"worst {worst_cdf:.2e} (<= 1e-10): {ok_cdf}")


def test_c09_stationarity_residuals():
    sys = LevelSystem(delta_detuning=5.0)
    state = CwSpdc(sigma=5.0)
    slm = optimal_slm(sys, state)

    sys_p = LevelSystem(delta_deviation=-1.0)
    state_p = PumpShaped(sigma=2.0, phi=1.0, infinite_pm=True)
    pump = optimal_pump_shaper(sys_p, state_p)

    phases = slm.phase_nodes.copy()
    phases[np.argmax(np.abs(slm.response_nodes))] += 0.3
    poked = dataclasses.replace(slm, phase_nodes=phases)
    perturbed = stationarity_residual(poked)

    ok = slm.residual <= 1e-6 and pump.residual <= 1e-6 and perturbed > 1e-3
    _report(9, ok, f"slm residual {slm.residual:.2e} (<= 1e-6), "
                   f"pump residual {pump.residual:.2e} (<= 1e-6), "
                   f"0.3 rad single-node perturbation -> {perturbed:.2e} (> 1e-3)")


def test_c10_monotone_sweep():
    s_vals, e_vals = [], []
    for delta in (0.1, 1.0, 10.0, 100.0):
        sys = LevelSystem(delta_detuning=delta, delta_deviation=-1.9)
        grid = auto_grid(sys)
        rank = None if grid.count <= 600 else 300
        d = decompose(optimal_state_kernel(sys, grid), rank=rank)
        s_vals.append(entropy(d))
        e_vals.append(quantum_enhancement(d))
    ok_s = all(b >= a - 1e-3 for a, b in zip(s_vals, s_vals[1:]))
    ok_e = all(b >= a - 1e-3 for a, b in zip(e_vals, e_vals[1:]))
    ok = ok_s and ok_e
    _report(10, ok, f"S={[f'{v:.3f}' for v in s_vals]} non-decreasing: {ok_s}; "
                    f"E_q={[f'{v:.3f}' for v in e_vals]} non-decreasing: {ok_e} "
                    f"(tolerance 1e-3)")
