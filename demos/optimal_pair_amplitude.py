"""
The optimal photon-pair amplitude and its marginals
===================================================

A three-level ladder |g> -> |e> -> |f> with decay rates gamma_e and gamma_f
absorbs a photon pair through the kernel T(w1, w2).  The pair amplitude
that maximizes the final-state population is conj(T)/sqrt(N).  This script
walks through the kernel, its normalization, and the closed-form frequency
marginals.  Internal units: gamma_e = 1, frequencies counted from omega_e, unit
line strengths.
"""

# %%
import numpy as np

from tpaopt import (
    LevelSystem,
    ResponseOptions,
    default_grid,
    marginal_single,
    marginal_sum,
    normalization,
    optimal_state_kernel,
    response_finite,
    response_infinite,
)

# A strongly detuned, narrow final state: Delta = 5, delta = -1.9.
sys = LevelSystem(delta_detuning=5.0, delta_deviation=-1.9)
print(f"gamma_f = {sys.gamma_f:.2f}, omega_f = {sys.omega_f:.2f}")

# %%
# The kernel concentrates on the anti-diagonal w1 + w2 = omega_f: the pair
# must jointly hit the two-photon resonance, while either photon alone can
# sit anywhere along the intermediate line.
for w1 in (0.0, 1.0, 2.5):
    on = abs(response_infinite(sys, w1, sys.omega_f - w1)) ** 2
    off = abs(response_infinite(sys, w1, sys.omega_f - w1 + 5 * sys.gamma_f)) ** 2
    print(f"w1 = {w1:4.1f}: |T|^2 on ridge / 5 widths off = {on / off:6.1f}")

# %%
# The closed-form normalization N = 2 pi^2 / (gamma_e gamma_f) is the
# maximal population; the reference grid captures at least 99 percent of it.
kernel = optimal_state_kernel(sys, default_grid(sys))
print(f"N (closed form)      = {normalization(sys):.4f}")
print(f"grid-captured norm^2 = {kernel.frobenius_norm2():.4f}")

# %%
# Frequency marginals of the normalized amplitude: the sum frequency is a
# Lorentzian of width gamma_f at omega_f; a single photon shows two peaks,
# one per transition, at 0 and omega_f.
w = np.array([0.0, 2.5, 5.0])
print("p_sum at omega_f, peak height 1/(pi gamma_f):",
      marginal_sum(sys, sys.omega_f), 1 / (np.pi * sys.gamma_f))
print("p_1 at the two lines and the valley between:", marginal_single(sys, w))

# %%
# Switching the interaction on at t0 builds the kernel up over a few
# intermediate-state lifetimes.
for tau in (0.0, 0.5, 2.0, 10.0, 50.0):
    opts = ResponseOptions(t_minus_t0=tau)
    val = response_finite(sys, opts, 0.0, sys.omega_f)
    ref = response_infinite(sys, 0.0, sys.omega_f)
    print(f"t - t0 = {tau:5.1f}: |T_finite / T_infinite| = {abs(val / ref):.6f}")
