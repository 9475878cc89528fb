"""
Shaping the pump of a down-conversion source
============================================

With a finite-bandwidth pump, the pair amplitude factorizes into
alpha(w1 + w2) beta(w1 - w2).  Shaping the pump acts on the sum frequency
only; the optimal phase cancels the argument of xi(w+), the effective
response integrated over the difference frequency.  A chirped pump is the
textbook case: the shaper simply undoes the chirp where it hurts.
"""

# %%
import numpy as np

from tpaopt import (
    LevelSystem,
    PumpShaped,
    complex_normal_cdf,
    eta_gaussian_pm,
    eta_infinite_pm,
    optimal_pump_shaper,
)

# %%
# A pump much narrower than the two-photon line sees a constant phase:
# nothing to gain.
sys = LevelSystem()
narrow = optimal_pump_shaper(sys, PumpShaped(sigma=0.02, infinite_pm=True))
print(f"narrow pump: E_opt = {narrow.e_opt:.6f}")

# %%
# A chirp phi imprints a quadratic phase.  For wide pumps it twists xi(w+)
# into oscillations that the shaper unwinds.
print("sigma   E_opt (phi=0)   E_opt (phi=1)")
for sigma in (0.5, 2.0, 5.0):
    e0 = optimal_pump_shaper(sys, PumpShaped(sigma=sigma, phi=0.0, infinite_pm=True)).e_opt
    e1 = optimal_pump_shaper(sys, PumpShaped(sigma=sigma, phi=1.0, infinite_pm=True)).e_opt
    print(f"{sigma:5.1f} {e0:12.4f} {e1:15.4f}")

# %%
# Finite Gaussian phase matching of width zeta suppresses large frequency
# differences.  The integrated kernel has a closed form built from the
# normal distribution function continued to complex argument.
zeta = 3.0
wp = sys.omega_f + 0.7
chi = wp + 2j * sys.gamma_e
closed = eta_gaussian_pm(sys, wp, zeta, peak_normalized=True)
via_cdf = 2 * eta_infinite_pm(sys, wp) * np.exp(-chi**2 / (2 * zeta**2)) \
    * complex_normal_cdf(1j * chi / zeta)
print(f"eta (Faddeeva form):       {closed:.6f}")
print(f"eta (distribution form):   {via_cdf:.6f}")
print(f"flat-phase-matching limit: {eta_infinite_pm(sys, wp):.6f}")

# %%
# Matching the pump width to the two-photon line (sigma = 3 gamma_f) and
# the phase matching to the detuning (zeta = gamma_e (2 + Delta)):
print("Delta  delta   E_opt   residual")
for delta, dev in ((0.5, -1.9), (2.0, -1.0), (5.0, -1.9)):
    s = LevelSystem(delta_detuning=delta, delta_deviation=dev)
    state = PumpShaped(sigma=3.0 * s.gamma_f, phi=1.0,
                       zeta=s.gamma_e * (2.0 + delta))
    sol = optimal_pump_shaper(s, state)
    print(f"{delta:5.1f} {dev:6.1f} {sol.e_opt:8.4f} {sol.residual:10.2e}")
