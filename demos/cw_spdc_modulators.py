"""
Shaping cw-pumped photon pairs with identical modulators
========================================================

A narrowband cw pump pins the frequency sum of a down-converted pair, so
the joint amplitude reduces to a single-photon Gaussian profile of the
offset from half the pump frequency.  Two identical diagonal modulators
can only imprint a spectral phase; the optimum cancels the phase of the
effective response W(Omega) = G(Omega) T(w_p/2 + Omega, w_p/2 - Omega),
lifting the population from |int W|^2 to (int |W|)^2.
"""

# %%
import numpy as np

from tpaopt import (
    CwSpdc,
    LevelSystem,
    optimal_slm,
    slm_shaped_population,
    stationarity_residual,
)

# %%
# With no detuning the effective response is real: nothing to compensate.
sol0 = optimal_slm(LevelSystem(), CwSpdc(sigma=1.0))
print(f"Delta = 0: E_opt = {sol0.e_opt:.8f}")

# %%
# With detuning, shaping pays off once the photon bandwidth covers the
# detuning; beyond that the gain saturates.
sys = LevelSystem(delta_detuning=5.0)
print("sigma    E_opt    p_shaped/N   p_unshaped/N")
for sigma in (0.05, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
    sol = optimal_slm(sys, CwSpdc(sigma=sigma))
    print(f"{sigma:5.2f} {sol.e_opt:8.4f} {sol.p_shaped:12.6f} {sol.p_unshaped:12.6f}")

# %%
# The optimization ratio is blind to the final-state width: the pump line
# already pins the frequency sum.
for dev in (-1.9, -1.0, 0.5):
    sys_d = LevelSystem(delta_detuning=5.0, delta_deviation=dev)
    print(f"delta = {dev:5.2f}: E_opt = {optimal_slm(sys_d, CwSpdc(sigma=5.0)).e_opt:.9f}")

# %%
# No unit-modulus phase mask can beat the optimum (a Hoelder bound); random
# masks fall well short.
rng = np.random.default_rng(1)
sol = optimal_slm(sys, CwSpdc(sigma=5.0))
best_random = max(
    slm_shaped_population(sys, sol.response_nodes, sol.grid,
                          np.exp(1j * rng.uniform(-np.pi, np.pi, sol.grid.count)),
                          np.exp(1j * rng.uniform(-np.pi, np.pi, sol.grid.count)))
    for _ in range(200)
)
print(f"best of 200 random masks: {best_random:.6f}  vs optimum {sol.p_shaped:.6f}")

# %%
# The solution satisfies its variational fixed-point equation; poking the
# phase at one node breaks stationarity immediately.  The residual is derived
# from the phases, so the poked copy's own poked.residual is this value too;
# no level system enters, since the normalization cancels in it.
import dataclasses

print(f"stationarity residual at the optimum: {sol.residual:.2e}")
phases = sol.phase_nodes.copy()
phases[np.argmax(np.abs(sol.response_nodes))] += 0.3
poked = dataclasses.replace(sol, phase_nodes=phases)
print(f"after a 0.3 rad single-node kick:     "
      f"{stationarity_residual(poked):.2e}")
