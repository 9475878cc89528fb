"""
Schmidt structure, entanglement entropy, and quantum enhancement
================================================================

Decomposing the discretized optimal pair amplitude gives its Schmidt
coefficients r_k.  The entanglement entropy S = -sum r_k^2 log2 r_k^2
quantifies the frequency correlations, and E_q = 1/r_1^2 is the yield
advantage of the entangled optimum over the best separable pair.
"""

# %%
import numpy as np

from tpaopt import (
    LevelSystem,
    asymptotic_bounds,
    decompose,
    entropy,
    make_grid,
    optimal_separable,
    optimal_state_kernel,
    optimal_state_operator,
    pairing_check,
    quantum_enhancement,
    schmidt_point,
)

# %%
# At Delta = delta = 0 the kernel factorizes: one Schmidt mode, no
# entanglement, no advantage.
sys0 = LevelSystem()
d0 = decompose(optimal_state_kernel(sys0, make_grid(0.0, 200.0, 0.5)),
               rank=4, renormalize=True)
print(f"separable point: r1^2 = {d0.coefficients[0]**2:.6f}, "
      f"S = {entropy(d0):.4f} bits, E_q = {quantum_enhancement(d0):.4f}")

# %%
# Detuning and a narrow final state entangle the optimum.  Sweep the
# detuning at delta = -1.9, on the library's grid and solver policy:
print("Delta      S [bits]    E_q")
for delta in (0.1, 1.0, 10.0, 100.0):
    row = schmidt_point(LevelSystem(delta_detuning=delta, delta_deviation=-1.9))[1]
    print(f"{delta:6.1f} {row['entropy_bits']:10.3f} {row['quantum_enhancement']:10.3f}")

# %%
# At large detuning the coefficients come in near-degenerate pairs: either
# photon can open the transition, and the two orderings decouple.  On this
# 2001-node grid the kernel stays matrix-free, as in `schmidt_point`.
sys_far = LevelSystem(delta_detuning=100.0, delta_deviation=-1.5)
grid_far = make_grid(0.0, 500.0, 0.5)
phi_far = optimal_state_operator(sys_far, grid_far)
d_far = decompose(phi_far, rank=12)
r = d_far.coefficients
print("leading coefficients:", np.round(r[:6], 6))
print(f"largest relative pair gap: {pairing_check(d_far):.2e}")

# %%
# The large-detuning bounds follow from the one-sided kernel (photon 1
# opens, photon 2 closes): E_inf = 2/s_1^2 and S_inf = 1 + S_a.  They do
# not depend on the detuning itself.  The entropy needs the deep tail of
# the spectrum, hence the larger rank here.
d_deep = decompose(phi_far, rank=400)
e_inf, s_inf = asymptotic_bounds(sys_far, grid_far, rank=200)
print(f"E_inf = {e_inf:.4f} (measured E_q at Delta=100: {quantum_enhancement(d_deep):.4f})")
print(f"S_inf = {s_inf:.4f} (measured S   at Delta=100: {entropy(d_deep):.4f})")

# %%
# The best separable pair is the conjugated leading mode pair; it reaches a
# fraction r_1^2 of the optimal yield.
m1, m2 = optimal_separable(d_far)
print(f"separable yield fraction r1^2 = {r[0]**2:.4f} "
      f"(1/E_q = {1 / quantum_enhancement(d_far):.4f})")
