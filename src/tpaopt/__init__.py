"""Optimal two-photon states and pulse shaping for two-photon absorption.

A numerical library for a lossy three-level ladder driven by photon pairs:
closed-form response kernels and marginals, Schmidt analysis of the optimal
pair amplitude (entanglement entropy, quantum enhancement, large-detuning
bounds), and optimal diagonal pulse-shaping solutions for cw-SPDC pairs and
for chirped-pump down-conversion, with their variational residuals.
"""

from .response import (
    LevelSystem,
    ResponseOptions,
    lineshape,
    response_infinite,
    response_finite,
    response_asymmetric,
    normalization,
    marginal_sum,
    marginal_single,
)
from .grids import (
    FrequencyGrid,
    KernelMatrix,
    make_grid,
    quadrature_weights,
    sample_kernel,
    default_grid,
    auto_grid,
    kernel_marginal_single,
    kernel_marginal_sum,
    write_kernel_csv,
)
from .schmidt import (
    SchmidtDecomposition,
    AsymmetricSchmidt,
    HankelKernel,
    optimal_state_kernel,
    optimal_state_operator,
    choose_solver,
    solver_rank,
    decompose,
    optimal_state_schmidt,
    solver_stats,
    entropy,
    quantum_enhancement,
    schmidt_point,
    optimal_separable,
    asymmetric_decomposition,
    asymptotic_bounds,
    pairing_check,
    reconstruct,
)
from .shaping import (
    CwSpdc,
    PumpShaped,
    ShapingSolution,
    gaussian_profile,
    chirped_pump_profile,
    effective_response,
    slm_grid,
    pump_plus_grid,
    pump_minus_grid,
    optimal_slm,
    optimal_pump_shaper,
    eta_infinite_pm,
    eta_gaussian_pm,
    complex_normal_cdf,
    shaped_population,
    slm_shaped_population,
    stationarity_residual,
)

__version__ = "0.1.0"
