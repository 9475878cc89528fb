import dataclasses
import types

import tpaopt

PUBLIC_NAMES = [
    "AsymmetricSchmidt", "CwSpdc", "FrequencyGrid", "HankelKernel", "KernelMatrix",
    "LevelSystem", "PumpShaped", "ResponseOptions", "SchmidtDecomposition", "ShapingSolution",
    "asymmetric_decomposition", "asymptotic_bounds", "auto_grid", "chirped_pump_profile",
    "choose_solver", "complex_normal_cdf", "decompose", "default_grid", "effective_response",
    "entropy", "eta_gaussian_pm", "eta_infinite_pm", "gaussian_profile",
    "kernel_marginal_single", "kernel_marginal_sum", "lineshape", "make_grid",
    "marginal_single", "marginal_sum", "normalization", "optimal_pump_shaper",
    "optimal_separable", "optimal_slm", "optimal_state_kernel", "optimal_state_operator",
    "optimal_state_schmidt", "pairing_check", "pump_minus_grid", "pump_plus_grid",
    "quadrature_weights", "quantum_enhancement", "reconstruct", "response_asymmetric",
    "response_finite", "response_infinite", "sample_kernel", "schmidt_point",
    "shaped_population", "slm_grid", "slm_shaped_population", "solver_rank", "solver_stats",
    "stationarity_residual", "write_kernel_csv",
]


def test_public_names_are_pinned():
    exported = {name for name, value in vars(tpaopt).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(exported) == PUBLIC_NAMES


def test_level_system_fields_are_pinned():
    # the frequency origin and the coupling constant cancel in every output: not fields
    fields = tuple(f.name for f in dataclasses.fields(tpaopt.LevelSystem))
    assert fields == ("gamma_e", "delta_detuning", "delta_deviation")
