"""Optimal diagonal pulse shaping of realistic photon-pair sources.

Given an input pair amplitude (a cw-pumped down-conversion pair shaped by
identical modulators, or a finite-bandwidth chirped pump shaped before
down-conversion), the effective response is the product of the input
amplitude and the matter kernel.  A diagonal unitary shaper can only add a
spectral phase; the optimum cancels the phase of the effective response,
turning the population integral into the integral of its modulus.  This
module builds the effective responses, the optimal phase functions, the
shaped/unshaped populations and their ratio, and verifies stationarity of
the solutions against the variational fixed-point equations.

All populations are reported in units of the maximal population N of the
ideal optimal pair.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .grids import (FrequencyGrid, KernelMatrix, _strip_step, check_fits, make_grid,
                    quadrature_weights)
from .response import LevelSystem, lineshape, normalization, response_infinite

__all__ = [
    "CwSpdc",
    "PumpShaped",
    "ShapingSolution",
    "gaussian_profile",
    "chirped_pump_profile",
    "effective_response",
    "slm_grid",
    "pump_plus_grid",
    "pump_minus_grid",
    "optimal_slm",
    "optimal_pump_shaper",
    "eta_infinite_pm",
    "eta_gaussian_pm",
    "complex_normal_cdf",
    "shaped_population",
    "slm_shaped_population",
    "stationarity_residual",
]

PSI_FLOOR = 1e-12      # nodes with |psi|^2 below this fraction of its max are excluded
UNIT_MODULUS_TOL = 1e-9
# slm_grid and pump_plus_grid refuse a grid if this many bytes per node exceed physical memory:
# tracemalloc peaks, at 2e5 and 8e5 nodes, of optimal_slm (125) and optimal_pump_shaper (133).
SHAPING_BYTES_PER_NODE = 133
# Weideman's rational series for the Faddeeva function: N terms, at the scale L = sqrt(N / sqrt 2).
WEIDEMAN_TERMS = 40


def gaussian_profile(sigma: float) -> Callable:
    """L2-normalized Gaussian of bandwidth sigma: integral of its square is 1."""
    if not sigma > 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")

    def g(x):
        return np.exp(-np.asarray(x) ** 2 / (2.0 * sigma**2)) / (np.pi * sigma**2) ** 0.25

    return g


def chirped_pump_profile(sigma: float, phi: float, center: float) -> Callable:
    """Chirped Gaussian pump amplitude: Gaussian envelope times exp(i phi (w - center)^2 / 2)."""
    env = gaussian_profile(sigma)

    def alpha(w):
        x = np.asarray(w) - center
        return env(x) * np.exp(0.5j * phi * x**2)

    return alpha


@dataclass(frozen=True)
class CwSpdc:
    """Degenerate photon pair from a cw pump, shaped by identical modulators.

    The pump line, at the two-photon resonance omega_f of the driven system,
    pins the frequency sum, so the pair amplitude reduces to a normalized
    Gaussian of bandwidth sigma in the offset from omega_f / 2.
    """

    sigma: float

    def __post_init__(self):
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")


@dataclass(frozen=True)
class PumpShaped:
    """Finite-bandwidth pump shaped before type-I down-conversion.

    The pair amplitude factorizes into alpha(w1 + w2) * beta(w1 - w2).
    alpha is a chirped Gaussian of bandwidth sigma and quadratic phase phi
    centred on the two-photon resonance, and beta is either flat
    (infinite_pm) or a normalized Gaussian phase-matching profile of width
    zeta.
    """

    sigma: float
    phi: float = 0.0
    zeta: float | None = None
    infinite_pm: bool = False

    def __post_init__(self):
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        for name in ("phi", "zeta"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.infinite_pm and self.zeta is not None:
            raise ValueError("zeta has no effect with infinite_pm (flat phase matching)")
        if not self.infinite_pm and (self.zeta is None or not self.zeta > 0):
            raise ValueError("finite phase matching requires zeta > 0 (or set infinite_pm)")


@dataclass(frozen=True)
class ShapingSolution:
    """Optimal diagonal-shaper solution on a grid.

    kind is "slm" (phase_nodes holds S/2 of the reduced effective response,
    response_nodes holds W(Omega, -Omega)) or "pump" (phase_nodes holds the
    phase of the integrated response xi(w+), response_nodes holds xi).
    Populations are in units of N; e_opt = p_shaped / p_unshaped.
    residual, computed from the fields on first read, is the stationarity residual of
    these phases: a copy with other phases (dataclasses.replace) reports its own.
    """

    kind: str
    grid: FrequencyGrid
    response_nodes: np.ndarray
    phase_nodes: np.ndarray
    p_shaped: float
    p_unshaped: float
    e_opt: float

    @cached_property
    def residual(self) -> float:
        return stationarity_residual(self)

    def shaper(self) -> np.ndarray:
        """Unit-modulus shaper samples exp(-i phase)."""
        return np.exp(-1j * self.phase_nodes)


def effective_response(sys: LevelSystem, state, at):
    """Product of the input pair amplitude and the matter kernel.

    For CwSpdc the pump line is resolved analytically and `at` is the
    single offset Omega (scalar or array); the value is the reduced
    W(Omega, -Omega).  For PumpShaped, `at` is a (w_plus, w_minus) pair and
    the value is alpha(w+) beta(w-) T((w+ + w-)/2, (w+ - w-)/2) / 2, the
    1/2 accounting for the rotated-coordinate Jacobian.
    """
    if isinstance(state, CwSpdc):
        if isinstance(at, tuple):
            raise ValueError("CwSpdc takes a single offset Omega, not a pair")
        om = np.asarray(at)
        g = gaussian_profile(state.sigma)(om)
        return g * response_infinite(sys, sys.omega_f / 2.0 + om, sys.omega_f / 2.0 - om)
    if isinstance(state, PumpShaped):
        if not (isinstance(at, tuple) and len(at) == 2):
            raise ValueError("PumpShaped takes a (w_plus, w_minus) pair")
        w_plus = np.asarray(at[0])
        w_minus = np.asarray(at[1])
        alpha = chirped_pump_profile(state.sigma, state.phi, sys.omega_f)(w_plus)
        if state.infinite_pm:
            beta = np.ones_like(w_minus, dtype=float)
        else:
            beta = gaussian_profile(state.zeta)(w_minus)
        t = response_infinite(sys, (w_plus + w_minus) / 2.0, (w_plus - w_minus) / 2.0)
        return 0.5 * alpha * beta * t
    raise ValueError(f"unsupported input state {type(state).__name__}")


def auto_slm_sigma(sys: LevelSystem) -> float:
    """Standard cw-SPDC bandwidth, matched to the detuning: sigma = Delta gamma_e."""
    if sys.delta_detuning <= 0:
        raise ValueError("--sigma auto needs a positive detuning (sigma = Delta gamma_e)")
    return sys.delta_detuning * sys.gamma_e


def auto_pump_sigma(sys: LevelSystem) -> float:
    """Standard pump bandwidth: sigma = 3 gamma_f."""
    return 3.0 * sys.gamma_f


def auto_pump_zeta(sys: LevelSystem) -> float:
    """Standard phase-matching width: zeta = gamma_e (2 + Delta)."""
    if sys.delta_detuning <= -2:
        raise ValueError("--zeta auto needs a detuning above -2 (zeta = gamma_e (2 + Delta))")
    return sys.gamma_e * (2.0 + sys.delta_detuning)


def slm_grid(sys: LevelSystem, state: CwSpdc, half: float | None = None,
             step: float | None = None) -> FrequencyGrid:
    """Default offset grid for the reduced cw-SPDC problem.

    Covers the Gaussian profile and the two single-photon poles, at 0 and
    omega_f, so at offsets +-omega_f/2, with a margin of 30 gamma_e.  The
    response W(Omega, -Omega) has no real zero, so it and its modulus are
    analytic in the strip |Im Omega| < d = min(gamma_e, sigma); the step is
    the one at which the trapezoidal rule's error there, about
    2 exp(-2 pi d / step), is TRAPEZOID_TOL: 2 pi d / ln(2 / TRAPEZOID_TOL),
    about d / 5.97.  Half and step, when given, replace these.
    """
    pole = abs(sys.omega_f / 2.0)
    half = max(10.0 * state.sigma, pole + 30.0 * sys.gamma_e) if half is None else half
    step = _strip_step(min(sys.gamma_e, state.sigma)) if step is None else step
    grid = make_grid(0.0, half, step)
    check_fits("the {}-node cw-SPDC offset grid", SHAPING_BYTES_PER_NODE, grid.count)
    return grid


def pump_plus_grid(sys: LevelSystem, state: PumpShaped, half: float | None = None,
                   step: float | None = None) -> FrequencyGrid:
    """Default sum-frequency grid: centred at omega_f, half-width max(10 sigma, 10 gamma_f).

    The step is min(sigma, gamma_f) / 25; half and step, when given, replace these.
    """
    half = max(10.0 * state.sigma, 10.0 * sys.gamma_f) if half is None else half
    step = min(state.sigma, sys.gamma_f) / 25.0 if step is None else step
    grid = make_grid(sys.omega_f, half, step)
    check_fits("the {}-node pump sum-frequency grid", SHAPING_BYTES_PER_NODE, grid.count)
    return grid


def pump_minus_grid(sys: LevelSystem, state: PumpShaped) -> FrequencyGrid:
    """Default difference-frequency grid, for sampling the 2D pump effective response.

    Centred at 0, it reaches max(10 zeta, 20 gamma_e (2 + Delta)) at a step of
    min(gamma_e, zeta) / 10; flat phase matching (no zeta) takes gamma_e for zeta.
    """
    zeta = state.zeta if state.zeta is not None else sys.gamma_e
    half = max(10.0 * zeta, 20.0 * sys.gamma_e * (2.0 + sys.delta_detuning))
    step = min(sys.gamma_e, zeta) / 10.0
    return make_grid(0.0, half, step)


def _require_symmetric_grid(grid: FrequencyGrid) -> None:
    span = grid.max - grid.min
    if grid.count % 2 == 0 or abs(grid.min + grid.max) > 1e-9 * max(span, 1.0):
        raise ValueError("the reduced cw-SPDC problem needs an odd, zero-centred offset grid")


def eta_infinite_pm(sys: LevelSystem, omega_plus):
    """Integrated kernel (1/2) int T dw- for flat phase matching.

    Equals 2 pi L_f(w+): a Lorentzian line at the two-photon resonance.
    """
    return 2.0 * np.pi * lineshape(sys, "f", omega_plus)


_WEIDEMAN_L = np.sqrt(WEIDEMAN_TERMS / np.sqrt(2.0))


def _weideman_coefficients() -> np.ndarray:
    """The coefficients of p, highest degree first: Fourier coefficients, by one FFT of 4N
    nodes, of (L^2 + t^2) exp(-t^2) at t = L tan(theta / 2)."""
    m = 2 * WEIDEMAN_TERMS
    t = _WEIDEMAN_L * np.tan(np.arange(1 - m, m) * np.pi / (2 * m))
    f = np.concatenate(([0.0], np.exp(-t * t) * (_WEIDEMAN_L**2 + t * t)))
    return (np.fft.fft(np.fft.fftshift(f)).real / (2 * m))[WEIDEMAN_TERMS:0:-1]


_WEIDEMAN_A = _weideman_coefficients()


def _faddeeva(z):
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz) for Im z >= 0, by Weideman's rational series.

    J. A. C. Weideman, SIAM J. Numer. Anal. 31:1497 (1994), with WEIDEMAN_TERMS terms:
    w = 2 p(Z) / (L - iz)^2 + pi^(-1/2) / (L - iz), Z = (L + iz) / (L - iz), within 5e-14
    relative of scipy.special.wofz for 1e-3 <= |z| <= 1e8 on the closed upper half-plane.
    """
    d = 1.0 / (_WEIDEMAN_L - 1j * z)
    big_z = (_WEIDEMAN_L + 1j * z) * d
    p = _WEIDEMAN_A[0] * big_z + _WEIDEMAN_A[1]
    for a in _WEIDEMAN_A[2:]:  # Horner in place: np.polyval allocates at every step
        p *= big_z
        p += a
    p *= 2.0 * d
    p += 1.0 / np.sqrt(np.pi)
    p *= d
    return p


def _exp_minus_square(z):
    """exp(-z^2), its real exponent taken as (y - x)(x + y), accurate where x^2 and y^2 cancel."""
    x, y = z.real, z.imag
    return np.exp((y - x) * (x + y) + 1j * (-2.0 * x * y))


def _erfc(z):
    """Complementary error function: exp(-z^2) w(iz) for Re z >= 0, else 2 - erfc(-z).

    Either way w is taken on the upper half-plane, at +-iz."""
    right = z.real >= 0
    e = _exp_minus_square(z) * _faddeeva(np.where(right, 1j * z, -1j * z))
    return np.where(right, e, 2.0 - e)


def eta_gaussian_pm(sys: LevelSystem, omega_plus, zeta: float, peak_normalized: bool = False):
    """Integrated kernel (1/2) int beta(w-) T dw- for Gaussian phase matching.

    The integral is the flat-phase-matching result times the Faddeeva function
    w(chi / (sqrt(2) zeta)), chi = w+ + 2 i gamma_e (w+ less twice the pole -i gamma_e
    of L_e, whose line sits at 0), evaluated in numpy by Weideman's rational series
    (SIAM J. Numer. Anal. 31:1497, 1994) on the upper half-plane, where
    Im chi = 2 gamma_e > 0 puts every argument; equivalently the
    product of the Gaussian at complex argument chi with the analytically
    continued normal distribution function of i chi / zeta.  With peak_normalized the
    phase-matching profile is taken as exp(-w-^2 / (2 zeta^2)) (value 1 at
    zero), in which case the result tends to the flat result for large
    zeta; otherwise the L2-normalized profile is used, contributing its
    (pi zeta^2)^(-1/4) prefactor.
    """
    if not zeta > 0:
        raise ValueError(f"zeta must be > 0, got {zeta}")
    w = np.asarray(omega_plus)
    chi = w + 2j * sys.gamma_e
    out = eta_infinite_pm(sys, w) * _faddeeva(chi / (np.sqrt(2.0) * zeta))
    if not peak_normalized:
        out = out / (np.pi * zeta**2) ** 0.25
    return out


_CDF_MAX_IMAG = 36.0
_CDF_MAX_REAL = 1e8


def complex_normal_cdf(z):
    """Standard normal distribution function continued to complex argument.

    Computed as erfc(-z / sqrt(2)) / 2, the complex erfc taken from the Faddeeva
    function by Weideman's series (SIAM J. Numer. Anal. 31:1497, 1994) as
    erfc(z) = exp(-z^2) w(iz) for Re z >= 0 and 2 - erfc(-z) otherwise; relative
    accuracy is 1e-12 or better on the validated domain
    |Im z| <= 36, |Re z| <= 1e8 (beyond |Im z| ~ 38 the value overflows
    double precision, growing like exp(|Im z|^2 / 2)).  The error is relative to
    the modulus: a part far smaller than the other (the real part 1/2 near the
    imaginary axis, where the value grows like exp(|Im z|^2 / 2)) is not resolved.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z.imag) > _CDF_MAX_IMAG) or np.any(np.abs(z.real) > _CDF_MAX_REAL):
        raise ValueError(
            f"argument outside validated domain |Im z| <= {_CDF_MAX_IMAG}, "
            f"|Re z| <= {_CDF_MAX_REAL:g}"
        )
    out = 0.5 * _erfc(-z / np.sqrt(2.0))
    return out if out.ndim else complex(out)


def _solution(kind, sys, grid, response, phase, state) -> ShapingSolution:
    """The solution whose shaper cancels `phase`: populations in units of N and their ratio."""
    if not np.all(np.isfinite(response)):  # a sigma, phi or zeta beyond float range
        raise ValueError(f"the effective response of {state} is not finite on the grid")
    weights = quadrature_weights(grid)
    n_norm = normalization(sys)
    p_shaped = float(np.sum(weights * np.abs(response)) ** 2 / n_norm)
    p_unshaped = float(np.abs(np.sum(weights * response)) ** 2 / n_norm)
    if p_unshaped == 0.0:
        warnings.warn("unshaped population vanishes; optimization ratio reported as inf",
                      RuntimeWarning)
    e_opt = p_shaped / p_unshaped if p_unshaped else np.inf
    return ShapingSolution(kind, grid, response, phase, p_shaped, p_unshaped, e_opt)


def optimal_slm(sys: LevelSystem, state: CwSpdc, grid: FrequencyGrid | None = None) -> ShapingSolution:
    """Optimal identical modulators for a cw-SPDC pair.

    The modulator phase is half the phase of the reduced effective response,
    F(Omega) = S(Omega, -Omega) / 2, stored wrapped to (-pi, pi].  The
    shaped population is the squared integral of |W| and the unshaped one
    the squared modulus of the integral of W, both in units of N.
    """
    if grid is None:
        grid = slm_grid(sys, state)
    _require_symmetric_grid(grid)
    with np.errstate(all="ignore"):  # _solution refuses a response that is not finite
        w_resp = effective_response(sys, state, grid.nodes)
    return _solution("slm", sys, grid, w_resp, 0.5 * np.angle(w_resp), state)


def optimal_pump_shaper(sys: LevelSystem, state: PumpShaped,
                        grid_plus: FrequencyGrid | None = None) -> ShapingSolution:
    """Optimal pump-only shaper (the difference-frequency arm is untouched).

    The shaper phase is the phase of xi(w+), the effective response
    integrated over the difference frequency: the pump amplitude times the
    closed form eta_infinite_pm (flat phase matching) or eta_gaussian_pm
    (Gaussian phase matching of width zeta).
    """
    if grid_plus is None:
        grid_plus = pump_plus_grid(sys, state)
    wp = grid_plus.nodes
    with np.errstate(all="ignore"):  # _solution refuses a response that is not finite
        alpha = np.asarray(chirped_pump_profile(state.sigma, state.phi, sys.omega_f)(wp),
                           dtype=complex)
        if state.infinite_pm:
            xi = alpha * eta_infinite_pm(sys, wp)
        else:
            xi = alpha * eta_gaussian_pm(sys, wp, state.zeta)
    return _solution("pump", sys, grid_plus, xi, np.angle(xi), state)


def _check_unit_modulus(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if np.max(np.abs(np.abs(m) - 1.0)) > UNIT_MODULUS_TOL:
        raise ValueError("shaper samples must have unit modulus")
    return m


def shaped_population(sys: LevelSystem, kernel: KernelMatrix, m1, m2) -> float:
    """Population |iint W M1 M2|^2 / N for a sampled 2D effective response.

    m1 and m2 are unit-modulus shaper samples on the kernel's two grids.
    With the optimal phases this equals the squared integral of |W| over
    the grid; with flat shapers it is the unshaped population.
    """
    m1 = _check_unit_modulus(m1)
    m2 = _check_unit_modulus(m2)
    left = np.sqrt(quadrature_weights(kernel.grid1)) * m1
    right = np.sqrt(quadrature_weights(kernel.grid2)) * m2
    amp = left @ kernel.entries @ right
    return float(np.abs(amp) ** 2 / normalization(sys))


def slm_shaped_population(sys: LevelSystem, response_nodes, grid: FrequencyGrid, m1, m2) -> float:
    """Population |int W(Omega,-Omega) M1(Omega) M2(-Omega) dOmega|^2 / N.

    The reduced cw-SPDC form: photon 2 sits at the mirrored offset, so M2
    enters through index reflection on the zero-centred grid.
    """
    _require_symmetric_grid(grid)
    m1 = _check_unit_modulus(m1)
    m2 = _check_unit_modulus(m2)
    w = quadrature_weights(grid)
    amp = np.sum(w * np.asarray(response_nodes) * m1 * m2[::-1])
    return float(np.abs(amp) ** 2 / normalization(sys))


def stationarity_residual(solution: ShapingSolution) -> float:
    """Largest relative pointwise mismatch of the variational fixed-point equation.

    psi^2 M = sqrt(N) conj(W P) int w W M P, with weights psi^2 = sqrt(N) a S, divided by
    sqrt(N) M reads a S = conj(z) int w z: a = |W|, S = int w |W|, z = W M P, with M the
    shaper samples and P = M mirrored ("slm") or 1 ("pump").  N cancels in the relative
    mismatch, so no level system enters.  Nodes where a (so psi^2) falls below 1e-12 of
    its maximum are excluded.  The optimal phase makes the residual vanish to roundoff;
    perturbing the phase at any relevant node raises it to the size of the perturbation.
    Where the effective response vanishes at every node, both sides vanish: 0.
    """
    w = quadrature_weights(solution.grid)
    m = solution.shaper()
    if solution.kind == "slm":
        partner = m[::-1]  # photon 2 sits at the mirrored offset
    elif solution.kind == "pump":
        partner = 1.0  # the difference-frequency arm is unshaped
    else:
        raise ValueError(f"unknown solution kind {solution.kind!r}")
    a = np.abs(solution.response_nodes)
    peak = np.max(a)
    if peak == 0.0:
        return 0.0
    z = solution.response_nodes * m * partner
    keep = a >= PSI_FLOOR * peak
    a_s = a[keep] * np.sum(w * a)
    return float(np.max(np.abs(a_s - np.conj(z[keep]) * np.sum(w * z)) / a_s))
