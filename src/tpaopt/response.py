"""Matter response of a lossy three-level ladder driven by two photons.

A ladder |g> -> |e> -> |f> with decay rates gamma_e, gamma_f responds to a
photon pair through a second-order amplitude kernel T(w1, w2).  This module
evaluates the Lorentzian line shapes, the infinite-time and finite-time
kernels, the one-sided (asymmetric) kernel, the closed-form normalization
N = integral of |T|^2, and the closed-form frequency marginals of the
normalized optimal pair amplitude Phi = conj(T)/sqrt(N).

Internal unit system: gamma_e = 1, omega_e = 0, prefactor kappa = 1 by
default.  Every normalized observable (Schmidt coefficients, entropies,
enhancement and optimization ratios) is invariant under these choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

__all__ = [
    "LevelSystem",
    "ResponseOptions",
    "lineshape",
    "response_infinite",
    "response_finite",
    "response_asymmetric",
    "normalization",
    "marginal_sum",
    "marginal_single",
]


@dataclass(frozen=True)
class LevelSystem:
    """Three-level ladder parametrized by detuning and deviation.

    Attributes
    ----------
    gamma_e : float
        Decay rate of the intermediate level, > 0.  Sets the frequency unit.
    delta_detuning : float
        Dimensionless detuning  Delta = (omega_f - 2 omega_e) / gamma_e.
    delta_deviation : float
        Dimensionless deviation  delta = gamma_f / gamma_e - 2, in (-2, inf).
        delta = -2 (a pole on the real axis) is rejected.
    omega_e : float
        Frequency of the intermediate level (origin of the frequency axis).
    prefactor : float
        Combined coupling constant kappa > 0.  Only the product of the two
        line-shape strengths is physical; both carry sqrt(kappa).
    """

    gamma_e: float = 1.0
    delta_detuning: float = 0.0
    delta_deviation: float = 0.0
    omega_e: float = 0.0
    prefactor: float = 1.0

    def __post_init__(self):
        if not self.gamma_e > 0:
            raise ValueError(f"gamma_e must be > 0, got {self.gamma_e}")
        if not self.delta_deviation > -2:
            raise ValueError(
                "delta_deviation must be > -2 (gamma_f = 0 puts the final-state "
                f"pole on the real axis), got {self.delta_deviation}"
            )
        if not self.prefactor > 0:
            raise ValueError(f"prefactor must be > 0, got {self.prefactor}")
        for name in ("gamma_e", "delta_detuning", "delta_deviation", "omega_e", "prefactor"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    @property
    def gamma_f(self) -> float:
        """Decay rate of the final level, (2 + delta) * gamma_e."""
        return (2.0 + self.delta_deviation) * self.gamma_e

    @property
    def omega_f(self) -> float:
        """Frequency of the final level, 2 omega_e + Delta * gamma_e (derived)."""
        return 2.0 * self.omega_e + self.delta_detuning * self.gamma_e

    @property
    def coupling_e(self) -> float:
        """Line-shape strength c_e = sqrt(kappa) of the g -> e transition."""
        return float(np.sqrt(self.prefactor))

    @property
    def coupling_f(self) -> float:
        """Line-shape strength c_f = sqrt(kappa) of the e -> f transition."""
        return float(np.sqrt(self.prefactor))


@dataclass(frozen=True)
class ResponseOptions:
    """Evaluation options of `response_finite`: the elapsed interaction time t_minus_t0."""

    t_minus_t0: float = 0.0

    def __post_init__(self):
        if self.t_minus_t0 < 0:
            raise ValueError(f"t_minus_t0 must be >= 0, got {self.t_minus_t0}")


def lineshape(sys: LevelSystem, level: str, omega):
    """Complex Lorentzian line shape i c_s / (omega - omega_s + i gamma_s).

    Parameters
    ----------
    sys : LevelSystem
    level : {"e", "f"}
    omega : array_like
        Frequency argument(s).

    Returns
    -------
    complex ndarray or scalar
    """
    omega = np.asarray(omega)
    if level == "f":
        return 1j * sys.coupling_f / (omega - sys.omega_f + 1j * sys.gamma_f)
    if level == "e":
        return 1j * sys.coupling_e / (omega - sys.omega_e + 1j * sys.gamma_e)
    raise ValueError(f"level must be 'e' or 'f', got {level!r}")


def response_asymmetric(sys: LevelSystem, omega1, omega2):
    """One-sided kernel Q(w1, w2) = L_e(w1) L_f(w1 + w2).

    Photon 1 opens the transition, photon 2 completes it.  The symmetrized
    identity Q(a, b) + Q(b, a) == response_infinite(a, b) holds exactly.
    """
    w1 = np.asarray(omega1)
    return lineshape(sys, "e", w1) * lineshape(sys, "f", w1 + np.asarray(omega2))


def response_infinite(sys: LevelSystem, omega1, omega2):
    """Infinite-interaction-time kernel [L_e(w1) + L_e(w2)] L_f(w1 + w2).

    Built as Q(w1, w2) + Q(w2, w1) so both the exchange symmetry and the
    composition identity with `response_asymmetric` are bit-exact.
    """
    return response_asymmetric(sys, omega1, omega2) + response_asymmetric(sys, omega2, omega1)


def response_finite(sys: LevelSystem, opts: ResponseOptions, omega1, omega2):
    """Finite-interaction-time kernel, switched on at t0 and read out at t.

    Evaluates the two-term bracket plus its (w1 <-> w2) image; vanishes
    identically at t = t0 and converges to `response_infinite` once
    gamma_e (t - t0) and gamma_f (t - t0) are large.  The separable phase
    exp(-i (w1+w2) tau), which has no physical meaning, is removed; the
    remaining time dependence is kept because it is not separable.
    """
    tau = opts.t_minus_t0
    w1 = np.asarray(omega1, dtype=complex)
    w2 = np.asarray(omega2, dtype=complex)
    decay_f = np.exp(-1j * (sys.omega_f - 1j * sys.gamma_f) * tau)
    w0, g = sys.omega_e, sys.gamma_e
    le, lf = partial(lineshape, sys, "e"), partial(lineshape, sys, "f")

    def one_sided(a, b):
        phase_ab = np.exp(-1j * (a + b) * tau)
        decay_e = np.exp(-1j * (b + w0 - 1j * g) * tau)
        return le(a) * ((phase_ab - decay_f) * lf(a + b) - (decay_e - decay_f) * lf(b + w0))

    return (one_sided(w1, w2) + one_sided(w2, w1)) * np.exp(1j * (w1 + w2) * tau)


def normalization(sys: LevelSystem) -> float:
    """Closed-form N = integral of |T|^2 = 2 pi^2 kappa^2 / (gamma_e gamma_f).

    This is the maximal final-state population, reached by the optimal pair
    amplitude Phi = conj(T)/sqrt(N).  The reduced constant follows from the
    line-shape convention of `lineshape` (per-line factor 1/sqrt(2 pi) folded
    into kappa) and is validated by quadrature in the test suite; it is
    independent of the detuning.
    """
    kappa = sys.coupling_e * sys.coupling_f
    return 2.0 * np.pi**2 * kappa**2 / (sys.gamma_e * sys.gamma_f)


def marginal_sum(sys: LevelSystem, omega_plus):
    """Frequency-sum density of |Phi|^2: Lorentzian of width gamma_f at omega_f."""
    w = np.asarray(omega_plus)
    gf = sys.gamma_f
    return (gf / np.pi) / ((w - sys.omega_f) ** 2 + gf**2)


def marginal_single(sys: LevelSystem, omega):
    """Single-photon density of |Phi|^2 (closed form).

    Two peaks sit near omega_e and omega_f - omega_e with widths gamma_e and
    gamma_e + gamma_f; at Delta = delta = 0 the expression collapses to a
    single Lorentzian of width gamma_e.
    """
    w = np.asarray(omega)
    ge, gf = sys.gamma_e, sys.gamma_f
    we, wf = sys.omega_e, sys.omega_f
    num = ge * (ge + gf) * (4 * ge + gf) + ge * (wf - 2 * we) ** 2 + gf * (w - we) ** 2
    den = 2 * np.pi * ((w - we) ** 2 + ge**2) * ((w - wf + we) ** 2 + (ge + gf) ** 2)
    return num / den
