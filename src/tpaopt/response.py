"""Matter response of a lossy three-level ladder driven by two photons.

A ladder |g> -> |e> -> |f> with decay rates gamma_e, gamma_f responds to a
photon pair through a second-order amplitude kernel T(w1, w2).  This module
evaluates the Lorentzian line shapes, the infinite-time and finite-time
kernels, the one-sided (asymmetric) kernel, the closed-form normalization
N = integral of |T|^2, and the closed-form frequency marginals of the
normalized optimal pair amplitude Phi = conj(T)/sqrt(N).

Internal units: each photon frequency is counted from the intermediate level
omega_e, so the g -> e line sits at 0 and the two-photon resonance at
omega_f = Delta gamma_e; both line shapes have unit strength, and gamma_e
(1 by default) is the frequency unit.  Every normalized observable (Schmidt
coefficients, entropies, enhancement and optimization ratios) is invariant
under the unit, and the dropped origin and coupling constant cancel in all of
them.
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
    """

    gamma_e: float = 1.0
    delta_detuning: float = 0.0
    delta_deviation: float = 0.0

    def __post_init__(self):
        if not self.gamma_e > 0:
            raise ValueError(f"gamma_e must be > 0, got {self.gamma_e}")
        if not self.delta_deviation > -2:
            raise ValueError(
                "delta_deviation must be > -2 (gamma_f = 0 puts the final-state "
                f"pole on the real axis), got {self.delta_deviation}"
            )
        for name in ("gamma_e", "delta_detuning", "delta_deviation"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    @property
    def gamma_f(self) -> float:
        """Decay rate of the final level, (2 + delta) * gamma_e."""
        return (2.0 + self.delta_deviation) * self.gamma_e

    @property
    def omega_f(self) -> float:
        """Two-photon resonance Delta * gamma_e, counted from 2 omega_e (derived)."""
        return self.delta_detuning * self.gamma_e


@dataclass(frozen=True)
class ResponseOptions:
    """Evaluation options of `response_finite`: the elapsed interaction time t_minus_t0."""

    t_minus_t0: float = 0.0

    def __post_init__(self):
        if self.t_minus_t0 < 0:
            raise ValueError(f"t_minus_t0 must be >= 0, got {self.t_minus_t0}")


def lineshape(sys: LevelSystem, level: str, omega):
    """Complex Lorentzian line shape i / (omega - omega_s + i gamma_s), omega_e = 0.

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
        return 1j / (omega - sys.omega_f + 1j * sys.gamma_f)
    if level == "e":
        return 1j / (omega + 1j * sys.gamma_e)
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
    le, lf = partial(lineshape, sys, "e"), partial(lineshape, sys, "f")

    def one_sided(a, b):
        phase_ab = np.exp(-1j * (a + b) * tau)
        decay_e = np.exp(-1j * (b - 1j * sys.gamma_e) * tau)
        return le(a) * ((phase_ab - decay_f) * lf(a + b) - (decay_e - decay_f) * lf(b))

    return (one_sided(w1, w2) + one_sided(w2, w1)) * np.exp(1j * (w1 + w2) * tau)


def normalization(sys: LevelSystem) -> float:
    """Closed-form N = integral of |T|^2 = 2 pi^2 / (gamma_e gamma_f).

    This is the maximal final-state population, reached by the optimal pair
    amplitude Phi = conj(T)/sqrt(N).  The constant follows from the unit
    strengths of `lineshape` and is validated by quadrature in the test
    suite; it is independent of the detuning.
    """
    return 2.0 * np.pi**2 / (sys.gamma_e * sys.gamma_f)


def marginal_sum(sys: LevelSystem, omega_plus):
    """Frequency-sum density of |Phi|^2: Lorentzian of width gamma_f at omega_f."""
    w = np.asarray(omega_plus)
    gf = sys.gamma_f
    return (gf / np.pi) / ((w - sys.omega_f) ** 2 + gf**2)


def marginal_single(sys: LevelSystem, omega):
    """Single-photon density of |Phi|^2 (closed form).

    Two peaks sit near 0 and omega_f with widths gamma_e and gamma_e +
    gamma_f; at Delta = delta = 0 the expression collapses to a single
    Lorentzian of width gamma_e.
    """
    w = np.asarray(omega)
    ge, gf, wf = sys.gamma_e, sys.gamma_f, sys.omega_f
    num = ge * (ge + gf) * (4 * ge + gf) + ge * wf**2 + gf * w**2
    den = 2 * np.pi * (w**2 + ge**2) * ((w - wf) ** 2 + (ge + gf) ** 2)
    return num / den
