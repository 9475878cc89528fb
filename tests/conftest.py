"""Shared oracles for the test suite.

The marginal and distribution-function oracles here are deliberately
independent of the closed forms they are used to check: they integrate the
squared response kernel by brute-force trapezoidal quadrature on wide, fine
auxiliary grids, or integrate the Gaussian along a straight contour with
an adaptive rule.
"""

import warnings

import numpy as np
from scipy import integrate

from tpaopt import (
    FrequencyGrid,
    SchmidtDecomposition,
    make_grid,
    normalization,
    response_infinite,
)


def fine_axis(half, step):
    n = int(round(half / step))
    return step * np.arange(-n, n + 1)


def quad_marginal_single(sys, omegas, half=2000.0, step=0.01, chunk=8):
    """Brute-force marginal of |Phi|^2 over the partner frequency."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    x2 = fine_axis(half, step)
    w2 = np.full(x2.size, step)
    w2[0] = w2[-1] = step / 2.0
    n_norm = normalization(sys)
    out = np.empty(omegas.size)
    for i0 in range(0, omegas.size, chunk):
        sl = slice(i0, min(i0 + chunk, omegas.size))
        t = response_infinite(sys, omegas[sl][:, None], x2[None, :])
        out[sl] = (np.abs(t) ** 2 / n_norm) @ w2
    return out


def quad_marginal_sum(sys, omega_plus, half=4000.0, step=0.05, chunk=8):
    """Brute-force frequency-sum density: (1/2) integral over omega_- of |Phi|^2."""
    wp = np.atleast_1d(np.asarray(omega_plus, dtype=float))
    x = fine_axis(half, step)
    w = np.full(x.size, step)
    w[0] = w[-1] = step / 2.0
    n_norm = normalization(sys)
    out = np.empty(wp.size)
    for i0 in range(0, wp.size, chunk):
        sl = slice(i0, min(i0 + chunk, wp.size))
        t = response_infinite(sys, (wp[sl][:, None] + x[None, :]) / 2.0,
                              (wp[sl][:, None] - x[None, :]) / 2.0)
        out[sl] = 0.5 * ((np.abs(t) ** 2 / n_norm) @ w)
    return out


def contour_normal_cdf(z):
    """Normal distribution function by adaptive quadrature along the ray 0 -> z."""
    z = complex(z)

    def f_re(s):
        return np.real(np.exp(-((s * z) ** 2) / 2.0) * z)

    def f_im(s):
        return np.imag(np.exp(-((s * z) ** 2) / 2.0) * z)

    with warnings.catch_warnings():
        # pushing quad to the roundoff floor is intentional here
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        re, _ = integrate.quad(f_re, 0.0, 1.0, epsabs=1e-15, epsrel=1e-13, limit=500)
        im, _ = integrate.quad(f_im, 0.0, 1.0, epsabs=1e-15, epsrel=1e-13, limit=500)
    return 0.5 + (re + 1j * im) / np.sqrt(2.0 * np.pi)


def synthetic_decomposition(coefficients):
    """Decomposition carrying only a coefficient vector, for spectrum arithmetic."""
    r = np.asarray(coefficients, dtype=float)
    grid = FrequencyGrid(0.0, 1.0, 2)
    empty = np.zeros((r.size, 2), dtype=complex)
    return SchmidtDecomposition(
        coefficients=r, modes_1=empty, modes_2=empty,
        grid1=grid, grid2=grid, residual=0.0,
    )
