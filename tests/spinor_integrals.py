"""The norm and the Fourier transform of a spinor state by direct quadrature.

The library gives the momentum spinor in closed form (the Hermite-Gauss Fourier
eigenrelation) and never integrates a density for its norm.  These integrate the position
spinor itself, so a test that compares the two checks the closed form instead of assuming it.
"""

import math

import numpy as np

from majorana_lab.quadrature import integrate, truncation_radius
from majorana_lab.spinor import density_evaluator, position_spinor_at_phase


def norm_integral(state, theta, space):
    """The integral of the probability density over the space's coordinate."""
    freq = state.omega if space == "position" else 1.0 / state.omega
    radius = truncation_radius(freq, state.n + 1, tail_tol=1e-13)
    value, _ = integrate(density_evaluator(state, theta, space), radius, 1e-11)
    return value


def fourier_numeric(state, theta, p):
    """(1/sqrt(2 pi)) integral of psi(y) e^{ipy} dy, by quadrature per component."""
    radius = truncation_radius(state.omega, state.n + 1, tail_tol=1e-13)
    comps = []
    for pick in (lambda v: v.comp1, lambda v: v.comp2):
        re, _ = integrate(lambda y: pick(position_spinor_at_phase(state, y, theta)) * np.cos(p * y), radius, 1e-11)
        im, _ = integrate(lambda y: pick(position_spinor_at_phase(state, y, theta)) * np.sin(p * y), radius, 1e-11)
        comps.append((re + 1j * im) / math.sqrt(2 * math.pi))
    return comps
