"""Shannon entropies by mpmath, the package's independent entropy oracle.

mpmath_unit_entropy gives S_1(n, theta) = -integral(rho ln rho dy) at omega = 1 to 30 digits,
with rho = sin^2(theta) phi_n^2 + cos^2(theta) phi_{n-1}^2 (phi_0^2 alone at n = 0), computed
apart from the package.  direct_entropy integrates the package's own float density at omega
itself, in position or in momentum space, so a test that compares it with the library's
S_1 -/+ ln(omega)/2 checks the scaling law and the qk15 integrator instead of assuming them.

rho ln rho bends sharply near the zeros of H_n and H_{n-1} (it has kinks there at theta in
{0, pi/2}, where one component vanishes), so both integrals are split at those zeros.
"""

import functools

import mpmath
import numpy as np

from majorana_lab.quadrature import truncation_radius, xlogx
from majorana_lab.spinor import SpinorState, density_evaluator


def positive_hermite_zeros(levels, freq=1.0):
    """The positive zeros of H_m for each m in levels, scaled by 1/sqrt(freq), sorted."""
    return sorted(float(z) / freq**0.5 for m in levels if m > 0
                  for z in np.polynomial.hermite.hermgauss(m)[0] if z > 0)


@functools.lru_cache(maxsize=None)
def mpmath_unit_entropy(n, theta):
    """S_1(n, theta) as an mpmath number with 30 significant digits."""
    with mpmath.workdps(30):
        theta = mpmath.mpf(theta)
        # a weight below 1e-30 (cos^2 at the float nearest pi/2) moves S_1 by less than
        # the 30 digits resolve, so its component is dropped
        pairs = ((n, mpmath.sin(theta) ** 2), (n - 1, mpmath.cos(theta) ** 2)) if n else ((0, 1),)
        weights = {m: w / (2**m * mpmath.factorial(m) * mpmath.sqrt(mpmath.pi))
                   for m, w in pairs if w > 1e-30}

        def minus_rho_ln_rho(y):
            rho = sum(w * mpmath.hermite(m, y) ** 2 for m, w in weights.items()) * mpmath.exp(-y * y)
            return -rho * mpmath.log(rho) if rho > 0 else mpmath.mpf(0)

        # rho is even, so [0, inf) is integrated and doubled
        return 2 * mpmath.quad(minus_rho_ln_rho, [0, *positive_hermite_zeros(weights), mpmath.inf])


@functools.lru_cache(maxsize=None)
def direct_entropy(n, omega, theta, space, tol=1e-10):
    """-integral(rho ln rho) over the space's whole truncated line [-R, R], rho the package's
    float density at frequency omega, by mpmath.quad at 20 digits; a RuntimeError if mpmath's
    error estimate exceeds tol."""
    density = density_evaluator(SpinorState(n=n, omega=omega), theta, space)
    freq = omega if space == "position" else 1.0 / omega
    radius = truncation_radius(freq, n, tail_tol=min(tol * 1e-2, 1e-12))
    zeros = [z for z in positive_hermite_zeros((n, n - 1), freq) if z < radius]
    with mpmath.workdps(20):
        value, err = mpmath.quad(lambda u: xlogx(density(float(u))),
                                 [-radius, *(-z for z in reversed(zeros)), *zeros, radius],
                                 error=True)
    if not err <= tol:
        raise RuntimeError(f"mpmath.quad error estimate {float(err):g} exceeds tol={tol:g}")
    return -float(value)
