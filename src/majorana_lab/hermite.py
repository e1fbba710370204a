"""Stable evaluation of the normalized Hermite-Gauss functions.

Every bound state in this package is built from the L2-normalized functions

    phi_n(y) = (omega/pi)^(1/4) / sqrt(2^n n!) * exp(-omega y^2 / 2) * H_n(sqrt(omega) y).

A spinor needs phi_n and phi_{n-1} at the same points, and one sweep of the
recurrence yields both.  Factorials are never materialized: 2^n n! overflows
double precision long before n = 64, which this module must support.

A coordinate is evaluated in pure Python (math.exp, float arithmetic); an
array of coordinates maps that float evaluation over its elements
(common.elementwise), so an element gives the same bits as the float it holds.
"""

import functools
import math

from .common import elementwise, level, positive_finite


def hermite_norm_pair(n, omega, y):
    """(phi_n(y), phi_{n-1}(y)) for frequency omega > 0 from one recurrence sweep; phi_{-1} = 0.

    The 1/sqrt(2^n n!) normalization and the Gaussian envelope are folded
    into the recurrence start, so every iterate is itself a phi_k value and
    stays O(1) regardless of n (no overflow for n >~ 20, unlike the naive
    H_n / sqrt(2^n n!) route).  A scalar y gives floats, an array y arrays.
    """
    return elementwise(hermite_pair_evaluator(n, omega), y, outputs=2)


def hermite_pair_evaluator(n, omega):
    """y -> hermite_norm_pair(n, omega, y) for a float y: an exp and the recurrence per point."""
    n = level(n)
    positive_finite(omega, "omega")
    root, norm, coefficients = math.sqrt(omega), (omega / math.pi) ** 0.25, _coefficients(n)

    def pair(y):
        if not math.isfinite(y):
            raise ValueError("y must be finite")
        u = root * y
        phi, phi_prev = norm * math.exp(-0.5 * u * u), 0.0
        if phi == 0.0:  # every phi_k underflows with it, where a * u may overflow to inf
            return phi, phi_prev
        for a, b in coefficients:
            phi, phi_prev = a * u * phi - b * phi_prev, phi
        return phi, phi_prev
    return pair


def hermite_norm_fn(n, omega, y):
    """Normalized Hermite-Gauss function phi_n(y) for frequency omega > 0."""
    return hermite_norm_pair(n, omega, y)[0]


def hermite_norm_fn_and_derivative(n, omega, y):
    """(phi_n(y), phi_n'(y)) from one sweep, the derivative evaluated analytically.

    Uses H_n' = 2n H_{n-1}, which in normalized form reads
    phi_n'(y) = -omega y phi_n(y) + sqrt(2 n omega) phi_{n-1}(y).  y phi is formed first:
    it is 0 where phi underflows, while omega y alone may overflow.
    """
    phi, phi_prev = hermite_norm_pair(n, omega, y)
    slope = -omega * (elementwise(float, y) * phi)  # y as a float or a float array
    if n > 0:
        slope = slope + sqrt_2n_omega(n, omega) * phi_prev
    return phi, slope


def sqrt_2n_omega(n, omega):
    """sqrt(2 n omega), formed level first, so n = 0 gives 0 at any omega, and as
    sqrt(2 n) sqrt(omega) where 2 n omega overflows."""
    rate = 2.0 * n * omega
    return math.sqrt(rate) if rate < math.inf else math.sqrt(2.0 * n) * math.sqrt(omega)


@functools.lru_cache(maxsize=128)
def _coefficients(n):
    """(sqrt(2/(k+1)), sqrt(k/(k+1))) for k < n: phi_{k+1} = a u phi_k - b phi_{k-1}."""
    return tuple((math.sqrt(2.0 / (k + 1)), math.sqrt(k / (k + 1.0))) for k in range(n))

