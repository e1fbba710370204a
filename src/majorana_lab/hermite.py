"""Stable evaluation of the normalized Hermite-Gauss functions.

Every bound state in this package is built from the L2-normalized functions

    phi_n(y) = (omega/pi)^(1/4) / sqrt(2^n n!) * exp(-omega y^2 / 2) * H_n(sqrt(omega) y).

A spinor needs phi_n and phi_{n-1} at the same points, and one sweep of the
recurrence yields both.  Factorials are never materialized: each iterate is itself
a phi_k value of order 1, while 2^n n! leaves the float range past n = 150 and the
raw H_n(u) grows like (2u)^n.

A coordinate is one finite real number (an int, a float, a numpy scalar, a Fraction).  Every
value of phi_n, of a spinor, a density or a ladder map passes through the one closure of
hermite_pair_evaluator, which takes it by common.coordinate and evaluates it in pure Python
(math.exp, float arithmetic), so every value is a float.
"""

import math

from .common import coordinate, level, positive_finite, scaled_root


def hermite_norm_pair(n, omega, y):
    """(phi_n(y), phi_{n-1}(y)) for frequency omega > 0 from one recurrence sweep; phi_{-1} = 0.

    The 1/sqrt(2^n n!) normalization and the Gaussian envelope are folded
    into the recurrence start, so every iterate is itself a phi_k value and
    stays O(1) regardless of n, where the naive H_n / sqrt(2^n n!) route
    overflows once 2^n n! does, past n = 150.
    """
    return hermite_pair_evaluator(n, omega)(y)


def hermite_pair_evaluator(n, omega):
    """y -> hermite_norm_pair(n, omega, y): the coordinate rule, an exp and the recurrence."""
    n = level(n)
    positive_finite(omega, "omega")
    root, norm = math.sqrt(omega), (omega / math.pi) ** 0.25
    # phi_{k+1} = a u phi_k - b phi_{k-1} with a = sqrt(2/(k+1)), b = sqrt(k/(k+1)), for k < n
    coefficients = [(math.sqrt(2.0 / (k + 1)), math.sqrt(k / (k + 1.0))) for k in range(n)]

    def pair(y):
        u = root * coordinate(y)
        phi, phi_prev = norm * math.exp(-0.5 * u * u), 0.0
        if phi == 0.0:  # every phi_k underflows with it, where a * u may overflow to inf
            return phi, phi_prev
        for a, b in coefficients:
            phi, phi_prev = a * u * phi - b * phi_prev, phi
        return phi, phi_prev
    return pair


def hermite_norm_fn_and_derivative(n, omega, y):
    """(phi_n(y), phi_n'(y)) from one sweep, the derivative evaluated analytically.

    Uses H_n' = 2n H_{n-1}, which in normalized form reads
    phi_n'(y) = -omega y phi_n(y) + sqrt(2 n omega) phi_{n-1}(y).  y phi is formed first:
    it is 0 where phi underflows, while omega y alone may overflow.
    """
    phi, phi_prev = hermite_norm_pair(n, omega, y)  # refuses a y that is not a finite real number
    slope = -omega * (float(y) * phi)
    if n > 0:
        slope = slope + sqrt_2n_omega(n, omega) * phi_prev
    return phi, slope


def sqrt_2n_omega(n, omega):
    """sqrt(2 n omega) as an exactly scaled root (common.scaled_root), finite for every omega
    and 0 at n = 0: the plain root's bits wherever 2 n omega is a normal float."""
    return scaled_root((2.0 * n, omega))
