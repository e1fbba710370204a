"""Stable evaluation of the normalized Hermite-Gauss functions.

Every bound state in this package is built from the L2-normalized functions

    phi_n(y) = (omega/pi)^(1/4) / sqrt(2^n n!) * exp(-omega y^2 / 2) * H_n(sqrt(omega) y).

A spinor needs phi_n and phi_{n-1} at the same points, and one sweep of the
recurrence yields both.  Factorials are never materialized: 2^n n! overflows
double precision long before n = 64, which this module must support.
"""

import math

import numpy as np


def hermite_norm_pair(n, omega, y):
    """(phi_n(y), phi_{n-1}(y)) for frequency omega > 0 from one recurrence sweep; phi_{-1} = 0.

    The 1/sqrt(2^n n!) normalization and the Gaussian envelope are folded
    into the recurrence start, so every iterate is itself a phi_k value and
    stays O(1) regardless of n (no overflow for n >~ 20, unlike the naive
    H_n / sqrt(2^n n!) route).
    """
    n = _check_order(n)
    if not (omega > 0.0 and math.isfinite(omega)):
        raise ValueError("omega must be positive and finite")
    y, scalar = _as_array(y)
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")

    u = math.sqrt(omega) * y
    phi = (omega / math.pi) ** 0.25 * np.exp(-0.5 * u * u)
    phi_prev = np.zeros_like(phi)
    if n > 0:
        phi, phi_prev = math.sqrt(2.0) * u * phi, phi
    for k in range(1, n):
        phi, phi_prev = (
            math.sqrt(2.0 / (k + 1)) * u * phi - math.sqrt(k / (k + 1.0)) * phi_prev,
            phi,
        )
    return (float(phi), float(phi_prev)) if scalar else (phi, phi_prev)


def hermite_norm_fn(n, omega, y):
    """Normalized Hermite-Gauss function phi_n(y) for frequency omega > 0."""
    return hermite_norm_pair(n, omega, y)[0]


def hermite_norm_fn_and_derivative(n, omega, y):
    """(phi_n(y), phi_n'(y)) from one sweep, the derivative evaluated analytically.

    Uses H_n' = 2n H_{n-1}, which in normalized form reads
    phi_n'(y) = -omega y phi_n(y) + sqrt(2 n omega) phi_{n-1}(y).
    """
    phi, phi_prev = hermite_norm_pair(n, omega, y)
    slope = -omega * np.asarray(y, dtype=float) * phi
    if n > 0:
        slope = slope + math.sqrt(2.0 * n * omega) * phi_prev
    return phi, (float(slope) if np.ndim(y) == 0 else slope)


def hermite_norm_fn_derivative(n, omega, y):
    """d/dy of phi_n(y); see hermite_norm_fn_and_derivative."""
    return hermite_norm_fn_and_derivative(n, omega, y)[1]


def _check_order(n):
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise TypeError("order n must be an integer")
    if n < 0:
        raise ValueError("order n must be >= 0")
    return int(n)


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0
