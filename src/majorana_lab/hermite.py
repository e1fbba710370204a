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
(math.exp, float arithmetic), so every value is a float; sqrt(2 n omega) is common.energy.
"""

import math

from .common import coordinate, level


def hermite_pair_evaluator(n, omega):
    """y -> (phi_n(y), phi_{n-1}(y)) at frequency omega > 0, with phi_{-1} = 0, both 0 wherever
    exp(-omega y^2/2) underflows: n (0 to common.MAX_LEVEL) and omega are checked once, and each
    y costs the coordinate rule, an exp and one sweep of the recurrence."""
    n, omega = level(n), coordinate(omega, "omega", positive=True)
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

