"""S_1(n, theta) at 30 digits by mpmath, independent of the package.

S_1 = -integral(rho ln rho dy) at omega = 1, with rho = sin^2(theta) phi_n^2 + cos^2(theta)
phi_{n-1}^2 (phi_0^2 alone at n = 0).  rho is even, and rho ln rho bends sharply near the
zeros of H_n and H_{n-1} (it has kinks there at theta in {0, pi/2}, where one component
vanishes), so mpmath.quad integrates [0, inf) split at those zeros.
"""

import functools

import numpy as np


@functools.lru_cache(maxsize=None)
def mpmath_unit_entropy(n, theta):
    """S_1(n, theta) as an mpmath number with 30 significant digits."""
    import mpmath
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

        zeros = sorted(z for m in weights if m > 0 for z in np.polynomial.hermite.hermgauss(m)[0]
                       if z > 0)
        return 2 * mpmath.quad(minus_rho_ln_rho, [0, *map(float, zeros), mpmath.inf])
