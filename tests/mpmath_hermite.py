"""phi_n and the spinor density at 40 digits by mpmath, independent of the package.

H_n is mpmath's (DLMF 18.5), not the normalized recurrence; omega, theta and y may be floats
or mpmath numbers.
"""

import mpmath


def phi(n, omega, y):
    """phi_n(y) at frequency omega, as a 40-digit mpmath number."""
    with mpmath.workdps(40):
        omega, y = mpmath.mpf(omega), mpmath.mpf(y)
        u = mpmath.sqrt(omega) * y
        return ((omega / mpmath.pi) ** 0.25 / mpmath.sqrt(2**n * mpmath.factorial(n))
                * mpmath.exp(-u * u / 2) * mpmath.hermite(n, u))


def density(n, omega, theta, y):
    """rho = sin^2(theta) phi_n^2 + cos^2(theta) phi_{n-1}^2, or phi_0^2 at n = 0, at 40 digits."""
    with mpmath.workdps(40):
        if n == 0:
            return phi(0, omega, y) ** 2
        theta = mpmath.mpf(theta)
        return (mpmath.sin(theta) ** 2 * phi(n, omega, y) ** 2
                + mpmath.cos(theta) ** 2 * phi(n - 1, omega, y) ** 2)
