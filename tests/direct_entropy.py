"""Shannon entropy by direct quadrature at the actual omega and space.

The library integrates once at omega = 1, with its own Gauss-Kronrod rule, and shifts
the result by -/+ ln(omega)/2.  This oracle integrates -rho ln rho of the density at
omega itself, in position or in momentum space, with scipy's QUADPACK, so a test that
compares the two checks the scaling law and the integrator instead of assuming them.
"""

from scipy.integrate import quad

from majorana_lab.quadrature import truncation_radius, xlogx
from majorana_lab.spinor import SpinorState, density_evaluator


def direct_entropy(n, omega, theta, space, tol=1e-10):
    """-integral(rho ln rho) over the space's coordinate, rho at frequency omega."""
    density = density_evaluator(SpinorState(n=n, omega=omega), theta, space)
    freq = omega if space == "position" else 1.0 / omega
    radius = truncation_radius(freq, n, tail_tol=min(tol * 1e-2, 1e-12))
    value, err = quad(lambda u: xlogx(density(u)), -radius, radius, epsabs=tol, epsrel=0.0, limit=200)
    if not err <= tol:
        raise RuntimeError(f"QUADPACK error estimate {err:g} exceeds tol={tol:g}")
    return -value
